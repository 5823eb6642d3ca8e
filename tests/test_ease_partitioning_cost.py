"""Tests for the partitioning run-time cost model."""

import numpy as np
import pytest

from repro.generators import generate_rmat
from repro.ease import PartitioningCostModel, measure_wall_clock_partitioning_time
from repro.partitioning import ALL_PARTITIONER_NAMES


@pytest.fixture(scope="module")
def graph():
    return generate_rmat(512, 5000, seed=4)


class TestPartitioningCostModel:
    def test_all_partitioners_have_a_cost(self, graph):
        model = PartitioningCostModel()
        for name in ALL_PARTITIONER_NAMES:
            assert model.estimate_seconds(graph, name, 8) > 0

    def test_unknown_partitioner_raises(self, graph):
        with pytest.raises(ValueError):
            PartitioningCostModel().estimate_seconds(graph, "metis", 8)

    def test_invalid_partition_count_raises(self, graph):
        with pytest.raises(ValueError):
            PartitioningCostModel().estimate_seconds(graph, "ne", 0)

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            PartitioningCostModel(noise=-0.1)

    def test_category_ordering_matches_paper(self, graph):
        """Figure 1: stateless < stateful streaming < hybrid < in-memory."""
        model = PartitioningCostModel(noise=0.0)
        seconds = {name: model.estimate_seconds(graph, name, 8)
                   for name in ALL_PARTITIONER_NAMES}
        assert seconds["2d"] < seconds["hdrf"]
        assert seconds["hdrf"] < seconds["hep100"]
        assert seconds["2ps"] < seconds["ne"]
        assert seconds["hep100"] <= seconds["ne"]
        assert seconds["hep1"] <= seconds["hep100"]

    def test_cost_scales_with_graph_size(self):
        model = PartitioningCostModel(noise=0.0)
        small = generate_rmat(256, 2000, seed=1)
        large = generate_rmat(256, 20000, seed=1)
        for name in ("2d", "ne", "hep10"):
            assert (model.estimate_seconds(large, name, 8)
                    > 5 * model.estimate_seconds(small, name, 8))

    def test_deterministic(self, graph):
        model = PartitioningCostModel()
        a = model.estimate_seconds(graph, "ne", 8)
        b = PartitioningCostModel().estimate_seconds(graph, "ne", 8)
        assert a == b

    def test_graph_name_argument_keys_the_jitter(self, graph):
        model = PartitioningCostModel()
        renamed = generate_rmat(512, 5000, seed=4)
        renamed.name = "some-other-name"
        assert (model.estimate_seconds(graph, "ne", 8,
                                       graph_name="some-other-name")
                == model.estimate_seconds(renamed, "ne", 8))
        assert (model.estimate_seconds(graph, "ne", 8, graph_name=graph.name)
                == model.estimate_seconds(graph, "ne", 8))
        assert (model.estimate_seconds(renamed, "ne", 8)
                != model.estimate_seconds(graph, "ne", 8))

    def test_hdrf_cost_grows_with_partition_count(self, graph):
        model = PartitioningCostModel(noise=0.0)
        assert (model.estimate_seconds(graph, "hdrf", 64)
                > model.estimate_seconds(graph, "hdrf", 4))

    def test_hep_in_memory_fraction_monotone_in_tau(self, graph):
        low = PartitioningCostModel._hep_in_memory_fraction(graph, 1.0)
        high = PartitioningCostModel._hep_in_memory_fraction(graph, 100.0)
        assert 0.0 <= low <= high <= 1.0


class TestWallClockMeasurement:
    def test_returns_positive_time(self, graph):
        seconds = measure_wall_clock_partitioning_time(graph, "2d", 4)
        assert seconds > 0
