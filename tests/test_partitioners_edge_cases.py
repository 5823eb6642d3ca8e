"""Edge-case and robustness tests for the partitioners and metrics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import Graph
from repro.generators import generate_rmat, generate_erdos_renyi
from repro.partitioning import (
    ALL_PARTITIONER_NAMES,
    HDRFPartitioner,
    HybridEdgePartitioner,
    NeighborhoodExpansionPartitioner,
    TwoPhaseStreamingPartitioner,
    compute_quality_metrics,
    create_partitioner,
    edge_balance,
    replication_factor,
)


def _self_loop_graph():
    return Graph.from_edges([(0, 0), (1, 1), (0, 1), (1, 2)], num_vertices=3)


def _multi_edge_graph():
    return Graph.from_edges([(0, 1)] * 10 + [(2, 3)] * 10)


class TestDegenerateGraphs:
    @pytest.mark.parametrize("name", ALL_PARTITIONER_NAMES)
    def test_self_loops_are_handled(self, name):
        graph = _self_loop_graph()
        partition = create_partitioner(name)(graph, 2)
        assert partition.assignment.shape[0] == graph.num_edges
        assert replication_factor(partition) >= 1.0

    @pytest.mark.parametrize("name", ALL_PARTITIONER_NAMES)
    def test_duplicate_edges_are_handled(self, name):
        graph = _multi_edge_graph()
        partition = create_partitioner(name)(graph, 4)
        assert partition.assignment.shape[0] == graph.num_edges

    @pytest.mark.xfail(strict=True, reason=(
        "the core-set expansion counts a self-loop twice toward a partition's "
        "capacity, because it sits twice in its vertex's adjacency"))
    def test_grown_partitions_fill_to_capacity_with_self_loops(self):
        graph = generate_rmat(192, 1500, seed=3)
        assert (graph.src == graph.dst).any()
        partition = create_partitioner("ne")(graph, 4)
        capacity = math.ceil(graph.num_edges / 4)
        sizes = np.bincount(partition.assignment, minlength=4)
        assert sizes[:-1].tolist() == [capacity] * 3

    @pytest.mark.parametrize("name", ALL_PARTITIONER_NAMES)
    def test_more_partitions_than_edges(self, name):
        graph = Graph.from_edges([(0, 1), (1, 2)])
        partition = create_partitioner(name)(graph, 8)
        assert partition.assignment.max() < 8

    @pytest.mark.parametrize("name", ALL_PARTITIONER_NAMES)
    def test_isolated_vertices_do_not_break_metrics(self, name):
        graph = Graph.from_edges([(0, 1)], num_vertices=100)
        partition = create_partitioner(name)(graph, 2)
        metrics = compute_quality_metrics(partition)
        assert metrics.replication_factor == pytest.approx(1.0)

    @pytest.mark.parametrize("name", ("hdrf", "2ps", "ne", "hep10"))
    def test_star_graph(self, name):
        graph = Graph.from_edges([(0, i) for i in range(1, 60)])
        partition = create_partitioner(name)(graph, 4)
        metrics = compute_quality_metrics(partition)
        # Only the hub can be replicated, so RF is bounded by ~1 + k/|V|.
        assert metrics.replication_factor < 1.2


class TestPartitionerParameters:
    def test_hdrf_balance_weight_controls_balance(self):
        graph = generate_rmat(256, 3000, seed=5)
        greedy = HDRFPartitioner(balance_weight=0.01)(graph, 8)
        balanced = HDRFPartitioner(balance_weight=5.0)(graph, 8)
        assert edge_balance(balanced) <= edge_balance(greedy) + 1e-9

    def test_2ps_balance_slack_is_respected(self):
        graph = generate_rmat(256, 3000, seed=6)
        for slack in (1.02, 1.10, 1.30):
            partition = TwoPhaseStreamingPartitioner(balance_slack=slack)(graph, 4)
            assert edge_balance(partition) <= slack + 0.05

    def test_ne_balance_slack_controls_capacity(self):
        graph = generate_rmat(256, 3000, seed=7)
        tight = NeighborhoodExpansionPartitioner(balance_slack=1.0)(graph, 4)
        counts = tight.edge_counts()
        # The first k-1 partitions stop growing at their capacity; the last
        # partition absorbs whatever remains (as in the reference algorithm).
        capacity = 1.0 * graph.num_edges / 4
        assert (counts[:-1] <= capacity + 1).all()

    def test_hep_tau_extremes_match_neighbours(self):
        graph = generate_rmat(512, 5000, seed=8)
        # With a huge tau no vertex is "high degree": HEP behaves like NE.
        all_in_memory = HybridEdgePartitioner(tau=1e9)(graph, 4)
        # With a tiny tau almost everything is streamed.
        mostly_streamed = HybridEdgePartitioner(tau=1e-6)(graph, 4)
        rf_memory = replication_factor(all_in_memory)
        rf_streamed = replication_factor(mostly_streamed)
        assert rf_memory <= rf_streamed + 0.2

    def test_hep_name_encodes_tau(self):
        assert HybridEdgePartitioner(tau=1.0).name == "hep1"
        assert HybridEdgePartitioner(tau=100.0).name == "hep100"
        assert HybridEdgePartitioner(tau=2.5).name == "hep2.5"


class TestQualityRelationshipsAcrossGraphFamilies:
    """Cross-family sanity checks for the relationships EASE learns."""

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_in_memory_beats_stateless_on_rmat(self, seed):
        graph = generate_rmat(512, 6000, seed=seed)
        rf_ne = replication_factor(create_partitioner("ne")(graph, 8))
        rf_crvc = replication_factor(create_partitioner("crvc")(graph, 8))
        assert rf_ne < rf_crvc

    def test_replication_factor_grows_with_partition_count(self):
        graph = generate_rmat(512, 6000, seed=4)
        rf_values = [replication_factor(create_partitioner("crvc")(graph, k))
                     for k in (2, 4, 8, 16)]
        assert rf_values == sorted(rf_values)

    def test_uniform_random_graph_has_higher_rf_than_clustered(self):
        clustered = generate_rmat(512, 6000, seed=9)
        uniform = generate_erdos_renyi(512, 6000, seed=9)
        rf_clustered = replication_factor(create_partitioner("hdrf")(clustered, 8))
        rf_uniform = replication_factor(create_partitioner("hdrf")(uniform, 8))
        assert rf_clustered < rf_uniform + 0.5


class TestPropertyBasedEdgeCases:
    @given(num_edges=st.integers(1, 40), k=st.integers(1, 10),
           seed=st.integers(0, 100))
    @settings(max_examples=25, deadline=None)
    def test_hash_partitioners_on_arbitrary_small_graphs(self, num_edges, k,
                                                         seed):
        graph = generate_rmat(16, num_edges, seed=seed)
        for name in ("1dd", "1ds", "2d", "crvc", "dbh"):
            partition = create_partitioner(name)(graph, k)
            metrics = compute_quality_metrics(partition)
            assert 1.0 <= metrics.replication_factor <= min(
                k, graph.num_vertices) + 1e-9
