"""Tests for the processing engine, cluster model and cost model."""

import numpy as np
import pytest

from repro.generators import generate_rmat
from repro.partitioning import (
    EdgePartition,
    compute_quality_metrics,
    create_partitioner,
)
from repro.processing import (
    ClusterSpec,
    ConnectedComponents,
    LabelPropagation,
    PageRank,
    PartitionedGraphCostModel,
    ProcessingEngine,
    SyntheticHigh,
)


@pytest.fixture(scope="module")
def medium_graph():
    return generate_rmat(1024, 8000, seed=21)


class TestClusterSpec:
    def test_defaults_are_valid(self):
        spec = ClusterSpec()
        assert spec.num_machines >= 1

    def test_rejects_invalid_parameters(self):
        with pytest.raises(ValueError):
            ClusterSpec(num_machines=0)
        with pytest.raises(ValueError):
            ClusterSpec(network_bandwidth=0)
        with pytest.raises(ValueError):
            ClusterSpec(network_latency=-1)
        with pytest.raises(ValueError):
            ClusterSpec(edge_compute_cost=-1)

    def test_partition_to_machine_mapping(self):
        spec = ClusterSpec(num_machines=4)
        assert spec.machine_of_partition(0) == 0
        assert spec.machine_of_partition(5) == 1


class TestCostModel:
    def test_no_activity_costs_only_latency(self, medium_graph):
        partition = create_partitioner("crvc")(medium_graph, 4)
        cluster = ClusterSpec(num_machines=4)
        model = PartitionedGraphCostModel(partition, cluster)
        nothing = np.zeros(medium_graph.num_vertices, dtype=bool)
        compute, communication, active_edges = model.superstep_cost(
            nothing, nothing, edge_work=1.0, vertex_work=1.0, message_size=1.0)
        assert compute == 0.0
        assert communication == pytest.approx(cluster.network_latency)
        assert active_edges == 0

    def test_more_replication_means_more_communication(self, medium_graph):
        cluster = ClusterSpec(num_machines=4)
        everything = np.ones(medium_graph.num_vertices, dtype=bool)
        costs = {}
        for name in ("ne", "crvc"):
            partition = create_partitioner(name)(medium_graph, 4)
            model = PartitionedGraphCostModel(partition, cluster)
            _, communication, _ = model.superstep_cost(
                everything, everything, 1.0, 1.0, 1.0)
            costs[name] = communication
        assert costs["ne"] < costs["crvc"]

    def test_message_size_scales_communication(self, medium_graph):
        partition = create_partitioner("crvc")(medium_graph, 4)
        cluster = ClusterSpec(num_machines=4)
        model = PartitionedGraphCostModel(partition, cluster)
        everything = np.ones(medium_graph.num_vertices, dtype=bool)
        _, small, _ = model.superstep_cost(everything, everything, 1.0, 1.0, 1.0)
        _, large, _ = model.superstep_cost(everything, everything, 1.0, 1.0, 10.0)
        assert large > small

    def test_replica_counts_match_metrics(self, medium_graph):
        partition = create_partitioner("dbh")(medium_graph, 4)
        model = PartitionedGraphCostModel(partition, ClusterSpec(num_machines=4))
        metrics = compute_quality_metrics(partition)
        covered = model.replica_counts[model.replica_counts > 0]
        assert covered.mean() == pytest.approx(metrics.replication_factor)

    def test_compute_uses_max_machine(self, medium_graph):
        # An intentionally imbalanced partitioning: all edges on partition 0.
        assignment = np.zeros(medium_graph.num_edges, dtype=np.int64)
        partition = EdgePartition(medium_graph, 4, assignment, "manual")
        model = PartitionedGraphCostModel(partition, ClusterSpec(num_machines=4))
        everything = np.ones(medium_graph.num_vertices, dtype=bool)
        compute, _, _ = model.superstep_cost(everything, everything, 1.0, 0.0, 1.0)
        cluster = ClusterSpec(num_machines=4)
        expected = cluster.edge_compute_cost * medium_graph.num_edges
        assert compute == pytest.approx(expected)


class TestEngine:
    def test_result_record_fields(self, medium_graph):
        partition = create_partitioner("dbh")(medium_graph, 4)
        result = ProcessingEngine().run(partition, PageRank(num_iterations=3))
        record = result.as_record()
        assert record["algorithm"] == "pagerank"
        assert record["partitioner"] == "dbh"
        assert record["num_supersteps"] == 3
        assert record["total_seconds"] > 0

    def test_average_iteration_time(self, medium_graph):
        partition = create_partitioner("dbh")(medium_graph, 4)
        result = ProcessingEngine().run(partition, PageRank(num_iterations=4))
        assert result.average_iteration_seconds == pytest.approx(
            result.total_seconds / 4)

    def test_total_is_compute_plus_communication(self, medium_graph):
        partition = create_partitioner("dbh")(medium_graph, 4)
        result = ProcessingEngine().run(partition, PageRank(num_iterations=3))
        assert result.total_seconds == pytest.approx(
            result.compute_seconds() + result.communication_seconds())

    def test_convergence_algorithm_stops_early(self, medium_graph):
        partition = create_partitioner("dbh")(medium_graph, 4)
        result = ProcessingEngine().run(partition, ConnectedComponents())
        assert result.converged
        assert result.num_supersteps < ConnectedComponents.default_iterations

    def test_max_supersteps_override(self, medium_graph):
        partition = create_partitioner("dbh")(medium_graph, 4)
        result = ProcessingEngine().run(partition, ConnectedComponents(),
                                        max_supersteps=1)
        assert result.num_supersteps == 1

    @pytest.mark.parametrize("algorithm", (PageRank(num_iterations=3),
                                           ConnectedComponents()))
    def test_zero_max_supersteps_runs_none(self, medium_graph, algorithm):
        partition = create_partitioner("dbh")(medium_graph, 4)
        result = ProcessingEngine().run(partition, algorithm, max_supersteps=0)
        assert result.num_supersteps == 0
        assert result.total_seconds == 0.0
        assert result.superstep_costs == []

    def test_negative_max_supersteps_is_rejected(self, medium_graph):
        partition = create_partitioner("dbh")(medium_graph, 4)
        with pytest.raises(ValueError, match="max_supersteps"):
            ProcessingEngine().run(partition, PageRank(), max_supersteps=-1)

    def test_default_cluster_matches_partition_count(self, medium_graph):
        partition = create_partitioner("dbh")(medium_graph, 8)
        engine = ProcessingEngine()
        assert engine._resolve_cluster(partition).num_machines == 8

    def test_explicit_cluster_is_used(self, medium_graph):
        partition = create_partitioner("dbh")(medium_graph, 8)
        engine = ProcessingEngine(ClusterSpec(num_machines=2))
        assert engine._resolve_cluster(partition).num_machines == 2


class TestPaperShapeProperties:
    """The causal relationships of Section III must hold in the simulator."""

    def test_pagerank_prefers_low_replication_factor(self):
        graph = generate_rmat(2048, 16000, seed=31)
        engine = ProcessingEngine()
        times = {}
        for name in ("ne", "crvc", "1dd"):
            partition = create_partitioner(name)(graph, 4)
            times[name] = engine.run(partition,
                                     PageRank(num_iterations=10)).total_seconds
        assert times["ne"] < times["1dd"]
        assert times["ne"] < times["crvc"]

    def test_synthetic_high_is_most_communication_sensitive(self):
        graph = generate_rmat(2048, 16000, seed=33)
        engine = ProcessingEngine()
        ratios = {}
        for algorithm in (SyntheticHigh(), PageRank(num_iterations=5)):
            ne_time = engine.run(create_partitioner("ne")(graph, 4),
                                 algorithm).total_seconds
            crvc_time = engine.run(create_partitioner("crvc")(graph, 4),
                                   algorithm).total_seconds
            ratios[algorithm.name] = crvc_time / ne_time
        assert ratios["synthetic_high"] > ratios["pagerank"]

    def test_label_propagation_punishes_vertex_imbalance(self):
        # DBH (balanced, medium RF) should beat NE (low RF, poor vertex
        # balance) on the computation-bound workload — Figure 2 of the paper.
        graph = generate_rmat(2048, 16000, seed=35)
        engine = ProcessingEngine()
        lp = LabelPropagation(num_iterations=10)
        dbh_time = engine.run(create_partitioner("dbh")(graph, 4), lp).total_seconds
        ne_time = engine.run(create_partitioner("ne")(graph, 4), lp).total_seconds
        assert dbh_time < ne_time
