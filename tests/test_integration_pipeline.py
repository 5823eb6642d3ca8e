"""Integration tests: the full EASE workflow from graph generation to
automatic partitioner selection (Figure 3 / Figure 5 of the paper)."""

import numpy as np
import pytest

from repro.generators import (
    generate_realworld_graph,
    generate_training_corpus,
    rmat_small_grid,
)
from repro.partitioning import compute_quality_metrics, create_partitioner
from repro.processing import ProcessingEngine, create_algorithm
from repro.ease import (
    EASE,
    GraphProfiler,
    OptimizationGoal,
    SelectionStrategyEvaluator,
)


@pytest.fixture(scope="module")
def profiler():
    return GraphProfiler(
        partitioner_names=("2d", "crvc", "dbh", "hdrf", "ne", "hep10"),
        partition_counts=(4,),
        processing_partition_count=4,
        algorithms=("pagerank", "connected_components", "synthetic_high"))


@pytest.fixture(scope="module")
def trained_system(profiler):
    # A small but *diverse* training corpus: sizes and parameter combinations
    # spanning the evaluation graphs, mirroring the paper's methodology of
    # covering the expected property ranges with generated graphs.
    from repro.generators import TABLE2_PARAMETER_COMBINATIONS, generate_rmat

    graphs = []
    sizes = [(64, 500), (128, 1000), (256, 1800), (384, 2600), (512, 3400)]
    for index, (num_vertices, num_edges) in enumerate(sizes):
        for combo in (0, 4, 8):
            graphs.append(generate_rmat(
                num_vertices, num_edges,
                TABLE2_PARAMETER_COMBINATIONS[combo],
                seed=10 * index + combo, graph_type="rmat"))
    return EASE(partitioner_names=profiler.partitioner_names).train(
        profiler.profile(graphs, graphs))


@pytest.fixture(scope="module")
def evaluation_profile(profiler):
    graphs = [generate_realworld_graph("soc", 300, 2200, seed=41),
              generate_realworld_graph("web", 300, 2500, seed=42)]
    return profiler.profile_processing(graphs)


class TestEndToEndWorkflow:
    def test_train_from_graphs_classmethod(self, profiler):
        specs = rmat_small_grid(scale=1 / 400_000)[::60][:4]
        graphs = list(generate_training_corpus(specs, seed=5))
        system = EASE.train_from_graphs(graphs, graphs[:2], profiler=profiler)
        result = system.select_partitioner(graphs[0], "pagerank", 4)
        assert result.selected in profiler.partitioner_names

    def test_selection_is_deterministic(self, trained_system):
        graph = generate_realworld_graph("soc", 250, 1800, seed=77)
        first = trained_system.select_partitioner(graph, "pagerank", 4)
        second = trained_system.select_partitioner(graph, "pagerank", 4)
        assert first.selected == second.selected

    def test_selected_partitioner_is_usable_downstream(self, trained_system):
        """The selection must plug into the rest of the pipeline: partition the
        graph with the selected partitioner and execute the workload."""
        graph = generate_realworld_graph("web", 300, 2000, seed=88)
        selection = trained_system.select_partitioner(graph, "pagerank", 4)
        partition = create_partitioner(selection.selected)(graph, 4)
        result = ProcessingEngine().run(partition,
                                        create_algorithm("pagerank",
                                                         num_iterations=5))
        assert result.total_seconds > 0
        assert compute_quality_metrics(partition).replication_factor >= 1.0

    def test_selector_beats_worst_and_random_on_average(self, trained_system,
                                                        evaluation_profile):
        """The headline claim of the paper, at laptop scale: EASE's selection
        leads to a lower average end-to-end time than random or worst-case
        selection."""
        evaluator = SelectionStrategyEvaluator(trained_system.selector)
        comparisons = evaluator.compare(evaluation_profile,
                                        goals=(OptimizationGoal.END_TO_END,))
        total = {name: 0.0 for name in ("SPS", "SO", "SSRF", "SR", "SW")}
        for comparison in comparisons:
            for name in total:
                total[name] += comparison.strategy_seconds[name]
        assert total["SPS"] < total["SW"]
        assert total["SPS"] <= total["SR"] * 1.05
        assert total["SO"] <= total["SPS"]

    def test_communication_bound_selection_prefers_low_rf(self, trained_system,
                                                          evaluation_profile):
        """For the communication-heavy synthetic workload, the partitioner
        selected for the processing-time goal should have a predicted
        replication factor no worse than the candidate median."""
        graph = generate_realworld_graph("soc", 300, 2200, seed=90)
        selection = trained_system.select_partitioner(
            graph, "synthetic_high", 4, goal=OptimizationGoal.PROCESSING)
        predicted_rf = [score.predicted_quality["replication_factor"]
                        for score in selection.scores]
        selected_rf = selection.score_of(
            selection.selected).predicted_quality["replication_factor"]
        assert selected_rf <= np.median(predicted_rf) + 1e-9

    def test_quality_predictions_track_truth_ordering(self, trained_system):
        """Predicted replication factors should preserve the true ordering
        between a hashing partitioner and the in-memory partitioner."""
        graph = generate_realworld_graph("soc", 300, 2400, seed=91)
        true_rf = {}
        for name in ("crvc", "ne"):
            partition = create_partitioner(name)(graph, 4)
            true_rf[name] = compute_quality_metrics(partition).replication_factor
        selection = trained_system.select_partitioner(graph, "pagerank", 4)
        predicted_rf = {name: selection.score_of(name).predicted_quality[
            "replication_factor"] for name in ("crvc", "ne")}
        assert true_rf["ne"] < true_rf["crvc"]
        assert predicted_rf["ne"] < predicted_rf["crvc"]
