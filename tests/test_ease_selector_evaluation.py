"""Tests for the partitioner selector, strategy evaluation and the EASE facade."""

import numpy as np
import pytest

from repro.generators import generate_rmat, generate_realworld_graph
from repro.ml import RandomForestRegressor
from repro.ease import (
    EASE,
    GraphProfiler,
    OptimizationGoal,
    PartitioningQualityPredictor,
    SelectionStrategyEvaluator,
    per_type_mape_matrix,
)


@pytest.fixture(scope="module")
def profiler():
    return GraphProfiler(partitioner_names=("2d", "dbh", "ne", "hdrf"),
                         partition_counts=(4,),
                         processing_partition_count=4,
                         algorithms=("pagerank", "connected_components",
                                     "synthetic_high"))


@pytest.fixture(scope="module")
def trained_ease(profiler):
    graphs = [generate_rmat(128 * (1 + s % 3), 700 + 500 * s, seed=s,
                            graph_type="rmat")
              for s in range(6)]
    system = EASE(partitioner_names=profiler.partitioner_names)
    return system.train(profiler.profile(graphs, graphs))


@pytest.fixture(scope="module")
def evaluation_dataset(profiler):
    graphs = [generate_realworld_graph("soc", 250, 1800, seed=1),
              generate_realworld_graph("wiki", 300, 2200, seed=2)]
    return profiler.profile_processing(graphs)


class TestOptimizationGoal:
    def test_valid_goals(self):
        assert OptimizationGoal.validate("end_to_end") == "end_to_end"
        assert OptimizationGoal.validate("processing") == "processing"

    def test_invalid_goal(self):
        with pytest.raises(ValueError):
            OptimizationGoal.validate("latency")


class TestSelector:
    def test_selection_returns_known_partitioner(self, trained_ease, profiler):
        graph = generate_realworld_graph("soc", 200, 1200, seed=5)
        result = trained_ease.select_partitioner(graph, "pagerank", 4)
        assert result.selected in profiler.partitioner_names

    def test_scores_cover_all_candidates(self, trained_ease, profiler):
        graph = generate_rmat(200, 1200, seed=6)
        result = trained_ease.select_partitioner(graph, "pagerank", 4)
        assert {s.partitioner for s in result.scores} == set(profiler.partitioner_names)

    def test_ranking_is_sorted(self, trained_ease):
        graph = generate_rmat(200, 1200, seed=7)
        result = trained_ease.select_partitioner(graph, "pagerank", 4)
        ranking = result.ranking()
        objectives = [score.objective(result.goal) for score in ranking]
        assert objectives == sorted(objectives)
        assert ranking[0].partitioner == result.selected

    def test_end_to_end_adds_partitioning_time(self, trained_ease):
        graph = generate_rmat(200, 1200, seed=8)
        result = trained_ease.select_partitioner(graph, "pagerank", 4)
        for score in result.scores:
            assert score.predicted_end_to_end_seconds == pytest.approx(
                score.predicted_partitioning_seconds
                + score.predicted_processing_seconds)

    def test_score_of_lookup(self, trained_ease):
        graph = generate_rmat(200, 1200, seed=9)
        result = trained_ease.select_partitioner(graph, "pagerank", 4)
        assert result.score_of("ne").partitioner == "ne"
        with pytest.raises(KeyError):
            result.score_of("metis")

    def test_processing_goal_ignores_partitioning_time(self, trained_ease):
        graph = generate_rmat(256, 2000, seed=10)
        processing = trained_ease.select_partitioner(
            graph, "synthetic_high", 4, goal=OptimizationGoal.PROCESSING)
        scores = {s.partitioner: s for s in processing.scores}
        best = min(scores.values(), key=lambda s: s.predicted_processing_seconds)
        assert processing.selected == best.partitioner

    def test_facade_prediction_helpers(self, trained_ease):
        graph = generate_rmat(200, 1500, seed=11)
        ne = trained_ease.select_partitioner(graph, "pagerank", 4).score_of("ne")
        assert ne.predicted_quality["replication_factor"] >= 1.0
        assert ne.predicted_partitioning_seconds > 0
        assert ne.predicted_processing_seconds > 0

    def test_untrained_facade_raises(self):
        with pytest.raises(RuntimeError):
            _ = EASE().selector


class TestStrategyEvaluation:
    def test_jobs_cover_graph_algorithm_pairs(self, trained_ease,
                                              evaluation_dataset):
        evaluator = SelectionStrategyEvaluator(trained_ease.selector)
        jobs = evaluator.build_jobs(evaluation_dataset)
        assert len(jobs) == 2 * 3  # 2 graphs x 3 algorithms
        for job in jobs:
            assert len(job.processing_seconds) == 4

    def test_strategy_ordering_invariants(self, trained_ease, evaluation_dataset):
        evaluator = SelectionStrategyEvaluator(trained_ease.selector)
        comparisons = evaluator.compare(evaluation_dataset)
        assert comparisons
        for comparison in comparisons:
            seconds = comparison.strategy_seconds
            # The oracle is never beaten and the worst strategy never wins.
            assert seconds["SO"] <= seconds["SPS"] + 1e-12
            assert seconds["SO"] <= seconds["SSRF"] + 1e-12
            assert seconds["SW"] >= seconds["SR"] - 1e-12
            assert comparison.optimal_pick_fraction["SO"] == pytest.approx(1.0)

    def test_relative_to_helper(self, trained_ease, evaluation_dataset):
        evaluator = SelectionStrategyEvaluator(trained_ease.selector)
        comparison = evaluator.compare(evaluation_dataset)[0]
        ratio = comparison.relative_to("SPS", "SW")
        assert ratio == pytest.approx(
            comparison.strategy_seconds["SPS"] / comparison.strategy_seconds["SW"])

    def test_algorithm_filter(self, trained_ease, evaluation_dataset):
        evaluator = SelectionStrategyEvaluator(trained_ease.selector)
        comparisons = evaluator.compare(evaluation_dataset,
                                        algorithms=("pagerank",),
                                        goals=(OptimizationGoal.PROCESSING,))
        assert len(comparisons) == 1
        assert comparisons[0].algorithm == "pagerank"


class TestPerTypeMapeMatrix:
    def test_matrix_keys_and_values(self, trained_ease, evaluation_dataset):
        matrix = per_type_mape_matrix(trained_ease.quality_predictor,
                                      evaluation_dataset.quality,
                                      metric="replication_factor")
        types = {key[0] for key in matrix}
        partitioners = {key[1] for key in matrix}
        assert types == {"soc", "wiki"}
        assert partitioners == {"2d", "dbh", "ne", "hdrf"}
        assert all(value >= 0 for value in matrix.values())
