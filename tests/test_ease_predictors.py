"""Tests for the three EASE predictors."""

import numpy as np
import pytest

from repro.generators import generate_rmat, generate_realworld_graph
from repro.ml import LinearRegression, RandomForestRegressor
from repro.partitioning import QUALITY_METRIC_NAMES
from repro.runtime import executor
from repro.ease import (
    GraphProfiler,
    PartitioningQualityPredictor,
    PartitioningTimePredictor,
    ProcessingTimePredictor,
    AVERAGE_ITERATION_ALGORITHMS,
)


def _fast_quality_model(target):
    return RandomForestRegressor(n_estimators=8, max_depth=8, random_state=0)


@pytest.fixture(scope="module")
def profiler():
    return GraphProfiler(partitioner_names=("2d", "dbh", "hdrf", "ne"),
                         partition_counts=(2, 4),
                         processing_partition_count=4,
                         algorithms=("pagerank", "connected_components"))


@pytest.fixture(scope="module")
def training_dataset(profiler):
    graphs = [generate_rmat(128 * (1 + s % 3), 600 + 400 * s, seed=s,
                            graph_type="rmat")
              for s in range(6)]
    return profiler.profile(graphs, graphs[:4])


@pytest.fixture(scope="module")
def test_dataset(profiler):
    graphs = [generate_realworld_graph("soc", 200, 1500, seed=9),
              generate_realworld_graph("wiki", 250, 1800, seed=10)]
    return profiler.profile_processing(graphs)


class TestQualityPredictor:
    @pytest.fixture(scope="class")
    def predictor(self, training_dataset):
        predictor = PartitioningQualityPredictor(
            model_factory=_fast_quality_model)
        predictor.fit(training_dataset.quality)
        return predictor

    def test_fit_on_empty_raises(self):
        with pytest.raises(ValueError):
            PartitioningQualityPredictor().fit([])

    def test_predict_before_fit_raises(self, training_dataset):
        fresh = PartitioningQualityPredictor()
        record = training_dataset.quality[0]
        with pytest.raises(RuntimeError):
            fresh.predict_metric_columns([record.properties],
                                         [record.partitioner], [4])

    def test_predict_returns_all_metrics(self, predictor, training_dataset):
        record = training_dataset.quality[0]
        columns = predictor.predict_metric_columns([record.properties],
                                                   ["ne"], [4])
        assert set(columns) == set(QUALITY_METRIC_NAMES)
        assert all(column.shape == (1,) and column[0] >= 1.0
                   for column in columns.values())

    def test_training_error_is_reasonable(self, predictor, training_dataset):
        scores = predictor.evaluate(training_dataset.quality)
        assert scores["replication_factor"]["mape"] < 0.25
        assert scores["vertex_balance"]["mape"] < 0.25

    def test_generalises_to_unseen_graphs(self, predictor, test_dataset):
        scores = predictor.evaluate(test_dataset.quality)
        # Much looser bound: different graph family, tiny training set.
        assert scores["replication_factor"]["mape"] < 1.0

    def test_unknown_metric_raises(self, predictor, training_dataset):
        record = training_dataset.quality[0]
        with pytest.raises(ValueError):
            predictor.predict_metric("modularity", [record.properties],
                                     ["ne"], [4])

    def test_feature_importances(self, predictor):
        importances = predictor.feature_importances("replication_factor")
        assert importances
        assert sum(importances.values()) == pytest.approx(1.0, abs=1e-6)

    def test_aggregated_importances_group_partitioner(self, predictor):
        aggregated = predictor.aggregated_feature_importances("vertex_balance")
        assert "partitioner" in aggregated
        assert "degree_distribution" in aggregated
        assert not any(name.startswith("partitioner=") for name in aggregated)

    def test_non_tree_model_has_no_importances(self, training_dataset):
        predictor = PartitioningQualityPredictor(
            model_factory=lambda target: LinearRegression())
        predictor.fit(training_dataset.quality[:40])
        with pytest.raises(ValueError):
            predictor.feature_importances("replication_factor")

    def test_advanced_feature_set_for_replication_factor(self, training_dataset):
        predictor = PartitioningQualityPredictor(
            feature_set="basic", replication_feature_set="advanced",
            model_factory=_fast_quality_model)
        predictor.fit(training_dataset.quality)
        names = predictor._builders["replication_factor"].feature_names()
        assert "mean_local_clustering" in names
        balance_names = predictor._builders["vertex_balance"].feature_names()
        assert "mean_local_clustering" not in balance_names


class TestPartitioningTimePredictor:
    @pytest.fixture(scope="class")
    def predictor(self, training_dataset):
        return PartitioningTimePredictor().fit(training_dataset.partitioning_time)

    def test_fit_on_empty_raises(self):
        with pytest.raises(ValueError):
            PartitioningTimePredictor().fit([])

    def test_predictions_are_positive(self, predictor, training_dataset):
        record = training_dataset.partitioning_time[0]
        assert predictor.predict([record.properties], ["ne"])[0] > 0

    def test_in_memory_predicted_slower_than_hashing(self, predictor,
                                                     training_dataset):
        record = training_dataset.partitioning_time[0]
        ne, hashed = predictor.predict([record.properties] * 2, ["ne", "2d"])
        assert ne > hashed

    def test_training_mape(self, predictor, training_dataset):
        scores = predictor.evaluate(training_dataset.partitioning_time)
        assert scores["mape"] < 0.4

    def test_predict_before_fit_raises(self, training_dataset):
        fresh = PartitioningTimePredictor()
        record = training_dataset.partitioning_time[0]
        with pytest.raises(RuntimeError):
            fresh.predict([record.properties], ["ne"])


class TestProcessingTimePredictor:
    @pytest.fixture(scope="class")
    def predictor(self, training_dataset):
        return ProcessingTimePredictor().fit(training_dataset.processing)

    def test_fit_on_empty_raises(self):
        with pytest.raises(ValueError):
            ProcessingTimePredictor().fit([])

    def test_one_model_per_algorithm(self, predictor):
        assert set(predictor.algorithms) == {"pagerank", "connected_components"}

    def test_unknown_algorithm_raises(self, predictor, training_dataset):
        record = training_dataset.processing[0]
        with pytest.raises(ValueError):
            predictor.predict_total_seconds_batch(
                ["kcores"], [record.properties], [4], [record.metrics])

    @staticmethod
    def _at_iterations(predictor, record, iterations):
        """One job's total seconds at each iteration count, as one batch."""
        return predictor.predict_total_seconds_batch(
            [record.algorithm] * len(iterations),
            [record.properties] * len(iterations), [4] * len(iterations),
            [record.metrics] * len(iterations), num_iterations=iterations)

    def test_iterations_scale_total_time(self, predictor, training_dataset):
        record = next(r for r in training_dataset.processing
                      if r.algorithm == "pagerank")
        short, long = self._at_iterations(predictor, record, [5, 50])
        assert long == pytest.approx(10 * short)

    def test_convergence_algorithm_ignores_iterations(self, predictor,
                                                      training_dataset):
        record = next(r for r in training_dataset.processing
                      if r.algorithm == "connected_components")
        a, b = self._at_iterations(predictor, record, [5, 50])
        assert a == pytest.approx(b)

    def test_evaluation_scores(self, predictor, training_dataset):
        scores = predictor.evaluate(training_dataset.processing)
        assert set(scores) == {"pagerank", "connected_components"}
        assert all(value["mape"] < 0.6 for value in scores.values())

    def test_extensibility_fit_single_algorithm(self, training_dataset, profiler):
        """Section IV-E: adding an algorithm retrains only its model."""
        predictor = ProcessingTimePredictor().fit(
            [r for r in training_dataset.processing if r.algorithm == "pagerank"])
        assert predictor.algorithms == ["pagerank"]
        predictor.fit_algorithm("connected_components",
                                training_dataset.processing)
        assert set(predictor.algorithms) == {"pagerank", "connected_components"}

    def test_fit_algorithm_without_records_raises(self, predictor):
        with pytest.raises(ValueError):
            predictor.fit_algorithm("sssp", [])

    def test_average_iteration_algorithm_set(self):
        assert "pagerank" in AVERAGE_ITERATION_ALGORITHMS
        assert "connected_components" not in AVERAGE_ITERATION_ALGORITHMS
        # Defined once, derived from ``runs_until_convergence``; profiling
        # labels with the same object the predictor multiplies by.
        assert executor.AVERAGE_ITERATION_ALGORITHMS is AVERAGE_ITERATION_ALGORITHMS
        assert AVERAGE_ITERATION_ALGORITHMS == {
            "pagerank", "label_propagation", "synthetic_low", "synthetic_high"}
