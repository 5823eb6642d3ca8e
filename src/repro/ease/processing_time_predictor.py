"""ProcessingTimePredictor: predicts the graph processing run-time of an
algorithm on a partitioned graph (Section IV of the paper).

One model is trained per graph processing algorithm (so new algorithms can be
added without touching the others — Section IV-E).  The features are the
simple graph properties plus the five partitioning quality metrics; the
partitioner identity itself is deliberately *not* a feature.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from ..graph import GraphProperties
from ..ml import (
    GradientBoostingRegressor,
    PolynomialRegression,
    Regressor,
    mape,
    rmse,
)
from ..processing.algorithms import (
    AVERAGE_ITERATION_ALGORITHMS,
    DEFAULT_NUM_ITERATIONS,
)
from .dataset import ProcessingRecord
from .features import ProcessingTimeFeatureBuilder, TargetModel

__all__ = ["ProcessingTimePredictor", "default_processing_model"]


def default_processing_model(algorithm: str, random_state: int = 0) -> Regressor:
    """Default model family per algorithm (Table V of the paper).

    The paper's model comparison selects polynomial regression for Connected
    Components and the synthetic workloads and XGBoost for the rest.
    """
    if algorithm in ("connected_components", "synthetic_low", "synthetic_high"):
        return PolynomialRegression(degree=2, alpha=1e-4)
    return GradientBoostingRegressor(n_estimators=120, max_depth=3,
                                     learning_rate=0.1,
                                     random_state=random_state)


class ProcessingTimePredictor:
    """Per-algorithm prediction of graph processing run-time.

    Each algorithm gets the paper's model family for it
    (:func:`default_processing_model`, seeded with ``random_state``),
    trained on ``log1p`` of the run-time: the run-times span orders of
    magnitude across graph sizes.
    """

    def __init__(self, random_state: int = 0) -> None:
        self.random_state = random_state
        self._builder = ProcessingTimeFeatureBuilder()
        self._models: Dict[str, TargetModel] = {}

    @property
    def algorithms(self) -> Sequence[str]:
        """Algorithms with a trained model."""
        return sorted(self._models)

    def fit(self, records: Sequence[ProcessingRecord]) -> "ProcessingTimePredictor":
        """Train one model per algorithm found in the records."""
        if not records:
            raise ValueError("cannot fit on an empty record list")
        for algorithm in dict.fromkeys(record.algorithm for record in records):
            self.fit_algorithm(algorithm, records)
        return self

    def fit_algorithm(self, algorithm: str,
                      records: Sequence[ProcessingRecord]) -> "ProcessingTimePredictor":
        """Train (or retrain) the model of a single algorithm.

        This is the extensibility path of Section IV-E: adding a new graph
        processing algorithm only requires profiling it and calling this
        method; the other models are untouched.
        """
        relevant = [r for r in records if r.algorithm == algorithm]
        if not relevant:
            raise ValueError(f"no records for algorithm {algorithm!r}")
        features = self._builder.build(
            [r.properties for r in relevant],
            [r.num_partitions for r in relevant],
            [r.metrics for r in relevant])
        seconds = np.array([r.target_seconds for r in relevant])
        self._models[algorithm] = TargetModel(default_processing_model(
            algorithm, random_state=self.random_state)).fit(
                features, np.log1p(seconds))
        return self

    # ------------------------------------------------------------------ #
    def _check_algorithm(self, algorithm: str) -> None:
        if algorithm not in self._models:
            raise ValueError(f"no trained model for algorithm {algorithm!r}; "
                             f"available: {self.algorithms}")

    def predict_target(self, algorithm: str,
                       properties: Sequence[GraphProperties],
                       partition_counts: Sequence[int],
                       quality_metrics: Sequence[Dict[str, float]]) -> np.ndarray:
        """Predict the raw target (average-iteration or total seconds)."""
        self._check_algorithm(algorithm)
        features = self._builder.build(list(properties), list(partition_counts),
                                       list(quality_metrics))
        raw = self._models[algorithm].predict(features)
        return np.clip(np.expm1(raw), 0.0, None)

    def predict_total_seconds_batch(self, algorithms: Sequence[str],
                                    properties: Sequence[GraphProperties],
                                    partition_counts: Sequence[int],
                                    quality_metrics: Sequence[Dict[str, float]],
                                    num_iterations: Optional[Sequence[Optional[int]]] = None
                                    ) -> np.ndarray:
        """Predict total processing times for a batch of jobs.

        Rows may mix algorithms; they are grouped so each per-algorithm model
        is invoked once per batch.  ``num_iterations`` is an optional per-row
        sequence (``None`` entries fall back to ``DEFAULT_NUM_ITERATIONS`` for
        average-iteration algorithms).
        """
        count = len(algorithms)
        if num_iterations is None:
            num_iterations = [None] * count
        rows_of: Dict[str, List[int]] = {}
        for row, algorithm in enumerate(algorithms):
            rows_of.setdefault(algorithm, []).append(row)
        totals = np.empty(count, dtype=np.float64)
        for algorithm, rows in rows_of.items():
            targets = self.predict_target(
                algorithm,
                [properties[row] for row in rows],
                [partition_counts[row] for row in rows],
                [quality_metrics[row] for row in rows])
            if algorithm in AVERAGE_ITERATION_ALGORITHMS:
                targets *= [DEFAULT_NUM_ITERATIONS if num_iterations[row] is None
                            else num_iterations[row] for row in rows]
            totals[rows] = targets
        return totals

    def evaluate(self, records: Sequence[ProcessingRecord]
                 ) -> Dict[str, Dict[str, float]]:
        """Per-algorithm MAPE and RMSE on held-out records (Table V)."""
        by_algorithm: Dict[str, list] = {}
        for record in records:
            by_algorithm.setdefault(record.algorithm, []).append(record)
        scores = {}
        for algorithm, algorithm_records in sorted(by_algorithm.items()):
            if algorithm not in self._models:
                continue
            predictions = self.predict_target(
                algorithm,
                [r.properties for r in algorithm_records],
                [r.num_partitions for r in algorithm_records],
                [r.metrics for r in algorithm_records])
            truth = np.array([r.target_seconds for r in algorithm_records])
            scores[algorithm] = {"mape": mape(truth, predictions),
                                 "rmse": rmse(truth, predictions)}
        return scores
