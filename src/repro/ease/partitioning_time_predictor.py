"""PartitioningTimePredictor: predicts the partitioning run-time of a
partitioner on a graph (Section IV of the paper).

The run-time spans several orders of magnitude across graph sizes and
partitioner families, so the model is trained on ``log1p(seconds)`` and
predictions are transformed back; this markedly improves the MAPE the paper
reports for this task.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from ..graph import GraphProperties
from ..ml import GradientBoostingRegressor, mape, rmse
from .dataset import PartitioningTimeRecord
from .features import PartitioningTimeFeatureBuilder, TargetModel

__all__ = ["PartitioningTimePredictor"]


class PartitioningTimePredictor:
    """Predicts partitioning run-time from graph features and the partitioner.

    The features are the advanced graph properties (partitioners such as HEP
    and 2PS behave differently depending on degree structure and clustering)
    and the one-hot partitioner; the model is gradient boosting (the paper
    selects XGBoost for this task) seeded with ``random_state``.
    """

    def __init__(self, random_state: int = 0) -> None:
        self.random_state = random_state
        self._builder = PartitioningTimeFeatureBuilder()
        self._target_model: Optional[TargetModel] = None

    # ------------------------------------------------------------------ #
    def fit(self, records: Sequence[PartitioningTimeRecord]
            ) -> "PartitioningTimePredictor":
        """Train from partitioning-time profiling records."""
        if not records:
            raise ValueError("cannot fit on an empty record list")
        self._builder.fit(sorted({record.partitioner for record in records}))
        features = self._builder.build(
            [record.properties for record in records],
            [record.partitioner for record in records])
        seconds = np.array([record.seconds for record in records])
        self._target_model = TargetModel(GradientBoostingRegressor(
            n_estimators=150, max_depth=4, learning_rate=0.08,
            random_state=self.random_state)).fit(features, np.log1p(seconds))
        return self

    def predict(self, properties: Sequence[GraphProperties],
                partitioners: Sequence[str]) -> np.ndarray:
        """Predict run-times (seconds) for a batch of (graph, partitioner)."""
        if self._target_model is None:
            raise RuntimeError("PartitioningTimePredictor must be fitted "
                               "before predicting")
        features = self._builder.build(list(properties), list(partitioners))
        raw = self._target_model.predict(features)
        return np.clip(np.expm1(raw), 0.0, None)

    def evaluate(self, records: Sequence[PartitioningTimeRecord]
                 ) -> Dict[str, float]:
        """MAPE and RMSE on held-out records."""
        predictions = self.predict([record.properties for record in records],
                                   [record.partitioner for record in records])
        truth = np.array([record.seconds for record in records])
        return {"mape": mape(truth, predictions), "rmse": rmse(truth, predictions)}
