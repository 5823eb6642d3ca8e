"""PartitioningQualityPredictor: predicts the five partitioning quality
metrics for a (graph, partitioner, k) combination (Section IV of the paper).

One regression model is trained per target metric.  Following Table VI, the
default models are gradient boosting (the XGBoost stand-in) for the
replication factor and random forests for the four balance metrics; the
replication-factor model can use either the basic or the advanced feature set.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from ..graph import GraphProperties
from ..ml import (
    GradientBoostingRegressor,
    RandomForestRegressor,
    Regressor,
    mape,
    rmse,
)
from ..partitioning import QUALITY_METRIC_NAMES
from .dataset import QualityRecord
from .features import QualityFeatureBuilder, TargetModel

__all__ = ["PartitioningQualityPredictor", "default_quality_model"]


def default_quality_model(target: str, random_state: int = 0) -> Regressor:
    """The paper's per-target default model family (Table VI)."""
    if target == "replication_factor":
        return GradientBoostingRegressor(n_estimators=150, max_depth=4,
                                         learning_rate=0.08,
                                         random_state=random_state)
    return RandomForestRegressor(n_estimators=60, max_depth=12,
                                 min_samples_leaf=2, max_features=0.6,
                                 random_state=random_state)


class PartitioningQualityPredictor:
    """Predicts replication factor and balance metrics from graph features.

    Parameters
    ----------
    feature_set:
        Graph-property feature set for the balance metrics (``"basic"`` in the
        paper).
    replication_feature_set:
        Feature set for the replication factor; the paper evaluates both
        ``"basic"`` and ``"advanced"`` (Table VI).  Defaults to ``feature_set``.
    model_factory:
        Callable ``(target_name) -> Regressor`` overriding the default model
        per metric (used by the model-comparison benchmarks).
    random_state:
        Seed forwarded to the default models.
    """

    def __init__(self, feature_set: str = "basic",
                 replication_feature_set: Optional[str] = None,
                 model_factory: Optional[Callable[[str], Regressor]] = None,
                 random_state: int = 0) -> None:
        self.feature_set = feature_set
        self.replication_feature_set = replication_feature_set or feature_set
        self.random_state = random_state
        # functools.partial (not a lambda) keeps the default factory — and
        # with it a trained predictor — picklable.
        self._model_factory = model_factory or functools.partial(
            default_quality_model, random_state=random_state)
        self._models: Dict[str, TargetModel] = {}
        self._builders: Dict[str, QualityFeatureBuilder] = {}

    # ------------------------------------------------------------------ #
    def _builder_for(self, target: str) -> QualityFeatureBuilder:
        feature_set = (self.replication_feature_set
                       if target == "replication_factor" else self.feature_set)
        return QualityFeatureBuilder(feature_set=feature_set)

    def fit(self, records: Sequence[QualityRecord],
            targets: Optional[Sequence[str]] = None
            ) -> "PartitioningQualityPredictor":
        """Train one model per quality metric from profiling records.

        ``targets`` restricts training to a subset of the five metrics (used
        by experiments that only evaluate one metric, e.g. the enrichment
        study); by default all five are trained.
        """
        if not records:
            raise ValueError("cannot fit on an empty record list")
        if targets is None:
            targets = QUALITY_METRIC_NAMES
        unknown = set(targets) - set(QUALITY_METRIC_NAMES)
        if unknown:
            raise ValueError(f"unknown quality metrics: {sorted(unknown)}")
        partitioner_names = sorted({record.partitioner for record in records})
        properties = [record.properties for record in records]
        partitioners = [record.partitioner for record in records]
        partition_counts = [record.num_partitions for record in records]

        for target in targets:
            builder = self._builder_for(target).fit(partitioner_names)
            features = builder.build(properties, partitioners, partition_counts)
            values = np.array([record.metrics[target] for record in records])
            self._models[target] = TargetModel(
                self._model_factory(target)).fit(features, values)
            self._builders[target] = builder
        return self

    # ------------------------------------------------------------------ #
    def _check_fitted(self) -> None:
        if not self._models:
            raise RuntimeError("PartitioningQualityPredictor must be fitted "
                               "before predicting")

    def predict_metric(self, target: str, properties: Sequence[GraphProperties],
                       partitioners: Sequence[str],
                       partition_counts: Sequence[int]) -> np.ndarray:
        """Predict one metric for a batch of (graph, partitioner, k) inputs."""
        self._check_fitted()
        if target not in self._models:
            raise ValueError(f"unknown quality metric {target!r}")
        features = self._builders[target].build(properties, partitioners,
                                                partition_counts)
        return self._models[target].predict(features)

    def predict_metric_columns(self, properties: Sequence[GraphProperties],
                               partitioners: Sequence[str],
                               partition_counts: Sequence[int]
                               ) -> Dict[str, np.ndarray]:
        """All five metrics for a batch, one clipped array per metric.

        One model call per metric scores the whole batch; the serving
        micro-batcher and the selector's batched scoring path rely on this to
        amortise per-call overhead across concurrent requests.  Both the
        replication factor and the balance metrics are >= 1 by definition, so
        predictions are clipped to that bound.
        """
        return {
            target: np.maximum(1.0, self.predict_metric(
                target, properties, partitioners, partition_counts))
            for target in QUALITY_METRIC_NAMES
        }

    # ------------------------------------------------------------------ #
    def evaluate(self, records: Sequence[QualityRecord]) -> Dict[str, Dict[str, float]]:
        """MAPE and RMSE per fitted metric on held-out records (Table VI)."""
        self._check_fitted()
        properties = [record.properties for record in records]
        partitioners = [record.partitioner for record in records]
        partition_counts = [record.num_partitions for record in records]
        scores = {}
        for target in sorted(self._models):
            predictions = self.predict_metric(target, properties, partitioners,
                                              partition_counts)
            truth = np.array([record.metrics[target] for record in records])
            scores[target] = {"mape": mape(truth, predictions),
                              "rmse": rmse(truth, predictions)}
        return scores

    def feature_importances(self, target: str) -> Dict[str, float]:
        """Per-feature importance of the model for ``target`` (Table VII).

        Only available for tree-ensemble models; other model families raise.
        """
        self._check_fitted()
        model = self._models[target].model
        importances = getattr(model, "feature_importances_", None)
        if importances is None:
            raise ValueError(f"model for {target!r} does not expose feature "
                             "importances")
        names = self._builders[target].feature_names()
        return dict(zip(names, importances.tolist()))

    def aggregated_feature_importances(self, target: str) -> Dict[str, float]:
        """Importances grouped as in Table VII of the paper.

        The one-hot partitioner columns are summed into ``partitioner`` and
        the two degree-skewness columns into ``degree_distribution``.
        """
        raw = self.feature_importances(target)
        groups = {"partitioner": 0.0, "degree_distribution": 0.0}
        for name, value in raw.items():
            if name.startswith("partitioner="):
                groups["partitioner"] += value
            elif name in ("in_degree_skewness", "out_degree_skewness"):
                groups["degree_distribution"] += value
            else:
                groups[name] = groups.get(name, 0.0) + value
        return groups
