"""The parent's three EASE predictors, each spelling its own scaler + model.

``ReferenceQualityPredictor``, ``ReferenceTimePredictor`` and
``ReferenceProcessingPredictor`` are ``PartitioningQualityPredictor``,
``PartitioningTimePredictor`` and ``ProcessingTimePredictor`` as they stood
before every model became one ``repro.ease.features.TargetModel``: parallel
``_models`` / ``_scalers`` / ``_fitted`` state, the log-target helpers and
the ``log_transform`` / ``feature_set`` / ``model`` / ``model_factory``
options, together with the feature builders and the ``_PartitionerEncoder``
wrapper they used.  Kept literally, except for the class names, the dropped
docstrings and the dropped ``aggregated_feature_importances`` (a regrouping
of ``feature_importances``, which the rows compare).  The graph-feature helpers, the default model families and the
regressors are the production ones, so a row isolates the predictor layer.
"""

import functools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.ease.dataset import (
    PartitioningTimeRecord,
    ProcessingRecord,
    QualityRecord,
)
from repro.ease.features import graph_feature_matrix, graph_feature_names
from repro.ease.processing_time_predictor import default_processing_model
from repro.ease.quality_predictor import default_quality_model
from repro.graph import GraphProperties
from repro.ml import (
    GradientBoostingRegressor,
    OneHotEncoder,
    Regressor,
    StandardScaler,
    mape,
    rmse,
)
from repro.partitioning import PartitionQualityMetrics, QUALITY_METRIC_NAMES
from repro.processing.algorithms import AVERAGE_ITERATION_ALGORITHMS


class _PartitionerEncoder:
    def __init__(self) -> None:
        self._encoder: Optional[OneHotEncoder] = None

    def fit(self, partitioner_names: Sequence[str]) -> "_PartitionerEncoder":
        self._encoder = OneHotEncoder(handle_unknown="ignore")
        self._encoder.fit(list(partitioner_names))
        return self

    def transform(self, partitioner_names: Sequence[str]) -> np.ndarray:
        if self._encoder is None:
            raise RuntimeError("encoder must be fitted first")
        return self._encoder.transform(list(partitioner_names))

    @property
    def categories(self) -> List[str]:
        if self._encoder is None:
            raise RuntimeError("encoder must be fitted first")
        return list(self._encoder.categories_)


@dataclass
class ReferenceQualityFeatureBuilder:
    feature_set: str = "basic"

    def __post_init__(self) -> None:
        self._partitioner_encoder = _PartitionerEncoder()

    def fit(self, partitioner_names: Sequence[str]
            ) -> "ReferenceQualityFeatureBuilder":
        self._partitioner_encoder.fit(partitioner_names)
        return self

    def feature_names(self) -> List[str]:
        names = list(graph_feature_names(self.feature_set))
        names.append("num_partitions")
        names.extend(f"partitioner={name}"
                     for name in self._partitioner_encoder.categories)
        return names

    def build(self, properties: Sequence[GraphProperties],
              partitioner_names: Sequence[str],
              partition_counts: Sequence[int]) -> np.ndarray:
        graph_features = graph_feature_matrix(properties, self.feature_set)
        partitioner_features = self._partitioner_encoder.transform(partitioner_names)
        k_column = np.asarray(partition_counts, dtype=np.float64).reshape(-1, 1)
        return np.hstack([graph_features, k_column, partitioner_features])


@dataclass
class ReferenceTimeFeatureBuilder:
    feature_set: str = "advanced"

    def __post_init__(self) -> None:
        self._partitioner_encoder = _PartitionerEncoder()

    def fit(self, partitioner_names: Sequence[str]
            ) -> "ReferenceTimeFeatureBuilder":
        self._partitioner_encoder.fit(partitioner_names)
        return self

    def feature_names(self) -> List[str]:
        names = list(graph_feature_names(self.feature_set))
        names.extend(f"partitioner={name}"
                     for name in self._partitioner_encoder.categories)
        return names

    def build(self, properties: Sequence[GraphProperties],
              partitioner_names: Sequence[str]) -> np.ndarray:
        graph_features = graph_feature_matrix(properties, self.feature_set)
        partitioner_features = self._partitioner_encoder.transform(partitioner_names)
        return np.hstack([graph_features, partitioner_features])


@dataclass
class ReferenceProcessingFeatureBuilder:
    feature_set: str = "simple"

    def feature_names(self) -> List[str]:
        names = list(graph_feature_names(self.feature_set))
        names.append("num_partitions")
        names.extend(QUALITY_METRIC_NAMES)
        return names

    def build(self, properties: Sequence[GraphProperties],
              partition_counts: Sequence[int],
              quality_metrics: Sequence[Dict[str, float]]) -> np.ndarray:
        graph_features = graph_feature_matrix(properties, self.feature_set)
        k_column = np.asarray(partition_counts, dtype=np.float64).reshape(-1, 1)
        metric_matrix = np.array([
            [metrics[name] for name in QUALITY_METRIC_NAMES]
            for metrics in quality_metrics], dtype=np.float64)
        return np.hstack([graph_features, k_column, metric_matrix])


class ReferenceQualityPredictor:
    def __init__(self, feature_set: str = "basic",
                 replication_feature_set: Optional[str] = None,
                 model_factory: Optional[Callable[[str], Regressor]] = None,
                 random_state: int = 0) -> None:
        self.feature_set = feature_set
        self.replication_feature_set = replication_feature_set or feature_set
        self.random_state = random_state
        self._model_factory = model_factory or functools.partial(
            default_quality_model, random_state=random_state)
        self._models: Dict[str, Regressor] = {}
        self._scalers: Dict[str, StandardScaler] = {}
        self._builders: Dict[str, ReferenceQualityFeatureBuilder] = {}
        self._fitted = False

    def _builder_for(self, target: str) -> ReferenceQualityFeatureBuilder:
        feature_set = (self.replication_feature_set
                       if target == "replication_factor" else self.feature_set)
        return ReferenceQualityFeatureBuilder(feature_set=feature_set)

    def fit(self, records: Sequence[QualityRecord],
            targets: Optional[Sequence[str]] = None
            ) -> "ReferenceQualityPredictor":
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
            scaler = StandardScaler().fit(features)
            values = np.array([record.metrics[target] for record in records])
            model = self._model_factory(target)
            model.fit(scaler.transform(features), values)
            self._builders[target] = builder
            self._scalers[target] = scaler
            self._models[target] = model
        self._fitted = True
        return self

    def _check_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("PartitioningQualityPredictor must be fitted "
                               "before predicting")

    def predict_metric(self, target: str, properties: Sequence[GraphProperties],
                       partitioners: Sequence[str],
                       partition_counts: Sequence[int]) -> np.ndarray:
        self._check_fitted()
        if target not in self._models:
            raise ValueError(f"unknown quality metric {target!r}")
        features = self._builders[target].build(properties, partitioners,
                                                partition_counts)
        scaled = self._scalers[target].transform(features)
        return self._models[target].predict(scaled)

    def predict_metric_columns(self, properties: Sequence[GraphProperties],
                               partitioners: Sequence[str],
                               partition_counts: Sequence[int]
                               ) -> Dict[str, np.ndarray]:
        return {
            target: np.maximum(1.0, self.predict_metric(
                target, properties, partitioners, partition_counts))
            for target in QUALITY_METRIC_NAMES
        }

    def predict_batch(self, properties: Sequence[GraphProperties],
                      partitioners: Sequence[str],
                      partition_counts: Sequence[int]
                      ) -> List[PartitionQualityMetrics]:
        columns = self.predict_metric_columns(properties, partitioners,
                                              partition_counts)
        return [PartitionQualityMetrics(**{target: float(columns[target][row])
                                           for target in QUALITY_METRIC_NAMES})
                for row in range(len(properties))]

    def predict(self, properties: GraphProperties, partitioner: str,
                num_partitions: int) -> PartitionQualityMetrics:
        return self.predict_batch([properties], [partitioner],
                                  [num_partitions])[0]

    def evaluate(self, records: Sequence[QualityRecord]
                 ) -> Dict[str, Dict[str, float]]:
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
        self._check_fitted()
        model = self._models[target]
        importances = getattr(model, "feature_importances_", None)
        if importances is None:
            raise ValueError(f"model for {target!r} does not expose feature "
                             "importances")
        names = self._builders[target].feature_names()
        return dict(zip(names, importances.tolist()))


class ReferenceTimePredictor:
    def __init__(self, feature_set: str = "advanced",
                 model: Optional[Regressor] = None,
                 log_transform: bool = True, random_state: int = 0) -> None:
        self.feature_set = feature_set
        self.log_transform = log_transform
        self.random_state = random_state
        self._model = model or GradientBoostingRegressor(
            n_estimators=150, max_depth=4, learning_rate=0.08,
            random_state=random_state)
        self._builder = ReferenceTimeFeatureBuilder(feature_set=feature_set)
        self._scaler: Optional[StandardScaler] = None
        self._fitted = False

    def _transform_target(self, seconds: np.ndarray) -> np.ndarray:
        return np.log1p(seconds) if self.log_transform else seconds

    def _inverse_target(self, values: np.ndarray) -> np.ndarray:
        return np.expm1(values) if self.log_transform else values

    def fit(self, records: Sequence[PartitioningTimeRecord]
            ) -> "ReferenceTimePredictor":
        if not records:
            raise ValueError("cannot fit on an empty record list")
        partitioner_names = sorted({record.partitioner for record in records})
        self._builder.fit(partitioner_names)
        features = self._builder.build(
            [record.properties for record in records],
            [record.partitioner for record in records])
        self._scaler = StandardScaler().fit(features)
        targets = self._transform_target(
            np.array([record.seconds for record in records]))
        self._model.fit(self._scaler.transform(features), targets)
        self._fitted = True
        return self

    def predict(self, properties: Sequence[GraphProperties],
                partitioners: Sequence[str]) -> np.ndarray:
        if not self._fitted:
            raise RuntimeError("PartitioningTimePredictor must be fitted "
                               "before predicting")
        features = self._builder.build(list(properties), list(partitioners))
        raw = self._model.predict(self._scaler.transform(features))
        return np.clip(self._inverse_target(raw), 0.0, None)

    def predict_one(self, properties: GraphProperties, partitioner: str) -> float:
        return float(self.predict([properties], [partitioner])[0])

    def evaluate(self, records: Sequence[PartitioningTimeRecord]
                 ) -> Dict[str, float]:
        predictions = self.predict([record.properties for record in records],
                                   [record.partitioner for record in records])
        truth = np.array([record.seconds for record in records])
        return {"mape": mape(truth, predictions), "rmse": rmse(truth, predictions)}


class ReferenceProcessingPredictor:
    def __init__(self,
                 model_factory: Optional[Callable[[str], Regressor]] = None,
                 log_transform: bool = True, random_state: int = 0) -> None:
        self.log_transform = log_transform
        self.random_state = random_state
        self._model_factory = model_factory or functools.partial(
            default_processing_model, random_state=random_state)
        self._builder = ReferenceProcessingFeatureBuilder()
        self._models: Dict[str, Regressor] = {}
        self._scalers: Dict[str, StandardScaler] = {}

    def _transform_target(self, seconds: np.ndarray) -> np.ndarray:
        return np.log1p(seconds) if self.log_transform else seconds

    def _inverse_target(self, values: np.ndarray) -> np.ndarray:
        return np.expm1(values) if self.log_transform else values

    @property
    def algorithms(self) -> Sequence[str]:
        return sorted(self._models)

    def fit(self, records: Sequence[ProcessingRecord]
            ) -> "ReferenceProcessingPredictor":
        if not records:
            raise ValueError("cannot fit on an empty record list")
        by_algorithm: Dict[str, list] = {}
        for record in records:
            by_algorithm.setdefault(record.algorithm, []).append(record)
        for algorithm, algorithm_records in by_algorithm.items():
            self.fit_partial(algorithm, algorithm_records)
        return self

    def fit_algorithm(self, algorithm: str, records: Sequence[ProcessingRecord]
                      ) -> "ReferenceProcessingPredictor":
        relevant = [r for r in records if r.algorithm == algorithm]
        if not relevant:
            raise ValueError(f"no records for algorithm {algorithm!r}")
        self.fit_partial(algorithm, relevant)
        return self

    def fit_partial(self, algorithm: str,
                    records: Sequence[ProcessingRecord]) -> None:
        features = self._builder.build(
            [r.properties for r in records],
            [r.num_partitions for r in records],
            [r.metrics for r in records])
        scaler = StandardScaler().fit(features)
        targets = self._transform_target(
            np.array([r.target_seconds for r in records]))
        model = self._model_factory(algorithm)
        model.fit(scaler.transform(features), targets)
        self._models[algorithm] = model
        self._scalers[algorithm] = scaler

    def _check_algorithm(self, algorithm: str) -> None:
        if algorithm not in self._models:
            raise ValueError(f"no trained model for algorithm {algorithm!r}; "
                             f"available: {self.algorithms}")

    def predict_target(self, algorithm: str,
                       properties: Sequence[GraphProperties],
                       partition_counts: Sequence[int],
                       quality_metrics: Sequence[Dict[str, float]]) -> np.ndarray:
        self._check_algorithm(algorithm)
        features = self._builder.build(list(properties), list(partition_counts),
                                       list(quality_metrics))
        scaled = self._scalers[algorithm].transform(features)
        raw = self._models[algorithm].predict(scaled)
        return np.clip(self._inverse_target(raw), 0.0, None)

    def predict_total_seconds_batch(self, algorithms: Sequence[str],
                                    properties: Sequence[GraphProperties],
                                    partition_counts: Sequence[int],
                                    quality_metrics: Sequence[Dict[str, float]],
                                    num_iterations: Optional[Sequence[Optional[int]]] = None
                                    ) -> np.ndarray:
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
            for row, target in zip(rows, targets):
                total = float(target)
                if algorithm in AVERAGE_ITERATION_ALGORITHMS:
                    iterations = num_iterations[row]
                    total *= iterations if iterations is not None else 10
                totals[row] = total
        return totals

    def predict_total_seconds(self, algorithm: str,
                              properties: GraphProperties,
                              num_partitions: int,
                              quality_metrics: Dict[str, float],
                              num_iterations: Optional[int] = None) -> float:
        return float(self.predict_total_seconds_batch(
            [algorithm], [properties], [num_partitions], [quality_metrics],
            [num_iterations])[0])

    def evaluate(self, records: Sequence[ProcessingRecord]
                 ) -> Dict[str, Dict[str, float]]:
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
