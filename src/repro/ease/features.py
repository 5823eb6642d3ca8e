"""Feature engineering for the EASE predictors (Table III of the paper).

Three graph-property feature sets are used:

* ``simple``   — |E|, |V|
* ``basic``    — simple + mean degree, density, in-/out-degree skewness
* ``advanced`` — basic + mean triangles, mean local clustering coefficient

On top of the graph properties, each predictor adds its task-specific
features: the partitioner (one-hot) and the number of partitions for the
quality predictor, the partitioner for the run-time predictor, and the five
partitioning quality metrics for the processing-time predictor.  Each
feature matrix then feeds a :class:`TargetModel` (scaler + regressor).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..graph import GraphProperties
from ..partitioning import QUALITY_METRIC_NAMES
from ..ml import OneHotEncoder, Regressor, StandardScaler

__all__ = [
    "FEATURE_SETS",
    "graph_feature_names",
    "graph_feature_vector",
    "graph_feature_matrix",
    "QualityFeatureBuilder",
    "PartitioningTimeFeatureBuilder",
    "ProcessingTimeFeatureBuilder",
    "TargetModel",
]

#: Graph-property feature names per feature set (Table III).
FEATURE_SETS: Dict[str, Tuple[str, ...]] = {
    "simple": ("num_edges", "num_vertices"),
    "basic": ("num_edges", "num_vertices", "mean_degree", "density",
              "in_degree_skewness", "out_degree_skewness"),
    "advanced": ("num_edges", "num_vertices", "mean_degree", "density",
                 "in_degree_skewness", "out_degree_skewness",
                 "mean_triangles", "mean_local_clustering"),
}


def graph_feature_names(feature_set: str) -> Tuple[str, ...]:
    """Return the graph-property names of a feature set."""
    try:
        return FEATURE_SETS[feature_set]
    except KeyError as error:
        raise ValueError(f"unknown feature set {feature_set!r}; expected one "
                         f"of {sorted(FEATURE_SETS)}") from error


def graph_feature_vector(properties: GraphProperties,
                         feature_set: str = "basic") -> np.ndarray:
    """Graph-property feature vector in the canonical column order."""
    values = properties.as_dict()
    return np.array([values[name] for name in graph_feature_names(feature_set)],
                    dtype=np.float64)


def graph_feature_matrix(properties: Sequence[GraphProperties],
                         feature_set: str = "basic") -> np.ndarray:
    """Graph-property feature matrix, one row per entry of ``properties``.

    A profiling dataset holds many records per graph and they all share the
    same :class:`GraphProperties` instance (the serving micro-batcher tiles
    one instance across every candidate partitioner in the same way), so the
    property dictionary of each distinct instance is unpacked once and its
    row broadcast to every position that references it.
    """
    names = graph_feature_names(feature_set)
    unique_rows: List[List[float]] = []
    row_of: Dict[int, int] = {}
    index = np.empty(len(properties), dtype=np.intp)
    for position, props in enumerate(properties):
        row = row_of.get(id(props))
        if row is None:
            values = props.as_dict()
            row = len(unique_rows)
            unique_rows.append([values[name] for name in names])
            row_of[id(props)] = row
        index[position] = row
    if not unique_rows:
        return np.empty((0, len(names)), dtype=np.float64)
    return np.asarray(unique_rows, dtype=np.float64)[index]


class TargetModel:
    """One EASE model: a z-score scaler in front of a regressor.

    Every predicted quantity of a trained system (each quality metric, the
    partitioning time, each algorithm's processing time) is one of these;
    the predictors only choose which features and target values it sees.
    """

    def __init__(self, model: Regressor) -> None:
        self.model = model
        self.scaler = StandardScaler()

    def fit(self, features: np.ndarray, values: np.ndarray) -> "TargetModel":
        self.model.fit(self.scaler.fit_transform(features), values)
        return self

    def predict(self, features: np.ndarray) -> np.ndarray:
        return self.model.predict(self.scaler.transform(features))


@dataclass
class QualityFeatureBuilder:
    """Features of the PartitioningQualityPredictor.

    Graph properties (basic or advanced) + one-hot partitioner + number of
    partitions.
    """

    feature_set: str = "basic"

    def __post_init__(self) -> None:
        self._partitioner_encoder = OneHotEncoder(handle_unknown="ignore")

    def fit(self, partitioner_names: Sequence[str]) -> "QualityFeatureBuilder":
        self._partitioner_encoder.fit(partitioner_names)
        return self

    def feature_names(self) -> List[str]:
        names = list(graph_feature_names(self.feature_set))
        names.append("num_partitions")
        names.extend(f"partitioner={name}"
                     for name in self._partitioner_encoder.categories_)
        return names

    def build(self, properties: Sequence[GraphProperties],
              partitioner_names: Sequence[str],
              partition_counts: Sequence[int]) -> np.ndarray:
        graph_features = graph_feature_matrix(properties, self.feature_set)
        partitioner_features = self._partitioner_encoder.transform(partitioner_names)
        k_column = np.asarray(partition_counts, dtype=np.float64).reshape(-1, 1)
        return np.hstack([graph_features, k_column, partitioner_features])


@dataclass
class PartitioningTimeFeatureBuilder:
    """Features of the PartitioningTimePredictor.

    Graph properties (all sets are candidates; the advanced set is the
    default because partitioner behaviour such as HEP's in-memory/streaming
    split depends on the degree structure) + one-hot partitioner.
    """

    feature_set: str = "advanced"

    def __post_init__(self) -> None:
        self._partitioner_encoder = OneHotEncoder(handle_unknown="ignore")

    def fit(self, partitioner_names: Sequence[str]) -> "PartitioningTimeFeatureBuilder":
        self._partitioner_encoder.fit(partitioner_names)
        return self

    def feature_names(self) -> List[str]:
        names = list(graph_feature_names(self.feature_set))
        names.extend(f"partitioner={name}"
                     for name in self._partitioner_encoder.categories_)
        return names

    def build(self, properties: Sequence[GraphProperties],
              partitioner_names: Sequence[str]) -> np.ndarray:
        graph_features = graph_feature_matrix(properties, self.feature_set)
        partitioner_features = self._partitioner_encoder.transform(partitioner_names)
        return np.hstack([graph_features, partitioner_features])


class ProcessingTimeFeatureBuilder:
    """Features of the ProcessingTimePredictor.

    Simple graph properties (|E|, |V|) + the five partitioning quality
    metrics + the number of partitions.  The partitioner identity is *not* a
    feature (design choice of Section IV-E: new partitioners can be added
    without retraining the processing model).
    """

    feature_set = "simple"

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
