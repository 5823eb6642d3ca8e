"""Partitioning quality metrics (Section II-A of the paper).

Five metrics are computed for every partitioning and later predicted by
EASE's PartitioningQualityPredictor:

* replication factor ``RF(P) = (1 / |V|) * sum_i |V(p_i)|``
* edge balance        ``max_i |p_i| / avg_i |p_i|``
* vertex balance      ``max_i |V(p_i)| / avg_i |V(p_i)|``
* source balance      ``max_i |V_src(p_i)| / avg_i |V_src(p_i)|``
* destination balance ``max_i |V_dst(p_i)| / avg_i |V_dst(p_i)|``
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np

from .base import EdgePartition

__all__ = [
    "PartitionQualityMetrics",
    "replication_factor",
    "edge_balance",
    "vertex_balance",
    "source_balance",
    "destination_balance",
    "compute_quality_metrics",
    "QUALITY_METRIC_NAMES",
]

#: Canonical metric names (used as prediction targets and features).
QUALITY_METRIC_NAMES = (
    "replication_factor",
    "edge_balance",
    "vertex_balance",
    "source_balance",
    "destination_balance",
)


def _balance(counts: Sequence[int]) -> float:
    """max / avg of a list of per-partition counts (1.0 when empty)."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0:
        return 1.0
    average = counts.mean()
    if average == 0:
        return 1.0
    return float(counts.max() / average)


def replication_factor(partition: EdgePartition) -> float:
    """Average number of partitions a (non-isolated) vertex spans."""
    return compute_quality_metrics(partition).replication_factor


def edge_balance(partition: EdgePartition) -> float:
    """Balance of the number of edges per partition."""
    return compute_quality_metrics(partition).edge_balance


def vertex_balance(partition: EdgePartition) -> float:
    """Balance of the number of covered vertices per partition."""
    return compute_quality_metrics(partition).vertex_balance


def source_balance(partition: EdgePartition) -> float:
    """Balance of the number of covered source vertices per partition."""
    return compute_quality_metrics(partition).source_balance


def destination_balance(partition: EdgePartition) -> float:
    """Balance of the number of covered destination vertices per partition."""
    return compute_quality_metrics(partition).destination_balance


@dataclass
class PartitionQualityMetrics:
    """The five quality metrics of one partitioning."""

    replication_factor: float
    edge_balance: float
    vertex_balance: float
    source_balance: float
    destination_balance: float

    def as_dict(self) -> Dict[str, float]:
        """Return the metrics as a plain dictionary keyed by metric name."""
        # Explicit construction: dataclasses.asdict pays deepcopy machinery,
        # and this runs per candidate row on the serving hot path.
        return {
            "replication_factor": self.replication_factor,
            "edge_balance": self.edge_balance,
            "vertex_balance": self.vertex_balance,
            "source_balance": self.source_balance,
            "destination_balance": self.destination_balance,
        }


def compute_quality_metrics(partition: EdgePartition) -> PartitionQualityMetrics:
    """Compute all five quality metrics for a partitioning.

    Every count is a row or column sum of one
    :meth:`~repro.partitioning.base.EdgePartition.coverage`: per-partition
    ``|V_src(p_i)|``, ``|V_dst(p_i)|`` and ``|V(p_i)|`` are row sums of
    ``src``, ``dst`` and ``src | dst``, and each vertex's replica count is a
    column sum of ``src | dst``.
    """
    src, dst = partition.coverage()
    covered = src | dst
    replica_counts = covered.sum(axis=0)
    num_covered = int(np.count_nonzero(replica_counts))
    rf = float(replica_counts.sum() / num_covered) if num_covered else 0.0

    return PartitionQualityMetrics(
        replication_factor=rf,
        edge_balance=_balance(partition.edge_counts()),
        vertex_balance=_balance(covered.sum(axis=1)),
        source_balance=_balance(src.sum(axis=1)),
        destination_balance=_balance(dst.sum(axis=1)),
    )
