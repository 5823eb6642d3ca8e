"""Edge-partitioner base classes.

Edge partitioning (vertex-cut) divides the *edges* of a graph into ``k``
pairwise disjoint partitions; vertices incident to edges in multiple
partitions are replicated (Section II of the paper).  Every partitioner in
this package consumes a :class:`~repro.graph.Graph` and produces an
:class:`EdgePartition`: an array with the partition id of every edge.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..graph import Graph

__all__ = ["EdgePartition", "EdgePartitioner", "PartitionerCategory"]


class PartitionerCategory:
    """Categories of edge partitioners used throughout the paper."""

    STATELESS_STREAMING = "stateless_streaming"
    STATEFUL_STREAMING = "stateful_streaming"
    IN_MEMORY = "in_memory"
    HYBRID = "hybrid"


@dataclass
class EdgePartition:
    """Result of edge-partitioning a graph into ``k`` parts.

    Attributes
    ----------
    graph:
        The partitioned graph.
    num_partitions:
        Number of partitions ``k``.
    assignment:
        Array of length ``|E|`` with the partition id of every edge.
    partitioner_name:
        Name of the partitioner that produced this assignment.
    """

    graph: Graph
    num_partitions: int
    assignment: np.ndarray
    partitioner_name: str = "unknown"

    def __post_init__(self) -> None:
        self.assignment = np.asarray(self.assignment, dtype=np.int64)
        if self.assignment.shape[0] != self.graph.num_edges:
            raise ValueError("assignment must have one entry per edge")
        if self.assignment.size and (self.assignment.min() < 0
                                     or self.assignment.max() >= self.num_partitions):
            raise ValueError("assignment contains out-of-range partition ids")

    # ------------------------------------------------------------------ #
    def edge_counts(self) -> np.ndarray:
        """Number of edges per partition."""
        return np.bincount(self.assignment, minlength=self.num_partitions)

    def coverage(self) -> Tuple[np.ndarray, np.ndarray]:
        """The ``(k, |V|)`` boolean source and destination covers.

        ``src[p, v]`` is True when partition ``p`` holds an edge whose source
        is ``v`` (row ``p`` is ``V_src(p_i)``), ``dst`` likewise for
        destinations, and ``src | dst`` is ``V(p_i)``.  The quality metrics
        and the processing cost model read every count they need as row or
        column sums of these two arrays (``2·k·|V|`` bytes).
        """
        shape = (self.num_partitions, self.graph.num_vertices)
        src = np.zeros(shape, dtype=bool)
        dst = np.zeros(shape, dtype=bool)
        src[self.assignment, self.graph.src] = True
        dst[self.assignment, self.graph.dst] = True
        return src, dst


class EdgePartitioner(abc.ABC):
    """Abstract base class of all edge partitioners.

    Subclasses implement :meth:`partition`; they must be deterministic for a
    fixed ``seed`` so that profiling runs are reproducible.
    """

    #: Unique name used by the registry, profiling records and predictors.
    name: str = "abstract"
    #: One of the :class:`PartitionerCategory` constants.
    category: str = PartitionerCategory.STATELESS_STREAMING

    def __init__(self, seed: int = 0) -> None:
        self.seed = seed

    @abc.abstractmethod
    def partition(self, graph: Graph, num_partitions: int) -> EdgePartition:
        """Partition ``graph`` into ``num_partitions`` edge partitions."""

    def __call__(self, graph: Graph, num_partitions: int) -> EdgePartition:
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        return self.partition(graph, num_partitions)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r}, seed={self.seed})"
