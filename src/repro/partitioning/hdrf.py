"""High-Degree Replicated First (HDRF) stateful streaming partitioner
(Petroni et al., CIKM 2015).

HDRF streams the edge list and keeps two pieces of state: the partial degree
of every vertex seen so far and the vertex-to-partition replication table.
Every edge is scored against every partition with a replication term that
prefers partitions already holding the *lower-degree* endpoint (so high-degree
vertices end up replicated, as in DBH, but adaptively) and a balance term that
steers edges toward under-loaded partitions.
"""

from __future__ import annotations

from ..graph import Graph
from .base import EdgePartition, EdgePartitioner, PartitionerCategory
from .kernels import hdrf_kernel_assign

__all__ = ["HDRFPartitioner"]


class HDRFPartitioner(EdgePartitioner):
    """HDRF streaming vertex-cut partitioner.

    Parameters
    ----------
    balance_weight:
        The λ parameter weighting the balance term (λ = 1 reproduces the
        paper's default; larger values give better edge balance at the cost of
        replication factor).
    seed:
        Used to shuffle tie-breaking order deterministically.
    """

    name = "hdrf"
    category = PartitionerCategory.STATEFUL_STREAMING

    def __init__(self, balance_weight: float = 1.0, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self.balance_weight = balance_weight

    def partition(self, graph: Graph, num_partitions: int) -> EdgePartition:
        assignment = hdrf_kernel_assign(graph.src, graph.dst,
                                        graph.num_vertices, num_partitions,
                                        self.balance_weight)
        return EdgePartition(graph, num_partitions, assignment, self.name)
