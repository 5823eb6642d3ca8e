"""Hybrid Edge Partitioner (HEP) (Mayer & Jacobsen, SIGMOD 2021).

HEP splits the edge set in two by vertex degree.  Edges incident to at least
one *low-degree* vertex (degree below ``tau * mean_degree``) are partitioned
in memory with a neighborhood-expansion heuristic; the remaining edges (both
endpoints high-degree) are partitioned in a streaming fashion with an
HDRF-style score that reuses the replication state produced by the in-memory
phase.

The parameter τ controls the trade-off: small τ streams most of the graph
(fast, lower quality), large τ partitions almost everything in memory and
approaches NE quality.  As in the paper we expose τ ∈ {1, 10, 100} as the
three "partitioners" HEP-1, HEP-10 and HEP-100.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from .base import EdgePartition, EdgePartitioner, PartitionerCategory
from .kernels import hep_kernel_stream
from .ne import _ExpansionAllocator

__all__ = ["HybridEdgePartitioner"]


class HybridEdgePartitioner(EdgePartitioner):
    """HEP-τ: in-memory expansion for the low-degree part, streaming for the
    high-degree part.

    Parameters
    ----------
    tau:
        Degree-threshold multiplier; a vertex is *high-degree* when its degree
        exceeds ``tau * mean_degree``.
    balance_slack:
        Capacity factor α used by both phases.
    """

    category = PartitionerCategory.HYBRID

    def __init__(self, tau: float = 10.0, balance_slack: float = 1.05,
                 seed: int = 0) -> None:
        super().__init__(seed=seed)
        if tau <= 0:
            raise ValueError("tau must be positive")
        self.tau = tau
        self.balance_slack = balance_slack
        self.name = f"hep{int(tau)}" if float(tau).is_integer() else f"hep{tau}"

    # ------------------------------------------------------------------ #
    def partition(self, graph: Graph, num_partitions: int) -> EdgePartition:
        k = num_partitions
        degrees = graph.degrees()
        mean_degree = degrees.mean() if graph.num_vertices else 0.0
        threshold = self.tau * mean_degree

        high_degree = degrees > threshold
        # Edges whose endpoints are BOTH high-degree are streamed; everything
        # else is handled by the in-memory expansion phase.
        streamed = high_degree[graph.src] & high_degree[graph.dst]
        in_memory_edges = np.flatnonzero(~streamed)
        streamed_edges = np.flatnonzero(streamed)

        allocator = _ExpansionAllocator(graph, k, self.balance_slack, self.seed,
                                        eligible_edges=in_memory_edges)
        assignment = allocator.run()

        if streamed_edges.size:
            capacity = self.balance_slack * graph.num_edges / k
            hep_kernel_stream(graph.src, graph.dst, degrees, k,
                              assignment, streamed_edges, capacity)

        return EdgePartition(graph, k, assignment, self.name)
