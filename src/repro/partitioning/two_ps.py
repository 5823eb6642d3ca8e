"""Two-Phase Streaming (2PS) edge partitioner (Mayer et al., 2020).

2PS is a *stateful streaming* partitioner with two passes over the edge list:

1. **Clustering phase** — a lightweight streaming clustering assigns every
   vertex to a cluster, merging vertices toward the higher-volume cluster of
   the two endpoints (volume-bounded so clusters do not exceed a partition's
   capacity).
2. **Partitioning phase** — clusters are sorted by volume and packed onto
   partitions; the edge list is streamed again and every edge whose endpoints
   map to the same partition (and fit) is placed there, all remaining edges
   are placed with an HDRF-style degree-aware score.

The result is much lower replication than stateless hashing at a run-time
close to single-pass streaming, matching the positioning of 2PS in Figure 1.
"""

from __future__ import annotations

import numpy as np

from ..graph import Graph
from .base import EdgePartition, EdgePartitioner, PartitionerCategory
from .kernels import two_ps_kernel_assign

__all__ = ["TwoPhaseStreamingPartitioner"]


class TwoPhaseStreamingPartitioner(EdgePartitioner):
    """2PS: streaming clustering followed by cluster-aware streaming assignment.

    Parameters
    ----------
    balance_slack:
        Maximum allowed edge imbalance factor α (a partition may hold at most
        ``alpha * |E| / k`` edges).
    balance_weight:
        Weight of the balance term in the fallback scoring.
    """

    name = "2ps"
    category = PartitionerCategory.STATEFUL_STREAMING

    def __init__(self, balance_slack: float = 1.05, balance_weight: float = 1.0,
                 seed: int = 0) -> None:
        super().__init__(seed=seed)
        self.balance_slack = balance_slack
        self.balance_weight = balance_weight

    # ------------------------------------------------------------------ #
    def _clustering_phase(self, graph: Graph, capacity: float) -> np.ndarray:
        """Streaming clustering: merge endpoints toward the larger cluster.

        The arithmetic is on Python scalars (unboxed lists) for speed,
        which produces the same IEEE-754 sequence as the original
        numpy-scalar formulation.
        """
        num_vertices = graph.num_vertices
        cluster_of = list(range(num_vertices))
        # Cluster volume = sum of degrees of member vertices seen so far.
        volume = [0.0] * num_vertices
        for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
            cu = cluster_of[u]
            cv = cluster_of[v]
            volume[cu] += 1.0
            volume[cv] += 1.0
            if cu == cv:
                continue
            # Merge the endpoint in the smaller cluster into the larger one,
            # unless that would overflow the capacity bound.
            if volume[cu] >= volume[cv]:
                big, small, small_vertex = cu, cv, v
            else:
                big, small, small_vertex = cv, cu, u
            if volume[big] + 1.0 <= capacity:
                cluster_of[small_vertex] = big
                volume[big] += 1.0
                shrunk = volume[small] - 1.0
                volume[small] = shrunk if shrunk > 0.0 else 0.0
        return np.asarray(cluster_of, dtype=np.int64)

    def _pack_clusters(self, cluster_of: np.ndarray, degrees: np.ndarray,
                       num_partitions: int) -> np.ndarray:
        """Assign clusters to partitions with a largest-first greedy packing."""
        num_vertices = cluster_of.shape[0]
        # bincount sums the weights in array order, matching the np.add.at
        # scatter it replaces bit for bit.
        cluster_volume = np.bincount(cluster_of,
                                     weights=degrees.astype(np.float64),
                                     minlength=num_vertices)
        cluster_ids = np.flatnonzero(cluster_volume > 0)
        order = cluster_ids[np.argsort(-cluster_volume[cluster_ids])]
        partition_load = np.zeros(num_partitions, dtype=np.float64)
        cluster_partition = np.zeros(num_vertices, dtype=np.int64)
        for cluster in order:
            target = int(np.argmin(partition_load))
            cluster_partition[cluster] = target
            partition_load[target] += cluster_volume[cluster]
        return cluster_partition

    # ------------------------------------------------------------------ #
    def partition(self, graph: Graph, num_partitions: int) -> EdgePartition:
        k = num_partitions
        num_edges = graph.num_edges
        capacity = self.balance_slack * max(num_edges, 1) / k

        cluster_of = self._clustering_phase(graph, capacity)
        degrees = graph.degrees()
        cluster_partition = self._pack_clusters(cluster_of, degrees, k)
        preferred = cluster_partition[cluster_of]

        assignment = two_ps_kernel_assign(
            graph.src, graph.dst, graph.num_vertices, k, preferred,
            capacity, self.balance_weight)
        return EdgePartition(graph, k, assignment, self.name)
