"""Neighborhood Expansion (NE) in-memory edge partitioner
(Zhang et al., KDD 2017).

NE builds one partition at a time by growing a *core set* of vertices.  At
every step the boundary vertex with the fewest unassigned external neighbours
is moved into the core and all its still-unassigned edges are allocated to the
current partition, until the partition reaches its capacity ``|E| / k``.  The
expansion keeps partitions locally dense, which produces the lowest
replication factors of all partitioner families in the paper — at the cost of
loading the whole graph into memory and a much higher partitioning run-time.

The random seed-vertex selection makes the *vertex balance* of NE fluctuate
between runs (observed in Section V-C of the paper); the replication factor is
stable.  Both behaviours are reproduced here.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional

import numpy as np

from ..graph import Graph
from .base import EdgePartition, EdgePartitioner, PartitionerCategory

__all__ = ["NeighborhoodExpansionPartitioner"]


class NeighborhoodExpansionPartitioner(EdgePartitioner):
    """NE: greedy core-set expansion, one partition at a time.

    Parameters
    ----------
    balance_slack:
        Capacity factor α; each of the first ``k - 1`` partitions stops growing
        at ``alpha * |E| / k`` edges (the last partition takes the remainder).
    seed:
        Seed for the random seed-vertex choices.
    """

    name = "ne"
    category = PartitionerCategory.IN_MEMORY

    def __init__(self, balance_slack: float = 1.0, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self.balance_slack = balance_slack

    def partition(self, graph: Graph, num_partitions: int) -> EdgePartition:
        allocator = _ExpansionAllocator(graph, num_partitions,
                                        self.balance_slack, self.seed)
        assignment = allocator.run()
        return EdgePartition(graph, num_partitions, assignment, self.name)


class _ExpansionAllocator:
    """Shared core-set expansion machinery (used by NE and by HEP's in-memory
    phase)."""

    def __init__(self, graph: Graph, num_partitions: int, balance_slack: float,
                 seed: int, eligible_edges: Optional[np.ndarray] = None) -> None:
        self.graph = graph
        self.k = num_partitions
        self.rng = np.random.default_rng(seed)
        self.adj = graph.undirected_adjacency()
        self.assignment = np.full(graph.num_edges, -1, dtype=np.int64)
        if eligible_edges is None:
            self.eligible = np.ones(graph.num_edges, dtype=bool)
        else:
            self.eligible = np.zeros(graph.num_edges, dtype=bool)
            self.eligible[eligible_edges] = True
        self.num_eligible = int(self.eligible.sum())
        self.capacity = balance_slack * self.num_eligible / max(self.k, 1)
        # free[v] is v's external degree: its eligible, still-unassigned
        # adjacency entries (a self-loop sits there twice), kept up to date
        # as edges are assigned instead of recounted from the slice.
        n = graph.num_vertices
        self.free = (np.bincount(graph.src[self.eligible], minlength=n)
                     + np.bincount(graph.dst[self.eligible], minlength=n)
                     ).tolist()
        self.src = graph.src.tolist()
        self.dst = graph.dst.tolist()

    # ------------------------------------------------------------------ #
    def _unassigned_incident_edges(self, vertex: int) -> np.ndarray:
        start, end = self.adj.indptr[vertex], self.adj.indptr[vertex + 1]
        edge_ids = self.adj.edge_ids[start:end]
        mask = self.eligible[edge_ids] & (self.assignment[edge_ids] < 0)
        return edge_ids[mask]

    def run(self) -> np.ndarray:
        """Allocate all eligible edges to ``k`` partitions; returns assignment
        restricted to eligible edges (ineligible edges stay at -1)."""
        remaining_vertices = _RandomVertexPool(self.graph.num_vertices, self.rng)
        for partition in range(self.k - 1):
            self._grow_partition(partition, remaining_vertices)
        # Last partition absorbs everything still unassigned.
        leftovers = np.flatnonzero(self.eligible & (self.assignment < 0))
        self.assignment[leftovers] = self.k - 1
        return self.assignment

    def _grow_partition(self, partition: int,
                        vertex_pool: "_RandomVertexPool") -> None:
        size = 0
        core = np.zeros(self.graph.num_vertices, dtype=bool)
        heap: List = []  # (external_degree, tiebreak, vertex)
        in_boundary = np.zeros(self.graph.num_vertices, dtype=bool)
        counter = 0
        free, src, dst = self.free, self.src, self.dst

        def push(vertex: int) -> None:
            nonlocal counter
            heapq.heappush(heap, (free[vertex], counter, vertex))
            counter += 1
            in_boundary[vertex] = True

        while size < self.capacity:
            vertex = self._pop_boundary(heap, core)
            if vertex is None:
                vertex = vertex_pool.draw(lambda v: free[v] > 0)
                if vertex is None:
                    return  # no unassigned eligible edges left anywhere
            core[vertex] = True
            for edge_id in self._unassigned_incident_edges(vertex).tolist():
                if size >= self.capacity:
                    break
                u, w = src[edge_id], dst[edge_id]
                if u != w:
                    free[u] -= 1
                    free[w] -= 1
                elif self.assignment[edge_id] < 0:
                    free[u] -= 2  # a self-loop: both entries, on first visit
                self.assignment[edge_id] = partition
                size += 1
                other = u if w == vertex else w
                if not core[other] and not in_boundary[other]:
                    push(other)

    def _pop_boundary(self, heap: List, core: np.ndarray) -> Optional[int]:
        """Pop the boundary vertex with the smallest (lazily updated) external
        degree."""
        while heap:
            stored_degree, _, vertex = heapq.heappop(heap)
            if core[vertex]:
                continue
            current = self.free[vertex]
            if current == 0:
                continue
            if current > stored_degree and heap:
                # Stale entry: push back with the fresh score.
                heapq.heappush(heap, (current, stored_degree, vertex))
                continue
            return int(vertex)
        return None


class _RandomVertexPool:
    """Draw random vertices without replacement, skipping exhausted ones."""

    def __init__(self, num_vertices: int, rng: np.random.Generator) -> None:
        self.order = rng.permutation(num_vertices)
        self.position = 0

    def draw(self, is_useful) -> Optional[int]:
        while self.position < self.order.shape[0]:
            vertex = int(self.order[self.position])
            self.position += 1
            if is_useful(vertex):
                return vertex
        return None
