"""Sequential per-edge formulations of the HDRF-style streaming partitioners,
and the earlier formulations of partition coverage.

The three ``*_loop_*`` functions are the seed loops the kernels in
:mod:`repro.partitioning.kernels` replaced: every edge is scored against
every partition with a dozen numpy calls.  They take the same arrays as the
kernel they check, so a test can call either side with one argument list (or
swap one for the other inside a partitioner).

``ReferenceExpansionAllocator`` is the core-set expansion of NE and of HEP's
in-memory phase as it was while every external degree was recounted from the
adjacency slice; ``reference.reference_loops()`` swaps it in for
``repro.partitioning.ne._ExpansionAllocator`` under both partitioners.

The rest are the three ways coverage — which partitions hold an edge at
vertex ``v`` — was built before ``EdgePartition.coverage``: per-partition
vertex-set loops, packed ``(partition, vertex)`` keys through ``np.unique``
for the quality metrics, and a dense scatter in the processing cost model.
"""

import heapq
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.graph import Graph
from repro.partitioning import EdgePartition
from repro.partitioning.kernels import (
    replication_balance_scores,
    use_replica_bitmask,
)
from repro.partitioning.metrics import PartitionQualityMetrics
from repro.processing import ClusterSpec


def hdrf_loop_assign(src: np.ndarray, dst: np.ndarray, num_vertices: int,
                     num_partitions: int,
                     balance_weight: float) -> np.ndarray:
    """Sequential per-edge formulation (the kernel's reference)."""
    k = num_partitions
    num_edges = src.shape[0]
    partial_degree = np.zeros(num_vertices, dtype=np.int64)
    # replicas[v] is a bitmask of partitions holding v; falls back to a
    # boolean matrix when k exceeds the shared bitmask cutoff.
    use_bitmask = use_replica_bitmask(k)
    if use_bitmask:
        replica_mask = np.zeros(num_vertices, dtype=np.int64)
    else:
        replica_matrix = np.zeros((num_vertices, k), dtype=bool)
    partition_sizes = np.zeros(k, dtype=np.int64)
    assignment = np.empty(num_edges, dtype=np.int64)
    epsilon = 1.0

    # Running extrema of partition_sizes.  Sizes only ever grow by one,
    # so the maximum updates trivially and the minimum advances exactly
    # when the last partition at the current minimum gains an edge; a
    # size histogram keeps that check O(1) instead of an O(k) scan per
    # edge.
    max_size = 0
    min_size = 0
    size_counts = {0: k}

    partition_ids = np.arange(k)
    for edge_id in range(num_edges):
        u = int(src[edge_id])
        v = int(dst[edge_id])
        partial_degree[u] += 1
        partial_degree[v] += 1
        deg_u = partial_degree[u]
        deg_v = partial_degree[v]
        total = deg_u + deg_v
        theta_u = deg_u / total
        theta_v = deg_v / total

        if use_bitmask:
            in_p_u = (replica_mask[u] >> partition_ids) & 1
            in_p_v = (replica_mask[v] >> partition_ids) & 1
        else:
            in_p_u = replica_matrix[u]
            in_p_v = replica_matrix[v]

        scores = replication_balance_scores(
            in_p_u, in_p_v, 1.0 + (1.0 - theta_u), 1.0 + (1.0 - theta_v),
            partition_sizes, max_size, min_size, balance_weight,
            epsilon)
        best = int(np.argmax(scores))

        assignment[edge_id] = best
        old_size = int(partition_sizes[best])
        new_size = old_size + 1
        partition_sizes[best] = new_size
        size_counts[old_size] -= 1
        size_counts[new_size] = size_counts.get(new_size, 0) + 1
        if new_size > max_size:
            max_size = new_size
        if old_size == min_size and size_counts[old_size] == 0:
            del size_counts[old_size]
            min_size = new_size
        if use_bitmask:
            replica_mask[u] |= np.int64(1) << np.int64(best)
            replica_mask[v] |= np.int64(1) << np.int64(best)
        else:
            replica_matrix[u, best] = True
            replica_matrix[v, best] = True

    return assignment


def two_ps_loop_assign(src: np.ndarray, dst: np.ndarray, num_vertices: int,
                       num_partitions: int, preferred: np.ndarray,
                       capacity: float,
                       balance_weight: float) -> np.ndarray:
    """Sequential per-edge formulation (the kernel's reference)."""
    k = num_partitions
    num_edges = src.shape[0]
    assignment = np.empty(num_edges, dtype=np.int64)
    partition_sizes = np.zeros(k, dtype=np.int64)
    use_bitmask = use_replica_bitmask(k)
    if use_bitmask:
        replica_mask = np.zeros(num_vertices, dtype=np.int64)
    else:
        replica_matrix = np.zeros((num_vertices, k), dtype=bool)
    partial_degree = np.zeros(num_vertices, dtype=np.int64)
    partition_ids = np.arange(k)
    epsilon = 1.0

    for edge_id in range(num_edges):
        u = int(src[edge_id])
        v = int(dst[edge_id])
        pu, pv = int(preferred[u]), int(preferred[v])
        partial_degree[u] += 1
        partial_degree[v] += 1

        chosen = -1
        if pu == pv and partition_sizes[pu] < capacity:
            chosen = pu
        else:
            # Prefer whichever endpoint's cluster partition still has room,
            # choosing the one holding the lower-degree endpoint first.
            candidates = [pu, pv] if partial_degree[u] <= partial_degree[v] else [pv, pu]
            for candidate in candidates:
                if partition_sizes[candidate] < capacity:
                    chosen = candidate
                    break
        if chosen < 0:
            # HDRF-style fallback: replication score + balance score.
            deg_u, deg_v = partial_degree[u], partial_degree[v]
            theta_u = deg_u / (deg_u + deg_v)
            theta_v = 1.0 - theta_u
            if use_bitmask:
                in_p_u = (replica_mask[u] >> partition_ids) & 1
                in_p_v = (replica_mask[v] >> partition_ids) & 1
            else:
                in_p_u = replica_matrix[u]
                in_p_v = replica_matrix[v]
            scores = replication_balance_scores(
                in_p_u, in_p_v, 1.0 + (1.0 - theta_u),
                1.0 + (1.0 - theta_v), partition_sizes,
                partition_sizes.max(), partition_sizes.min(),
                balance_weight, epsilon)
            scores[partition_sizes >= capacity] = -np.inf
            if np.isneginf(scores).all():
                # Every partition is at capacity: place the edge on the
                # least-loaded partition instead of letting the argmax of
                # an all--inf vector silently overflow partition 0.
                chosen = int(np.argmin(partition_sizes))
            else:
                chosen = int(np.argmax(scores))

        assignment[edge_id] = chosen
        partition_sizes[chosen] += 1
        if use_bitmask:
            replica_mask[u] |= np.int64(1) << np.int64(chosen)
            replica_mask[v] |= np.int64(1) << np.int64(chosen)
        else:
            replica_matrix[u, chosen] = True
            replica_matrix[v, chosen] = True

    return assignment


def hep_loop_stream(src: np.ndarray, dst: np.ndarray, degrees: np.ndarray,
                    num_partitions: int, assignment: np.ndarray,
                    streamed_edges: np.ndarray, capacity: float) -> None:
    """HDRF-style streaming of the high-degree edges, seeded with the
    replication state of the in-memory phase (the kernel's reference)."""
    k = num_partitions
    num_vertices = degrees.shape[0]
    partition_sizes = np.bincount(assignment[assignment >= 0], minlength=k)

    use_bitmask = use_replica_bitmask(k)
    assigned = np.flatnonzero(assignment >= 0)
    if use_bitmask:
        replica_mask = np.zeros(num_vertices, dtype=np.int64)
        if assigned.size:
            bits = np.int64(1) << assignment[assigned]
            np.bitwise_or.at(replica_mask, src[assigned], bits)
            np.bitwise_or.at(replica_mask, dst[assigned], bits)
    else:
        replica_matrix = np.zeros((num_vertices, k), dtype=bool)
        if assigned.size:
            partitions = assignment[assigned]
            replica_matrix[src[assigned], partitions] = True
            replica_matrix[dst[assigned], partitions] = True

    partition_ids = np.arange(k)
    epsilon = 1.0
    for edge_id in streamed_edges:
        u = int(src[edge_id])
        v = int(dst[edge_id])
        deg_u, deg_v = int(degrees[u]), int(degrees[v])
        total = max(deg_u + deg_v, 1)
        theta_u = deg_u / total
        theta_v = deg_v / total
        if use_bitmask:
            in_p_u = (replica_mask[u] >> partition_ids) & 1
            in_p_v = (replica_mask[v] >> partition_ids) & 1
        else:
            in_p_u = replica_matrix[u]
            in_p_v = replica_matrix[v]
        scores = replication_balance_scores(
            in_p_u, in_p_v, 1.0 + (1.0 - theta_u), 1.0 + (1.0 - theta_v),
            partition_sizes, partition_sizes.max(), partition_sizes.min(),
            1.0, epsilon)
        over_capacity = partition_sizes >= capacity
        if not over_capacity.all():
            scores = np.where(over_capacity, -np.inf, scores)
        best = int(np.argmax(scores))
        assignment[edge_id] = best
        partition_sizes[best] += 1
        if use_bitmask:
            replica_mask[u] |= np.int64(1) << np.int64(best)
            replica_mask[v] |= np.int64(1) << np.int64(best)
        else:
            replica_matrix[u, best] = True
            replica_matrix[v, best] = True


# --------------------------------------------------------------------------- #
# Core-set expansion (NE, HEP's in-memory phase) with recounted degrees
# --------------------------------------------------------------------------- #
class ReferenceExpansionAllocator:
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

    # ------------------------------------------------------------------ #
    def _unassigned_incident_edges(self, vertex: int) -> np.ndarray:
        start, end = self.adj.indptr[vertex], self.adj.indptr[vertex + 1]
        edge_ids = self.adj.edge_ids[start:end]
        mask = self.eligible[edge_ids] & (self.assignment[edge_ids] < 0)
        return edge_ids[mask]

    def _external_degree(self, vertex: int) -> int:
        return int(self._unassigned_incident_edges(vertex).size)

    def run(self) -> np.ndarray:
        """Allocate all eligible edges to ``k`` partitions; returns assignment
        restricted to eligible edges (ineligible edges stay at -1)."""
        remaining_vertices = ReferenceVertexPool(self.graph.num_vertices,
                                                 self.rng)
        for partition in range(self.k - 1):
            self._grow_partition(partition, remaining_vertices)
        # Last partition absorbs everything still unassigned.
        leftovers = np.flatnonzero(self.eligible & (self.assignment < 0))
        self.assignment[leftovers] = self.k - 1
        return self.assignment

    def _grow_partition(self, partition: int,
                        vertex_pool: "ReferenceVertexPool") -> None:
        size = 0
        core = np.zeros(self.graph.num_vertices, dtype=bool)
        heap: List = []  # (external_degree, tiebreak, vertex)
        in_boundary = np.zeros(self.graph.num_vertices, dtype=bool)
        counter = 0

        def push(vertex: int) -> None:
            nonlocal counter
            heapq.heappush(heap, (self._external_degree(vertex), counter, vertex))
            counter += 1
            in_boundary[vertex] = True

        while size < self.capacity:
            vertex = self._pop_boundary(heap, core)
            if vertex is None:
                vertex = vertex_pool.draw(
                    lambda v: self._external_degree(v) > 0)
                if vertex is None:
                    return  # no unassigned eligible edges left anywhere
            core[vertex] = True
            for edge_id in self._unassigned_incident_edges(vertex):
                if size >= self.capacity:
                    break
                self.assignment[edge_id] = partition
                size += 1
                other = int(self.graph.src[edge_id]) if int(self.graph.dst[edge_id]) == vertex \
                    else int(self.graph.dst[edge_id])
                if not core[other] and not in_boundary[other]:
                    push(other)

    def _pop_boundary(self, heap: List, core: np.ndarray) -> Optional[int]:
        """Pop the boundary vertex with the smallest (lazily updated) external
        degree."""
        while heap:
            stored_degree, _, vertex = heapq.heappop(heap)
            if core[vertex]:
                continue
            current = self._external_degree(vertex)
            if current == 0:
                continue
            if current > stored_degree and heap:
                # Stale entry: push back with the fresh score.
                heapq.heappush(heap, (current, stored_degree, vertex))
                continue
            return int(vertex)
        return None


class ReferenceVertexPool:
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


# --------------------------------------------------------------------------- #
# Coverage: per-partition vertex sets
# --------------------------------------------------------------------------- #
def vertex_sets(partition: EdgePartition) -> List[np.ndarray]:
    """``V(p_i)``: vertices covered by each partition."""
    covered = []
    for p in range(partition.num_partitions):
        mask = partition.assignment == p
        vertices = np.union1d(partition.graph.src[mask],
                              partition.graph.dst[mask])
        covered.append(vertices)
    return covered


def source_vertex_sets(partition: EdgePartition) -> List[np.ndarray]:
    """``V_src(p_i)``: source vertices covered by each partition."""
    return [np.unique(partition.graph.src[partition.assignment == p])
            for p in range(partition.num_partitions)]


def destination_vertex_sets(partition: EdgePartition) -> List[np.ndarray]:
    """``V_dst(p_i)``: destination vertices covered by each partition."""
    return [np.unique(partition.graph.dst[partition.assignment == p])
            for p in range(partition.num_partitions)]


# --------------------------------------------------------------------------- #
# Coverage: packed (partition, vertex) keys for the quality metrics
# --------------------------------------------------------------------------- #
def _balance(counts: Sequence[int]) -> float:
    """max / avg of a list of per-partition counts (1.0 when empty)."""
    counts = np.asarray(counts, dtype=np.float64)
    if counts.size == 0:
        return 1.0
    average = counts.mean()
    if average == 0:
        return 1.0
    return float(counts.max() / average)


def _unique_pair_keys(partition: EdgePartition,
                      vertices: np.ndarray) -> np.ndarray:
    return np.unique(partition.assignment
                     * np.int64(partition.graph.num_vertices) + vertices)


def quality_metrics_pair_keys(partition: EdgePartition
                              ) -> PartitionQualityMetrics:
    """All five quality metrics from packed-pair-key ``np.unique`` counts."""
    graph = partition.graph
    k = partition.num_partitions

    edge_counts = partition.edge_counts()

    # One unique pass per endpoint over packed (partition, vertex) keys; the
    # pair arrays are shared by the per-endpoint counts, the union coverage
    # and the replication factor, so the dominant sort work happens exactly
    # twice (plus one merge for the union).
    src_pairs = _unique_pair_keys(partition, graph.src)
    dst_pairs = _unique_pair_keys(partition, graph.dst)
    src_counts = np.bincount((src_pairs // graph.num_vertices).astype(np.int64),
                             minlength=k)
    dst_counts = np.bincount((dst_pairs // graph.num_vertices).astype(np.int64),
                             minlength=k)
    unique_both = np.union1d(src_pairs, dst_pairs)
    covered_counts = np.bincount((unique_both // graph.num_vertices).astype(np.int64),
                                 minlength=k)

    covered_vertices = np.unique(unique_both % graph.num_vertices)
    num_covered = covered_vertices.size
    rf = float(covered_counts.sum() / num_covered) if num_covered else 0.0

    return PartitionQualityMetrics(
        replication_factor=rf,
        edge_balance=_balance(edge_counts),
        vertex_balance=_balance(covered_counts),
        source_balance=_balance(src_counts),
        destination_balance=_balance(dst_counts),
    )


# --------------------------------------------------------------------------- #
# Coverage: the processing cost model's dense scatter
# --------------------------------------------------------------------------- #
class ReferenceCostModel:
    """``PartitionedGraphCostModel`` with its cover built by a scatter of its
    own (constructor and ``superstep_cost`` verbatim)."""

    def __init__(self, partition: EdgePartition, cluster: ClusterSpec) -> None:
        self.partition = partition
        self.cluster = cluster
        graph = partition.graph
        k = partition.num_partitions

        self._machine_of_partition = np.array(
            [cluster.machine_of_partition(p) for p in range(k)], dtype=np.int64)
        self._machine_of_edge = self._machine_of_partition[partition.assignment]

        # Coverage matrix: cover[p, v] == True when partition p holds at least
        # one edge incident to v.  The matrix is k x |V| booleans, which is
        # small at simulator scale and makes the per-superstep charges pure
        # numpy reductions.
        cover = np.zeros((k, graph.num_vertices), dtype=bool)
        cover[partition.assignment, graph.src] = True
        cover[partition.assignment, graph.dst] = True

        # Machine-level coverage counts per vertex (how many replicas of v
        # live on each machine).
        num_machines = cluster.num_machines
        machine_cover = np.zeros((num_machines, graph.num_vertices),
                                 dtype=np.int64)
        for p in range(k):
            machine_cover[self._machine_of_partition[p]] += cover[p]
        self._machine_cover = machine_cover

        #: Replica count per vertex (0 for isolated vertices).
        self.replica_counts = cover.sum(axis=0)

    def superstep_cost(self, active_vertices: np.ndarray,
                       updated_vertices: np.ndarray, edge_work: float,
                       vertex_work: float,
                       message_size: float) -> Tuple[float, float, int]:
        graph = self.partition.graph
        cluster = self.cluster
        num_machines = cluster.num_machines

        active_vertices = np.asarray(active_vertices, dtype=bool)
        updated_vertices = np.asarray(updated_vertices, dtype=bool)

        active_edge_mask = active_vertices[graph.src]
        if active_edge_mask.any():
            edges_per_machine = np.bincount(
                self._machine_of_edge[active_edge_mask],
                minlength=num_machines)
        else:
            edges_per_machine = np.zeros(num_machines, dtype=np.int64)

        if active_vertices.any():
            vertices_per_machine = self._machine_cover[:, active_vertices].sum(axis=1)
        else:
            vertices_per_machine = np.zeros(num_machines, dtype=np.int64)

        per_machine_compute = (
            cluster.edge_compute_cost * edge_work * edges_per_machine
            + cluster.vertex_compute_cost * vertex_work * vertices_per_machine)
        compute_seconds = float(per_machine_compute.max(initial=0.0))

        if updated_vertices.any():
            replicas_of_updated = self.replica_counts[updated_vertices]
            messages = float(np.maximum(replicas_of_updated - 1, 0).sum())
            communication_seconds = (
                messages * message_size
                / (cluster.network_bandwidth * num_machines)
                + cluster.network_latency)
        else:
            communication_seconds = cluster.network_latency

        return compute_seconds, communication_seconds, int(active_edge_mask.sum())
