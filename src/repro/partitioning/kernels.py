"""Batched scoring kernels for the stateful streaming partitioners.

HDRF, 2PS and HEP's streaming phase all score every edge against every
partition with the same two-term formula (replication affinity + load
balance).  The straightforward implementation recomputes that score with a
dozen numpy calls *per edge*, which made partitioning the per-unit hot spot
of the profiling runtime.  This module provides a kernel layer that produces
**assignment-for-assignment identical** results while doing the heavy work in
numpy blocks:

* the per-edge endpoint degrees (and the replication coefficients derived
  from them) are precomputed for the whole stream with a vectorized
  occurrence-ranking pass — they depend only on the edge order, never on the
  assignments, so the entire sequential loop's degree bookkeeping disappears;
* the sequential part that *does* depend on earlier assignments (replica
  sets and partition sizes) is reduced to a handful of native operations per
  edge by :class:`StreamingScoreState`, which maintains the balance-score
  vector incrementally and exploits a dominance property of the score
  (for ``balance_weight <= 1`` a partition already holding a replica always
  strictly beats every replica-free partition) to skip the argmax over all
  ``k`` partitions on most edges;
* the per-edge pass itself, :func:`stream_assign`, exists once — HDRF, 2PS
  and HEP's streaming phase only configure it — and materializes edges
  blockwise (``BLOCK_SIZE``) so it never holds more than one block of
  unboxed scalars at a time.

Exact equality with the sequential loops holds because every floating-point
value is computed with the same elementwise operations in the same order as
the loop implementations, and ties are broken with the same
first-lowest-index rule as ``np.argmax``.  The loop implementations live on
as test oracles in ``tests/reference/``, and the test suite asserts
byte-identical assignments between each kernel and its loop.
"""

from __future__ import annotations

import itertools
import time
from typing import List, Optional, Tuple

import numpy as np

from ..obs import get_registry

__all__ = [
    "BITMASK_MAX_PARTITIONS",
    "use_replica_bitmask",
    "streaming_partial_degrees",
    "replication_coefficients",
    "replication_balance_scores",
    "StreamingScoreState",
    "stream_assign",
    "hdrf_kernel_assign",
    "two_ps_kernel_assign",
    "hep_kernel_stream",
]


#: Largest ``k`` for which per-vertex replica sets fit an ``int64`` bitmask.
#: Shifting an int64 by >= 64 silently yields 0 in numpy, so a read or write
#: path using a larger ``k`` with the bitmask representation would *silently*
#: lose every replica bit.  All partitioners must consult this single
#: constant (via :func:`use_replica_bitmask`) on both their read and write
#: paths so the two can never disagree.
BITMASK_MAX_PARTITIONS = 63

#: Edges materialized (unboxed from numpy) per block of :func:`stream_assign`.
BLOCK_SIZE = 1 << 15

#: The ``eps`` of the balance term's denominator (HDRF's, shared by all three).
EPSILON = 1.0

_NEG_INF = float("-inf")


def use_replica_bitmask(num_partitions: int) -> bool:
    """True when per-vertex replicas can be stored in an int64 bitmask."""
    return num_partitions <= BITMASK_MAX_PARTITIONS


# --------------------------------------------------------------------------- #
# Whole-stream precomputation
# --------------------------------------------------------------------------- #
def streaming_partial_degrees(src: np.ndarray,
                              dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge partial degrees of both endpoints, post-increment.

    Returns ``(deg_u, deg_v)`` where ``deg_u[i]`` equals the value of
    ``partial_degree[src[i]]`` observed by the sequential loop *after* it has
    incremented both endpoint counters of edge ``i`` (for a self loop both
    increments land on the same vertex, so both degrees equal the counter
    after +2).  The result depends only on the edge order, so it is computed
    for the whole stream with one stable argsort instead of per-edge updates.
    """
    num_edges = src.shape[0]
    if num_edges == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty.copy()
    interleaved = np.empty(2 * num_edges, dtype=np.int64)
    interleaved[0::2] = src
    interleaved[1::2] = dst
    order = np.argsort(interleaved, kind="stable")
    positions = np.arange(2 * num_edges, dtype=np.int64)
    sorted_vertices = interleaved[order]
    new_group = np.empty(2 * num_edges, dtype=bool)
    new_group[0] = True
    np.not_equal(sorted_vertices[1:], sorted_vertices[:-1], out=new_group[1:])
    group_start = np.maximum.accumulate(np.where(new_group, positions, 0))
    occurrence = np.empty(2 * num_edges, dtype=np.int64)
    occurrence[order] = positions - group_start + 1
    deg_u = occurrence[0::2].copy()
    deg_v = occurrence[1::2].copy()
    self_loop = src == dst
    if self_loop.any():
        deg_u[self_loop] = deg_v[self_loop]
    return deg_u, deg_v


def replication_coefficients(deg_u: np.ndarray, deg_v: np.ndarray,
                             mode: str = "hdrf"
                             ) -> Tuple[np.ndarray, np.ndarray]:
    """Per-edge replication coefficients ``1 + (1 - theta)`` for both endpoints.

    ``mode`` selects the exact arithmetic of the loop being replaced:

    * ``"hdrf"`` — ``theta_u = deg_u / total``, ``theta_v = deg_v / total``;
    * ``"2ps"``  — ``theta_v`` is computed as ``1.0 - theta_u`` (as the 2PS
      fallback does), which can differ from ``deg_v / total`` in the last ulp;
    * ``"hep"``  — like ``"hdrf"`` but with ``total`` clamped to >= 1 because
      HEP scores with full (possibly stale) degrees.

    The elementwise operations mirror the scalar expressions of the loops so
    the resulting float64 values are bit-identical.
    """
    total = deg_u + deg_v
    if mode == "hep":
        total = np.maximum(total, 1)
    theta_u = deg_u / total
    if mode == "2ps":
        theta_v = 1.0 - theta_u
    else:
        theta_v = deg_v / total
    coeff_u = 1.0 + (1.0 - theta_u)
    coeff_v = 1.0 + (1.0 - theta_v)
    return coeff_u, coeff_v


def replication_balance_scores(in_p_u: np.ndarray, in_p_v: np.ndarray,
                               coeff_u: float, coeff_v: float,
                               partition_sizes: np.ndarray,
                               max_size, min_size,
                               balance_weight: float,
                               epsilon: float = 1.0) -> np.ndarray:
    """HDRF-style score vector: replication affinity plus balance.

    This is the single definition of the scoring formula shared by the
    sequential loop implementations of HDRF, 2PS and HEP (the kernels compute
    the same values incrementally).  ``in_p_u`` / ``in_p_v`` are 0/1 (or
    boolean) membership vectors of the endpoints' replica sets.
    """
    replication_score = in_p_u * coeff_u + in_p_v * coeff_v
    balance_score = (balance_weight * (max_size - partition_sizes)
                     / (epsilon + max_size - min_size))
    return replication_score + balance_score


def _mask_bits(mask: int) -> List[int]:
    """Set-bit positions of a Python-int bitmask, in increasing order."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return bits


# --------------------------------------------------------------------------- #
# Incremental scoring state
# --------------------------------------------------------------------------- #
class StreamingScoreState:
    """Sequential state of the HDRF-style score, maintained incrementally.

    The score of partition ``p`` for the current edge ``(u, v)`` is::

        score(p) = in_p(u) * coeff_u + in_p(v) * coeff_v + balance(p)
        balance(p) = balance_weight * (max - sizes[p]) / (eps + max - min)

    Observations exploited here (all preserving exact equality with the
    per-edge numpy formulation):

    * ``balance`` only changes in one coordinate per assignment unless the
      running maximum or minimum moved, so it is cached and patched instead
      of recomputed;
    * the replication term is non-zero only on the replica partitions of the
      two endpoints — a *small* set tracked as arbitrary-precision Python-int
      bitmasks (valid for any ``k``, unlike the int64 masks of the loop
      implementations, see :data:`BITMASK_MAX_PARTITIONS`);
    * for ``0 <= balance_weight <= 1`` every replica-holding candidate beats
      every replica-free partition *strictly* (``coeff >= 1 + (1 - theta) >
      1`` while ``balance < balance_weight <= 1``), so the argmax over the
      remaining ``k - |replicas|`` partitions can be skipped entirely;
    * when the argmax over replica-free partitions is needed, it is one
      vectorized ``np.argmax`` over the cached balance vector with the few
      replica entries temporarily masked out.

    Ties are broken exactly like ``np.argmax``: the lowest index attaining
    the maximum wins.  With a ``capacity``, partitions at capacity score
    ``-inf`` (they are skipped as candidates and masked in the cached
    vector).  Once *every* partition is at capacity :meth:`pick` follows the
    ``overflow`` policy the state was built with — ``"least_loaded"``: the
    smallest partition takes the edge (2PS); ``"unmasked"``: the capacity
    mask is dropped and the raw score vector decides (HEP) — so it always
    returns a partition.
    """

    #: Replica-set unions larger than this are scored with the dense
    #: (vectorized) path instead of per-bit iteration.  Both sides are
    #: checked against the reference loops by the oracle rows at ``k`` = 32
    #: and 33 (``tests/test_reference_oracle.py``).
    SPARSE_LIMIT = 32

    def __init__(self, num_vertices: int, num_partitions: int,
                 balance_weight: float = 1.0,
                 capacity: Optional[float] = None,
                 overflow: str = "least_loaded") -> None:
        if overflow not in ("least_loaded", "unmasked"):
            raise ValueError(f"unknown overflow policy {overflow!r}")
        self.num_partitions = num_partitions
        self.balance_weight = balance_weight
        self.capacity = capacity
        self.overflow = overflow
        self.num_vertices = num_vertices
        self._sizes: List[int] = [0] * num_partitions
        self.replicas: List[int] = [0] * num_vertices
        # Dense mirror of ``replicas`` for the vectorized scoring path,
        # allocated on first dense pick (for k <= SPARSE_LIMIT it is
        # unreachable) and synchronized lazily: ``_matrix_synced[v]`` records
        # the bitmask last written into row ``v``, so a dense read only
        # patches the bits that changed since (usually one) and the hot
        # assign path never touches numpy at all.
        self._replica_matrix: Optional[np.ndarray] = None
        self._matrix_synced: Optional[List[int]] = None
        self._score_buf = np.empty(num_partitions, dtype=np.float64)
        self._score_buf2 = np.empty(num_partitions, dtype=np.float64)
        self.max_size = 0
        self.min_size = 0
        self._size_counts = {0: num_partitions}
        self._full_mask = 0
        self._full_indices: List[int] = []
        self._all_full = False
        self._dominance = 0.0 <= balance_weight <= 1.0
        # Below the sparse limit the dense path never runs, so the balance
        # vector lives purely as a Python list (no numpy mirror to patch —
        # at small k the extrema move every few edges and the vectorized
        # recompute would dominate the whole kernel).
        self._small = num_partitions <= self.SPARSE_LIMIT
        self._balance_np: Optional[np.ndarray] = None
        self._recompute_balance()

    # ------------------------------------------------------------------ #
    def seed_from_assignment(self, src: np.ndarray, dst: np.ndarray,
                             assignment: np.ndarray) -> None:
        """On a fresh state, adopt the sizes and replica sets of the edges
        (``assignment >= 0``) that HEP's in-memory expansion already placed."""
        k = self.num_partitions
        assigned = np.flatnonzero(assignment >= 0)
        partitions = assignment[assigned]
        sizes = np.bincount(partitions, minlength=k)
        self._sizes = sizes.tolist()
        values, counts = np.unique(sizes, return_counts=True)
        self._size_counts = dict(zip(values.tolist(), counts.tolist()))
        self.max_size = int(sizes.max())
        self.min_size = int(sizes.min())
        if use_replica_bitmask(k):
            # int64 fast path: vectorized scatter-or, then unboxed.  The dense
            # replica matrix (if ever needed) is rebuilt lazily from the masks.
            mask = np.zeros(self.num_vertices, dtype=np.int64)
            bits = np.int64(1) << partitions
            np.bitwise_or.at(mask, src[assigned], bits)
            np.bitwise_or.at(mask, dst[assigned], bits)
            self.replicas = mask.tolist()
        else:
            # Above the cutoff: build the dense matrix once and derive the
            # Python-int bitmasks from it by packing rows.
            matrix = np.zeros((self.num_vertices, k), dtype=bool)
            matrix[src[assigned], partitions] = True
            matrix[dst[assigned], partitions] = True
            packed = np.packbits(matrix, axis=1, bitorder="little")
            self.replicas = [int.from_bytes(row.tobytes(), "little")
                             for row in packed]
            self._replica_matrix = matrix
            self._matrix_synced = list(self.replicas)
        if self.capacity is not None:
            self._full_indices = [p for p, size in enumerate(self._sizes)
                                  if size >= self.capacity]
            self._full_mask = sum(1 << p for p in self._full_indices)
            self._all_full = len(self._full_indices) == k
        self._recompute_balance()

    def sizes_array(self) -> np.ndarray:
        """Current partition sizes as an int64 array (built on demand; the
        hot path only maintains the unboxed list)."""
        return np.asarray(self._sizes, dtype=np.int64)

    def _recompute_balance(self) -> None:
        if self._small:
            # Same elementwise arithmetic as the vectorized expression below,
            # on Python floats (IEEE-754 doubles either way).
            weight = self.balance_weight
            max_size = self.max_size
            denominator = EPSILON + max_size - self.min_size
            balance_list = [weight * (max_size - size) / denominator
                            for size in self._sizes]
            for p in self._full_indices:
                balance_list[p] = _NEG_INF
            self._balance = balance_list
            return
        balance = (self.balance_weight * (self.max_size - self.sizes_array())
                   / (EPSILON + self.max_size - self.min_size))
        if self._full_indices:
            balance[self._full_indices] = -np.inf
        self._balance_np = balance
        self._balance = balance.tolist()

    # ------------------------------------------------------------------ #
    def pick(self, u: int, v: int, coeff_u: float, coeff_v: float) -> int:
        """Partition the sequential loop would select (its ``np.argmax``,
        or its overflow rule once every partition is at capacity)."""
        if self._all_full:
            if self.overflow == "least_loaded":
                return int(self.sizes_array().argmin())
            return int(np.argmax(replication_balance_scores(
                self.replica_membership(u), self.replica_membership(v),
                coeff_u, coeff_v, self.sizes_array(), self.max_size,
                self.min_size, self.balance_weight, EPSILON)))
        mask_u = self.replicas[u]
        mask_v = self.replicas[v]
        union = mask_u | mask_v
        if union.bit_count() > self.SPARSE_LIMIT:
            # Large replica union: per-bit iteration would cost more than the
            # vectorized score, so fall back to the dense formulation.  The
            # cached balance vector already carries -inf at full partitions,
            # and adding the finite replication term preserves it — identical
            # to the loop masking after the sum.
            matrix = self._replica_matrix
            if matrix is None:
                matrix = self._replica_matrix = np.zeros(
                    (self.num_vertices, self.num_partitions), dtype=bool)
                self._matrix_synced = [0] * self.num_vertices
            synced = self._matrix_synced
            if mask_u != synced[u]:
                matrix[u, _mask_bits(mask_u ^ synced[u])] = True
                synced[u] = mask_u
            if mask_v != synced[v]:
                matrix[v, _mask_bits(mask_v ^ synced[v])] = True
                synced[v] = mask_v
            buf = self._score_buf
            buf2 = self._score_buf2
            np.multiply(matrix[u], coeff_u, out=buf)
            np.multiply(matrix[v], coeff_v, out=buf2)
            np.add(buf, buf2, out=buf)
            np.add(buf, self._balance_np, out=buf)
            return int(buf.argmax())
        best_idx = -1
        best_val = _NEG_INF
        not_full = ~self._full_mask
        available = union & not_full
        if available:
            balance = self._balance
            # One sub-loop per replica group (both endpoints / u only /
            # v only) so no membership test is needed per bit.  Iteration
            # inside a group is in increasing index order, so a strict ">"
            # keeps the lowest index on ties; across groups the explicit
            # index comparison reproduces np.argmax's first-index rule.
            remaining = mask_u & mask_v & not_full
            if remaining:
                both = coeff_u + coeff_v
                while remaining:
                    low = remaining & -remaining
                    remaining ^= low
                    p = low.bit_length() - 1
                    value = both + balance[p]
                    if value > best_val:
                        best_val = value
                        best_idx = p
            remaining = mask_u & ~mask_v & not_full
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                p = low.bit_length() - 1
                value = coeff_u + balance[p]
                if value > best_val or (value == best_val and p < best_idx):
                    best_val = value
                    best_idx = p
            remaining = mask_v & ~mask_u & not_full
            while remaining:
                low = remaining & -remaining
                remaining ^= low
                p = low.bit_length() - 1
                value = coeff_v + balance[p]
                if value > best_val or (value == best_val and p < best_idx):
                    best_val = value
                    best_idx = p
            if self._dominance:
                # Every candidate above scores > 1 while every replica-free
                # partition scores balance(p) < balance_weight <= 1: the
                # global maximum is strictly inside the replica set.
                return best_idx
        masked = union | self._full_mask
        if masked.bit_count() < self.num_partitions:
            if self._small:
                # First-index maximum of balance over the unmasked partitions
                # (all finite), exactly np.argmax's rule.
                balance = self._balance
                comp_idx = -1
                comp_val = _NEG_INF
                for p in range(self.num_partitions):
                    if (masked >> p) & 1:
                        continue
                    value = balance[p]
                    if value > comp_val:
                        comp_val = value
                        comp_idx = p
            else:
                balance_np = self._balance_np
                selection = _mask_bits(available)
                if selection:
                    saved = balance_np[selection]
                    balance_np[selection] = -np.inf
                    comp_idx = int(balance_np.argmax())
                    balance_np[selection] = saved
                else:
                    comp_idx = int(balance_np.argmax())
                comp_val = self._balance[comp_idx]
            if best_idx < 0:
                return comp_idx
            if comp_val > best_val or (comp_val == best_val
                                       and comp_idx < best_idx):
                return comp_idx
        return best_idx

    def assign(self, u: int, v: int, partition: int) -> None:
        """Account edge ``(u, v)`` being placed on ``partition``."""
        sizes = self._sizes
        old_size = sizes[partition]
        new_size = old_size + 1
        sizes[partition] = new_size
        counts = self._size_counts
        counts[old_size] -= 1
        counts[new_size] = counts.get(new_size, 0) + 1
        extrema_moved = False
        if new_size > self.max_size:
            self.max_size = new_size
            extrema_moved = True
        if old_size == self.min_size and counts[old_size] == 0:
            del counts[old_size]
            self.min_size = new_size
            extrema_moved = True
        if (self.capacity is not None and new_size >= self.capacity
                and not (self._full_mask >> partition) & 1):
            self._full_mask |= 1 << partition
            self._full_indices.append(partition)
            self._all_full = len(self._full_indices) == self.num_partitions
            extrema_moved = True  # force the -inf into the cached vector
        if extrema_moved:
            self._recompute_balance()
        else:
            if (self._full_mask >> partition) & 1:
                value = _NEG_INF
            else:
                value = (self.balance_weight * (self.max_size - new_size)
                         / (EPSILON + self.max_size - self.min_size))
            self._balance[partition] = value
            if not self._small:
                self._balance_np[partition] = value
        bit = 1 << partition
        self.replicas[u] |= bit
        self.replicas[v] |= bit

    # ------------------------------------------------------------------ #
    def replica_membership(self, vertex: int) -> np.ndarray:
        """0/1 int64 membership vector of ``vertex``'s replica set."""
        mask = self.replicas[vertex]
        k = self.num_partitions
        membership = np.zeros(k, dtype=np.int64)
        for p in _mask_bits(mask):
            membership[p] = 1
        return membership


# --------------------------------------------------------------------------- #
# The streaming pass and its three configurations
# --------------------------------------------------------------------------- #
def stream_assign(state: StreamingScoreState, src: np.ndarray,
                  dst: np.ndarray, coeff_u: np.ndarray, coeff_v: np.ndarray,
                  preferred: Optional[Tuple[np.ndarray, np.ndarray]] = None
                  ) -> np.ndarray:
    """Place every edge of the stream, in order; returns the partitions.

    The only per-edge pass over a scored stream.  An edge goes to the first
    of its (at most two) ``preferred`` partitions — a pair of per-edge
    arrays ``(first, second)``; none when omitted — that still has room
    under the state's capacity, else to ``state.pick``; either way the
    state accounts it before the next edge is looked at.
    """
    num_edges = src.shape[0]
    chosen = np.empty(num_edges, dtype=np.int64)
    sizes = state._sizes
    capacity = state.capacity
    pick = state.pick
    assign = state.assign
    candidates = itertools.repeat(())
    for start in range(0, num_edges, BLOCK_SIZE):
        stop = min(start + BLOCK_SIZE, num_edges)
        if preferred is not None:
            candidates = zip(preferred[0][start:stop].tolist(),
                             preferred[1][start:stop].tolist())
        block = zip(src[start:stop].tolist(), dst[start:stop].tolist(),
                    coeff_u[start:stop].tolist(), coeff_v[start:stop].tolist(),
                    candidates)
        out = []
        for u, v, cu, cv, edge_candidates in block:
            for partition in edge_candidates:
                if sizes[partition] < capacity:
                    break
            else:
                partition = pick(u, v, cu, cv)
            assign(u, v, partition)
            out.append(partition)
        chosen[start:stop] = out
    return chosen


def _observe_kernel_rate(kernel: str, num_edges: int, elapsed: float) -> None:
    """Record a kernel invocation's throughput in the metrics registry."""
    registry = get_registry()
    registry.counter(
        "partitioner_edges_total",
        "Edges streamed through partitioner kernels", ("kernel",),
    ).labels(kernel).inc(num_edges)
    if elapsed > 0.0:
        registry.gauge(
            "partitioner_edges_per_second",
            "Throughput of the most recent kernel invocation", ("kernel",),
        ).labels(kernel).set(num_edges / elapsed)


def hdrf_kernel_assign(src: np.ndarray, dst: np.ndarray, num_vertices: int,
                       num_partitions: int,
                       balance_weight: float) -> np.ndarray:
    """HDRF assignment, identical to the sequential loop: partial-degree
    coefficients, no capacity, no preferred partitions."""
    started = time.perf_counter()
    deg_u, deg_v = streaming_partial_degrees(src, dst)
    coeff_u, coeff_v = replication_coefficients(deg_u, deg_v, mode="hdrf")
    state = StreamingScoreState(num_vertices, num_partitions,
                                balance_weight=balance_weight)
    assignment = stream_assign(state, src, dst, coeff_u, coeff_v)
    _observe_kernel_rate("hdrf", src.shape[0], time.perf_counter() - started)
    return assignment


def two_ps_kernel_assign(src: np.ndarray, dst: np.ndarray, num_vertices: int,
                         num_partitions: int, preferred: np.ndarray,
                         capacity: float,
                         balance_weight: float) -> np.ndarray:
    """2PS partitioning phase, identical to the (fixed) sequential loop.

    ``preferred`` maps every vertex to the partition of its cluster.  An edge
    tries the cluster partition of its lower-degree endpoint first, then the
    other endpoint's (the same partition twice for an intra-cluster edge);
    edges that find room in neither are scored with the shared HDRF-style
    state.  When every partition is at capacity the edge goes to the
    least-loaded partition (the capacity-overflow fix, mirrored in the loop
    implementation).
    """
    started = time.perf_counter()
    deg_u, deg_v = streaming_partial_degrees(src, dst)
    coeff_u, coeff_v = replication_coefficients(deg_u, deg_v, mode="2ps")
    state = StreamingScoreState(num_vertices, num_partitions,
                                balance_weight=balance_weight,
                                capacity=capacity, overflow="least_loaded")
    u_first = deg_u <= deg_v
    pu, pv = preferred[src], preferred[dst]
    assignment = stream_assign(
        state, src, dst, coeff_u, coeff_v,
        preferred=(np.where(u_first, pu, pv), np.where(u_first, pv, pu)))
    _observe_kernel_rate("2ps", src.shape[0], time.perf_counter() - started)
    return assignment


def hep_kernel_stream(src: np.ndarray, dst: np.ndarray, degrees: np.ndarray,
                      num_partitions: int, assignment: np.ndarray,
                      streamed_edges: np.ndarray, capacity: float) -> None:
    """HEP streaming phase, identical to the sequential loop.

    Mutates ``assignment`` in place for the ``streamed_edges``, seeding the
    scoring state with the sizes and replica sets of the in-memory phase.
    HEP scores with the full static degrees and, unlike 2PS, drops the
    capacity mask entirely when every partition is at capacity (the loop's
    behaviour).
    """
    started = time.perf_counter()
    src_streamed = src[streamed_edges]
    dst_streamed = dst[streamed_edges]
    coeff_u, coeff_v = replication_coefficients(
        degrees[src_streamed], degrees[dst_streamed], mode="hep")
    state = StreamingScoreState(degrees.shape[0], num_partitions,
                                balance_weight=1.0, capacity=capacity,
                                overflow="unmasked")
    state.seed_from_assignment(src, dst, assignment)
    assignment[streamed_edges] = stream_assign(state, src_streamed,
                                               dst_streamed, coeff_u, coeff_v)
    _observe_kernel_rate("hep", streamed_edges.shape[0],
                         time.perf_counter() - started)
