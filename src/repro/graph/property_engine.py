"""Vectorized graph-property engine: block triangle counting.

The EASE premise (Section II-B) is that graph properties are *cheap* relative
to running even one partitioner — but the seed implementation counted
triangles with a per-vertex Python loop over ``np.intersect1d`` calls, which
made property extraction the slowest unvectorized stage of both the profiling
pipeline and the serving first-hit path.  This module replaces that loop with
block-vectorized kernels that produce **array-identical** results:

* :func:`triangle_counts_engine` — exact per-vertex triangle counts.  Edges
  of the simple undirected view (:meth:`Graph.undirected_simple_csr`) are
  oriented from lower to higher ``(degree, id)`` rank, so every triangle has
  exactly one "apex" (its lowest-rank member) and the oriented out-degrees
  are small even at hubs.  All apex wedges ``(a; b, c)`` are enumerated as
  flat index arrays and closed by a ``searchsorted`` membership join against
  the packed oriented edge keys — no per-vertex Python iteration.  Hits
  attribute one triangle to each of ``a``, ``b`` and ``c`` via ``bincount``.
* :func:`sampled_triangle_stats_engine` — the sampled estimator.  The seeded
  vertex sample and the sequential float accumulation of the seed path are
  preserved exactly (bit-identical estimates); only the per-vertex triangle
  counting underneath is vectorized, as a wedge join restricted to the
  sampled vertices' incident edges.

Wedges are materialized in bounded blocks (:data:`DEFAULT_BLOCK_PAIRS`
endpoint pairs at a time, boundaries found by ``searchsorted`` on the
cumulative pair counts), so peak memory stays a few flat arrays regardless
of graph size — mirroring the partitioning-kernels design.  The seed loops
live on as test oracles in ``tests/reference/``, against which the test
suite asserts array-identical results.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from .graph import Graph

__all__ = [
    "DEFAULT_BLOCK_PAIRS",
    "triangle_counts_engine",
    "local_clustering_from_triangles",
    "sampled_triangle_stats_engine",
]

#: Wedge endpoint pairs materialized per block.  Each block holds a handful
#: of arrays of this length (flat positions, endpoints, join keys), so the
#: default bounds peak engine memory to a few dozen MB.
DEFAULT_BLOCK_PAIRS = 1 << 21


def _pair_block_bounds(pair_counts: np.ndarray, block_pairs: int):
    """Split positions into blocks of at most ~``block_pairs`` wedge pairs.

    Yields ``(start, end, cum)`` position ranges; a single position with more
    pairs than the block size still forms its own (oversized) block, so every
    position is processed exactly once.
    """
    cum = np.zeros(pair_counts.size + 1, dtype=np.int64)
    np.cumsum(pair_counts, out=cum[1:])
    start = 0
    while start < pair_counts.size:
        if cum[start] == cum[-1]:
            break  # only zero-pair positions remain
        end = int(np.searchsorted(cum, cum[start] + block_pairs, side="left"))
        end = min(max(end, start + 1), pair_counts.size)
        yield start, end, cum
        start = end


def _wedge_pairs(start: int, end: int, cum: np.ndarray
                 ) -> Tuple[np.ndarray, np.ndarray]:
    """Flat position index pairs ``(i, j)`` of one block.

    Position ``p`` (a slot of a CSR ``indices`` array) pairs with every later
    slot of the same adjacency list; ``cum`` is the cumulative pair count per
    position.  Returns ``i`` (repeated first positions) and ``j`` (the
    matching second positions) as flat index arrays.
    """
    counts = np.diff(cum[start:end + 1])
    total = int(cum[end] - cum[start])
    first = np.repeat(np.arange(start, end, dtype=np.int64), counts)
    block_starts = cum[start:end] - cum[start]
    within = np.arange(total, dtype=np.int64) - np.repeat(block_starts, counts)
    return first, first + 1 + within


def _degree_id_rank(graph: Graph) -> np.ndarray:
    """Position of every vertex in the ascending (degree, id) order."""
    degrees = np.diff(graph.undirected_simple_csr().indptr)
    order = np.lexsort((np.arange(graph.num_vertices), degrees))
    rank = np.empty(graph.num_vertices, dtype=np.int64)
    rank[order] = np.arange(graph.num_vertices, dtype=np.int64)
    return rank


def _oriented_pair_count(graph: Graph) -> int:
    """Wedge pairs the degree-ordered exact counter would enumerate."""
    csr = graph.undirected_simple_csr()
    degrees = np.diff(csr.indptr)
    rank = _degree_id_rank(graph)
    heads = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), degrees)
    oriented = rank[heads] < rank[csr.indices]
    out_degrees = np.bincount(heads[oriented],
                              minlength=graph.num_vertices)
    return int((out_degrees * (out_degrees - 1) // 2).sum())


def triangle_counts_engine(graph: Graph,
                           block_pairs: int = DEFAULT_BLOCK_PAIRS
                           ) -> np.ndarray:
    """Exact per-vertex triangle counts, block-vectorized.

    Array-identical to the seed set-intersection loop
    (``tests/reference``): counts are exact integers, so no floating-point
    subtleties arise.
    """
    num_vertices = graph.num_vertices
    counts = np.zeros(num_vertices, dtype=np.int64)
    if num_vertices < 3:
        return counts
    csr = graph.undirected_simple_csr()
    degrees = np.diff(csr.indptr)

    # Rank vertices by (degree, id); orient every simple undirected edge from
    # lower to higher rank.  Out-degrees of the oriented graph are O(sqrt(m)),
    # which bounds the wedge count even on hub-heavy graphs.
    rank = _degree_id_rank(graph)

    heads = np.repeat(np.arange(num_vertices, dtype=np.int64), degrees)
    head_ranks = rank[heads]
    tail_ranks = rank[csr.indices]
    oriented = head_ranks < tail_ranks
    # Packed (head_rank, tail_rank) keys; sorting them builds the oriented
    # CSR (in rank space) and doubles as the membership join index.
    edge_keys = np.sort(head_ranks[oriented] * num_vertices
                        + tail_ranks[oriented])
    out_heads = edge_keys // num_vertices
    out_tails = edge_keys % num_vertices
    out_degrees = np.bincount(out_heads, minlength=num_vertices)

    tri_by_rank = np.zeros(num_vertices, dtype=np.int64)
    pair_counts = np.repeat(out_degrees, out_degrees) - 1 - (
        np.arange(edge_keys.size, dtype=np.int64)
        - np.repeat(np.concatenate([[0], np.cumsum(out_degrees)[:-1]]),
                    out_degrees))
    for start, end, cum in _pair_block_bounds(pair_counts, block_pairs):
        first, second = _wedge_pairs(start, end, cum)
        if first.size == 0:
            continue
        apex = out_heads[first]
        b = out_tails[first]
        c = out_tails[second]
        # A wedge (apex; b, c) with rank(b) < rank(c) closes into a triangle
        # iff the oriented edge (b, c) exists — a searchsorted hash-join
        # against the packed key array.
        wedge_keys = b * num_vertices + c
        slots = np.searchsorted(edge_keys, wedge_keys)
        slots_clipped = np.minimum(slots, edge_keys.size - 1)
        hits = (slots < edge_keys.size) & (edge_keys[slots_clipped]
                                           == wedge_keys)
        if hits.any():
            members = np.concatenate([apex[hits], b[hits], c[hits]])
            tri_by_rank += np.bincount(members, minlength=num_vertices)
    counts = tri_by_rank[rank]
    return counts


def local_clustering_from_triangles(graph: Graph,
                                    triangles: np.ndarray) -> np.ndarray:
    """Local clustering coefficients from precomputed triangle counts.

    Degrees come from the cached simple CSR; the elementwise formula matches
    the seed implementation, so identical triangle arrays yield bit-identical
    coefficients.
    """
    degrees = np.diff(graph.undirected_simple_csr().indptr).astype(np.float64)
    denom = 0.5 * degrees * (degrees - 1.0)
    coeffs = np.zeros(graph.num_vertices, dtype=np.float64)
    mask = denom > 0
    coeffs[mask] = triangles[mask] / denom[mask]
    return coeffs


def sampled_triangle_stats_engine(graph: Graph, sample_size: int, seed: int,
                                  block_pairs: int = DEFAULT_BLOCK_PAIRS
                                  ) -> Tuple[float, float]:
    """Sampled mean-triangles / mean-LCC estimates, engine-backed.

    Bit-identical to the seed estimator for the same seed: the vertex sample
    (``default_rng(seed).choice``), the per-vertex triangle values (exact
    integers either way) and the sequential left-to-right float accumulation
    are all preserved; only the intersection counting is vectorized.
    """
    rng = np.random.default_rng(seed)
    sample = rng.choice(graph.num_vertices, size=sample_size, replace=False)
    csr = graph.undirected_simple_csr()
    degrees = np.diff(csr.indptr)

    sample_int = sample.astype(np.int64)
    sample_degrees = degrees[sample_int]
    # Flat CSR positions of every sampled vertex's neighbour slots.
    total_positions = int(sample_degrees.sum())
    tri_of = np.zeros(graph.num_vertices, dtype=np.int64)
    restricted_pairs = int((sample_degrees * (sample_degrees - 1) // 2).sum())
    if total_positions and restricted_pairs > _oriented_pair_count(graph):
        # The restricted join enumerates *unoriented* wedges, whose count
        # grows with the squared degrees of the sampled vertices — on a
        # hub-heavy sample the degree-ordered full counter enumerates fewer
        # wedges despite covering every vertex.  Both produce the exact
        # per-vertex triangle counts, so the estimate is identical; only the
        # enumeration cost differs.
        tri_of = triangle_counts_engine(graph, block_pairs)
    elif total_positions:
        run_starts = np.cumsum(sample_degrees) - sample_degrees
        positions = (np.arange(total_positions, dtype=np.int64)
                     - np.repeat(run_starts, sample_degrees)
                     + np.repeat(csr.indptr[sample_int], sample_degrees))
        owners = np.repeat(sample_int, sample_degrees)
        list_ends = csr.indptr[owners + 1]
        pair_counts = list_ends - 1 - positions
        # Membership join target: every (vertex, neighbour) slot of the
        # simple CSR as a packed key — sorted by construction.
        all_heads = np.repeat(np.arange(graph.num_vertices, dtype=np.int64),
                              degrees)
        all_keys = all_heads * graph.num_vertices + csr.indices
        for start, end, cum in _pair_block_bounds(pair_counts, block_pairs):
            first, second = _wedge_pairs(start, end, cum)
            if first.size == 0:
                continue
            center = owners[first]
            b = csr.indices[positions[first]]
            c = csr.indices[positions[second]]
            wedge_keys = b * graph.num_vertices + c
            slots = np.searchsorted(all_keys, wedge_keys)
            slots_clipped = np.minimum(slots, all_keys.size - 1)
            hits = (slots < all_keys.size) & (all_keys[slots_clipped]
                                              == wedge_keys)
            if hits.any():
                tri_of += np.bincount(center[hits],
                                      minlength=graph.num_vertices)

    # Replicate the seed path's sequential accumulation exactly: same order,
    # same per-vertex expressions, same skip of degree-<2 vertices.
    tri_sum = 0.0
    lcc_sum = 0.0
    for v, deg in zip(sample_int.tolist(), sample_degrees.tolist()):
        if deg < 2:
            continue
        tri = float(tri_of[v])
        tri_sum += tri
        lcc_sum += tri / (0.5 * deg * (deg - 1))
    return tri_sum / sample_size, lcc_sum / sample_size
