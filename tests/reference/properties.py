"""Seed set-intersection formulations of triangle counting and clustering.

These are the per-vertex ``np.intersect1d`` loops the block engine in
:mod:`repro.graph.property_engine` replaced.  Counts are exact integers and
the float expressions are elementwise-identical to the engine's, so the
oracle compares them for array equality, not closeness.
"""

import numpy as np

from repro.graph import Graph


def _undirected_neighbor_sets(graph: Graph):
    """Sorted, deduplicated undirected neighbour array per vertex."""
    adj = graph.undirected_adjacency()
    neighbor_sets = []
    for v in range(graph.num_vertices):
        neigh = adj.neighbors(v)
        neigh = np.unique(neigh)
        neigh = neigh[neigh != v]
        neighbor_sets.append(neigh)
    return neighbor_sets


def triangle_counts_sets(graph: Graph) -> np.ndarray:
    """Number of triangles incident to each vertex (undirected view)."""
    neighbor_sets = _undirected_neighbor_sets(graph)
    counts = np.zeros(graph.num_vertices, dtype=np.int64)
    for v in range(graph.num_vertices):
        neigh_v = neighbor_sets[v]
        # Only count each triangle once per vertex pair by restricting to
        # higher-id neighbours, then attribute it to all three members below.
        for u in neigh_v[neigh_v > v]:
            common = np.intersect1d(neigh_v, neighbor_sets[u],
                                    assume_unique=True)
            common = common[common > u]
            if common.size:
                counts[v] += common.size
                counts[u] += common.size
                counts[common] += 1
    return counts


def local_clustering_sets(graph: Graph, triangles: np.ndarray) -> np.ndarray:
    """Local clustering coefficient ``t(v) / (0.5 * deg(v) * (deg(v) - 1))``."""
    neighbor_sets = _undirected_neighbor_sets(graph)
    degs = np.array([len(n) for n in neighbor_sets], dtype=np.float64)
    denom = 0.5 * degs * (degs - 1.0)
    coeffs = np.zeros(graph.num_vertices, dtype=np.float64)
    mask = denom > 0
    coeffs[mask] = triangles[mask] / denom[mask]
    return coeffs


def sampled_triangle_stats_sets(graph: Graph, sample_size: int,
                                seed: int) -> tuple:
    """Estimate mean triangles and mean LCC from a uniform vertex sample."""
    rng = np.random.default_rng(seed)
    sample = rng.choice(graph.num_vertices, size=sample_size, replace=False)
    adj = graph.undirected_adjacency()
    neighbor_sets = {}

    def neighbors_of(v: int) -> np.ndarray:
        if v not in neighbor_sets:
            neigh = np.unique(adj.neighbors(v))
            neighbor_sets[v] = neigh[neigh != v]
        return neighbor_sets[v]

    tri_sum = 0.0
    lcc_sum = 0.0
    for v in sample:
        neigh_v = neighbors_of(int(v))
        deg = neigh_v.size
        if deg < 2:
            continue
        tri = 0
        for u in neigh_v:
            tri += np.intersect1d(neigh_v, neighbors_of(int(u)),
                                  assume_unique=True).size
        tri /= 2  # each triangle counted for two neighbours
        tri_sum += tri
        lcc_sum += tri / (0.5 * deg * (deg - 1))
    return tri_sum / sample_size, lcc_sum / sample_size
