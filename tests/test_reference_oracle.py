"""The differential oracle: production kernels vs. the ``tests/reference`` loops.

One table per subsystem, asserting *byte-for-byte* equality (same dtype, same
buffer) rather than closeness:

* every registry partitioner × k on both sides of the int64 replica-bitmask
  cutoff (63 | 64) and of ``StreamingScoreState.SPARSE_LIMIT`` (32) × skewed,
  clustered and degenerate graphs.  The reference run swaps each streaming
  kernel for the seed loop with the same array signature
  (:func:`reference.reference_loops`), so the clustering, packing and
  in-memory expansion phases around it are shared and only the kernel is
  under test.  The hash family, DBH and NE never had a second
  implementation; for them the row pins run-to-run determinism;
* exact triangle counts, local clustering coefficients and the sampled
  estimator × the same graphs × block sizes small enough to force many block
  boundaries.

A future implementation tier is admitted by adding its row here.
"""

import functools

import numpy as np
import pytest

from reference import (
    local_clustering_sets,
    reference_loops,
    sampled_triangle_stats_sets,
    triangle_counts_sets,
)
from repro.generators import generate_realworld_graph, generate_rmat
from repro.graph import Graph
from repro.graph.property_engine import (
    DEFAULT_BLOCK_PAIRS,
    local_clustering_from_triangles,
    sampled_triangle_stats_engine,
    triangle_counts_engine,
)
from repro.partitioning import ALL_PARTITIONER_NAMES, create_partitioner

ORACLE_K_GRID = (2, 8, 32, 63, 64, 100)
BLOCK_PAIRS_GRID = (5, 7, DEFAULT_BLOCK_PAIRS)

_GRAPH_BUILDERS = {
    "rmat": lambda: generate_rmat(128, 900, seed=3),
    "soc": lambda: generate_realworld_graph("soc", 120, 800, seed=5),
    "star": lambda: Graph.from_edges([(0, v) for v in range(1, 40)]),
    "path": lambda: Graph.from_edges([(v, v + 1) for v in range(40)]),
    "empty": lambda: Graph.empty(num_vertices=4),
    "self_loops": lambda: Graph.from_edges(
        [(0, 0), (1, 1), (0, 1), (1, 0), (2, 2), (1, 2), (2, 0)] * 3),
}
GRAPH_NAMES = tuple(_GRAPH_BUILDERS)


@functools.lru_cache(maxsize=None)
def _graph(name: str) -> Graph:
    return _GRAPH_BUILDERS[name]()


def _assert_bytes_equal(production: np.ndarray, reference: np.ndarray):
    assert production.dtype == reference.dtype
    assert production.shape == reference.shape
    assert production.tobytes() == reference.tobytes()


@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
@pytest.mark.parametrize("k", ORACLE_K_GRID)
@pytest.mark.parametrize("name", ALL_PARTITIONER_NAMES)
def test_partitioner_matches_reference(name, k, graph_name):
    graph = _graph(graph_name)
    production = create_partitioner(name)(graph, k).assignment
    with reference_loops():
        reference = create_partitioner(name)(graph, k).assignment
    _assert_bytes_equal(production, reference)


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS_GRID)
@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
def test_triangles_and_clustering_match_reference(graph_name, block_pairs):
    graph = _graph(graph_name)
    reference = triangle_counts_sets(graph)
    production = triangle_counts_engine(graph, block_pairs=block_pairs)
    _assert_bytes_equal(production, reference)
    _assert_bytes_equal(local_clustering_from_triangles(graph, production),
                        local_clustering_sets(graph, reference))


@pytest.mark.parametrize("block_pairs", BLOCK_PAIRS_GRID)
@pytest.mark.parametrize("graph_name", GRAPH_NAMES)
def test_sampled_stats_match_reference(graph_name, block_pairs):
    graph = _graph(graph_name)
    sample_size = max(1, graph.num_vertices // 2)
    for seed in (0, 9):
        production = sampled_triangle_stats_engine(
            graph, sample_size, seed, block_pairs=block_pairs)
        assert production == sampled_triangle_stats_sets(graph, sample_size,
                                                         seed)
