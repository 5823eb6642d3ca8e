"""Equality and unit tests for the vectorized graph-property engine.

The engine must be *identical* to the seed implementations (kept as oracles
in ``tests/reference``), not just close: exact triangle counts are asserted
array-equal and the triangle features of ``GraphProperties`` float-equal
(``==``, no tolerance) across every generator family, adversarial edge
lists, and the sampled-estimator path with its seeded vertex sample.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference import (
    local_clustering_sets,
    sampled_triangle_stats_sets,
    triangle_counts_sets,
)
from repro.generators import (
    generate_barabasi_albert,
    generate_erdos_renyi,
    generate_realworld_graph,
    generate_rmat,
)
from repro.graph import (
    Graph,
    compute_properties,
    compute_properties_batch,
    graph_fingerprint,
    properties_artifact_key,
    triangle_counts,
    local_clustering_coefficients,
)
from repro.graph.property_engine import (
    sampled_triangle_stats_engine,
    triangle_counts_engine,
)
from repro.runtime import ArtifactStore


def _family_graphs():
    return [
        generate_erdos_renyi(200, 1500, seed=11),
        generate_barabasi_albert(250, 4, seed=7),
        generate_rmat(256, 2400, seed=3),
        generate_realworld_graph("soc", 220, 1800, seed=5),
        generate_realworld_graph("web", 220, 1800, seed=6),
    ]


edge_lists = st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                      min_size=0, max_size=250)


def _assert_triangle_features_match_reference(graph):
    """``compute_properties`` reports the means of the reference arrays."""
    properties = compute_properties(graph)
    if graph.num_vertices == 0:
        expected = (0.0, 0.0)
    else:
        triangles = triangle_counts_sets(graph)
        expected = (float(triangles.mean()),
                    float(local_clustering_sets(graph, triangles).mean()))
    assert (properties.mean_triangles,
            properties.mean_local_clustering) == expected


class TestSimpleCSR:
    def test_sorted_deduplicated_selfloop_free(self):
        graph = Graph.from_edges(
            [(0, 1), (1, 0), (0, 1), (2, 2), (3, 1), (1, 3), (4, 0)],
            num_vertices=6)
        csr = graph.undirected_simple_csr()
        for v in range(graph.num_vertices):
            neighbors = csr.neighbors(v)
            reference = np.unique(np.concatenate(
                [graph.dst[graph.src == v], graph.src[graph.dst == v]]))
            reference = reference[reference != v]
            np.testing.assert_array_equal(neighbors, reference)

    def test_cached(self, small_rmat_graph):
        assert (small_rmat_graph.undirected_simple_csr()
                is small_rmat_graph.undirected_simple_csr())

    def test_empty_graph(self):
        csr = Graph.empty(0).undirected_simple_csr()
        assert csr.indptr.tolist() == [0]
        assert csr.indices.size == 0

    @given(edge_lists)
    @settings(max_examples=40, deadline=None)
    def test_matches_neighbor_sets(self, edges):
        graph = Graph.from_edges(edges, num_vertices=41)
        csr = graph.undirected_simple_csr()
        adj = graph.undirected_adjacency()
        for v in range(graph.num_vertices):
            reference = np.unique(adj.neighbors(v))
            reference = reference[reference != v]
            np.testing.assert_array_equal(csr.neighbors(v), reference)


class TestExactEquality:
    @pytest.mark.parametrize("index", range(5))
    def test_triangle_counts_per_family(self, index):
        graph = _family_graphs()[index]
        np.testing.assert_array_equal(triangle_counts(graph),
                                      triangle_counts_sets(graph))

    @pytest.mark.parametrize("index", range(5))
    def test_properties_per_family(self, index):
        _assert_triangle_features_match_reference(_family_graphs()[index])

    def test_clustering_coefficients(self, small_rmat_graph):
        np.testing.assert_array_equal(
            local_clustering_coefficients(small_rmat_graph),
            local_clustering_sets(small_rmat_graph,
                                  triangle_counts_sets(small_rmat_graph)))

    def test_duplicate_edges_self_loops_isolated_vertices(self):
        graph = Graph.from_edges(
            [(0, 1), (0, 1), (1, 0), (1, 2), (2, 0), (3, 3), (0, 0), (4, 5)],
            num_vertices=8)  # vertices 6, 7 isolated
        np.testing.assert_array_equal(triangle_counts(graph),
                                      triangle_counts_sets(graph))
        np.testing.assert_array_equal(triangle_counts(graph),
                                      [1, 1, 1, 0, 0, 0, 0, 0])

    def test_empty_and_tiny_graphs(self):
        for graph in (Graph.empty(0), Graph.empty(5),
                      Graph.from_edges([(0, 1)], num_vertices=2),
                      Graph.from_edges([(0, 0)], num_vertices=1)):
            np.testing.assert_array_equal(triangle_counts(graph),
                                          triangle_counts_sets(graph))
            _assert_triangle_features_match_reference(graph)

    def test_small_block_size_matches(self, small_rmat_graph):
        np.testing.assert_array_equal(
            triangle_counts_engine(small_rmat_graph, block_pairs=7),
            triangle_counts_sets(small_rmat_graph))

    @given(edge_lists)
    @settings(max_examples=60, deadline=None)
    def test_hypothesis_triangles_and_properties(self, edges):
        graph = Graph.from_edges(edges)
        np.testing.assert_array_equal(triangle_counts(graph),
                                      triangle_counts_sets(graph))
        _assert_triangle_features_match_reference(graph)


class TestSampledEquality:
    def test_sampled_path_bit_identical(self, small_rmat_graph):
        # num_vertices (256) > sample_size forces the sampled estimator.
        for seed in (0, 1, 17):
            properties = compute_properties(small_rmat_graph,
                                            exact_triangles=False,
                                            sample_size=100, seed=seed)
            assert ((properties.mean_triangles,
                     properties.mean_local_clustering)
                    == sampled_triangle_stats_sets(small_rmat_graph, 100,
                                                   seed))

    def test_sampled_stats_engine_matches_loop(self):
        graph = generate_realworld_graph("soc", 300, 2400, seed=5)
        assert (sampled_triangle_stats_engine(graph, 120, 9)
                == sampled_triangle_stats_sets(graph, 120, 9))

    def test_sampled_block_boundaries(self):
        graph = generate_rmat(300, 2500, seed=2)
        assert (sampled_triangle_stats_engine(graph, 150, 3, block_pairs=5)
                == sampled_triangle_stats_sets(graph, 150, 3))

    def test_exact_used_at_or_below_sample_size(self, small_rmat_graph):
        exact = compute_properties(small_rmat_graph, exact_triangles=True)
        via_threshold = compute_properties(
            small_rmat_graph, exact_triangles=False,
            sample_size=small_rmat_graph.num_vertices)
        assert exact == via_threshold


class TestBatchAndMemoization:
    def test_batch_matches_singles(self):
        graphs = _family_graphs()
        batch = compute_properties_batch(graphs, exact_triangles=False,
                                         sample_size=150, seed=2)
        for graph, properties in zip(graphs, batch):
            assert properties == compute_properties(
                graph, exact_triangles=False, sample_size=150, seed=2)

    def test_batch_shares_content_duplicates(self):
        graph = generate_rmat(128, 900, seed=4)
        twin = Graph(graph.src.copy(), graph.dst.copy(),
                     num_vertices=graph.num_vertices, name="twin")
        batch = compute_properties_batch([graph, twin, graph])
        assert batch[0] is batch[1] and batch[1] is batch[2]

    def test_batch_empty(self):
        assert compute_properties_batch([]) == []

    def test_store_memoization_roundtrip(self, tmp_path):
        graph = generate_rmat(128, 900, seed=4)
        store = ArtifactStore(str(tmp_path / "cache"))
        first = compute_properties(graph, exact_triangles=False, store=store)
        assert store.misses >= 1
        hits_before = store.hits
        second = compute_properties(graph, exact_triangles=False, store=store)
        assert second == first
        assert store.hits > hits_before
        # A fresh store over the same directory restores from disk.
        fresh = ArtifactStore(str(tmp_path / "cache"))
        assert compute_properties(graph, exact_triangles=False,
                                  store=fresh) == first

    def test_store_key_matches_properties_job(self):
        from repro.runtime.tasks import PropertiesTask

        graph = generate_rmat(64, 300, seed=1)
        fingerprint = graph_fingerprint(graph)
        task = PropertiesTask(fingerprint, False, 0)
        assert properties_artifact_key(fingerprint, False, 0) == task.task_id

    def test_store_bypassed_for_non_default_sample_size(self, tmp_path):
        graph = generate_rmat(128, 900, seed=4)
        store = ArtifactStore(str(tmp_path / "cache"))
        compute_properties(graph, exact_triangles=False, sample_size=50,
                           store=store)
        assert store.hits == 0 and store.misses == 0

    def test_profiler_batch_uses_cache_dir(self, tmp_path):
        from repro.ease import GraphProfiler

        graphs = [generate_rmat(96, 500, seed=s) for s in range(3)]
        profiler = GraphProfiler(cache_dir=str(tmp_path / "cache"))

        def batch():
            return compute_properties_batch(
                graphs, exact_triangles=profiler.exact_triangles,
                seed=profiler.seed, store=ArtifactStore(profiler.cache_dir))

        first = batch()
        second = batch()
        assert first == second
        store = ArtifactStore(str(tmp_path / "cache"))
        key = properties_artifact_key(graph_fingerprint(graphs[0]),
                                      profiler.exact_triangles, profiler.seed)
        assert store.get(key) == first[0]


class TestFeatureMatrixFromGraphs:
    def test_matches_per_graph_properties(self):
        from repro.ease.features import graph_feature_matrix

        graphs = [generate_rmat(96, 500 + 100 * s, seed=s) for s in range(3)]
        direct = graph_feature_matrix(
            compute_properties_batch(graphs, exact_triangles=False),
            "advanced")
        reference = graph_feature_matrix(
            [compute_properties(g, exact_triangles=False) for g in graphs],
            "advanced")
        np.testing.assert_array_equal(direct, reference)


class TestVectorizedScatterEquivalence:
    """The bincount/reduceat replacements must be bit-identical to the
    ufunc ``.at`` scatters they replaced."""

    def _random_graph(self, seed):
        return generate_rmat(128, 1000, seed=seed)

    def test_pagerank_superstep_matches_add_at(self):
        from repro.processing.algorithms.pagerank import PageRank

        graph = self._random_graph(0)
        algorithm = PageRank()
        state = algorithm.initial_state(graph)
        active = algorithm.initial_active(graph)
        for _ in range(3):
            out_degrees = graph.out_degrees()
            shares = state / np.maximum(out_degrees, 1)
            reference = np.zeros(graph.num_vertices)
            np.add.at(reference, graph.dst, shares[graph.src])
            contributions = np.bincount(graph.dst,
                                        weights=shares[graph.src],
                                        minlength=graph.num_vertices)
            np.testing.assert_array_equal(contributions, reference)
            outcome = algorithm.superstep(graph, state, active)
            state, active = outcome.state, outcome.next_active

    def test_scatter_min_matches_minimum_at(self):
        rng = np.random.default_rng(3)
        from repro.processing.algorithms.base import scatter_min

        for _ in range(20):
            target = rng.random(50)
            target[rng.random(50) < 0.2] = np.inf
            indices = rng.integers(0, 50, size=200)
            values = rng.random(200)
            reference = target.copy()
            np.minimum.at(reference, indices, values)
            vectorized = target.copy()
            scatter_min(vectorized, indices, values)
            np.testing.assert_array_equal(vectorized, reference)
        # Empty scatter is a no-op.
        target = rng.random(10)
        before = target.copy()
        scatter_min(target, np.empty(0, dtype=np.int64), np.empty(0))
        np.testing.assert_array_equal(target, before)

    @pytest.mark.parametrize("name", ["sssp", "connected_components",
                                      "kcores", "synthetic_high"])
    def test_algorithm_supersteps_bit_identical_to_reference(self, name):
        """Replay each algorithm and cross-check every superstep against an
        independently computed ufunc-scatter reference state."""
        from repro.processing import create_algorithm

        graph = self._random_graph(1)
        algorithm = create_algorithm(name)
        state = algorithm.initial_state(graph)
        active = algorithm.initial_active(graph)
        for _ in range(4):
            outcome = algorithm.superstep(graph, state, active)
            reference = self._reference_superstep(name, graph, state, active,
                                                  algorithm)
            if reference is not None:
                np.testing.assert_array_equal(outcome.state, reference)
            if not outcome.next_active.any():
                break
            state, active = outcome.state, outcome.next_active

    def _reference_superstep(self, name, graph, state, active, algorithm):
        if name == "sssp":
            reference = state.copy()
            sending = active[graph.src]
            if sending.any():
                np.minimum.at(reference, graph.dst[sending],
                              state[graph.src[sending]] + 1.0)
            return reference
        if name == "connected_components":
            reference = state.copy()
            for senders, receivers in ((graph.src, graph.dst),
                                       (graph.dst, graph.src)):
                sending = active[senders]
                if sending.any():
                    np.minimum.at(reference, receivers[sending],
                                  state[senders[sending]])
            return reference
        if name == "synthetic_high":
            aggregated = np.zeros_like(state)
            np.add.at(aggregated, graph.dst, state[graph.src])
            in_degrees = np.maximum(graph.in_degrees(), 1).astype(np.float64)
            return 0.5 * state + 0.5 * aggregated / in_degrees[:, None]
        if name == "kcores":
            threshold = algorithm._threshold(graph)
            alive = state >= 0
            to_remove = alive & (state < threshold)
            reference = state.copy()
            if to_remove.any():
                reference[to_remove] = -1.0
                for senders, receivers in ((graph.src, graph.dst),
                                           (graph.dst, graph.src)):
                    affected = to_remove[senders]
                    if affected.any():
                        np.subtract.at(reference, receivers[affected], 1.0)
                reference[~alive | to_remove] = -1.0
                reference[alive & ~to_remove] = np.maximum(
                    reference[alive & ~to_remove], 0.0)
            return reference
        return None


class TestVectorizedPartitionCounts:
    @given(st.lists(st.tuples(st.integers(0, 25), st.integers(0, 25)),
                    min_size=1, max_size=120),
           st.integers(1, 6), st.integers(0, 1000))
    @settings(max_examples=40, deadline=None)
    def test_counts_match_sets(self, edges, k, assignment_seed):
        from reference import (
            destination_vertex_sets,
            source_vertex_sets,
            vertex_sets,
        )
        from repro.partitioning.base import EdgePartition

        graph = Graph.from_edges(edges, num_vertices=26)
        rng = np.random.default_rng(assignment_seed)
        assignment = rng.integers(0, k, size=graph.num_edges)
        partition = EdgePartition(graph, k, assignment)
        src, dst = partition.coverage()
        covered = src | dst
        assert covered.sum(axis=1).tolist() == [
            v.size for v in vertex_sets(partition)]
        assert src.sum(axis=1).tolist() == [
            v.size for v in source_vertex_sets(partition)]
        assert dst.sum(axis=1).tolist() == [
            v.size for v in destination_vertex_sets(partition)]
        reference = np.zeros(graph.num_vertices, dtype=np.int64)
        for vertices in vertex_sets(partition):
            reference[vertices] += 1
        np.testing.assert_array_equal(covered.sum(axis=0), reference)


class TestPropertiesCLI:
    def test_properties_command_writes_payloads_and_uses_cache(self, tmp_path,
                                                               capsys):
        import json

        from repro.cli import main
        from repro.generators import generate_rmat
        from repro.graph import GraphProperties, GraphStore

        store = GraphStore(str(tmp_path / "graphs"))
        graphs = [generate_rmat(96, 500 + 100 * s, seed=s) for s in range(2)]
        for graph in graphs:
            store.save(graph)
        args = ["properties", "--graph-store", store.root,
                "--output", str(tmp_path / "props"),
                "--cache-dir", str(tmp_path / "cache")]
        assert main(args) == 0
        assert "0 hits" in capsys.readouterr().out
        for graph in graphs:
            path = tmp_path / "props" / f"{graph.name}.properties.json"
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            assert GraphProperties.from_dict(payload) == compute_properties(
                graph, exact_triangles=False)
        # second run restores every graph from the artifact cache
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "2 hits, 0 misses" in out
