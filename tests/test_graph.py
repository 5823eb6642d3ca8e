"""Unit tests for the graph data structure."""

import numpy as np
import pytest

from repro.graph import Graph


class TestGraphConstruction:
    def test_from_edges(self, tiny_graph):
        assert tiny_graph.num_vertices == 6
        assert tiny_graph.num_edges == 6

    def test_infers_num_vertices(self):
        graph = Graph.from_edges([(0, 4)])
        assert graph.num_vertices == 5

    def test_explicit_num_vertices_must_cover_ids(self):
        with pytest.raises(ValueError):
            Graph.from_edges([(0, 10)], num_vertices=5)

    def test_rejects_negative_ids(self):
        with pytest.raises(ValueError):
            Graph(np.array([-1]), np.array([0]))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            Graph(np.array([0, 1]), np.array([0]))

    def test_rejects_two_dimensional_input(self):
        with pytest.raises(ValueError):
            Graph(np.zeros((2, 2), dtype=np.int64), np.zeros((2, 2), dtype=np.int64))

    def test_empty_graph(self):
        graph = Graph.empty(num_vertices=3)
        assert graph.num_edges == 0
        assert graph.num_vertices == 3
        assert list(graph.edges()) == []

    def test_len_is_edge_count(self, tiny_graph):
        assert len(tiny_graph) == tiny_graph.num_edges

    def test_edge_array_shape(self, tiny_graph):
        arr = tiny_graph.edge_array()
        assert arr.shape == (6, 2)
        assert (arr[:, 0] == tiny_graph.src).all()


class TestDegrees:
    def test_out_degrees(self, tiny_graph):
        out = tiny_graph.out_degrees()
        assert out[0] == 2  # 0->1, 0->5
        assert out[4] == 0

    def test_in_degrees(self, tiny_graph):
        incoming = tiny_graph.in_degrees()
        assert incoming[5] == 1
        assert incoming[0] == 1

    def test_total_degree_sums_to_twice_edges(self, small_rmat_graph):
        assert small_rmat_graph.degrees().sum() == 2 * small_rmat_graph.num_edges


class TestAdjacency:
    def test_undirected_adjacency_degree(self, tiny_graph):
        adj = tiny_graph.undirected_adjacency()
        # Vertex 2 has edges 1->2, 2->0, 2->3.
        assert adj.degree(2) == 3

    def test_undirected_edge_ids_map_back(self, tiny_graph):
        adj = tiny_graph.undirected_adjacency()
        start, end = adj.indptr[0], adj.indptr[1]
        edge_ids = adj.edge_ids[start:end]
        for edge_id in edge_ids:
            endpoints = {int(tiny_graph.src[edge_id]), int(tiny_graph.dst[edge_id])}
            assert 0 in endpoints

    def test_adjacency_matches_degree_counts(self, small_rmat_graph):
        # Every edge sits once in each endpoint's undirected list.
        adj = small_rmat_graph.undirected_adjacency()
        np.testing.assert_array_equal(adj.degrees(),
                                      small_rmat_graph.degrees())


class TestTransformations:
    def test_deduplicated_removes_duplicates(self):
        graph = Graph.from_edges([(0, 1), (0, 1), (1, 2)])
        assert graph.deduplicated().num_edges == 2

    def test_without_self_loops(self):
        graph = Graph.from_edges([(0, 0), (0, 1)])
        assert graph.without_self_loops().num_edges == 1

    def test_reversed_swaps_directions(self, tiny_graph):
        rev = tiny_graph.reversed()
        np.testing.assert_array_equal(rev.src, tiny_graph.dst)
        np.testing.assert_array_equal(rev.dst, tiny_graph.src)

    def test_subgraph_of_edges(self, tiny_graph):
        sub = tiny_graph.subgraph_of_edges(np.array([0, 1]))
        assert sub.num_edges == 2
        assert sub.num_vertices == tiny_graph.num_vertices

    def test_to_networkx_roundtrip(self, tiny_graph):
        nxg = tiny_graph.to_networkx()
        assert nxg.number_of_nodes() == tiny_graph.num_vertices
        assert nxg.number_of_edges() == tiny_graph.num_edges
