"""Tests for edge-list graph I/O."""

import numpy as np
import pytest

from repro.generators import generate_rmat
from repro.graph import (
    Graph,
    GraphStore,
    graph_fingerprint,
    read_edge_list,
    write_edge_list,
)


class TestEdgeListIO:
    def test_roundtrip(self, tmp_path, tiny_graph):
        path = tmp_path / "tiny.txt"
        write_edge_list(tiny_graph, str(path))
        loaded = read_edge_list(str(path))
        np.testing.assert_array_equal(loaded.src, tiny_graph.src)
        np.testing.assert_array_equal(loaded.dst, tiny_graph.dst)

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1\n1 2\n")
        graph = read_edge_list(str(path))
        assert graph.num_edges == 2

    def test_malformed_line_raises(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\n")
        with pytest.raises(ValueError):
            read_edge_list(str(path))

    def test_name_defaults_to_filename(self, tmp_path):
        path = tmp_path / "mygraph.txt"
        path.write_text("0 1\n")
        assert read_edge_list(str(path)).name == "mygraph"


    def test_header_keeps_fingerprint_through_the_store(self, tmp_path):
        # The round trip a graph takes out of one store and into another:
        # a trailing isolated vertex must survive, or every artifact key
        # below the content fingerprint changes.
        rmat = generate_rmat(1500, 12000, seed=3)
        graph = Graph(rmat.src, rmat.dst, num_vertices=rmat.num_vertices + 1,
                      name=rmat.name, graph_type="rmat")
        path = str(tmp_path / "exported.txt")
        write_edge_list(graph, path)
        loaded = read_edge_list(path)
        assert loaded.num_vertices == graph.num_vertices
        store = GraphStore(str(tmp_path / "store"))
        assert store.save(loaded) == graph_fingerprint(graph)
        assert graph_fingerprint(store.open(store.save(loaded))) \
            == graph_fingerprint(graph)

    def test_header_mismatch_raises_naming_the_file(self, tmp_path):
        path = tmp_path / "short.txt"
        path.write_text("# g: |V|=3 |E|=2\n0 1\n")
        with pytest.raises(ValueError) as raised:
            read_edge_list(str(path))
        assert str(path) in str(raised.value)
        assert "1 edges" in str(raised.value) and "|E|=2" in str(raised.value)
        path.write_text("# g: |V|=3 |E|=1\n0 3\n")
        with pytest.raises(ValueError) as raised:
            read_edge_list(str(path))
        assert str(path) in str(raised.value)
        assert "vertex 3" in str(raised.value) and "|V|=3" in str(raised.value)

    def test_file_without_header_infers_vertex_count(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("# exported by another tool\n0 4\n")
        assert read_edge_list(str(path)).num_vertices == 5
