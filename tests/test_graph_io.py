"""Tests for edge-list graph I/O."""

import numpy as np
import pytest

from repro.graph import read_edge_list, write_edge_list


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

