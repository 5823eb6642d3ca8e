"""Tests for the memory-mapped graph store: on-disk round trips, the entry
layout, zero-copy worker shipping, fingerprint serving and the graph CLI.
That a mapped graph answers like the in-RAM one is an oracle row
(``tests/test_reference_oracle.py::test_store_mapped_graph_matches_in_ram``)."""

import json
import os
import threading

import numpy as np
import pytest

from repro.generators import generate_rmat
from repro.graph import (
    Graph,
    GraphStore,
    GraphStoreError,
    compute_properties,
    graph_fingerprint,
    open_stored_graph,
    read_edge_list,
    write_edge_list,
)
from repro.ease import EASE, GraphProfiler
from repro.runtime.backends import (
    _SHIP_ARRAYS,
    _SHIP_STORE,
    _graph_from_arrays,
    _graph_to_arrays,
)
from repro.cli import main

PARTITIONERS = ("2d", "dbh", "hdrf")


def _sample_graph(name="sample"):
    return generate_rmat(64, 400, seed=3, graph_type="rmat") \
        if name == "rmat" else Graph(
            np.array([0, 1, 2, 0, 3, 3], dtype=np.int64),
            np.array([1, 2, 0, 2, 1, 3], dtype=np.int64),
            num_vertices=5, name=name)


def _assert_csr_equal(lhs, rhs):
    np.testing.assert_array_equal(np.asarray(lhs.indptr),
                                  np.asarray(rhs.indptr))
    np.testing.assert_array_equal(np.asarray(lhs.indices),
                                  np.asarray(rhs.indices))
    np.testing.assert_array_equal(np.asarray(lhs.edge_ids),
                                  np.asarray(rhs.edge_ids))


# --------------------------------------------------------------------------- #
# Round trips
# --------------------------------------------------------------------------- #
class TestStoreRoundTrip:
    def test_save_open_preserves_arrays_and_labels(self, tmp_path):
        graph = generate_rmat(96, 700, seed=5, graph_type="rmat")
        store = GraphStore(str(tmp_path))
        fingerprint = store.save(graph)
        reopened = store.open(fingerprint)
        assert reopened.is_mapped
        assert reopened.store_path == store.path_for(fingerprint)
        assert reopened.num_vertices == graph.num_vertices
        assert reopened.name == graph.name
        assert reopened.graph_type == graph.graph_type
        np.testing.assert_array_equal(np.asarray(reopened.src), graph.src)
        np.testing.assert_array_equal(np.asarray(reopened.dst), graph.dst)

    def test_entry_holds_only_what_its_readers_map(self, tmp_path):
        store = GraphStore(str(tmp_path))
        entry = store.path_for(store.save(_sample_graph()))
        assert sorted(os.listdir(entry)) == [
            "dst.bin", "meta.json", "src.bin", "und_indices.bin",
            "und_indptr.bin"]
        with open(os.path.join(entry, "meta.json"), encoding="utf-8") as fh:
            assert json.load(fh)["format_version"] == 2

    def test_open_attaches_precomputed_adjacency(self, tmp_path):
        graph = _sample_graph()
        store = GraphStore(str(tmp_path))
        reopened = store.open(store.save(graph))
        # The simple undirected CSR view is attached from the mapped files
        # at open time, not rebuilt on first use.
        assert reopened._undirected_simple_adj is not None
        und, und_ref = (reopened.undirected_simple_csr(),
                        graph.undirected_simple_csr())
        np.testing.assert_array_equal(np.asarray(und.indptr), und_ref.indptr)
        np.testing.assert_array_equal(np.asarray(und.indices),
                                      und_ref.indices)
        assert und.edge_ids.size == 0

    def test_fingerprint_is_stored_and_stable(self, tmp_path):
        graph = _sample_graph()
        store = GraphStore(str(tmp_path / "a"))
        other = GraphStore(str(tmp_path / "b"))
        fingerprint = store.save(graph)
        assert fingerprint == graph_fingerprint(graph)
        assert other.save(graph) == fingerprint
        reopened = store.open(fingerprint)
        # O(1) on mapped graphs: the graph arrives with the stored hash.
        assert reopened._fingerprint == fingerprint
        assert graph_fingerprint(reopened) == fingerprint

    def test_save_is_idempotent(self, tmp_path):
        graph = _sample_graph()
        store = GraphStore(str(tmp_path))
        fingerprint = store.save(graph)
        meta_path = os.path.join(store.path_for(fingerprint), "meta.json")
        before = os.path.getmtime(meta_path)
        assert store.save(graph) == fingerprint
        assert os.path.getmtime(meta_path) == before
        assert len(store.list()) == 1

    def test_open_by_direct_path(self, tmp_path):
        graph = _sample_graph()
        store = GraphStore(str(tmp_path / "store"))
        fingerprint = store.save(graph)
        entry = store.path_for(fingerprint)
        reopened = open_stored_graph(entry)
        np.testing.assert_array_equal(np.asarray(reopened.src), graph.src)
        # A store resolves a directory path even if it is not one of its
        # own fingerprints (workers receive bare paths).
        foreign = GraphStore(str(tmp_path / "elsewhere"))
        np.testing.assert_array_equal(np.asarray(foreign.open(entry).dst),
                                      graph.dst)

    def test_unknown_fingerprint_raises(self, tmp_path):
        store = GraphStore(str(tmp_path))
        with pytest.raises(GraphStoreError, match="no graph"):
            store.open("0" * 20)
        assert "0" * 20 not in store

    def test_list_and_disk_usage(self, tmp_path):
        store = GraphStore(str(tmp_path))
        graphs = [generate_rmat(48, 200 + 60 * s, seed=s) for s in range(3)]
        for graph in graphs:
            store.save(graph)
        infos = store.list()
        assert len(infos) == 3
        assert {info.num_edges for info in infos} == \
            {g.num_edges for g in graphs}
        assert all(info.nbytes > 0 for info in infos)
        usage = store.disk_usage()
        assert usage["graphs"] == 3
        assert usage["bytes"] == sum(info.nbytes for info in infos)
        opened = store.open_all()
        assert [g.name for g in opened] == sorted(g.name for g in graphs)


# --------------------------------------------------------------------------- #
# Edge cases and corruption
# --------------------------------------------------------------------------- #
class TestEdgeCases:
    def test_empty_graph(self, tmp_path):
        store = GraphStore(str(tmp_path))
        for graph in (Graph.empty(0), Graph.empty(7, name="isolated")):
            reopened = store.open(store.save(graph))
            assert reopened.num_edges == 0
            assert reopened.num_vertices == graph.num_vertices
            assert reopened.undirected_simple_csr().degrees().sum() == 0
            assert graph_fingerprint(reopened) == graph_fingerprint(graph)

    def test_trailing_isolated_vertices(self, tmp_path):
        graph = Graph(np.array([0, 1], dtype=np.int64),
                      np.array([1, 0], dtype=np.int64), num_vertices=9)
        store = GraphStore(str(tmp_path))
        reopened = store.open(store.save(graph))
        assert reopened.num_vertices == 9
        assert reopened.undirected_simple_csr().indptr.shape == (10,)
        assert reopened.undirected_simple_csr().degree(8) == 0
        # The isolated tail changes the content fingerprint.
        smaller = Graph(graph.src, graph.dst, num_vertices=2)
        assert graph_fingerprint(smaller) != graph_fingerprint(graph)

    def test_duplicate_and_self_loop_edges(self, tmp_path):
        graph = Graph(np.array([0, 0, 0, 1, 2, 2], dtype=np.int64),
                      np.array([1, 1, 0, 1, 0, 0], dtype=np.int64),
                      num_vertices=3)
        store = GraphStore(str(tmp_path))
        reopened = store.open(store.save(graph))
        assert reopened.num_edges == 6  # duplicates and loops are content
        np.testing.assert_array_equal(np.asarray(reopened.src), graph.src)
        np.testing.assert_array_equal(np.asarray(reopened.dst), graph.dst)
        und = reopened.undirected_simple_csr()
        ref = graph.undirected_simple_csr()
        np.testing.assert_array_equal(np.asarray(und.indices), ref.indices)

    def test_mapped_arrays_are_read_only(self, tmp_path):
        store = GraphStore(str(tmp_path))
        reopened = store.open(store.save(_sample_graph()))
        with pytest.raises(ValueError):
            reopened.src[0] = 99
        with pytest.raises(ValueError):
            reopened.undirected_simple_csr().indices[0] = 99

    def test_missing_meta_raises(self, tmp_path):
        (tmp_path / "entry").mkdir()
        with pytest.raises(GraphStoreError, match="meta.json is missing"):
            open_stored_graph(str(tmp_path / "entry"))

    def test_corrupted_meta_raises(self, tmp_path):
        store = GraphStore(str(tmp_path))
        entry = store.path_for(store.save(_sample_graph()))
        meta_path = os.path.join(entry, "meta.json")
        with open(meta_path, "w", encoding="utf-8") as handle:
            handle.write("{not json")
        with pytest.raises(GraphStoreError, match="corrupted"):
            open_stored_graph(entry)

    def test_wrong_format_version_raises(self, tmp_path):
        store = GraphStore(str(tmp_path))
        entry = store.path_for(store.save(_sample_graph()))
        meta_path = os.path.join(entry, "meta.json")
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        meta["format_version"] = 999
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        with pytest.raises(GraphStoreError, match="format version"):
            open_stored_graph(entry)

    def test_format_1_entry_is_refused_by_name(self, tmp_path):
        """No compatibility loader: an entry of the format that also held
        out- and in-CSR arrays is refused, naming the entry."""
        store = GraphStore(str(tmp_path))
        entry = store.path_for(store.save(_sample_graph()))
        meta_path = os.path.join(entry, "meta.json")
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        meta["format_version"] = 1
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)
        with pytest.raises(GraphStoreError, match="format version 1") as info:
            open_stored_graph(entry)
        assert entry in str(info.value)

    def test_truncated_bin_raises_named_error(self, tmp_path):
        store = GraphStore(str(tmp_path))
        entry = store.path_for(store.save(_sample_graph()))
        dst_path = os.path.join(entry, "dst.bin")
        with open(dst_path, "r+b") as handle:
            handle.truncate(os.path.getsize(dst_path) - 8)
        with pytest.raises(GraphStoreError, match="dst.bin"):
            open_stored_graph(entry)

    def test_missing_bin_raises_named_error(self, tmp_path):
        store = GraphStore(str(tmp_path))
        entry = store.path_for(store.save(_sample_graph()))
        os.remove(os.path.join(entry, "und_indices.bin"))
        with pytest.raises(GraphStoreError, match="und_indices.bin"):
            open_stored_graph(entry)

    def test_corrupted_entries_are_skipped_by_list(self, tmp_path):
        store = GraphStore(str(tmp_path))
        good = store.save(_sample_graph())
        bad = store.save(generate_rmat(32, 100, seed=9))
        os.remove(os.path.join(store.path_for(bad), "meta.json"))
        infos = store.list()
        assert [info.fingerprint for info in infos] == [good]


# --------------------------------------------------------------------------- #
# Worker shipping round trips
# --------------------------------------------------------------------------- #
class TestBackendShipping:
    def test_store_graph_ships_as_path_reference(self, tmp_path):
        store = GraphStore(str(tmp_path))
        graph = store.open(store.save(_sample_graph()))
        shipped = _graph_to_arrays(graph)
        assert shipped[0] == _SHIP_STORE
        assert shipped[1] == graph.store_path
        rebuilt = _graph_from_arrays(shipped)
        assert rebuilt.is_mapped
        # The mapped round trip preserves the attached adjacency and the
        # stored fingerprint: nothing the save step precomputed is rebuilt
        # worker-side.
        assert rebuilt._undirected_simple_adj is not None
        assert rebuilt._fingerprint == graph._fingerprint
        _assert_csr_equal(rebuilt.undirected_simple_csr(),
                          graph.undirected_simple_csr())
        assert graph_fingerprint(rebuilt) == graph_fingerprint(graph)

    def test_in_ram_fallback_recomputes_adjacency(self):
        graph = _sample_graph()
        # populate the parent's caches
        graph.undirected_adjacency(), graph.undirected_simple_csr()
        shipped = _graph_to_arrays(graph)
        assert shipped[0] == _SHIP_ARRAYS
        rebuilt = _graph_from_arrays(shipped)
        assert not rebuilt.is_mapped
        # The fallback deliberately ships only the edge arrays: cached
        # views are dropped and rebuilt lazily worker-side.
        assert rebuilt._undirected_adj is None
        assert rebuilt._undirected_simple_adj is None
        _assert_csr_equal(rebuilt.undirected_adjacency(),
                          graph.undirected_adjacency())
        _assert_csr_equal(rebuilt.undirected_simple_csr(),
                          graph.undirected_simple_csr())

    @pytest.mark.parametrize("backend", ["process", "worker"])
    def test_parallel_profile_matches_inline(self, tmp_path, backend):
        graphs = [generate_rmat(80, 350 + 90 * s, seed=s, graph_type="rmat")
                  for s in range(2)]
        store = GraphStore(str(tmp_path / "store"))
        for graph in graphs:
            store.save(graph)
        mapped = store.open_all()

        def profile(corpus, jobs=1, backend_name=None):
            profiler = GraphProfiler(partitioner_names=("dbh", "2d"),
                                     partition_counts=(2,),
                                     processing_partition_count=2,
                                     algorithms=("pagerank",), jobs=jobs,
                                     backend=backend_name)
            return profiler.profile(corpus, corpus)

        reference = profile(graphs)
        parallel = profile(mapped, jobs=2, backend_name=backend)
        assert parallel.summary() == reference.summary()
        assert parallel.quality == reference.quality
        assert parallel.partitioning_time == reference.partitioning_time
        assert parallel.processing == reference.processing


# --------------------------------------------------------------------------- #
# Serving by fingerprint
# --------------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def trained_system():
    profiler = GraphProfiler(partitioner_names=PARTITIONERS,
                             partition_counts=(2,),
                             processing_partition_count=2,
                             algorithms=("pagerank",))
    graphs = [generate_rmat(96, 500 + 150 * s, seed=s, graph_type="rmat")
              for s in range(3)]
    return EASE(partitioner_names=PARTITIONERS).train(
        profiler.profile(graphs, graphs))


class TestServingByFingerprint:
    def test_resolve_requires_a_store(self, trained_system):
        from repro.serving import SelectionService

        service = SelectionService(trained_system)
        with pytest.raises(ValueError, match="graph store"):
            service.resolve_graph("0" * 20)

    def test_resolve_opens_and_caches(self, trained_system, tmp_path):
        from repro.serving import SelectionService

        store = GraphStore(str(tmp_path))
        fingerprint = store.save(generate_rmat(64, 400, seed=11))
        service = SelectionService(trained_system,
                                   graph_store=str(tmp_path))
        graph = service.resolve_graph(fingerprint)
        assert graph.is_mapped
        assert service.resolve_graph(fingerprint) is graph
        with pytest.raises(ValueError, match="no graph"):
            service.resolve_graph("f" * 20)

    def test_parse_payload_fingerprint(self):
        from repro.serving.core import BadRequest, parse_graph_payload

        sentinel = _sample_graph()
        resolved = parse_graph_payload({"graph_fingerprint": "abc"},
                                       resolver=lambda fp: sentinel)
        assert resolved is sentinel
        with pytest.raises(BadRequest, match="no graph store"):
            parse_graph_payload({"graph_fingerprint": "abc"})
        with pytest.raises(BadRequest, match="exactly one"):
            parse_graph_payload({"graph_fingerprint": "abc",
                                 "graph": {"src": [], "dst": []}})
        with pytest.raises(BadRequest, match="non-empty"):
            parse_graph_payload({"graph_fingerprint": ""},
                                resolver=lambda fp: sentinel)

        def failing(fingerprint):
            raise ValueError("unknown fingerprint")

        with pytest.raises(BadRequest, match="unknown fingerprint"):
            parse_graph_payload({"graph_fingerprint": "abc"},
                                resolver=failing)

    def test_client_builds_fingerprint_payload(self):
        from repro.serving.client import _graph_payload

        assert _graph_payload("abc123") == {"graph_fingerprint": "abc123"}

    def test_http_select_by_fingerprint(self, trained_system, tmp_path):
        from repro.serving import (
            SelectionClient,
            SelectionHTTPServer,
            SelectionService,
        )
        from repro.serving.client import SelectionServiceError

        graph = generate_rmat(128, 900, seed=21, graph_type="rmat")
        store = GraphStore(str(tmp_path))
        fingerprint = store.save(graph)
        service = SelectionService(trained_system, graph_store=store,
                                   batch_wait_seconds=0.001)
        server = SelectionHTTPServer(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        with server:
            thread.start()
            client = SelectionClient(server.url)
            by_fingerprint = client.select(fingerprint, "pagerank", 2)
            by_arrays = client.select(graph, "pagerank", 2)
            assert by_fingerprint["selected"] == by_arrays["selected"]
            assert by_fingerprint["scores"] == by_arrays["scores"]
            with pytest.raises(SelectionServiceError) as excinfo:
                client.select("0" * 20, "pagerank", 2)
            assert excinfo.value.status == 400
            server.shutdown()
        thread.join(timeout=5)

    def test_http_fingerprint_without_store_is_rejected(self,
                                                        trained_system):
        from repro.serving import (
            SelectionClient,
            SelectionHTTPServer,
            SelectionService,
        )
        from repro.serving.client import SelectionServiceError

        service = SelectionService(trained_system,
                                   batch_wait_seconds=0.001)
        server = SelectionHTTPServer(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        with server:
            thread.start()
            client = SelectionClient(server.url)
            with pytest.raises(SelectionServiceError) as excinfo:
                client.select("0" * 20, "pagerank", 2)
            assert excinfo.value.status == 400
            assert "no graph store" in excinfo.value.message
            server.shutdown()
        thread.join(timeout=5)


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestGraphCLI:
    def _write_inputs(self, tmp_path):
        """Two edge-list files and the graphs read back from them."""
        inputs_dir = tmp_path / "inputs"
        inputs_dir.mkdir()
        graphs, paths = [], []
        for seed in range(2):
            graph = generate_rmat(48, 220 + 70 * seed, seed=seed)
            path = str(inputs_dir / f"{graph.name}.txt")
            write_edge_list(graph, path)
            graphs.append(read_edge_list(path))
            paths.append(path)
        return graphs, paths, str(inputs_dir)

    def test_import_and_ls(self, tmp_path, capsys):
        graphs, paths, _ = self._write_inputs(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["graph", "import", *paths, "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "imported 2 graphs" in out
        for graph in graphs:
            assert graph_fingerprint(graph) in out

        # A re-import is a no-op (content addressing).
        assert main(["graph", "import", paths[0], "--store", store_dir]) == 0
        assert "1 already present" in capsys.readouterr().out

        assert main(["graph", "ls", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "2 graphs" in out
        for graph in graphs:
            assert graph_fingerprint(graph) in out
            assert str(graph.num_edges) in out

    def test_format_1_entry_is_named_not_hidden(self, tmp_path, capsys):
        store = GraphStore(str(tmp_path / "store"))
        store.save(_sample_graph())
        old = store.path_for(store.save(generate_rmat(48, 220, seed=5)))
        meta_path = os.path.join(old, "meta.json")
        with open(meta_path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
        meta["format_version"] = 1
        with open(meta_path, "w", encoding="utf-8") as handle:
            json.dump(meta, handle)

        assert main(["graph", "ls", "--store", store.root]) == 0
        out = capsys.readouterr().out
        unreadable = [line for line in out.splitlines()
                      if line.startswith("unreadable")]
        assert len(unreadable) == 1
        assert old in unreadable[0] and "format version 1" in unreadable[0]
        # Only readable entries count as graphs; the bytes on disk still
        # include the unreadable entry's files.
        assert "1 graphs, 1 unreadable, " in out

        for command in (["profile", "--output", str(tmp_path / "p.pkl")],
                        ["properties", "--output", str(tmp_path / "props")]):
            with pytest.raises(SystemExit) as exited:
                main(command + ["--graph-store", store.root])
            assert old in str(exited.value)
            assert "format version 1" in str(exited.value)

    def test_ls_missing_store(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["graph", "ls", "--store", str(tmp_path / "nope")])

    def test_profile_from_store_matches_directory(self, tmp_path, capsys):
        """``profile --graph-store`` over an imported directory of edge
        lists records what profiling the directory's graphs in RAM does."""
        graphs, paths, _ = self._write_inputs(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["graph", "import", *paths, "--store", store_dir]) == 0
        capsys.readouterr()

        from_store = str(tmp_path / "store.pkl")
        assert main(["profile", "--graph-store", store_dir,
                     "--output", from_store, "--partitioners", "dbh",
                     "--partition-counts", "2", "--processing-partitions",
                     "2", "--algorithms", "pagerank"]) == 0

        from repro.ease.persistence import load_dataset

        profiler = GraphProfiler(partitioner_names=("dbh",),
                                 partition_counts=(2,),
                                 processing_partition_count=2,
                                 algorithms=("pagerank",))
        lhs, rhs = load_dataset(from_store), profiler.profile(graphs, graphs)
        assert lhs.summary() == rhs.summary()
        assert lhs.quality == rhs.quality
        assert lhs.processing == rhs.processing

    def test_profile_requires_a_graph_source(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["profile", "--output", str(tmp_path / "out.pkl")])
        assert "--graph-store" in capsys.readouterr().err

    def test_properties_from_store(self, tmp_path, capsys):
        graphs, paths, _ = self._write_inputs(tmp_path)
        store_dir = str(tmp_path / "store")
        assert main(["graph", "import", *paths, "--store", store_dir]) == 0
        output = str(tmp_path / "props")
        assert main(["properties", "--graph-store", store_dir,
                     "--output", output]) == 0
        for graph in graphs:
            path = os.path.join(output, f"{graph.name}.properties.json")
            with open(path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
            expected = compute_properties(graph, exact_triangles=False,
                                          seed=0).as_dict()
            assert stored == expected

    def test_serve_rejects_missing_store(self, tmp_path):
        with pytest.raises(SystemExit, match="does not exist"):
            main(["serve", "--model", "irrelevant.pkl",
                  "--graph-store", str(tmp_path / "nope")])
