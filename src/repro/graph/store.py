"""On-disk memory-mapped zero-copy graph store: the one persisted graph format.

The profiling pipeline is corpus-shaped: the same graphs are partitioned,
measured and processed over and over, by several worker processes at once,
and served to selection clients long after profiling finished.  Keeping each
:class:`~repro.graph.graph.Graph` as in-RAM edge arrays made every one of
those consumers pay O(m): the process-pool initializer shipped the pickled
corpus to every worker, the worker queue spooled the same arrays to disk as
pickles, and a serving cold-start on a huge graph loaded the whole edge list
before answering the first request.

The store replaces that with a versioned per-graph directory of raw binary
arrays that are *memory-mapped* (``np.memmap``, ``mode="r"``) instead of
loaded:

* **O(1) open** — :meth:`GraphStore.open` maps the files and reads nothing
  but ``meta.json``; pages fault in lazily as tasks touch them.
* **Page-shared workers** — every process mapping the same store directory
  shares the OS page cache; N workers hold one physical copy of the corpus
  instead of N private unpickled ones.
* **Precomputed adjacency** — the simple undirected CSR view, which the
  property engine reads, is built once at :meth:`GraphStore.save` time and
  attached from the mapped files on open, so no consumer rebuilds it.
  Nothing else is stored: an entry holds only what its readers map.
* **O(1) fingerprinting** — the content fingerprint is computed at save time
  and stored in ``meta.json``; an opened graph arrives with it, so
  :func:`~repro.graph.graph.graph_fingerprint` never hashes the edge arrays.

Directory layout (format version 2)::

    <root>/<fingerprint>/
        meta.json            format_version, fingerprint, num_vertices,
                             num_edges, und_entries, dtype, name, graph_type
        src.bin, dst.bin     raw int64 edge arrays
        und_indptr.bin, und_indices.bin     simple undirected CSR (sorted,
                                            deduplicated, loop-free)

``repro generate`` and ``repro graph import`` write entries;
``repro profile``, ``repro properties`` and ``repro serve`` read them.  A
format-1 entry (which also held out- and in-CSR arrays) is refused by the
version check; re-import its graphs into a fresh store.

All arrays are little-endian ``int64``; every ``.bin`` file size is
validated against ``meta.json`` before mapping, so a truncated or corrupted
entry raises a :class:`GraphStoreError` naming the file instead of a numpy
reshape traceback deep inside a worker.  Writes are atomic: a graph is
staged into a temporary directory and published with one ``os.rename``, so
concurrent writers of the same content race harmlessly.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .graph import CSRAdjacency, Graph, graph_fingerprint

__all__ = [
    "GraphStore",
    "GraphStoreError",
    "StoredGraphInfo",
    "open_stored_graph",
]

FORMAT_VERSION = 2
META_FILE = "meta.json"

#: Logical array name -> file name inside one graph directory.
_ARRAY_FILES = {
    "src": "src.bin",
    "dst": "dst.bin",
    "und_indptr": "und_indptr.bin",
    "und_indices": "und_indices.bin",
}

_ITEM_BYTES = np.dtype(np.int64).itemsize


class GraphStoreError(RuntimeError):
    """A graph-store entry is missing, truncated or corrupted."""


@dataclass(frozen=True)
class StoredGraphInfo:
    """One ``graph ls`` row: identity, shape and on-disk footprint."""

    fingerprint: str
    name: str
    graph_type: str
    num_vertices: int
    num_edges: int
    nbytes: int
    path: str


# --------------------------------------------------------------------------- #
# Low-level array I/O
# --------------------------------------------------------------------------- #
def _write_array(path: str, array: np.ndarray) -> None:
    np.ascontiguousarray(array, dtype=np.int64).tofile(path)


def _map_array(directory: str, filename: str,
               expected_entries: int) -> np.ndarray:
    """Memory-map one ``.bin`` file after validating its size.

    Zero-entry arrays are returned as empty in-RAM arrays (an empty file
    cannot be mmapped), which keeps empty graphs first-class store citizens.
    """
    path = os.path.join(directory, filename)
    if not os.path.exists(path):
        raise GraphStoreError(
            f"graph store entry {directory!r} is missing {filename!r}")
    actual = os.path.getsize(path)
    expected = expected_entries * _ITEM_BYTES
    if actual != expected:
        raise GraphStoreError(
            f"graph store file {path!r} is truncated or corrupted: expected "
            f"{expected_entries} int64 entries ({expected} bytes), found "
            f"{actual} bytes")
    if expected_entries == 0:
        return np.empty(0, dtype=np.int64)
    return np.memmap(path, dtype=np.int64, mode="r")


def _load_meta(directory: str) -> Dict:
    path = os.path.join(directory, META_FILE)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except FileNotFoundError:
        raise GraphStoreError(
            f"{directory!r} is not a graph store entry: {META_FILE} is "
            "missing") from None
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
        raise GraphStoreError(
            f"graph store entry {directory!r} has a corrupted {META_FILE}: "
            f"{error}") from error
    if not isinstance(meta, dict):
        raise GraphStoreError(
            f"graph store entry {directory!r} has a malformed {META_FILE}: "
            "expected a JSON object")
    version = meta.get("format_version")
    if version != FORMAT_VERSION:
        raise GraphStoreError(
            f"graph store entry {directory!r} has format version "
            f"{version!r}; this build reads version {FORMAT_VERSION}")
    for key in ("fingerprint", "name", "graph_type"):
        if not isinstance(meta.get(key), str):
            raise GraphStoreError(
                f"graph store entry {directory!r}: {META_FILE} field "
                f"{key!r} is missing or not a string")
    for key in ("num_vertices", "num_edges", "und_entries"):
        value = meta.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise GraphStoreError(
                f"graph store entry {directory!r}: {META_FILE} field "
                f"{key!r} is missing or not a non-negative integer")
    if meta.get("dtype") != "int64":
        raise GraphStoreError(
            f"graph store entry {directory!r} uses dtype "
            f"{meta.get('dtype')!r}; this build reads int64")
    return meta


# --------------------------------------------------------------------------- #
# Opening (module-level so workers can open a shipped path without a store)
# --------------------------------------------------------------------------- #
def open_stored_graph(directory: str, name: Optional[str] = None,
                      graph_type: Optional[str] = None) -> Graph:
    """Open one stored graph directory as a memory-mapped :class:`Graph`.

    O(1): only ``meta.json`` is read; the edge arrays and the precomputed
    simple undirected CSR view are attached as read-only ``np.memmap``
    arrays whose pages fault in on first touch.  ``name`` / ``graph_type``
    override the stored labels (corpus entries may share content under
    different names); content identity is unaffected.
    """
    directory = os.path.abspath(directory)
    meta = _load_meta(directory)
    num_vertices = meta["num_vertices"]
    num_edges = meta["num_edges"]
    und_entries = meta["und_entries"]

    def mapped(key: str, entries: int) -> np.ndarray:
        return _map_array(directory, _ARRAY_FILES[key], entries)

    src = mapped("src", num_edges)
    dst = mapped("dst", num_edges)
    graph = Graph.from_store(
        src, dst, num_vertices,
        name=meta["name"] if name is None else name,
        graph_type=meta["graph_type"] if graph_type is None else graph_type,
        store_path=directory, fingerprint=meta["fingerprint"])
    und_indptr = mapped("und_indptr", num_vertices + 1)
    if und_indptr.size and int(und_indptr[-1]) != und_entries:
        raise GraphStoreError(
            f"graph store entry {directory!r} is inconsistent: und_indptr "
            f"ends at {int(und_indptr[-1])} but {META_FILE} records "
            f"{und_entries} undirected entries")
    graph._undirected_simple_adj = CSRAdjacency(
        indptr=und_indptr,
        indices=mapped("und_indices", und_entries),
        edge_ids=np.empty(0, dtype=np.int64))
    return graph


# --------------------------------------------------------------------------- #
# The store
# --------------------------------------------------------------------------- #
class GraphStore:
    """A directory of memory-mapped graphs keyed by content fingerprint.

    ``save`` is idempotent (content addressing makes re-imports free) and
    atomic (staged directory + rename).  ``open`` accepts a fingerprint of
    this store or a direct path to any graph directory.
    """

    def __init__(self, root: str) -> None:
        self.root = os.path.abspath(root)

    # ------------------------------------------------------------------ #
    def path_for(self, fingerprint: str) -> str:
        """Directory of ``fingerprint`` inside this store."""
        return os.path.join(self.root, fingerprint)

    def __contains__(self, fingerprint: str) -> bool:
        return os.path.exists(os.path.join(self.path_for(fingerprint),
                                           META_FILE))

    # ------------------------------------------------------------------ #
    def save(self, graph: Graph) -> str:
        """Persist ``graph`` (edges + the simple undirected CSR view);
        returns its content fingerprint.

        Re-saving already-stored content is a no-op, whatever format the
        existing entry has.  The CSR view is computed here — once, at
        ingest — and reuses the graph's cached view when the caller already
        built it.
        """
        fingerprint = graph_fingerprint(graph)
        target = self.path_for(fingerprint)
        if os.path.exists(os.path.join(target, META_FILE)):
            return fingerprint
        os.makedirs(self.root, exist_ok=True)
        staging = tempfile.mkdtemp(dir=self.root, prefix=".staging-")
        try:
            self._write_entry(staging, graph, fingerprint)
            try:
                os.rename(staging, target)
            except OSError:
                # Another writer published the same content first; content
                # addressing guarantees the directories are equivalent.
                if os.path.exists(os.path.join(target, META_FILE)):
                    shutil.rmtree(staging, ignore_errors=True)
                else:
                    raise
        except BaseException:
            shutil.rmtree(staging, ignore_errors=True)
            raise
        return fingerprint

    @staticmethod
    def _write_entry(directory: str, graph: Graph, fingerprint: str) -> None:
        und_adj = graph.undirected_simple_csr()
        arrays = {
            "src": graph.src, "dst": graph.dst,
            "und_indptr": und_adj.indptr, "und_indices": und_adj.indices,
        }
        for key, array in arrays.items():
            _write_array(os.path.join(directory, _ARRAY_FILES[key]), array)
        meta = {
            "format_version": FORMAT_VERSION,
            "fingerprint": fingerprint,
            "num_vertices": graph.num_vertices,
            "num_edges": graph.num_edges,
            "und_entries": int(und_adj.indices.shape[0]),
            "dtype": "int64",
            "name": graph.name,
            "graph_type": graph.graph_type,
        }
        with open(os.path.join(directory, META_FILE), "w",
                  encoding="utf-8") as handle:
            json.dump(meta, handle, indent=2, sort_keys=True)

    # ------------------------------------------------------------------ #
    def open(self, ref: str, name: Optional[str] = None,
             graph_type: Optional[str] = None) -> Graph:
        """Open a stored graph by fingerprint (or by direct directory path)."""
        candidate = self.path_for(ref)
        if os.path.isdir(candidate):
            return open_stored_graph(candidate, name=name,
                                     graph_type=graph_type)
        if os.path.isdir(ref):
            return open_stored_graph(ref, name=name, graph_type=graph_type)
        raise GraphStoreError(
            f"graph store {self.root!r} has no graph {ref!r}")

    def open_all(self) -> List[Graph]:
        """Open every stored graph (mapped), sorted by name then
        fingerprint; any unreadable entry raises, naming it."""
        infos, unreadable = self.scan()
        if unreadable:
            raise GraphStoreError("; ".join(unreadable.values()))
        infos.sort(key=lambda info: (info.name, info.fingerprint))
        return [self.open(info.fingerprint) for info in infos]

    # ------------------------------------------------------------------ #
    def _entry_dirs(self) -> List[str]:
        if not os.path.isdir(self.root):
            return []
        dirs = []
        for entry in sorted(os.listdir(self.root)):
            directory = os.path.join(self.root, entry)
            if (os.path.isdir(directory) and not entry.startswith(".")
                    and os.path.exists(os.path.join(directory, META_FILE))):
                dirs.append(directory)
        return dirs

    @staticmethod
    def _entry_bytes(directory: str) -> int:
        total = 0
        for entry in os.scandir(directory):
            try:
                total += entry.stat().st_size
            except OSError:
                continue
        return total

    def list(self) -> List[StoredGraphInfo]:
        """Describe every readable stored graph (see :meth:`scan`)."""
        return self.scan()[0]

    def scan(self) -> Tuple[List[StoredGraphInfo], Dict[str, str]]:
        """Readable entries, and why each other entry is unreadable."""
        infos, unreadable = [], {}
        for directory in self._entry_dirs():
            try:
                meta = _load_meta(directory)
            except GraphStoreError as error:
                unreadable[directory] = str(error)
                continue
            infos.append(StoredGraphInfo(
                fingerprint=meta["fingerprint"], name=meta["name"],
                graph_type=meta["graph_type"],
                num_vertices=meta["num_vertices"],
                num_edges=meta["num_edges"],
                nbytes=self._entry_bytes(directory),
                path=directory))
        return infos, unreadable

    def disk_usage(self) -> Dict[str, int]:
        """Graphs, files and bytes held by this store (for ``graph ls``)."""
        graphs = files = total = 0
        for directory in self._entry_dirs():
            graphs += 1
            for entry in os.scandir(directory):
                try:
                    total += entry.stat().st_size
                    files += 1
                except OSError:
                    continue
        return {"graphs": graphs, "files": files, "bytes": total}
