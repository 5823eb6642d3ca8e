"""Directed graph data structure backed by numpy edge arrays.

The graph model mirrors the edge-partitioning setting of the EASE paper
(Section II): a directed graph ``G = (V, E)`` whose edges are the unit of
partitioning.  Edges are stored as two parallel ``int64`` arrays (sources and
destinations), which makes the graph cheap to stream (stateless partitioners),
cheap to shuffle, and cheap to convert into the undirected CSR views of the
in-memory partitioners and the property engine.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Tuple

import numpy as np

__all__ = ["Graph", "CSRAdjacency", "graph_fingerprint"]


def graph_fingerprint(graph: "Graph") -> str:
    """Content fingerprint of a graph (independent of its name/type labels).

    Two graphs with identical vertex counts and edge arrays share all
    content-addressed artifacts (partitions, properties, quality metrics,
    processing results).  Lives in the graph module so the property layer can
    memoize by content without depending on the runtime; re-exported by
    :mod:`repro.runtime.jobs`, and the root of every task id in
    :mod:`repro.runtime.tasks`.

    A graph is hashed once: the result fills the graph's fingerprint slot,
    and store-opened graphs arrive with the slot filled from ``meta.json``,
    so they are never hashed and never page in their mapped arrays.
    """
    if graph._fingerprint is None:
        digest = hashlib.sha256()
        digest.update(b"graph-v1:")
        digest.update(str(graph.num_vertices).encode("ascii"))
        digest.update(b":")
        digest.update(
            np.ascontiguousarray(graph.src, dtype=np.int64).tobytes())
        digest.update(
            np.ascontiguousarray(graph.dst, dtype=np.int64).tobytes())
        graph._fingerprint = digest.hexdigest()[:20]
    return graph._fingerprint


@dataclass
class CSRAdjacency:
    """Compressed sparse row adjacency built from an edge list.

    ``indptr`` has length ``num_vertices + 1``; the neighbours of vertex ``v``
    are ``indices[indptr[v]:indptr[v + 1]]`` and the ids of the corresponding
    edges (positions in the original edge arrays) are
    ``edge_ids[indptr[v]:indptr[v + 1]]``.
    """

    indptr: np.ndarray
    indices: np.ndarray
    edge_ids: np.ndarray

    def neighbors(self, vertex: int) -> np.ndarray:
        """Return the neighbour array of ``vertex``."""
        return self.indices[self.indptr[vertex]:self.indptr[vertex + 1]]

    def degree(self, vertex: int) -> int:
        """Return the number of incident edges of ``vertex`` in this view."""
        return int(self.indptr[vertex + 1] - self.indptr[vertex])

    def degrees(self) -> np.ndarray:
        """Return the degree of every vertex as an array."""
        return np.diff(self.indptr)


def _build_csr(targets_of: np.ndarray, others: np.ndarray,
               num_vertices: int) -> CSRAdjacency:
    """Build a CSR structure keyed by ``targets_of`` pointing at ``others``."""
    order = np.argsort(targets_of, kind="stable")
    sorted_keys = targets_of[order]
    counts = np.bincount(sorted_keys, minlength=num_vertices)
    indptr = np.zeros(num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return CSRAdjacency(indptr=indptr, indices=others[order],
                        edge_ids=order.astype(np.int64))


class Graph:
    """A directed graph over vertices ``0 .. num_vertices - 1``.

    Parameters
    ----------
    src, dst:
        Parallel arrays with the source and destination vertex of every edge.
    num_vertices:
        Number of vertices.  If omitted, inferred as ``max(src, dst) + 1``.
    name:
        Optional human-readable name (used in profiling records and reports).
    graph_type:
        Optional category label (e.g. ``"wiki"``, ``"social"``); the EASE
        evaluation groups prediction errors by this label.
    """

    def __init__(self, src: np.ndarray, dst: np.ndarray,
                 num_vertices: Optional[int] = None, name: str = "graph",
                 graph_type: str = "synthetic") -> None:
        src = np.asarray(src, dtype=np.int64)
        dst = np.asarray(dst, dtype=np.int64)
        if src.ndim != 1 or dst.ndim != 1:
            raise ValueError("src and dst must be one-dimensional arrays")
        if src.shape[0] != dst.shape[0]:
            raise ValueError("src and dst must have the same length")
        if src.size and (src.min() < 0 or dst.min() < 0):
            raise ValueError("vertex ids must be non-negative")
        inferred = int(max(src.max(initial=-1), dst.max(initial=-1)) + 1)
        if num_vertices is None:
            num_vertices = inferred
        elif num_vertices < inferred:
            raise ValueError(
                f"num_vertices={num_vertices} is smaller than the largest "
                f"vertex id + 1 ({inferred})")
        self.src = src
        self.dst = dst
        self.num_vertices = int(num_vertices)
        self.name = name
        self.graph_type = graph_type
        #: Directory of the on-disk store entry backing this graph's arrays
        #: (``None`` for in-RAM graphs; see :mod:`repro.graph.store`).
        self.store_path: Optional[str] = None
        #: Content fingerprint, filled by the first :func:`graph_fingerprint`.
        self._fingerprint: Optional[str] = None
        self._undirected_adj: Optional[CSRAdjacency] = None
        self._undirected_simple_adj: Optional[CSRAdjacency] = None

    @classmethod
    def from_store(cls, src: np.ndarray, dst: np.ndarray, num_vertices: int,
                   *, name: str, graph_type: str, store_path: str,
                   fingerprint: str) -> "Graph":
        """Construct a store-backed graph from already-validated arrays.

        Used by :func:`repro.graph.store.open_stored_graph`: the regular
        constructor's bounds checks would read every edge, defeating the
        O(1) open of a memory-mapped graph.  The store validated the arrays
        at save time and revalidates file sizes on open, so the checks are
        skipped here; ``fingerprint`` is the content hash recorded at save
        time.
        """
        graph = cls.__new__(cls)
        graph.src = src
        graph.dst = dst
        graph.num_vertices = int(num_vertices)
        graph.name = name
        graph.graph_type = graph_type
        graph.store_path = store_path
        graph._fingerprint = fingerprint
        graph._undirected_adj = None
        graph._undirected_simple_adj = None
        return graph

    @property
    def is_mapped(self) -> bool:
        """True when the edge arrays are ``np.memmap`` views of a store
        entry (read-only, page-shared across processes)."""
        return self.store_path is not None

    # ------------------------------------------------------------------ #
    # Basic accessors
    # ------------------------------------------------------------------ #
    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return int(self.src.shape[0])

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over ``(source, destination)`` pairs."""
        for u, v in zip(self.src.tolist(), self.dst.tolist()):
            yield u, v

    def edge_array(self) -> np.ndarray:
        """Return the edges as an ``(m, 2)`` array."""
        return np.column_stack([self.src, self.dst])

    def __len__(self) -> int:
        return self.num_edges

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Graph(name={self.name!r}, |V|={self.num_vertices}, "
                f"|E|={self.num_edges}, type={self.graph_type!r})")

    # ------------------------------------------------------------------ #
    # Degrees
    # ------------------------------------------------------------------ #
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex."""
        return np.bincount(self.src, minlength=self.num_vertices)

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex."""
        return np.bincount(self.dst, minlength=self.num_vertices)

    def degrees(self) -> np.ndarray:
        """Total (in + out) degree of every vertex."""
        return self.out_degrees() + self.in_degrees()

    # ------------------------------------------------------------------ #
    # Adjacency views (built lazily, cached)
    # ------------------------------------------------------------------ #
    def undirected_adjacency(self) -> CSRAdjacency:
        """CSR adjacency treating every edge as undirected.

        Each edge appears twice (once per endpoint); the ``edge_ids`` entry
        holds the id of the original directed edge, which lets in-memory
        partitioners such as NE and HEP map expansion decisions back to
        concrete edges.
        """
        if self._undirected_adj is None:
            keys = np.concatenate([self.src, self.dst])
            others = np.concatenate([self.dst, self.src])
            adj = _build_csr(keys, others, self.num_vertices)
            # edge ids of the mirrored half refer back to the original edges
            adj.edge_ids = adj.edge_ids % self.num_edges
            self._undirected_adj = adj
        return self._undirected_adj

    def undirected_simple_csr(self) -> CSRAdjacency:
        """CSR adjacency of the *simple* undirected view: per-vertex neighbour
        lists are sorted ascending, deduplicated, and free of self loops.

        This is the substrate of the vectorized property engine: triangle and
        clustering computations are defined on the simple undirected graph,
        and a sorted, duplicate-free neighbour array lets them run as
        searchsorted joins over flat index arrays instead of per-vertex set
        operations.  Built once with one ``np.unique`` pass over packed
        ``(vertex, neighbour)`` keys and cached.

        ``edge_ids`` is empty: deduplication makes the mapping back to
        concrete directed edges ambiguous, and no consumer of this view
        needs it.
        """
        if self._undirected_simple_adj is None:
            mask = self.src != self.dst
            keys = np.concatenate([self.src[mask], self.dst[mask]])
            others = np.concatenate([self.dst[mask], self.src[mask]])
            if keys.size:
                # Packed (vertex, neighbour) keys sort by vertex then
                # neighbour, so np.unique yields ready-made sorted CSR data.
                packed = keys * np.int64(self.num_vertices) + others
                packed = np.unique(packed)
                keys = packed // self.num_vertices
                others = packed % self.num_vertices
            counts = np.bincount(keys, minlength=self.num_vertices)
            indptr = np.zeros(self.num_vertices + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            self._undirected_simple_adj = CSRAdjacency(
                indptr=indptr, indices=others.astype(np.int64, copy=False),
                edge_ids=np.empty(0, dtype=np.int64))
        return self._undirected_simple_adj

    # ------------------------------------------------------------------ #
    # Transformations
    # ------------------------------------------------------------------ #
    def deduplicated(self) -> "Graph":
        """Return a copy with duplicate (src, dst) edges removed."""
        key = self.src.astype(np.int64) * self.num_vertices + self.dst
        _, unique_idx = np.unique(key, return_index=True)
        unique_idx.sort()
        return Graph(self.src[unique_idx], self.dst[unique_idx],
                     num_vertices=self.num_vertices, name=self.name,
                     graph_type=self.graph_type)

    def without_self_loops(self) -> "Graph":
        """Return a copy with self-loop edges removed."""
        mask = self.src != self.dst
        return Graph(self.src[mask], self.dst[mask],
                     num_vertices=self.num_vertices, name=self.name,
                     graph_type=self.graph_type)

    def reversed(self) -> "Graph":
        """Return a copy with every edge direction flipped."""
        return Graph(self.dst.copy(), self.src.copy(),
                     num_vertices=self.num_vertices, name=self.name,
                     graph_type=self.graph_type)

    def subgraph_of_edges(self, edge_ids: np.ndarray,
                          name: Optional[str] = None) -> "Graph":
        """Return the graph induced by the given edge ids (vertex ids kept)."""
        edge_ids = np.asarray(edge_ids, dtype=np.int64)
        return Graph(self.src[edge_ids], self.dst[edge_ids],
                     num_vertices=self.num_vertices,
                     name=name or f"{self.name}-sub",
                     graph_type=self.graph_type)

    # ------------------------------------------------------------------ #
    # Constructors
    # ------------------------------------------------------------------ #
    @classmethod
    def from_edges(cls, edges: Iterable[Tuple[int, int]],
                   num_vertices: Optional[int] = None, name: str = "graph",
                   graph_type: str = "synthetic") -> "Graph":
        """Build a graph from an iterable of ``(source, destination)`` pairs."""
        edge_list = list(edges)
        if edge_list:
            arr = np.asarray(edge_list, dtype=np.int64)
            src, dst = arr[:, 0], arr[:, 1]
        else:
            src = np.empty(0, dtype=np.int64)
            dst = np.empty(0, dtype=np.int64)
        return cls(src, dst, num_vertices=num_vertices, name=name,
                   graph_type=graph_type)

    @classmethod
    def empty(cls, num_vertices: int = 0, name: str = "empty") -> "Graph":
        """Return a graph with ``num_vertices`` vertices and no edges."""
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                   num_vertices=num_vertices, name=name)

    def to_networkx(self):
        """Convert to a ``networkx.DiGraph`` (for validation in tests)."""
        import networkx as nx

        nxg = nx.DiGraph()
        nxg.add_nodes_from(range(self.num_vertices))
        nxg.add_edges_from(zip(self.src.tolist(), self.dst.tolist()))
        return nxg
