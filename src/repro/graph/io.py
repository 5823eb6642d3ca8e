"""Edge-list I/O.

Graphs are exchanged as plain whitespace-separated edge lists (one
``source destination`` pair per line), the same wire format used by the graph
repositories referenced in the paper (SNAP, KONECT, NetworkRepository).
Inside the pipeline graphs persist only as entries of the memory-mapped
graph store (:mod:`repro.graph.store`); an edge list is how a graph enters
or leaves it.
"""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from .graph import Graph

__all__ = ["read_edge_list", "write_edge_list"]


def read_edge_list(path: str, comments: str = "#", name: Optional[str] = None,
                   graph_type: str = "external") -> Graph:
    """Read a graph from a whitespace-separated edge-list file.

    Lines starting with ``comments`` are ignored.  Vertex ids must be
    non-negative integers.
    """
    sources = []
    destinations = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith(comments):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            sources.append(int(parts[0]))
            destinations.append(int(parts[1]))
    graph_name = name or os.path.splitext(os.path.basename(path))[0]
    return Graph(np.asarray(sources, dtype=np.int64),
                 np.asarray(destinations, dtype=np.int64),
                 name=graph_name, graph_type=graph_type)


def write_edge_list(graph: Graph, path: str) -> None:
    """Write a graph as a whitespace-separated edge list."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# {graph.name}: |V|={graph.num_vertices} "
                     f"|E|={graph.num_edges}\n")
        for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
            handle.write(f"{u} {v}\n")

