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
import re
from typing import Optional

import numpy as np

from .graph import Graph

__all__ = ["read_edge_list", "write_edge_list"]

#: The first line :func:`write_edge_list` emits.
_HEADER = re.compile(r"^# .*: \|V\|=(\d+) \|E\|=(\d+)$")


def read_edge_list(path: str, comments: str = "#", name: Optional[str] = None,
                   graph_type: str = "external") -> Graph:
    """Read a graph from a whitespace-separated edge-list file.

    Lines starting with ``comments`` are ignored.  Vertex ids must be
    non-negative integers.  The header :func:`write_edge_list` emits fixes
    the vertex count (trailing isolated vertices survive) and is checked;
    without it, the vertex count is the largest id + 1.
    """
    sources = []
    destinations = []
    header = None
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle):
            line = line.strip()
            if number == 0:
                header = _HEADER.match(line)
            if not line or line.startswith(comments):
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line: {line!r}")
            sources.append(int(parts[0]))
            destinations.append(int(parts[1]))
    src = np.asarray(sources, dtype=np.int64)
    dst = np.asarray(destinations, dtype=np.int64)
    num_vertices = None
    if header is not None:
        num_vertices, num_edges = (int(value) for value in header.groups())
        largest = int(max(src.max(initial=-1), dst.max(initial=-1)))
        if src.size != num_edges or largest >= num_vertices:
            raise ValueError(f"edge list {path!r} holds {src.size} edges up "
                             f"to vertex {largest}; its header declares "
                             f"|V|={num_vertices} |E|={num_edges}")
    graph_name = name or os.path.splitext(os.path.basename(path))[0]
    return Graph(src, dst, num_vertices=num_vertices, name=graph_name,
                 graph_type=graph_type)


def write_edge_list(graph: Graph, path: str) -> None:
    """Write a graph as a whitespace-separated edge list."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(f"# {graph.name}: |V|={graph.num_vertices} "
                     f"|E|={graph.num_edges}\n")
        for u, v in zip(graph.src.tolist(), graph.dst.tolist()):
            handle.write(f"{u} {v}\n")

