"""Partitioning run-time model.

The paper measures the wall-clock run-time of native (C++/Rust) partitioner
implementations on a server; at simulator scale the wall-clock time of our
pure-Python partitioners would be dominated by interpreter overhead and would
not reproduce the relationships the paper relies on (in-memory partitioning
orders of magnitude slower than hashing, HEP's run-time depending on the
degree structure through τ, 2PS paying for its clustering pre-pass).

This module therefore provides a deterministic analytic cost model that maps
(graph, partitioner) to simulated partitioning seconds.  Per-edge rates are
calibrated against the magnitudes reported in Figure 1 (e.g. ≈300 s for 2D and
≈100 min for NE on a 1.8 B-edge graph).  A wall-clock measurement mode is also
available for users who want to profile the Python implementations themselves.

The cost model is *only* used to produce training/evaluation labels — the
PartitioningTimePredictor never sees it and has to learn the mapping from
graph features, exactly as in the paper.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..graph import Graph
from ..partitioning import EdgePartitioner, PartitionerCategory, create_partitioner
from ..partitioning.hashing import hash64

__all__ = ["PartitioningCostModel", "measure_wall_clock_partitioning_time"]

#: Per-edge base rates (seconds per edge) per partitioner, calibrated so the
#: relative magnitudes follow Figure 1 of the paper: stateless hashing is the
#: cheapest, stateful streaming costs a few times more, hybrid partitioning is
#: another step up and in-memory partitioning is the most expensive.
_BASE_RATE_PER_EDGE: Dict[str, float] = {
    "1dd": 1.6e-7,
    "1ds": 1.6e-7,
    "2d": 1.8e-7,
    "crvc": 1.8e-7,
    "dbh": 2.6e-7,   # needs a degree-counting pass
    "hdrf": 6.0e-7,  # per-edge scoring against every partition
    "2ps": 8.0e-7,   # two streaming passes plus clustering
    "hep1": 1.2e-6,
    "hep10": 1.8e-6,
    "hep100": 2.4e-6,
    "ne": 3.0e-6,    # heap-based neighbourhood expansion over the whole graph
}


class PartitioningCostModel:
    """Deterministic simulated partitioning run-times.

    Parameters
    ----------
    noise:
        Relative amplitude of the deterministic per-(graph, partitioner)
        jitter (mimics run-to-run variance without breaking reproducibility).
    scoring_cost_per_partition:
        Extra per-edge cost per candidate partition for score-based streaming
        partitioners (HDRF and the streaming phase of HEP).
    """

    def __init__(self, noise: float = 0.05,
                 scoring_cost_per_partition: float = 1.5e-8) -> None:
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.noise = noise
        self.scoring_cost_per_partition = scoring_cost_per_partition

    # ------------------------------------------------------------------ #
    def estimate_seconds(self, graph: Graph, partitioner_name: str,
                         num_partitions: int,
                         graph_name: Optional[str] = None) -> float:
        """Simulated partitioning run-time in seconds.

        The jitter is keyed by ``graph_name`` (default ``graph.name``), so
        corpus entries sharing one :class:`Graph` object by content can
        each be estimated under their own name.
        """
        if partitioner_name not in _BASE_RATE_PER_EDGE:
            raise ValueError(f"unknown partitioner {partitioner_name!r}")
        if num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")

        num_edges = graph.num_edges
        num_vertices = max(graph.num_vertices, 1)
        mean_degree = 2.0 * num_edges / num_vertices
        rate = _BASE_RATE_PER_EDGE[partitioner_name]
        seconds = rate * num_edges

        if partitioner_name == "hdrf":
            seconds += self.scoring_cost_per_partition * num_partitions * num_edges
        elif partitioner_name == "2ps":
            # The clustering pre-pass gets cheaper on well-clustered graphs
            # (clusters stabilise quickly) and pays a sort over the clusters.
            clustering = self._cheap_clustering_proxy(graph)
            seconds += 2.0e-7 * num_edges * (1.0 - 0.5 * clustering)
            seconds += 1.0e-6 * num_vertices
        elif partitioner_name == "ne":
            # Heap operations scale with log of the vertex count and the
            # expansion revisits high-degree neighbourhoods.
            seconds *= 1.0 + 0.12 * np.log2(max(num_vertices, 2))
            seconds += 4.0e-7 * num_edges * np.log2(max(mean_degree, 2))
        elif partitioner_name.startswith("hep"):
            tau = float(partitioner_name[3:])
            in_memory_fraction = self._hep_in_memory_fraction(graph, tau)
            streaming_fraction = 1.0 - in_memory_fraction
            in_memory_rate = _BASE_RATE_PER_EDGE["ne"] * (
                1.0 + 0.12 * np.log2(max(num_vertices, 2)))
            streaming_rate = (_BASE_RATE_PER_EDGE["hdrf"]
                              + self.scoring_cost_per_partition * num_partitions)
            seconds = num_edges * (in_memory_fraction * in_memory_rate
                                   + streaming_fraction * streaming_rate)
            seconds += 2.0e-7 * num_edges  # degree-threshold pass

        if self.noise > 0:
            seconds *= 1.0 + self.noise * self._jitter(
                graph.name if graph_name is None else graph_name,
                partitioner_name)
        return float(seconds)

    # ------------------------------------------------------------------ #
    @staticmethod
    def _hep_in_memory_fraction(graph: Graph, tau: float) -> float:
        """Fraction of edges HEP partitions in memory for threshold τ."""
        if graph.num_edges == 0:
            return 1.0
        degrees = graph.degrees()
        threshold = tau * degrees.mean()
        high = degrees > threshold
        streamed = high[graph.src] & high[graph.dst]
        return float(1.0 - streamed.mean())

    @staticmethod
    def _cheap_clustering_proxy(graph: Graph) -> float:
        """A cheap stand-in for the clustering coefficient in [0, 1]."""
        if graph.num_vertices == 0:
            return 0.0
        degrees = graph.degrees()
        mean_degree = degrees.mean()
        density = mean_degree / max(graph.num_vertices - 1, 1)
        return float(np.clip(10.0 * density + 0.01 * mean_degree, 0.0, 1.0))

    @staticmethod
    def _jitter(graph_name: str, partitioner_name: str) -> float:
        """Deterministic pseudo-random value in [-1, 1].

        Uses CRC32 of the names (not Python's ``hash``, which is randomised
        per process) so the jitter is stable across runs.
        """
        import zlib

        key = np.array([zlib.crc32((graph_name + "/" + partitioner_name).encode())],
                       dtype=np.int64)
        return float(hash64(key)[0] % 2_000_001) / 1_000_000.0 - 1.0


def measure_wall_clock_partitioning_time(graph: Graph, partitioner_name: str,
                                         num_partitions: int,
                                         seed: int = 0) -> float:
    """Measure the actual wall-clock time of the Python implementation.

    This is the alternative labelling mode: slower and noisier, but fully
    "real".  The returned partition is discarded; only the time matters.
    """
    partitioner: EdgePartitioner = create_partitioner(partitioner_name, seed=seed)
    start = time.perf_counter()
    partitioner(graph, num_partitions)
    return time.perf_counter() - start
