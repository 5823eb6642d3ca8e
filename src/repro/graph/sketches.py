"""Sampled/sketch-based graph-property estimators with error bounds.

Exact triangle counting is the one property whose cost scales super-linearly
(the degree-ordered engine is ~m^1.5 on skewed graphs), which makes the
serving first-hit path unbounded in the worst case: a single hub-heavy graph
can stall a selection request for seconds.  This module provides the bounded
alternative: wedge-sampling estimators whose work is capped by an explicit
``wedge_budget`` regardless of graph size, and whose estimates carry
Hoeffding confidence intervals so downstream consumers know how much to
trust them.

Estimator design
----------------
A *wedge* is an unordered pair of neighbours of a center vertex; the graph
has ``W = sum_v d(v)(d(v)-1)/2`` of them and a fraction ``p = 3T / W`` is
*closed* (both endpoints adjacent), where ``T`` is the triangle count.

* ``global_clustering`` — sample wedges with probability proportional to
  their center's wedge count, check closure against the simple CSR; the
  closed fraction is an unbiased estimate of ``p`` (Seshadhri et al.,
  "Triadic measures on graphs: the power of wedge sampling", SDM 2013).
* ``mean_triangles`` — every triangle closes exactly three wedges, so
  ``sum_v t(v) = 3T = p * W`` and the per-vertex mean is ``p * W / n``:
  the same closure fraction, rescaled.
* ``mean_local_clustering`` — sample vertices uniformly; a vertex of degree
  < 2 contributes an exact 0 (its coefficient is defined as zero), any other
  contributes the closure indicator of one uniformly chosen wedge, an
  unbiased Bernoulli draw of its local coefficient.

Every estimate is wrapped in a :class:`PropertyEstimate` with the two-sided
Hoeffding half-width ``sqrt(ln(2 / (1 - confidence)) / (2 m))`` for ``m``
closure checks — distribution-free, so the bounds hold on any graph.

When the graph is small enough that the exact engine would enumerate no
more wedge pairs than the budget allows, the estimators simply run it
(:func:`~repro.graph.property_engine.triangle_counts_engine`) and return
exact values with zero-width intervals — approximate mode then never does
*more* work than the budget, and never does worse than exact on graphs where
exact is already cheap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .graph import Graph
from .properties import GraphProperties, pearson_skewness
from .property_engine import (
    _oriented_pair_count,
    local_clustering_from_triangles,
    triangle_counts_engine,
)

__all__ = [
    "DEFAULT_WEDGE_BUDGET",
    "DEFAULT_CONFIDENCE",
    "PropertyEstimate",
    "ApproximateTriangleStats",
    "hoeffding_half_width",
    "approximate_triangle_stats",
    "approximate_properties",
]

#: Total closure checks per extraction (split between the wedge-weighted
#: global/triangle estimator and the uniform-vertex LCC estimator).  At the
#: default the Hoeffding half-width on each closed-wedge fraction is ~0.6%,
#: and extraction touches a bounded number of CSR slots however large the
#: graph is.
DEFAULT_WEDGE_BUDGET = 100_000

#: Two-sided coverage of the reported intervals.
DEFAULT_CONFIDENCE = 0.95


def hoeffding_half_width(samples: int, confidence: float) -> float:
    """Two-sided Hoeffding half-width for a mean of ``samples`` values in [0, 1].

    ``P(|estimate - truth| >= h) <= 1 - confidence`` for
    ``h = sqrt(ln(2 / (1 - confidence)) / (2 * samples))`` — no
    distributional assumptions beyond boundedness.
    """
    if samples <= 0:
        return float("inf")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    return math.sqrt(math.log(2.0 / (1.0 - confidence)) / (2.0 * samples))


@dataclass(frozen=True)
class PropertyEstimate:
    """Point estimate with a two-sided confidence interval.

    Exact values are represented as zero-width intervals
    (``lower == value == upper``) with ``samples == 0``.
    """

    value: float
    lower: float
    upper: float
    samples: int
    confidence: float

    @classmethod
    def exact(cls, value: float,
              confidence: float = DEFAULT_CONFIDENCE) -> "PropertyEstimate":
        return cls(value=value, lower=value, upper=value, samples=0,
                   confidence=confidence)

    @classmethod
    def from_samples(cls, value: float, samples: int, confidence: float,
                     scale: float = 1.0) -> "PropertyEstimate":
        """Interval for a [0, 1] sample mean rescaled by ``scale``.

        ``scale`` propagates the Hoeffding bound through a linear rescaling
        (e.g. closed-wedge fraction → mean triangles, scale ``W / n``).
        """
        half = hoeffding_half_width(samples, confidence) * scale
        return cls(value=value, lower=max(0.0, value - half),
                   upper=value + half, samples=samples,
                   confidence=confidence)

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "value": self.value,
            "lower": self.lower,
            "upper": self.upper,
            "samples": self.samples,
            "confidence": self.confidence,
        }


@dataclass(frozen=True)
class ApproximateTriangleStats:
    """Bounded-work triangle/clustering estimates of one graph.

    ``exact`` is True when the graph fit inside the wedge budget and the
    values come from the exact engine (zero-width intervals);
    ``budget_exhausted`` is the complement — the estimators sampled because
    exhaustive counting would have exceeded the budget.  ``wedges_used``
    counts actual closure checks (or exact wedge pairs enumerated), always
    ``<= max(wedge_budget, exact work below budget)``.
    """

    mean_triangles: PropertyEstimate
    mean_local_clustering: PropertyEstimate
    global_clustering: PropertyEstimate
    wedge_budget: int
    wedges_used: int
    budget_exhausted: bool
    exact: bool
    seed: int

    def as_dict(self) -> Dict[str, object]:
        return {
            "mean_triangles": self.mean_triangles.as_dict(),
            "mean_local_clustering": self.mean_local_clustering.as_dict(),
            "global_clustering": self.global_clustering.as_dict(),
            "wedge_budget": self.wedge_budget,
            "wedges_used": self.wedges_used,
            "budget_exhausted": self.budget_exhausted,
            "exact": self.exact,
            "seed": self.seed,
        }


def _exact_stats(graph: Graph, total_wedges: int, wedge_budget: int,
                 wedges_used: int, seed: int,
                 confidence: float) -> ApproximateTriangleStats:
    """Exact values wrapped as zero-width estimates (budget not exhausted)."""
    if graph.num_vertices == 0:
        tri_mean = lcc_mean = global_cc = 0.0
    else:
        counts = triangle_counts_engine(graph)
        lcc = local_clustering_from_triangles(graph, counts)
        tri_mean = float(counts.mean())
        lcc_mean = float(lcc.mean())
        # counts.sum() == 3T == number of closed wedges.
        global_cc = (float(counts.sum()) / total_wedges
                     if total_wedges else 0.0)
    return ApproximateTriangleStats(
        mean_triangles=PropertyEstimate.exact(tri_mean, confidence),
        mean_local_clustering=PropertyEstimate.exact(lcc_mean, confidence),
        global_clustering=PropertyEstimate.exact(global_cc, confidence),
        wedge_budget=wedge_budget,
        wedges_used=wedges_used,
        budget_exhausted=False,
        exact=True,
        seed=seed,
    )


def approximate_triangle_stats(graph: Graph,
                               wedge_budget: int = DEFAULT_WEDGE_BUDGET,
                               seed: int = 0,
                               confidence: float = DEFAULT_CONFIDENCE
                               ) -> ApproximateTriangleStats:
    """Estimate triangle statistics with at most ``wedge_budget`` closure checks.

    Deterministic for a fixed ``(graph, wedge_budget, seed)``.  When the
    exact engine's own wedge enumeration fits inside the budget the exact
    values are returned instead (``exact=True``, zero-width intervals).
    """
    if wedge_budget <= 0:
        raise ValueError("wedge_budget must be positive")

    num_vertices = graph.num_vertices
    if num_vertices == 0:
        return _exact_stats(graph, 0, wedge_budget, 0, seed, confidence)

    csr = graph.undirected_simple_csr()
    degrees = np.diff(csr.indptr)
    wedge_counts = (degrees * (degrees - 1)) // 2
    total_wedges = int(wedge_counts.sum())
    if total_wedges == 0:
        return _exact_stats(graph, 0, wedge_budget, 0, seed, confidence)

    exact_pairs = _oriented_pair_count(graph)
    if exact_pairs <= wedge_budget:
        return _exact_stats(graph, total_wedges, wedge_budget, exact_pairs,
                            seed, confidence)

    rng = np.random.default_rng(seed)
    global_samples = wedge_budget // 2
    lcc_samples = wedge_budget - global_samples

    # Membership join target: every (vertex, neighbour) slot of the simple
    # CSR as a packed key — sorted by construction (heads ascend across
    # rows, indices ascend within a row).
    all_heads = np.repeat(np.arange(num_vertices, dtype=np.int64), degrees)
    all_keys = all_heads * num_vertices + csr.indices

    def closed_fraction_of(centers: np.ndarray) -> np.ndarray:
        """Closure indicators of one uniform wedge per center (degree >= 2)."""
        center_degrees = degrees[centers]
        i = rng.integers(0, center_degrees)
        j = rng.integers(0, center_degrees - 1)
        j = j + (j >= i)
        starts = csr.indptr[centers]
        b = csr.indices[starts + i]
        c = csr.indices[starts + j]
        wedge_keys = b * num_vertices + c
        slots = np.searchsorted(all_keys, wedge_keys)
        slots_clipped = np.minimum(slots, all_keys.size - 1)
        return ((slots < all_keys.size)
                & (all_keys[slots_clipped] == wedge_keys))

    # Global / mean-triangles estimator: centers drawn with probability
    # proportional to their wedge count, via inverse-CDF on the cumulative
    # wedge counts.
    cum = np.cumsum(wedge_counts)
    picks = rng.integers(0, total_wedges, size=global_samples)
    centers = np.searchsorted(cum, picks, side="right").astype(np.int64)
    p_hat = float(closed_fraction_of(centers).mean())

    scale = total_wedges / num_vertices
    mean_triangles = PropertyEstimate.from_samples(
        p_hat * scale, global_samples, confidence, scale=scale)
    global_clustering = PropertyEstimate.from_samples(
        p_hat, global_samples, confidence)

    # Mean-LCC estimator: uniform vertices; degree < 2 contributes an exact
    # zero, the rest one Bernoulli wedge-closure draw each.
    vertices = rng.integers(0, num_vertices, size=lcc_samples).astype(np.int64)
    eligible = degrees[vertices] >= 2
    indicators = np.zeros(lcc_samples, dtype=np.float64)
    if eligible.any():
        indicators[eligible] = closed_fraction_of(vertices[eligible])
    mean_local_clustering = PropertyEstimate.from_samples(
        float(indicators.mean()), lcc_samples, confidence)

    return ApproximateTriangleStats(
        mean_triangles=mean_triangles,
        mean_local_clustering=mean_local_clustering,
        global_clustering=global_clustering,
        wedge_budget=wedge_budget,
        wedges_used=global_samples + int(eligible.sum()),
        budget_exhausted=True,
        exact=False,
        seed=seed,
    )


def approximate_properties(graph: Graph,
                           wedge_budget: int = DEFAULT_WEDGE_BUDGET,
                           seed: int = 0,
                           confidence: float = DEFAULT_CONFIDENCE
                           ) -> Tuple[GraphProperties,
                                      ApproximateTriangleStats]:
    """Full property bundle with bounded-work triangle statistics.

    The size/degree/skewness features are exact (they are linear scans
    either way); only the triangle features come from the sampled
    estimators.  Returns the :class:`~repro.graph.properties.GraphProperties`
    feature bundle alongside the estimator metadata, which serving layers
    surface as extraction info (error bounds, budget exhaustion).
    """
    stats = approximate_triangle_stats(graph, wedge_budget=wedge_budget,
                                       seed=seed, confidence=confidence)
    num_vertices = graph.num_vertices
    num_edges = graph.num_edges
    if num_vertices == 0:
        properties = GraphProperties(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        return properties, stats
    properties = GraphProperties(
        num_edges=num_edges,
        num_vertices=num_vertices,
        mean_degree=2.0 * num_edges / num_vertices,
        density=(num_edges / (num_vertices * (num_vertices - 1))
                 if num_vertices >= 2 else 0.0),
        in_degree_skewness=pearson_skewness(graph.in_degrees()),
        out_degree_skewness=pearson_skewness(graph.out_degrees()),
        mean_triangles=stats.mean_triangles.value,
        mean_local_clustering=stats.mean_local_clustering.value,
    )
    return properties, stats
