"""Graph property computation (Section II-B of the EASE paper).

The properties computed here form the feature sets of the EASE predictors
(Table III):

* ``simple``   — number of edges, number of vertices;
* ``basic``    — simple + mean degree, density, skewness of the in-degree and
  out-degree distributions;
* ``advanced`` — basic + mean number of triangles and mean local clustering
  coefficient.

Triangle and clustering computation runs on the block-vectorized property
engine (:mod:`repro.graph.property_engine`); the seed per-vertex loops live
in ``tests/reference/`` and the test suite asserts the two array-identical,
mirroring the partitioning kernels design.  :func:`compute_properties`
shares the degree arrays and the cached simple CSR across all properties of
one pass, accepts an optional artifact ``store`` for content-addressed
memoization, and :func:`compute_properties_batch` extracts a whole corpus in
one engine invocation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..obs import get_registry
from .graph import Graph, graph_fingerprint
from .property_engine import (
    local_clustering_from_triangles,
    sampled_triangle_stats_engine,
    triangle_counts_engine,
)

__all__ = [
    "GraphProperties",
    "compute_properties",
    "compute_properties_batch",
    "properties_artifact_key",
    "density",
    "mean_degree",
    "pearson_skewness",
    "triangle_counts",
    "local_clustering_coefficients",
]

#: Sample size of the sampled triangle estimator.  Content-addressed property
#: artifacts assume this default (their keys predate the parameter), so store
#: memoization is bypassed for non-default sample sizes.
DEFAULT_SAMPLE_SIZE = 2000


def density(graph: Graph) -> float:
    """Directed density ``|E| / (|V| * (|V| - 1))``."""
    n = graph.num_vertices
    if n < 2:
        return 0.0
    return graph.num_edges / (n * (n - 1))


def mean_degree(graph: Graph) -> float:
    """Mean (undirected) degree ``2 |E| / |V|``."""
    if graph.num_vertices == 0:
        return 0.0
    return 2.0 * graph.num_edges / graph.num_vertices


def pearson_skewness(values: np.ndarray) -> float:
    """Pearson's first skewness coefficient ``(mean - mode) / std``.

    The mode of a degree distribution is the most frequent value.  A standard
    deviation of zero (constant distribution) yields a skewness of zero.
    """
    values = np.asarray(values)
    if values.size == 0:
        return 0.0
    std = float(values.std())
    if std == 0.0:
        return 0.0
    counts = np.bincount(values.astype(np.int64))
    mode = int(np.argmax(counts))
    return float((values.mean() - mode) / std)


def triangle_counts(graph: Graph) -> np.ndarray:
    """Number of triangles incident to each vertex (undirected view).

    A triangle is a set of three vertices that are pairwise connected,
    ignoring edge direction and multiplicity.  Counts are exact integers.
    """
    return triangle_counts_engine(graph)


def local_clustering_coefficients(graph: Graph,
                                  triangles: np.ndarray = None
                                  ) -> np.ndarray:
    """Local clustering coefficient ``t(v) / (0.5 * deg(v) * (deg(v) - 1))``.

    Degrees are undirected (unique neighbours); vertices with degree < 2 have
    a coefficient of zero.
    """
    if triangles is None:
        triangles = triangle_counts(graph)
    return local_clustering_from_triangles(graph, triangles)


@dataclass
class GraphProperties:
    """Bundle of graph properties used as machine-learning features."""

    num_edges: int
    num_vertices: int
    mean_degree: float
    density: float
    in_degree_skewness: float
    out_degree_skewness: float
    mean_triangles: float
    mean_local_clustering: float

    def as_dict(self) -> Dict[str, float]:
        """Return the properties as a plain dictionary."""
        # Explicit construction: dataclasses.asdict pays deepcopy machinery,
        # and this runs per feature row on the serving hot path.
        return {
            "num_edges": self.num_edges,
            "num_vertices": self.num_vertices,
            "mean_degree": self.mean_degree,
            "density": self.density,
            "in_degree_skewness": self.in_degree_skewness,
            "out_degree_skewness": self.out_degree_skewness,
            "mean_triangles": self.mean_triangles,
            "mean_local_clustering": self.mean_local_clustering,
        }

    @classmethod
    def from_dict(cls, values: Dict[str, float]) -> "GraphProperties":
        """Rebuild properties from :meth:`as_dict` output (e.g. JSON payloads).

        Extra keys are rejected so malformed serving requests fail loudly
        instead of silently dropping features.
        """
        field_names = {name for name in cls.__dataclass_fields__}
        unknown = set(values) - field_names
        if unknown:
            raise ValueError(f"unknown graph properties: {sorted(unknown)}")
        missing = field_names - set(values)
        if missing:
            raise ValueError(f"missing graph properties: {sorted(missing)}")
        cls(**values).validate()
        return cls(num_edges=int(values["num_edges"]),
                   num_vertices=int(values["num_vertices"]),
                   **{name: float(values[name])
                      for name in field_names
                      if name not in ("num_edges", "num_vertices")})

    def validate(self) -> None:
        """Raise a ``ValueError`` naming the first field that is not finite,
        or a count (``num_edges``, ``num_vertices``) that is negative or not
        integral.  Such values would turn every feature row they are batched
        with into NaN or garbage."""
        for name, value in self.as_dict().items():
            number = float(value)
            if not math.isfinite(number):
                raise ValueError(f"graph property {name!r} must be finite, "
                                 f"got {value!r}")
            if name in ("num_edges", "num_vertices") and (
                    number < 0 or not number.is_integer()):
                raise ValueError(f"graph property {name!r} must be a "
                                 f"non-negative integer, got {value!r}")

    def simple(self) -> Dict[str, float]:
        """Simple feature set: graph size only."""
        return {"num_edges": self.num_edges, "num_vertices": self.num_vertices}

    def basic(self) -> Dict[str, float]:
        """Basic feature set: size, mean degree, density, degree skewness."""
        return {
            "num_edges": self.num_edges,
            "num_vertices": self.num_vertices,
            "mean_degree": self.mean_degree,
            "density": self.density,
            "in_degree_skewness": self.in_degree_skewness,
            "out_degree_skewness": self.out_degree_skewness,
        }

    def advanced(self) -> Dict[str, float]:
        """Advanced feature set: basic + triangles and clustering."""
        features = self.basic()
        features["mean_triangles"] = self.mean_triangles
        features["mean_local_clustering"] = self.mean_local_clustering
        return features


def properties_artifact_key(fingerprint: str, exact_triangles: bool,
                            seed: int, mode: str = "exact",
                            wedge_budget: Optional[int] = None):
    """Content-addressed artifact key of one graph's properties.

    The one spelling of the key: the ``task_id`` of
    :class:`repro.runtime.tasks.PropertiesTask` calls this function, so
    property memoization through an
    :class:`~repro.runtime.artifacts.ArtifactStore` shares artifacts with
    profiling runs (and vice versa): a ``--extend`` re-profile or a serving
    cold start finds the properties already on disk.

    The ``exact`` mode keeps the legacy four-element key so artifacts
    written before approximate extraction existed are still found.
    ``approximate`` keys additionally carry the mode and the wedge budget:
    a sketch-based estimate and an exact extraction of the same graph (or
    two estimates under different budgets) must never collide.
    """
    if mode == "exact":
        return ("properties", fingerprint, exact_triangles, seed)
    if mode != "approximate":
        raise ValueError(f"unknown properties mode: {mode!r}")
    return ("properties", fingerprint, exact_triangles, seed, mode,
            wedge_budget)


def _observe_extraction(mode: str, elapsed: float) -> None:
    """Record one cache-missing property extraction in the registry."""
    get_registry().histogram(
        "property_extraction_seconds",
        "Wall time of one graph's property extraction (cache misses only)",
        ("mode",)).labels(mode).observe(elapsed)


def compute_properties(graph: Graph, exact_triangles: bool = True,
                       sample_size: int = DEFAULT_SAMPLE_SIZE,
                       seed: int = 0, store=None, mode: str = "exact",
                       wedge_budget: Optional[int] = None
                       ) -> GraphProperties:
    """Compute all graph properties of Section II-B in a single pass.

    Parameters
    ----------
    graph:
        The graph to characterise.
    exact_triangles:
        If True, count triangles exactly (O(sum of deg^2) worst case).  If
        False, estimate the mean triangle count and clustering coefficient on
        a uniform sample of ``sample_size`` vertices, which is what makes the
        feature extraction cheap on larger graphs.
    sample_size:
        Number of vertices sampled when ``exact_triangles`` is False.
    seed:
        Random seed for the vertex sample.
    store:
        Optional :class:`~repro.runtime.artifacts.ArtifactStore` (or any
        object with ``get(key)``/``put(key, value)``).  Properties are
        memoized under :func:`properties_artifact_key`, so repeated
        profiling/serving runs over the same graph content skip the
        computation entirely.  Bypassed for non-default ``sample_size``
        (the artifact key does not carry it).
    mode:
        ``"exact"`` (default) computes triangles/clustering as described
        above.  ``"approximate"`` replaces them with the bounded-work
        wedge-sampling estimators of :mod:`repro.graph.sketches`: the wedge
        work is capped by ``wedge_budget`` regardless of graph size, and the
        estimates carry Hoeffding error bounds (returned by the sketch API;
        this function reports the point estimates).  Artifacts of the two
        modes never collide — the key carries the mode and budget.
    wedge_budget:
        Wedge-sample cap of approximate mode (``None`` uses
        :data:`repro.graph.sketches.DEFAULT_WEDGE_BUDGET`).  Ignored in
        exact mode.
    """
    if mode not in ("exact", "approximate"):
        raise ValueError(f"unknown properties mode: {mode!r}")
    if mode == "approximate":
        from .sketches import DEFAULT_WEDGE_BUDGET, approximate_properties
        if wedge_budget is None:
            wedge_budget = DEFAULT_WEDGE_BUDGET
        key = None
        if store is not None:
            key = properties_artifact_key(graph_fingerprint(graph),
                                          exact_triangles, seed, mode=mode,
                                          wedge_budget=wedge_budget)
            cached = store.get(key)
            if cached is not None:
                return cached
        started = time.perf_counter()
        properties, _ = approximate_properties(graph,
                                               wedge_budget=wedge_budget,
                                               seed=seed)
        _observe_extraction("approximate", time.perf_counter() - started)
        if key is not None:
            store.put(key, properties)
        return properties

    key = None
    if store is not None and sample_size == DEFAULT_SAMPLE_SIZE:
        key = properties_artifact_key(graph_fingerprint(graph),
                                      exact_triangles, seed)
        cached = store.get(key)
        if cached is not None:
            return cached

    if graph.num_vertices == 0:
        properties = GraphProperties(0, 0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        if key is not None:
            store.put(key, properties)
        return properties

    started = time.perf_counter()
    in_deg = graph.in_degrees()
    out_deg = graph.out_degrees()
    if exact_triangles or graph.num_vertices <= sample_size:
        triangles = triangle_counts(graph)
        lcc = local_clustering_coefficients(graph, triangles)
        mean_tri = float(triangles.mean())
        mean_lcc = float(lcc.mean())
    else:
        mean_tri, mean_lcc = sampled_triangle_stats_engine(
            graph, sample_size, seed)

    num_vertices = graph.num_vertices
    num_edges = graph.num_edges
    properties = GraphProperties(
        num_edges=num_edges,
        num_vertices=num_vertices,
        # Mean degree and density inline the module-level helpers so the
        # size accessors are read once per pass.
        mean_degree=2.0 * num_edges / num_vertices,
        density=(num_edges / (num_vertices * (num_vertices - 1))
                 if num_vertices >= 2 else 0.0),
        in_degree_skewness=pearson_skewness(in_deg),
        out_degree_skewness=pearson_skewness(out_deg),
        mean_triangles=mean_tri,
        mean_local_clustering=mean_lcc,
    )
    _observe_extraction("exact", time.perf_counter() - started)
    if key is not None:
        store.put(key, properties)
    return properties


def compute_properties_batch(graphs: Sequence[Graph],
                             exact_triangles: bool = True,
                             sample_size: int = DEFAULT_SAMPLE_SIZE,
                             seed: int = 0, store=None, mode: str = "exact",
                             wedge_budget: Optional[int] = None
                             ) -> List[GraphProperties]:
    """Properties of a whole corpus in one content-deduplicated call.

    Graphs with identical content (same fingerprint) are computed once and
    share the returned :class:`GraphProperties` instance — downstream,
    :func:`repro.ease.features.graph_feature_matrix` collapses shared
    instances into one row, so deduplication here compounds.  With a
    ``store``, previously extracted graphs are restored instead of
    recomputed.  Each distinct graph runs one vectorized engine pass (the
    engine does not fuse work *across* graphs), and each entry equals the
    corresponding single :func:`compute_properties` call exactly.
    """
    results: List[Optional[GraphProperties]] = [None] * len(graphs)
    by_fingerprint: Dict[str, GraphProperties] = {}
    for position, graph in enumerate(graphs):
        fingerprint = graph_fingerprint(graph)
        properties = by_fingerprint.get(fingerprint)
        if properties is None:
            properties = compute_properties(
                graph, exact_triangles=exact_triangles,
                sample_size=sample_size, seed=seed, store=store, mode=mode,
                wedge_budget=wedge_budget)
            by_fingerprint[fingerprint] = properties
        results[position] = properties
    return results

