"""Graph substrate: data structure, properties, property engine and I/O.

Names resolve on first access (:mod:`repro._lazy`): the sampling sketches
and edge-list I/O load only when one of their names is read.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".graph": ("Graph", "CSRAdjacency", "graph_fingerprint"),
    ".properties": (
        "GraphProperties",
        "compute_properties",
        "compute_properties_batch",
        "properties_artifact_key",
        "density",
        "mean_degree",
        "pearson_skewness",
        "triangle_counts",
        "local_clustering_coefficients",
    ),
    ".property_engine": (
        "triangle_counts_engine",
        "sampled_triangle_stats_engine",
    ),
    ".sketches": (
        "ApproximateTriangleStats",
        "PropertyEstimate",
        "approximate_properties",
        "approximate_triangle_stats",
        "hoeffding_half_width",
    ),
    ".io": ("read_edge_list", "write_edge_list"),
    ".store": (
        "GraphStore",
        "GraphStoreError",
        "StoredGraphInfo",
        "open_stored_graph",
    ),
})
