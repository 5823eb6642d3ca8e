"""Graph substrate: data structure, properties, property engine and I/O."""

from .graph import Graph, CSRAdjacency, graph_fingerprint
from .properties import (
    GraphProperties,
    compute_properties,
    compute_properties_batch,
    properties_artifact_key,
    density,
    mean_degree,
    pearson_skewness,
    triangle_counts,
    local_clustering_coefficients,
)
from .property_engine import (
    sampled_triangle_stats_engine,
    triangle_counts_engine,
)
from .sketches import (
    ApproximateTriangleStats,
    PropertyEstimate,
    approximate_properties,
    approximate_triangle_stats,
    hoeffding_half_width,
)
from .io import read_edge_list, write_edge_list
from .store import (
    GraphStore,
    GraphStoreError,
    StoredGraphInfo,
    open_stored_graph,
)

__all__ = [
    "Graph",
    "CSRAdjacency",
    "graph_fingerprint",
    "GraphProperties",
    "compute_properties",
    "compute_properties_batch",
    "properties_artifact_key",
    "density",
    "mean_degree",
    "pearson_skewness",
    "triangle_counts",
    "triangle_counts_engine",
    "sampled_triangle_stats_engine",
    "local_clustering_coefficients",
    "ApproximateTriangleStats",
    "PropertyEstimate",
    "approximate_properties",
    "approximate_triangle_stats",
    "hoeffding_half_width",
    "read_edge_list",
    "write_edge_list",
    "GraphStore",
    "GraphStoreError",
    "StoredGraphInfo",
    "open_stored_graph",
]
