"""Edge partitioners (vertex-cut) and partitioning quality metrics.

Names resolve on first access (:mod:`repro._lazy`), and the registry
imports a partitioner's module when :func:`create_partitioner` first builds
one: reading ``ALL_PARTITIONER_NAMES`` or ``QUALITY_METRIC_NAMES`` loads no
partitioner.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".base": ("EdgePartition", "EdgePartitioner", "PartitionerCategory"),
    ".metrics": (
        "PartitionQualityMetrics",
        "QUALITY_METRIC_NAMES",
        "compute_quality_metrics",
        "replication_factor",
        "edge_balance",
        "vertex_balance",
        "source_balance",
        "destination_balance",
    ),
    ".hashing": (
        "OneDimDestinationPartitioner",
        "OneDimSourcePartitioner",
        "TwoDimPartitioner",
        "CanonicalRandomVertexCutPartitioner",
        "hash64",
    ),
    ".kernels": (
        "BITMASK_MAX_PARTITIONS",
        "StreamingScoreState",
        "replication_balance_scores",
        "replication_coefficients",
        "streaming_partial_degrees",
        "use_replica_bitmask",
    ),
    ".dbh": ("DegreeBasedHashingPartitioner",),
    ".hdrf": ("HDRFPartitioner",),
    ".two_ps": ("TwoPhaseStreamingPartitioner",),
    ".ne": ("NeighborhoodExpansionPartitioner",),
    ".hep": ("HybridEdgePartitioner",),
    ".registry": (
        "ALL_PARTITIONER_NAMES",
        "create_partitioner",
        "create_all_partitioners",
    ),
})
