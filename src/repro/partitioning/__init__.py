"""Edge partitioners (vertex-cut) and partitioning quality metrics."""

from .base import EdgePartition, EdgePartitioner, PartitionerCategory
from .metrics import (
    PartitionQualityMetrics,
    QUALITY_METRIC_NAMES,
    compute_quality_metrics,
    replication_factor,
    edge_balance,
    vertex_balance,
    source_balance,
    destination_balance,
)
from .hashing import (
    OneDimDestinationPartitioner,
    OneDimSourcePartitioner,
    TwoDimPartitioner,
    CanonicalRandomVertexCutPartitioner,
    hash64,
)
from .dbh import DegreeBasedHashingPartitioner
from .kernels import (
    BITMASK_MAX_PARTITIONS,
    StreamingScoreState,
    replication_balance_scores,
    replication_coefficients,
    streaming_partial_degrees,
    use_replica_bitmask,
)
from .hdrf import HDRFPartitioner
from .two_ps import TwoPhaseStreamingPartitioner
from .ne import NeighborhoodExpansionPartitioner
from .hep import HybridEdgePartitioner
from .registry import (
    ALL_PARTITIONER_NAMES,
    create_partitioner,
    create_all_partitioners,
)

__all__ = [
    "EdgePartition",
    "EdgePartitioner",
    "PartitionerCategory",
    "PartitionQualityMetrics",
    "QUALITY_METRIC_NAMES",
    "compute_quality_metrics",
    "replication_factor",
    "edge_balance",
    "vertex_balance",
    "source_balance",
    "destination_balance",
    "OneDimDestinationPartitioner",
    "OneDimSourcePartitioner",
    "TwoDimPartitioner",
    "CanonicalRandomVertexCutPartitioner",
    "hash64",
    "BITMASK_MAX_PARTITIONS",
    "StreamingScoreState",
    "replication_balance_scores",
    "replication_coefficients",
    "streaming_partial_degrees",
    "use_replica_bitmask",
    "DegreeBasedHashingPartitioner",
    "HDRFPartitioner",
    "TwoPhaseStreamingPartitioner",
    "NeighborhoodExpansionPartitioner",
    "HybridEdgePartitioner",
    "ALL_PARTITIONER_NAMES",
    "create_partitioner",
    "create_all_partitioners",
]
