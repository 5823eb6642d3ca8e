"""EASE: machine-learning based edge partitioner selection (the paper's core
contribution)."""

from .features import (
    FEATURE_SETS,
    QualityFeatureBuilder,
    PartitioningTimeFeatureBuilder,
    ProcessingTimeFeatureBuilder,
    graph_feature_names,
    graph_feature_vector,
    graph_feature_matrix,
)
from .dataset import (
    PartitioningTimeRecord,
    ProcessingRecord,
    ProfileDataset,
    QualityRecord,
)
from .partitioning_cost import (
    PartitioningCostModel,
    measure_wall_clock_partitioning_time,
)
from .profiling import GraphProfiler
from .quality_predictor import PartitioningQualityPredictor, default_quality_model
from .partitioning_time_predictor import PartitioningTimePredictor
from .processing_time_predictor import (
    AVERAGE_ITERATION_ALGORITHMS,
    ProcessingTimePredictor,
    default_processing_model,
)
from .selector import (
    OptimizationGoal,
    PartitionerScore,
    PartitionerSelector,
    SelectionRequest,
    SelectionResult,
)
from .evaluation import (
    JobOutcome,
    SelectionStrategyEvaluator,
    StrategyComparison,
    per_type_mape_matrix,
)
from .enrichment import EnrichmentLevelResult, EnrichmentStudy
from .pipeline import EASE
from .persistence import (
    append_dataset,
    canonical_sorted,
    load_dataset,
    load_ease,
    merge_datasets,
    save_dataset,
    save_ease,
)

__all__ = [
    "FEATURE_SETS",
    "QualityFeatureBuilder",
    "PartitioningTimeFeatureBuilder",
    "ProcessingTimeFeatureBuilder",
    "graph_feature_names",
    "graph_feature_vector",
    "graph_feature_matrix",
    "PartitioningTimeRecord",
    "ProcessingRecord",
    "ProfileDataset",
    "QualityRecord",
    "PartitioningCostModel",
    "measure_wall_clock_partitioning_time",
    "GraphProfiler",
    "PartitioningQualityPredictor",
    "default_quality_model",
    "PartitioningTimePredictor",
    "AVERAGE_ITERATION_ALGORITHMS",
    "ProcessingTimePredictor",
    "default_processing_model",
    "OptimizationGoal",
    "PartitionerScore",
    "PartitionerSelector",
    "SelectionRequest",
    "SelectionResult",
    "JobOutcome",
    "SelectionStrategyEvaluator",
    "StrategyComparison",
    "per_type_mape_matrix",
    "EnrichmentLevelResult",
    "EnrichmentStudy",
    "EASE",
    "append_dataset",
    "canonical_sorted",
    "load_dataset",
    "load_ease",
    "merge_datasets",
    "save_dataset",
    "save_ease",
]
