"""EASE: machine-learning based edge partitioner selection (the paper's core
contribution).

Names resolve on first access (:mod:`repro._lazy`): reading ``EASE`` loads
the predictors and the selector, not the profiling runtime that
``GraphProfiler`` needs.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".features": (
        "FEATURE_SETS",
        "QualityFeatureBuilder",
        "PartitioningTimeFeatureBuilder",
        "ProcessingTimeFeatureBuilder",
        "graph_feature_names",
        "graph_feature_vector",
        "graph_feature_matrix",
    ),
    ".dataset": (
        "PartitioningTimeRecord",
        "ProcessingRecord",
        "ProfileDataset",
        "QualityRecord",
    ),
    ".partitioning_cost": (
        "PartitioningCostModel",
        "measure_wall_clock_partitioning_time",
    ),
    ".profiling": ("GraphProfiler",),
    ".quality_predictor": (
        "PartitioningQualityPredictor",
        "default_quality_model",
    ),
    ".partitioning_time_predictor": ("PartitioningTimePredictor",),
    ".processing_time_predictor": (
        "AVERAGE_ITERATION_ALGORITHMS",
        "ProcessingTimePredictor",
        "default_processing_model",
    ),
    ".selector": (
        "OptimizationGoal",
        "PartitionerScore",
        "PartitionerSelector",
        "SelectionRequest",
        "SelectionResult",
    ),
    ".evaluation": (
        "JobOutcome",
        "SelectionStrategyEvaluator",
        "StrategyComparison",
        "per_type_mape_matrix",
    ),
    ".enrichment": ("EnrichmentLevelResult", "EnrichmentStudy"),
    ".pipeline": ("EASE",),
    ".persistence": (
        "append_dataset",
        "canonical_sorted",
        "load_dataset",
        "load_ease",
        "merge_datasets",
        "save_dataset",
        "save_ease",
    ),
})
