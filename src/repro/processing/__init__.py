"""Distributed graph processing simulator: cluster model, cost model,
vertex-centric engine and workloads.

Names resolve on first access (:mod:`repro._lazy`): reading
``ALL_ALGORITHM_NAMES`` loads the workloads, not the engine and its cost
model.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(globals(), {
    ".cluster": ("ClusterSpec",),
    ".cost_model": ("PartitionedGraphCostModel",),
    ".engine": ("ProcessingEngine",),
    ".result": ("ProcessingResult", "SuperstepCost"),
    ".algorithms": (
        "ALGORITHM_FACTORIES",
        "ALL_ALGORITHM_NAMES",
        "ConnectedComponents",
        "KCores",
        "LabelPropagation",
        "PageRank",
        "SingleSourceShortestPaths",
        "SuperstepOutcome",
        "SyntheticHigh",
        "SyntheticLow",
        "SyntheticWorkload",
        "VertexCentricAlgorithm",
        "create_algorithm",
    ),
})
