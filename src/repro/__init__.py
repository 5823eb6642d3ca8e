"""EASE reproduction: ML-based edge-partitioner selection for distributed
graph processing (ICDE 2023).

Subpackages
-----------
``repro.graph``
    Graph data structure, property computation and edge-list I/O.
``repro.generators``
    R-MAT, Barabási–Albert, Erdős–Rényi and real-world-like graph generators,
    plus the training-corpus grids of Tables I and II.
``repro.partitioning``
    The eleven edge partitioners evaluated in the paper and the partitioning
    quality metrics.
``repro.processing``
    A distributed graph processing simulator (Pregel-style engine + cost
    model) and the graph algorithms of the evaluation.
``repro.ml``
    From-scratch machine-learning library (the predictors' regressors,
    preprocessing, metrics).  The model-family comparison's SVR, kNN, MLP
    and model selection are imported by module path (``repro.ml.svr`` ...).
``repro.ease``
    The EASE system itself: feature extraction, profiling, the three
    predictors and the automatic partitioner selector.  The Section IV-C
    model-family comparison lives in ``repro.ease.training`` and is not
    re-exported.
"""

__version__ = "1.0.0"

from .graph import Graph, compute_properties
from .partitioning import (
    ALL_PARTITIONER_NAMES,
    compute_quality_metrics,
    create_partitioner,
)
from .ease import EASE, GraphProfiler, OptimizationGoal

__all__ = [
    "__version__",
    "Graph",
    "compute_properties",
    "ALL_PARTITIONER_NAMES",
    "compute_quality_metrics",
    "create_partitioner",
    "EASE",
    "GraphProfiler",
    "OptimizationGoal",
]
