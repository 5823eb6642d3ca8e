"""Reference oracles: the seed formulations of every kernelized algorithm,
of the profiling pipeline and of the CART tree builder.

Each function here is the straightforward per-edge / per-vertex Python loop
that the production numpy kernel in ``src/repro`` replaced, kept verbatim and
given the same array signature as the kernel it checks:

* ``hdrf_loop_assign`` ↔ ``repro.partitioning.kernels.hdrf_kernel_assign``
* ``two_ps_loop_assign`` ↔ ``repro.partitioning.kernels.two_ps_kernel_assign``
* ``hep_loop_stream`` ↔ ``repro.partitioning.kernels.hep_kernel_stream``
* ``ReferenceExpansionAllocator`` (every external degree recounted from the
  adjacency slice) ↔ ``repro.partitioning.ne._ExpansionAllocator``, the
  core-set expansion of NE and of HEP's in-memory phase
* ``triangle_counts_sets`` ↔
  ``repro.graph.property_engine.triangle_counts_engine``
* ``local_clustering_sets`` ↔
  ``repro.graph.property_engine.local_clustering_from_triangles``
* ``sampled_triangle_stats_sets`` ↔
  ``repro.graph.property_engine.sampled_triangle_stats_engine``
* ``sequential_profile`` ↔ ``repro.ease.GraphProfiler.profile`` (plan → task
  DAG → backend → merge), compared record for record
* ``ReferenceTreeRegressor`` ↔ ``repro.ml.tree.DecisionTreeRegressor`` (node
  objects flattened by a stack walk ↔ ``fit`` writing the arrays), compared
  on the ``tree_`` / ``trees_`` arrays, importances and predictions
* ``Reference{Quality,Time,Processing}Predictor`` ↔ the three
  ``repro.ease`` predictors (per-predictor scalers and log-target helpers ↔
  one ``TargetModel`` per model), compared on a trained system's scores,
  evaluations and importances
* ``quality_metrics_pair_keys`` (packed ``(partition, vertex)`` keys through
  ``np.unique``) and ``ReferenceCostModel`` (its own dense scatter) ↔
  ``repro.partitioning.compute_quality_metrics`` and
  ``repro.processing.PartitionedGraphCostModel`` reading
  ``EdgePartition.coverage``; ``vertex_sets`` / ``source_vertex_sets`` /
  ``destination_vertex_sets`` are the per-partition set loops of the same
  counts

``tests/test_reference_oracle.py`` asserts byte-identical results between
the two sides.  Nothing under ``src/`` imports this package.
"""

import contextlib
from unittest import mock

from .ml import ReferenceTreeRegressor, flatten
from .partitioning import (
    ReferenceCostModel,
    ReferenceExpansionAllocator,
    destination_vertex_sets,
    hdrf_loop_assign,
    hep_loop_stream,
    quality_metrics_pair_keys,
    source_vertex_sets,
    two_ps_loop_assign,
    vertex_sets,
)
from .predictors import (
    ReferenceProcessingPredictor,
    ReferenceQualityPredictor,
    ReferenceTimePredictor,
)
from .profiling import sequential_profile
from .properties import (
    local_clustering_sets,
    sampled_triangle_stats_sets,
    triangle_counts_sets,
)


@contextlib.contextmanager
def reference_loops():
    """Inside the block HDRF, 2PS and HEP run the seed loops, not the kernels,
    and NE and HEP expand their core sets with the recounting allocator.

    The loops and the allocator take the production arguments, so the
    partitioner classes (and 2PS's clustering / packing around the streaming
    step) are shared between a production run and a reference run.
    """
    with mock.patch("repro.partitioning.hdrf.hdrf_kernel_assign",
                    hdrf_loop_assign), \
            mock.patch("repro.partitioning.two_ps.two_ps_kernel_assign",
                       two_ps_loop_assign), \
            mock.patch("repro.partitioning.hep.hep_kernel_stream",
                       hep_loop_stream), \
            mock.patch("repro.partitioning.ne._ExpansionAllocator",
                       ReferenceExpansionAllocator), \
            mock.patch("repro.partitioning.hep._ExpansionAllocator",
                       ReferenceExpansionAllocator):
        yield


@contextlib.contextmanager
def reference_trees():
    """Inside the block the random forest and gradient boosting grow
    ``ReferenceTreeRegressor`` trees.

    The ensembles' sampling, seeding, importance and concatenation code is
    shared between a production run and a reference run; only the tree
    builder differs.  Yields the list of every reference tree built so far,
    so a row can also flatten all their roots in one walk, as the parent did.
    """
    built = []

    def grow(**hyper_parameters):
        built.append(ReferenceTreeRegressor(**hyper_parameters))
        return built[-1]

    with mock.patch("repro.ml.forest.DecisionTreeRegressor", grow), \
            mock.patch("repro.ml.boosting.DecisionTreeRegressor", grow):
        yield built


@contextlib.contextmanager
def reference_predictors():
    """Inside the block ``EASE`` builds the parent's three predictor classes.

    The regressors, the graph-feature helpers and the selector are shared
    between a production run and a reference run; only the predictor layer
    (feature builders, scalers, log targets) differs.
    """
    with mock.patch("repro.ease.pipeline.PartitioningQualityPredictor",
                    ReferenceQualityPredictor), \
            mock.patch("repro.ease.pipeline.PartitioningTimePredictor",
                       ReferenceTimePredictor), \
            mock.patch("repro.ease.pipeline.ProcessingTimePredictor",
                       ReferenceProcessingPredictor):
        yield


__all__ = [
    "reference_loops",
    "reference_predictors",
    "reference_trees",
    "ReferenceCostModel",
    "ReferenceExpansionAllocator",
    "ReferenceProcessingPredictor",
    "ReferenceQualityPredictor",
    "ReferenceTimePredictor",
    "ReferenceTreeRegressor",
    "flatten",
    "hdrf_loop_assign",
    "two_ps_loop_assign",
    "hep_loop_stream",
    "quality_metrics_pair_keys",
    "vertex_sets",
    "source_vertex_sets",
    "destination_vertex_sets",
    "triangle_counts_sets",
    "local_clustering_sets",
    "sampled_triangle_stats_sets",
    "sequential_profile",
]
