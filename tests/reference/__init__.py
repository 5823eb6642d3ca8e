"""Reference oracles: the seed formulations of every kernelized algorithm
and of the profiling pipeline.

Each function here is the straightforward per-edge / per-vertex Python loop
that the production numpy kernel in ``src/repro`` replaced, kept verbatim and
given the same array signature as the kernel it checks:

* ``hdrf_loop_assign`` ↔ ``repro.partitioning.kernels.hdrf_kernel_assign``
* ``two_ps_loop_assign`` ↔ ``repro.partitioning.kernels.two_ps_kernel_assign``
* ``hep_loop_stream`` ↔ ``repro.partitioning.kernels.hep_kernel_stream``
* ``triangle_counts_sets`` ↔
  ``repro.graph.property_engine.triangle_counts_engine``
* ``local_clustering_sets`` ↔
  ``repro.graph.property_engine.local_clustering_from_triangles``
* ``sampled_triangle_stats_sets`` ↔
  ``repro.graph.property_engine.sampled_triangle_stats_engine``
* ``sequential_profile`` ↔ ``repro.ease.GraphProfiler.profile`` (plan → task
  DAG → backend → merge), compared record for record

``tests/test_reference_oracle.py`` asserts byte-identical results between
the two sides.  Nothing under ``src/`` imports this package.
"""

import contextlib
from unittest import mock

from .partitioning import (
    hdrf_loop_assign,
    hep_loop_stream,
    two_ps_loop_assign,
)
from .profiling import sequential_profile
from .properties import (
    local_clustering_sets,
    sampled_triangle_stats_sets,
    triangle_counts_sets,
)



@contextlib.contextmanager
def reference_loops():
    """Inside the block HDRF, 2PS and HEP run the seed loops, not the kernels.

    The loops take the kernels' arguments, so the partitioner classes (and
    the clustering / packing / in-memory phases around the streaming step)
    are shared between a production run and a reference run.
    """
    with mock.patch("repro.partitioning.hdrf.hdrf_kernel_assign",
                    hdrf_loop_assign), \
            mock.patch("repro.partitioning.two_ps.two_ps_kernel_assign",
                       two_ps_loop_assign), \
            mock.patch("repro.partitioning.hep.hep_kernel_stream",
                       hep_loop_stream):
        yield


__all__ = [
    "reference_loops",
    "hdrf_loop_assign",
    "two_ps_loop_assign",
    "hep_loop_stream",
    "triangle_counts_sets",
    "local_clustering_sets",
    "sampled_triangle_stats_sets",
    "sequential_profile",
]
