"""Profiling pipeline: steps 2 and 3 of the EASE training phase (Figure 5).

Given a set of graphs, the profiler partitions each graph with every candidate
partitioner, measures the partitioning quality metrics and partitioning
run-time, executes the graph processing workloads on the partitioned graphs in
the simulator and records the processing run-times.  The resulting
:class:`~repro.ease.dataset.ProfileDataset` is the training (or evaluation)
data of the three predictors.

:class:`GraphProfiler` is a thin orchestrator over :mod:`repro.runtime`: it
enumerates the profiling grid as a plan of fine-grained tasks
(:mod:`repro.runtime.jobs`, :mod:`repro.runtime.tasks`), has them scheduled
over a pluggable executor backend — inline, process pool, or a
shared-directory worker queue — against a content-addressed artifact store
(:mod:`repro.runtime.scheduler`, :mod:`repro.runtime.backends`), and merges
the payloads into a dataset whose records match a sequential run exactly.
See ``docs/ARCHITECTURE.md`` for the full design.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence

from ..graph import Graph
from ..partitioning import ALL_PARTITIONER_NAMES
from ..processing import ALL_ALGORITHM_NAMES, ClusterSpec
from ..runtime.executor import (
    ProfileExecutor,
    ProfileRunStats,
    build_dataset,
)
from ..runtime.jobs import ProfilePlan, build_plan
from .dataset import ProfileDataset

__all__ = ["GraphProfiler"]


class GraphProfiler:
    """Profiles graphs against partitioners and processing workloads.

    Parameters
    ----------
    partitioner_names:
        Candidate partitioners (default: the paper's eleven).
    partition_counts:
        Values of ``k`` profiled for the quality predictor (the paper uses
        {4, 8, 16, 32, 64, 128}; the laptop-scale default is smaller).
    processing_partition_count:
        The single ``k`` used for run-time profiling (the paper uses 4).
    algorithms:
        Algorithm names profiled for the processing-time predictor.
    cluster:
        Simulated cluster; ``None`` sizes it to the partition count.
    partitioning_time_mode:
        ``"model"`` uses the analytic :class:`PartitioningCostModel`
        (deterministic, recommended), ``"wall_clock"`` measures the Python
        implementations.
    exact_triangles:
        Whether graph properties use exact triangle counting (slower) or the
        sampled estimate.
    seed:
        Seed forwarded to partitioners and algorithms.
    jobs:
        Degree of parallelism of the profiling grid: pool size of the
        ``process`` backend or locally spawned workers of the ``worker``
        backend; ``1`` (default) runs inline.  Results are identical
        either way.
    cache_dir:
        Optional directory of the content-addressed artifact cache; reused
        across runs, so re-profiling an already-profiled grid is nearly free.
    backend:
        Executor backend of the task-DAG scheduler: ``"auto"``/``None``
        (inline for ``jobs == 1``, process pool otherwise), ``"inline"``,
        ``"process"``, ``"worker"`` (shared-directory queue; see
        ``queue_dir``), or an
        :class:`~repro.runtime.backends.ExecutorBackend` instance.
    queue_dir:
        Queue directory of the ``worker`` backend; ``None`` uses a
        run-scoped temporary directory.  Point it at a shared filesystem to
        let external ``repro worker`` processes participate.
    time_repeats:
        Wall-clock partitioning-time measurements per combination (mean and
        standard deviation land on the dataset record); ignored by the
        deterministic ``model`` mode.
    """

    def __init__(self,
                 partitioner_names: Sequence[str] = ALL_PARTITIONER_NAMES,
                 partition_counts: Sequence[int] = (4, 8, 16),
                 processing_partition_count: int = 4,
                 algorithms: Sequence[str] = ALL_ALGORITHM_NAMES,
                 cluster: Optional[ClusterSpec] = None,
                 partitioning_time_mode: str = "model",
                 exact_triangles: bool = False,
                 seed: int = 0,
                 jobs: int = 1,
                 cache_dir: Optional[str] = None,
                 backend=None,
                 queue_dir: Optional[str] = None,
                 time_repeats: int = 1,
                 failure_policy=None) -> None:
        if partitioning_time_mode not in ("model", "wall_clock"):
            raise ValueError("partitioning_time_mode must be 'model' or "
                             "'wall_clock'")
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if time_repeats < 1:
            raise ValueError("time_repeats must be >= 1")
        self.partitioner_names = list(partitioner_names)
        self.partition_counts = list(partition_counts)
        self.processing_partition_count = processing_partition_count
        self.algorithm_names = list(algorithms)
        self.cluster = cluster
        self.partitioning_time_mode = partitioning_time_mode
        self.exact_triangles = exact_triangles
        self.seed = seed
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.backend = backend
        self.queue_dir = queue_dir
        self.time_repeats = time_repeats
        #: Optional :class:`repro.faults.FailurePolicy` governing retries,
        #: quarantine and deadlines of the profiling runtime (``None`` uses
        #: the policy defaults).
        self.failure_policy = failure_policy
        #: Accounting of the most recent profiling run (job counts, cache
        #: hit rate, partitions computed); ``None`` before the first run.
        self.last_run_stats: Optional[ProfileRunStats] = None

    # ------------------------------------------------------------------ #
    def build_plan(self, quality_graphs: Iterable[Graph],
                   processing_graphs: Iterable[Graph]) -> ProfilePlan:
        """Enumerate the profiling grid of the two corpora as a plan."""
        return build_plan(
            quality_graphs=list(quality_graphs),
            processing_graphs=list(processing_graphs),
            partitioner_names=self.partitioner_names,
            partition_counts=self.partition_counts,
            processing_k=self.processing_partition_count,
            algorithm_names=self.algorithm_names,
            cluster=self.cluster,
            time_mode=self.partitioning_time_mode,
            exact_triangles=self.exact_triangles,
            seed=self.seed)

    def _run(self, quality_graphs: List[Graph],
             processing_graphs: List[Graph],
             progress: Optional[callable] = None,
             checkpoint_path: Optional[str] = None) -> ProfileDataset:
        plan = self.build_plan(quality_graphs, processing_graphs)
        executor = ProfileExecutor(
            jobs=self.jobs,
            cache_dir=self.cache_dir,
            checkpoint_path=checkpoint_path,
            backend=self.backend,
            queue_dir=self.queue_dir,
            time_repeats=self.time_repeats,
            policy=self.failure_policy)
        results, stats = executor.run(plan)
        self.last_run_stats = stats
        return build_dataset(plan, results, progress=progress)

    # ------------------------------------------------------------------ #
    def profile_quality(self, graphs: Iterable[Graph],
                        progress: Optional[callable] = None) -> ProfileDataset:
        """Partition every graph with every partitioner and ``k``; record the
        quality metrics and partitioning run-times."""
        return self._run(list(graphs), [], progress=progress)

    def profile_processing(self, graphs: Iterable[Graph],
                           progress: Optional[callable] = None) -> ProfileDataset:
        """Partition every graph (at the processing ``k``), run every workload
        and record processing run-times along with quality metrics and
        partitioning run-times."""
        return self._run([], list(graphs), progress=progress)

    def profile(self, quality_graphs: Iterable[Graph],
                processing_graphs: Iterable[Graph],
                checkpoint_path: Optional[str] = None) -> ProfileDataset:
        """Full profiling: quality grid on one corpus, processing on another.

        Mirrors the paper's setup where the (smaller) R-MAT-SMALL corpus feeds
        PartitioningQualityPredictor and the (larger) R-MAT-LARGE corpus feeds
        the two run-time predictors.  Combinations shared between the two
        phases — the processing ``k`` appearing in ``partition_counts`` on a
        shared corpus — are partitioned only once.

        ``checkpoint_path`` enables incremental task-level checkpointing,
        and re-running with the same path resumes a partially completed run
        mid-unit.
        """
        return self._run(list(quality_graphs), list(processing_graphs),
                         checkpoint_path=checkpoint_path)
