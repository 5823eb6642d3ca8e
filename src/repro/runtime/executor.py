"""Profiling executor: plan → task DAG → backend → deterministic merge.

Execution model
---------------
A :class:`~repro.runtime.jobs.ProfilePlan` enumerates the profiling grid as
fine-grained tasks (:mod:`repro.runtime.tasks`): per ``(graph, partitioner,
k)`` unit a ``PartitionTask`` feeds a ``QualityTask``, a
``PartitionTimeTask`` and one ``ProcessingTask`` per workload.  A
:class:`~repro.runtime.scheduler.Scheduler` tracks readiness and dispatches
ready tasks to a pluggable :class:`~repro.runtime.backends.ExecutorBackend`
— inline, process pool, or a shared-directory worker queue — so a single
huge graph fans out across workers instead of pinning one of them.

The merge step (:func:`build_dataset`) replays the plan's corpus order,
which makes the resulting :class:`~repro.ease.dataset.ProfileDataset`
identical to a sequential run regardless of backend or completion order.

Artifacts and caching
---------------------
The scheduler's pre-pass looks every task up in an :class:`ArtifactStore`
once, before anything is dispatched; an executed task computes and stores
its artifact without looking again.  With a ``cache_dir``, artifacts persist
across runs: a warm re-run of the same grid partitions nothing and only
replays the merge.  Model-mode partitioning run-times are cached; wall-clock
measurements are remeasured by design (but see checkpointing below).

Checkpoint / resume
-------------------
With a ``checkpoint_path``, completed *task* payloads are appended to a
:class:`~repro.runtime.journal.CheckpointJournal`; a later run with the same
path skips them — mid-unit — and completes the rest.  This includes
wall-clock timing samples, which never enter the artifact cache.  Partition
assignments are deliberately not checkpointed (they are large and cheap to
restore from the disk cache or recompute).

Run statistics
--------------
:class:`ProfileRunStats` counts tasks, each by its one disposition.
"""

from __future__ import annotations

import shutil
import tempfile
from collections import Counter
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional, Tuple, Union

from ..faults import FailurePolicy, QuarantineError
from ..obs import span
from ..processing.algorithms import AVERAGE_ITERATION_ALGORITHMS
from .artifacts import ArtifactStore
from .backends import (
    ExecutorBackend,
    InlineBackend,
    ProcessPoolBackend,
    WorkerPoolBackend,
)
from .jobs import ProfilePlan
from .journal import CheckpointJournal
from .scheduler import (
    DISPOSITION_CACHE,
    DISPOSITION_CHECKPOINT,
    DISPOSITION_EXECUTED,
    DISPOSITION_PRUNED,
    DISPOSITION_SKIPPED,
    Scheduler,
    build_task_graph,
)

__all__ = [
    "AVERAGE_ITERATION_ALGORITHMS",
    "BACKEND_NAMES",
    "ProfileExecutor",
    "ProfileRunStats",
    "build_dataset",
]

#: Selectable backend names (``auto`` picks inline for ``jobs == 1`` and the
#: process pool otherwise).
BACKEND_NAMES = ("auto", "inline", "process", "worker")


# --------------------------------------------------------------------------- #
# Run accounting
# --------------------------------------------------------------------------- #
@dataclass
class ProfileRunStats:
    """Task-level accounting of one profiling run.

    ``cache_hit_tasks`` counts store restores plus partitions pruned
    because nothing consumed them.  ``partition_slots_enumerated`` counts
    grid slots as the sequential profiler would execute them (one
    partitioning each); ``unique_partition_jobs`` counts the partition
    tasks left after content-addressing; ``partitions_computed`` and
    ``properties_computed`` count the executed partition and properties
    tasks (0 on a fully warm cache).
    """

    partitions_computed: int = 0
    partition_slots_enumerated: int = 0
    unique_partition_jobs: int = 0
    duplicate_partitions_avoided: int = 0
    properties_total: int = 0
    properties_computed: int = 0
    total_tasks: int = 0
    executed_tasks: int = 0
    cache_hit_tasks: int = 0
    checkpoint_tasks: int = 0
    backend: str = ""
    #: Failure-policy accounting: resubmitted attempts, deadline expiries,
    #: and the quarantine records (dicts with last tracebacks) of tasks
    #: that exhausted their retry budget.
    retried_tasks: int = 0
    deadline_failures: int = 0
    quarantined_tasks: int = 0
    skipped_tasks: int = 0
    quarantines: List[Dict[str, Any]] = field(default_factory=list)

    def cache_hit_rate(self) -> float:
        """Fraction of tasks served by the artifact cache."""
        if self.total_tasks == 0:
            return 0.0
        return self.cache_hit_tasks / self.total_tasks

    def as_dict(self) -> Dict[str, Any]:
        """Every field plus the derived ``cache_hit_rate`` (the
        ``--stats-json`` format)."""
        return dict(asdict(self), cache_hit_rate=self.cache_hit_rate())


# --------------------------------------------------------------------------- #
# Executor
# --------------------------------------------------------------------------- #
class ProfileExecutor:
    """Runs a :class:`ProfilePlan` and returns payloads plus accounting.

    Parameters
    ----------
    jobs:
        Degree of parallelism: pool size of the ``process`` backend, or the
        number of locally spawned workers of the ``worker`` backend.
    cache_dir:
        Optional artifact cache directory shared by parent and workers.
    checkpoint_path:
        Optional path for incremental task-payload checkpoints; if the file
        already exists, its completed tasks are skipped (resume).
    checkpoint_every:
        Append to the checkpoint once this many newly completed payloads
        are pending (each append fsyncs, so the default batches them); a
        final append always happens at run end.
    backend:
        ``"auto"``/``None`` (inline for ``jobs == 1``, process pool
        otherwise), one of :data:`BACKEND_NAMES`, or an
        :class:`ExecutorBackend` instance (started and closed per run).
    queue_dir:
        Shared queue directory of the ``worker`` backend.  ``None`` uses a
        run-scoped temporary directory (local workers are spawned either
        way); point it at a shared filesystem to let external
        ``repro worker`` processes participate.
    granularity:
        ``"task"`` (default) enables intra-unit parallelism; ``"unit"``
        reproduces PR 1's unit-granular dispatch (one envelope per work
        unit).
    time_repeats:
        Wall-clock partitioning-time measurements per combination; the mean
        and standard deviation land on the dataset record.  Ignored in
        ``model`` mode, which is deterministic.
    policy:
        :class:`~repro.faults.FailurePolicy` governing retries, backoff,
        quarantine, per-kind deadlines and the worker heartbeat timeout.
        ``None`` uses the defaults (3 attempts, no deadlines).  A run that
        quarantined tasks raises :class:`~repro.faults.QuarantineError`
        (with the run stats attached) instead of returning a silently
        partial result.
    """

    def __init__(self, jobs: int = 1, cache_dir: Optional[str] = None,
                 checkpoint_path: Optional[str] = None,
                 checkpoint_every: int = 16,
                 backend: Union[None, str, ExecutorBackend] = None,
                 queue_dir: Optional[str] = None,
                 granularity: str = "task",
                 time_repeats: int = 1,
                 policy: Optional[FailurePolicy] = None) -> None:
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if isinstance(backend, str) and backend not in BACKEND_NAMES:
            raise ValueError(f"backend must be one of {BACKEND_NAMES} or an "
                             "ExecutorBackend instance")
        if granularity not in ("task", "unit"):
            raise ValueError("granularity must be 'task' or 'unit'")
        if time_repeats < 1:
            raise ValueError("time_repeats must be >= 1")
        self.jobs = jobs
        self.cache_dir = cache_dir
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.backend = backend
        self.queue_dir = queue_dir
        self.granularity = granularity
        self.time_repeats = time_repeats
        self.policy = policy if policy is not None else FailurePolicy()

    # ------------------------------------------------------------------ #
    def _make_backend(self) -> Tuple[ExecutorBackend, Optional[str]]:
        """Resolve the configured backend; returns (backend, temp queue)."""
        backend = self.backend
        if isinstance(backend, ExecutorBackend):
            return backend, None
        if backend is None or backend == "auto":
            backend = "inline" if self.jobs == 1 else "process"
        if backend == "inline":
            return InlineBackend(), None
        if backend == "process":
            return ProcessPoolBackend(max_workers=self.jobs), None
        temp_queue = None
        queue_dir = self.queue_dir
        if queue_dir is None:
            queue_dir = temp_queue = tempfile.mkdtemp(prefix="repro-queue-")
        return WorkerPoolBackend(
            queue_dir, spawn_workers=self.jobs,
            heartbeat_timeout=self.policy.heartbeat_timeout_seconds), \
            temp_queue

    # ------------------------------------------------------------------ #
    def run(self, plan: ProfilePlan
            ) -> Tuple[Dict[Any, Any], ProfileRunStats]:
        store = ArtifactStore(self.cache_dir)
        checkpoint: Dict[Any, Any] = {}
        on_checkpoint = None
        if self.checkpoint_path:
            journal = CheckpointJournal(self.checkpoint_path)
            checkpoint = journal.load()
            on_checkpoint = journal.append

        tasks = build_task_graph(plan, repeats=self.time_repeats)
        scheduler = Scheduler(tasks, store, checkpoint=checkpoint,
                              on_checkpoint=on_checkpoint,
                              checkpoint_every=self.checkpoint_every,
                              granularity=self.granularity,
                              policy=self.policy)
        needed_fingerprints = scheduler.prepass()

        backend, temp_queue = self._make_backend()
        try:
            if needed_fingerprints:
                backend.start({fingerprint: plan.graphs[fingerprint]
                               for fingerprint in needed_fingerprints},
                              self.cache_dir, store=store)
                try:
                    # The driver's root span: every dispatch span (and,
                    # transitively, every worker-side execute span) parents
                    # back to it, so one run is one stitched trace.
                    with span("profile.run",
                              attrs={"backend": backend.name,
                                     "jobs": self.jobs,
                                     "tasks": len(tasks)}):
                        outcome = scheduler.execute(backend)
                finally:
                    backend.close()
            else:
                outcome = scheduler.outcome
        finally:
            if temp_queue is not None:
                shutil.rmtree(temp_queue, ignore_errors=True)

        stats = self._run_stats(plan, tasks, outcome, backend.name)
        if outcome.quarantined:
            # A partial result must not masquerade as a dataset: surface
            # the poisoned tasks (with what *did* run) as an error.
            raise QuarantineError(outcome.quarantined, stats)
        return self._assemble(tasks, outcome), stats

    @staticmethod
    def _run_stats(plan: ProfilePlan, tasks: Dict[Any, Any], outcome,
                   backend_name: str) -> ProfileRunStats:
        """Tallies of the task kinds and of the dispositions."""
        kinds = Counter(task_id[0] for task_id in tasks)
        counts = Counter(outcome.dispositions.values())
        executed = Counter(task_id[0] for task_id, disposition
                           in outcome.dispositions.items()
                           if disposition == DISPOSITION_EXECUTED)
        slots = plan.enumerated_partition_slots()
        return ProfileRunStats(
            partition_slots_enumerated=slots,
            unique_partition_jobs=kinds["partition"],
            duplicate_partitions_avoided=slots - kinds["partition"],
            properties_total=kinds["properties"],
            total_tasks=len(tasks),
            executed_tasks=counts[DISPOSITION_EXECUTED],
            checkpoint_tasks=counts[DISPOSITION_CHECKPOINT],
            cache_hit_tasks=(counts[DISPOSITION_CACHE]
                             + counts[DISPOSITION_PRUNED]),
            partitions_computed=executed["partition"],
            properties_computed=executed["properties"],
            backend=backend_name,
            retried_tasks=outcome.retried_tasks,
            deadline_failures=outcome.deadline_failures,
            quarantined_tasks=len(outcome.quarantined),
            skipped_tasks=counts[DISPOSITION_SKIPPED],
            quarantines=[record.as_dict() for record in outcome.quarantined])

    # ------------------------------------------------------------------ #
    @staticmethod
    def _assemble(tasks: Dict[Any, Any], outcome) -> Dict[Any, Any]:
        """Fold task payloads into per-graph properties and per-unit
        payloads."""
        results: Dict[Any, Any] = {}
        for task_id, task in tasks.items():
            kind = task_id[0]
            if kind == "properties":
                results[task.graph_fingerprint] = outcome.payloads[task_id]
            elif kind != "partition":
                unit = results.setdefault(task.unit_key, {"processing": {}})
                if kind == "quality":
                    unit["quality"] = outcome.payloads[task_id]
                elif kind == "partitioning_time_task":
                    unit["timing"] = outcome.payloads[task_id]
                else:
                    unit["processing"][task.algorithm] = \
                        outcome.payloads[task_id]
        return results


# --------------------------------------------------------------------------- #
# Deterministic merge
# --------------------------------------------------------------------------- #
def build_dataset(plan: ProfilePlan, results: Dict[Any, Any],
                  progress=None) -> "ProfileDataset":
    """Merge executed payloads into a dataset in sequential-profiler order.

    Records are emitted by replaying the plan's corpus order — quality grid
    first (graph, partitioner, ``k`` loops), then the processing phase — so
    the dataset is byte-identical to a sequential run regardless of the
    order in which tasks completed or the backend that ran them.
    """
    from ..ease.dataset import (
        PartitioningTimeRecord,
        ProcessingRecord,
        ProfileDataset,
        QualityRecord,
    )

    dataset = ProfileDataset()

    def timing_record(ref, partitioner, k, payload):
        sample = payload["timing"][ref.name]
        return PartitioningTimeRecord(
            graph_name=ref.name, graph_type=ref.graph_type,
            properties=results[ref.fingerprint],
            partitioner=partitioner, num_partitions=k,
            seconds=sample["seconds"],
            seconds_std=sample["seconds_std"],
            repeats=sample["repeats"])

    for ref in plan.quality_refs:
        properties = results[ref.fingerprint]
        for partitioner in plan.partitioner_names:
            for k in plan.partition_counts:
                payload = results[(ref.fingerprint, partitioner, k)]
                metrics = dict(payload["quality"])
                dataset.quality.append(QualityRecord(
                    graph_name=ref.name, graph_type=ref.graph_type,
                    properties=properties, partitioner=partitioner,
                    num_partitions=k, metrics=metrics))
                dataset.partitioning_time.append(
                    timing_record(ref, partitioner, k, payload))
            if progress is not None:
                progress(ref.name, partitioner)

    k = plan.processing_k
    for ref in plan.processing_refs:
        properties = results[ref.fingerprint]
        for partitioner in plan.partitioner_names:
            payload = results[(ref.fingerprint, partitioner, k)]
            metrics = dict(payload["quality"])
            dataset.quality.append(QualityRecord(
                graph_name=ref.name, graph_type=ref.graph_type,
                properties=properties, partitioner=partitioner,
                num_partitions=k, metrics=metrics))
            dataset.partitioning_time.append(
                timing_record(ref, partitioner, k, payload))
            for algorithm in plan.algorithm_names:
                outcome = payload["processing"][algorithm]
                if algorithm in AVERAGE_ITERATION_ALGORITHMS:
                    target_seconds = outcome["average_iteration_seconds"]
                else:
                    target_seconds = outcome["total_seconds"]
                dataset.processing.append(ProcessingRecord(
                    graph_name=ref.name, graph_type=ref.graph_type,
                    properties=properties, partitioner=partitioner,
                    num_partitions=k, algorithm=algorithm, metrics=metrics,
                    target_seconds=target_seconds,
                    total_seconds=outcome["total_seconds"],
                    num_supersteps=outcome["num_supersteps"]))
            if progress is not None:
                progress(ref.name, partitioner)
    return dataset
