"""Task-DAG construction and the readiness-tracking scheduler.

:func:`build_task_graph` collects the fine-grained tasks a
:class:`ProfilePlan` enumerates (:mod:`repro.runtime.tasks`) into a
``{task_id: task}`` dict in topological order; each unit-scoped task names
its ``(graph, partitioner, k)`` unit itself (for the ``granularity="unit"``
fused mode).

:class:`Scheduler` drives that task DAG to completion over any
:class:`~repro.runtime.backends.ExecutorBackend`:

1. :meth:`prepass` — every non-partition task is first offered its
   checkpoint payload, then its artifact-store restore, the task's only
   store lookup (a warm cache satisfies tasks without dispatch).  A
   partition task none of whose dependents will execute is pruned without
   touching the store; only a consumed partition is verified there, and
   its restore stays lazy so a large assignment is only loaded when a
   dependent is dispatched.
2. :meth:`execute` — tasks whose dependencies are satisfied are submitted
   to the backend; each completion may make further tasks ready.
   Completion order is unconstrained — determinism comes from the merge
   step replaying the plan order, exactly as in PR 1.
3. *Release* — a partition payload is dropped as soon as its last consumer
   finished, keeping peak memory proportional to partitions in flight
   instead of the whole grid.

Each task gets one disposition, which the run statistics count.
Checkpointing happens at task granularity: the scalar payloads executed
since the last flush go to ``on_checkpoint``, so a resumed run skips
completed tasks mid-unit — including wall-clock timing samples, which the
artifact cache deliberately never holds.
"""

from __future__ import annotations

import heapq
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from ..faults import FailurePolicy, QuarantineRecord
from ..obs import add_event, get_registry
from ..obs.trace import begin_span
from .artifacts import ArtifactStore
from .backends import ExecutorBackend, TaskEnvelope, TaskFailure
from .jobs import ProfilePlan
from .tasks import LAZY_RESTORE, FusedTask, TaskId

__all__ = ["Scheduler", "SchedulerOutcome", "build_task_graph"]

#: How a task was satisfied (per-task dispositions feed the run statistics).
DISPOSITION_EXECUTED = "executed"
DISPOSITION_CHECKPOINT = "checkpoint"
DISPOSITION_CACHE = "cache"
DISPOSITION_PRUNED = "pruned"
#: Terminal failure dispositions of the failure policy: a task that
#: exhausted its retry budget, and the transitive dependents it stranded.
DISPOSITION_QUARANTINED = "quarantined"
DISPOSITION_SKIPPED = "skipped"


def build_task_graph(plan: ProfilePlan,
                     repeats: int = 1) -> Dict[TaskId, Any]:
    """Collect the tasks a plan enumerates into the scheduler's task DAG.

    The dict preserves construction order, which is a valid topological
    order (a partition task always precedes its dependents).
    """
    return {task.task_id: task for task in plan.tasks(repeats)}


@dataclass
class SchedulerOutcome:
    """Results and per-task dispositions of one scheduler run.

    ``payloads`` maps task ids to their payloads; partition payloads that
    were released (all consumers done, or pruned) hold the lazy marker or
    are absent.  ``dispositions`` maps every task id to ``executed`` /
    ``checkpoint`` / ``cache`` / ``pruned`` (or a failure disposition).
    """

    payloads: Dict[TaskId, Any] = field(default_factory=dict)
    dispositions: Dict[TaskId, str] = field(default_factory=dict)
    #: Failure-policy accounting: tasks resubmitted after a failed attempt,
    #: driver-side deadline expiries, and the quarantine records of tasks
    #: that exhausted their retry budget (their dependents are ``skipped``).
    retried_tasks: int = 0
    deadline_failures: int = 0
    quarantined: List[QuarantineRecord] = field(default_factory=list)


class Scheduler:
    """Run a task DAG to completion on an executor backend.

    Parameters
    ----------
    tasks:
        The task DAG, ``{task_id: task}`` as :func:`build_task_graph`
        returns it (construction order must be topological).
    store:
        Artifact store consulted in the pre-pass (and by inline execution).
    checkpoint:
        Payloads of previously completed tasks (read, never modified).
    on_checkpoint:
        Called with the checkpointable payloads executed since its last
        call, once ``checkpoint_every`` of them are pending (and once at
        the end if any are).
    granularity:
        ``"task"`` dispatches each task separately (intra-unit parallelism);
        ``"unit"`` fuses the unexecuted tasks of each work unit into one
        envelope (the PR 1 dispatch shape: less IPC, no intra-unit fan-out).

    Usage: call :meth:`prepass` first, start a backend with the graphs of
    the returned fingerprints, then :meth:`execute` it.
    """

    def __init__(self, tasks: Dict[TaskId, Any], store: ArtifactStore,
                 checkpoint: Optional[Dict[TaskId, Any]] = None,
                 on_checkpoint: Optional[Callable] = None,
                 checkpoint_every: int = 16,
                 granularity: str = "task",
                 policy: Optional[FailurePolicy] = None) -> None:
        if granularity not in ("task", "unit"):
            raise ValueError("granularity must be 'task' or 'unit'")
        if checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        self.tasks = tasks
        self.store = store
        self.checkpoint = checkpoint if checkpoint is not None else {}
        self.on_checkpoint = on_checkpoint
        self._unsaved: Dict[TaskId, Any] = {}
        self.checkpoint_every = checkpoint_every
        self.granularity = granularity
        self.policy = policy if policy is not None else FailurePolicy()
        self.outcome = SchedulerOutcome()
        self._schedulable: List = []
        self._consumers_left: Dict[TaskId, int] = {}
        registry = get_registry()
        self._tasks_counter = registry.counter(
            "runtime_tasks_total",
            "Tasks satisfied, by kind and disposition (executed/checkpoint/"
            "cache/pruned/quarantined/skipped)", ("kind", "disposition"))
        self._task_hist = registry.histogram(
            "runtime_task_seconds",
            "Wall time from task dispatch to completion, by kind",
            ("kind",))
        self._retries_counter = registry.counter(
            "runtime_task_retries_total",
            "Failed task attempts resubmitted under the failure policy",
            ("kind",))
        self._quarantine_counter = registry.counter(
            "runtime_tasks_quarantined_total",
            "Tasks quarantined after exhausting their retry budget",
            ("kind",))
        self._deadline_counter = registry.counter(
            "runtime_task_deadline_exceeded_total",
            "Dispatched tasks that missed their per-kind deadline",
            ("kind",))

    # ------------------------------------------------------------------ #
    def prepass(self) -> Set[str]:
        """Satisfy tasks from checkpoint/store; prune unconsumed partitions.

        Returns the graph fingerprints of the tasks that still need
        execution (the graphs a backend must be started with).
        """
        to_execute: Set[TaskId] = set()
        for task_id, task in self.tasks.items():
            if task_id[0] == "partition":
                continue  # after its consumers, below
            if task.checkpointable and task_id in self.checkpoint:
                self._record(task_id, DISPOSITION_CHECKPOINT,
                             self.checkpoint[task_id])
                continue
            restored = task.restore(self.store)
            if restored is not None:
                self._record(task_id, DISPOSITION_CACHE, restored)
                continue
            to_execute.add(task_id)

        # A partition whose dependents were all satisfied already would be
        # computed (or read) for nobody — drop it without a store lookup
        # (its assignment is not part of any dataset record).
        consumed: Set[TaskId] = set()
        for task_id in to_execute:
            consumed.update(self.tasks[task_id].input_dependencies)
        for task_id, task in self.tasks.items():
            if task_id[0] != "partition":
                continue
            if task_id not in consumed:
                self._record(task_id, DISPOSITION_PRUNED, None)
            elif task.restore(self.store) is not None:
                self._record(task_id, DISPOSITION_CACHE, LAZY_RESTORE)
            else:
                to_execute.add(task_id)
        kept = [task_id for task_id in self.tasks if task_id in to_execute]

        if self.granularity == "unit":
            self._schedulable = self._fuse_units(kept)
        else:
            self._schedulable = [self.tasks[tid] for tid in kept]
        for task in self._schedulable:
            for dep in task.input_dependencies:
                self._consumers_left[dep] = (
                    self._consumers_left.get(dep, 0) + 1)
        return {task.graph_fingerprint for task in self._schedulable}

    # ------------------------------------------------------------------ #
    def execute(self, backend: ExecutorBackend) -> SchedulerOutcome:
        """Dispatch the unsatisfied tasks to ``backend`` until done.

        Failed attempts (a :class:`TaskFailure` completion, or a per-kind
        execution deadline expiring) are retried with exponential backoff
        up to ``policy.max_attempts``; a task that exhausts the budget is
        quarantined together with its transitive dependents and the run
        continues with the rest of the DAG.
        """
        policy = self.policy
        remaining_deps: Dict[TaskId, int] = {}
        dependents_to_run: Dict[TaskId, List] = {}
        ready = deque()
        for task in self._schedulable:
            missing = [dep for dep in task.dependencies
                       if dep not in self.outcome.dispositions]
            if missing:
                remaining_deps[task.task_id] = len(missing)
                for dep in missing:
                    dependents_to_run.setdefault(dep, []).append(task)
            else:
                ready.append(task)

        in_flight: Dict[TaskId, Any] = {}
        # task_id -> (dispatch time, dispatch SpanHandle or None, absolute
        # monotonic deadline or None); feeds the per-kind duration
        # histogram, closes the dispatch span on completion, and drives
        # deadline expiry while the driver waits.
        dispatched: Dict[TaskId, Tuple[float, Any, Optional[float]]] = {}
        failures: Dict[TaskId, int] = {}
        retry_heap: List[Tuple[float, int, Any]] = []
        retry_seq = 0
        try:
            while ready or in_flight or retry_heap:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    ready.append(heapq.heappop(retry_heap)[2])
                while ready:
                    task = ready.popleft()
                    in_flight[task.task_id] = task
                    handle = begin_span(
                        "task.dispatch",
                        attrs={"task_id": repr(task.task_id),
                               "kind": task.task_id[0],
                               "backend": backend.name})
                    trace = handle.envelope_context() if handle else None
                    kind_deadline = policy.deadline_for(task.task_id[0])
                    deadline_at = (None if kind_deadline is None
                                   else time.monotonic() + kind_deadline)
                    dispatched[task.task_id] = (time.monotonic(), handle,
                                                deadline_at)
                    backend.submit(self._envelope(task, trace=trace))
                if not in_flight:
                    # Only backoff timers are pending; sleep the shortest.
                    if retry_heap:
                        time.sleep(max(0.0,
                                       retry_heap[0][0] - time.monotonic()))
                    continue
                completion = backend.next_completed(
                    timeout=self._wait_timeout(dispatched, retry_heap))
                if completion is None:
                    for task, failure in self._expired_deadlines(dispatched,
                                                                 in_flight):
                        self._handle_failure(task, failure, failures,
                                             retry_heap, retry_seq, backend,
                                             dependents_to_run,
                                             remaining_deps, ready)
                        retry_seq += 1
                    continue
                task_id, payload = completion
                if task_id not in in_flight:
                    continue  # late completion of a deadline-retried task
                task = in_flight.pop(task_id)
                submitted_at, handle, _ = dispatched.pop(
                    task_id, (None, None, None))
                if submitted_at is not None:
                    self._task_hist.labels(task_id[0]).observe(
                        time.monotonic() - submitted_at)
                if handle is not None:
                    handle.finish()
                if isinstance(payload, TaskFailure):
                    self._handle_failure(task, payload, failures, retry_heap,
                                         retry_seq, backend,
                                         dependents_to_run, remaining_deps,
                                         ready)
                    retry_seq += 1
                    continue
                member_payloads = (payload if isinstance(task, FusedTask)
                                   else {task_id: payload})
                for member_id, member_payload in member_payloads.items():
                    self._record(member_id, DISPOSITION_EXECUTED,
                                 member_payload)
                for dep in task.input_dependencies:
                    self._release_consumer(dep)
                for member_id in member_payloads:
                    for dependent in dependents_to_run.pop(member_id, []):
                        if dependent.task_id not in remaining_deps:
                            continue  # skipped via an earlier quarantine
                        remaining_deps[dependent.task_id] -= 1
                        if remaining_deps[dependent.task_id] == 0:
                            ready.append(dependent)
                if len(self._unsaved) >= self.checkpoint_every:
                    self._flush_checkpoint()
        finally:
            self._flush_checkpoint()
        return self.outcome

    def _flush_checkpoint(self) -> None:
        if self._unsaved:
            self.on_checkpoint(self._unsaved)
            self._unsaved = {}

    # ------------------------------------------------------------------ #
    # Failure policy
    # ------------------------------------------------------------------ #
    def _wait_timeout(self, dispatched, retry_heap) -> Optional[float]:
        """How long the backend wait may block before the driver must act
        (a backoff timer firing or an in-flight deadline expiring)."""
        candidates = []
        if retry_heap:
            candidates.append(retry_heap[0][0])
        for _, _, deadline_at in dispatched.values():
            if deadline_at is not None:
                candidates.append(deadline_at)
        if not candidates:
            return None
        return max(0.0, min(candidates) - time.monotonic())

    def _expired_deadlines(self, dispatched, in_flight):
        """Pop in-flight tasks whose deadline passed as synthetic failures.

        The attempt may well still be running in a worker — tasks cannot
        be interrupted across a process boundary — so the task is *not*
        discarded from the backend: if the old attempt finishes after the
        resubmission, its (pure) result is accepted like any other.
        """
        now = time.monotonic()
        expired = []
        for task_id, (submitted_at, handle, deadline_at) in \
                list(dispatched.items()):
            if deadline_at is None or now < deadline_at:
                continue
            task = in_flight.pop(task_id, None)
            if task is None:
                continue
            dispatched.pop(task_id, None)
            if handle is not None:
                handle.finish()
            self._deadline_counter.labels(task_id[0]).inc()
            self.outcome.deadline_failures += 1
            elapsed = now - submitted_at
            expired.append((task, TaskFailure(
                error=f"deadline exceeded for {task_id!r}: still running "
                      f"after {elapsed:.3f}s "
                      f"(limit {self.policy.deadline_for(task_id[0]):.3f}s)",
                deadline=True)))
        return expired

    def _handle_failure(self, task, failure: TaskFailure,
                        failures: Dict[TaskId, int], retry_heap,
                        retry_seq: int, backend: ExecutorBackend,
                        dependents_to_run, remaining_deps, ready) -> None:
        task_id = task.task_id
        count = failures.get(task_id, 0) + 1
        failures[task_id] = count
        add_event("task.failed", {"task_id": repr(task_id),
                                  "attempt": count,
                                  "deadline": failure.deadline,
                                  "error": failure.error})
        if count >= self.policy.max_attempts:
            self._quarantine(task, failure, count, backend,
                             dependents_to_run, remaining_deps, ready)
            return
        self._retries_counter.labels(task_id[0]).inc()
        self.outcome.retried_tasks += 1
        delay = self.policy.backoff(count)
        heapq.heappush(retry_heap,
                       (time.monotonic() + delay, retry_seq, task))

    def _quarantine(self, task, failure: TaskFailure, attempts: int,
                    backend: ExecutorBackend, dependents_to_run,
                    remaining_deps, ready) -> None:
        """Record a poisoned task and skip its transitive dependents."""
        task_id = task.task_id
        record = QuarantineRecord(task_id=task_id, kind=task_id[0],
                                  attempts=attempts, error=failure.error,
                                  traceback=failure.traceback)
        self.outcome.quarantined.append(record)
        self.outcome.dispositions[task_id] = DISPOSITION_QUARANTINED
        self._tasks_counter.labels(task_id[0],
                                   DISPOSITION_QUARANTINED).inc()
        self._quarantine_counter.labels(task_id[0]).inc()
        add_event("task.quarantined", {"task_id": repr(task_id),
                                       "attempts": attempts,
                                       "error": failure.error})
        backend.discard(task_id)
        for dep in task.input_dependencies:
            self._release_consumer(dep)
        # Everything transitively downstream of the poisoned task can never
        # run; mark it skipped so the execute loop terminates instead of
        # waiting for dependencies that will not arrive.
        ready_ids = {pending.task_id for pending in ready}
        stack = list(task.member_ids if isinstance(task, FusedTask)
                     else (task_id,))
        while stack:
            member_id = stack.pop()
            for dependent in dependents_to_run.pop(member_id, []):
                dependent_id = dependent.task_id
                if self.outcome.dispositions.get(dependent_id) == \
                        DISPOSITION_SKIPPED:
                    continue
                if dependent_id in ready_ids:
                    continue  # already dispatchable via other deps
                self.outcome.dispositions[dependent_id] = DISPOSITION_SKIPPED
                self._tasks_counter.labels(dependent_id[0],
                                           DISPOSITION_SKIPPED).inc()
                remaining_deps.pop(dependent_id, None)
                for dep in dependent.input_dependencies:
                    self._release_consumer(dep)
                stack.extend(dependent.member_ids
                             if isinstance(dependent, FusedTask)
                             else (dependent_id,))

    # ------------------------------------------------------------------ #
    def _fuse_units(self, to_execute: List[TaskId]) -> List:
        """Group the unexecuted tasks of each unit into fused envelopes."""
        groups: Dict[Tuple, List] = {}
        singles: List = []
        for task_id in to_execute:
            task = self.tasks[task_id]
            unit_key = task.unit_key
            if unit_key is None:
                singles.append(task)
            else:
                groups.setdefault(unit_key, []).append(task)
        fused = [members[0] if len(members) == 1
                 else FusedTask(tuple(members))
                 for members in groups.values()]
        return singles + fused

    def _record(self, task_id: TaskId, disposition: str,
                payload: Any) -> None:
        self.outcome.dispositions[task_id] = disposition
        self._tasks_counter.labels(task_id[0], disposition).inc()
        if disposition == DISPOSITION_PRUNED:
            return
        task = self.tasks[task_id]
        if disposition == DISPOSITION_EXECUTED:
            if task.checkpointable and self.on_checkpoint is not None:
                self._unsaved[task_id] = payload
            if (task_id[0] == "partition"
                    and self._consumers_left.get(task_id, 0) == 0):
                # No scheduled consumer (all dependents ran fused in the
                # same envelope): don't retain the assignment.
                payload = LAZY_RESTORE
        self.outcome.payloads[task_id] = payload

    # ------------------------------------------------------------------ #
    def _envelope(self, task,
                  trace: Optional[Dict[str, str]] = None) -> TaskEnvelope:
        inputs = {dep: self._input_payload(dep)
                  for dep in task.input_dependencies}
        return TaskEnvelope(task_id=task.task_id, task=task,
                            graph_fingerprint=task.graph_fingerprint,
                            inputs=inputs, trace=trace)

    def _input_payload(self, dep: TaskId) -> Any:
        payload = self.outcome.payloads.get(dep)
        if payload is LAZY_RESTORE:
            payload = self.store.get(dep)
            if payload is None:
                raise RuntimeError(f"artifact for {dep!r} vanished from the "
                                   "store between pre-pass and dispatch")
            self.outcome.payloads[dep] = payload
        if payload is None:
            raise RuntimeError(f"dependency {dep!r} has no payload")
        return payload

    def _release_consumer(self, dep: TaskId) -> None:
        remaining = self._consumers_left.get(dep)
        if remaining is None:
            return
        remaining -= 1
        self._consumers_left[dep] = remaining
        if remaining == 0 and dep[0] == "partition":
            # The assignment is not part of any dataset record; once the
            # last consumer is done it only costs memory.
            self.outcome.payloads[dep] = LAZY_RESTORE
