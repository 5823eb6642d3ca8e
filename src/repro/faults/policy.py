"""Failure policy: retry budgets, backoff, quarantine, deadlines, liveness.

The :class:`FailurePolicy` is the single knob set threaded through the
scheduler and the executor backends.  Task failures (worker exceptions,
injected faults, execution deadlines) are retried with exponential backoff
up to a per-task attempt budget; a task that exhausts its budget is
*quarantined* — recorded with its last traceback and excluded from the run
together with its transitive dependents — instead of being requeued
forever.  A run that quarantined anything raises :class:`QuarantineError`
so callers cannot mistake a partial dataset for a complete one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Tuple

__all__ = [
    "FailurePolicy",
    "QuarantineError",
    "QuarantineRecord",
]

TaskId = Tuple[Any, ...]


@dataclass(frozen=True)
class FailurePolicy:
    """Retry/quarantine/deadline/heartbeat parameters for one profile run.

    Parameters
    ----------
    max_attempts:
        Total execution attempts per task.  ``1`` disables retries: the
        first failure quarantines the task.
    backoff_base_seconds / backoff_max_seconds:
        Exponential backoff between attempts: the wait after the N-th
        failure is ``base * 2**(N-1)`` capped at ``max``.
    task_deadlines:
        Per-task-kind execution deadlines in seconds (kind is the first
        element of the task id, e.g. ``"quality"``).  A dispatched task
        not completed within its deadline counts as a failed attempt and
        is resubmitted; because tasks are pure, a late completion of the
        original attempt is still accepted.
    default_task_deadline:
        Deadline for kinds not listed in ``task_deadlines``; ``None``
        means no deadline.
    heartbeat_timeout_seconds:
        A queue claim whose mtime (its worker's heartbeat) is older than
        this is presumed orphaned and requeued by the driver's stale
        sweep; spawned workers heartbeat four times per window.
    """

    max_attempts: int = 3
    backoff_base_seconds: float = 0.05
    backoff_max_seconds: float = 2.0
    task_deadlines: Mapping[str, float] = field(default_factory=dict)
    default_task_deadline: Optional[float] = None
    heartbeat_timeout_seconds: float = 10.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.backoff_base_seconds < 0 or self.backoff_max_seconds < 0:
            raise ValueError("backoff seconds must be >= 0")
        for kind, deadline in self.task_deadlines.items():
            if deadline <= 0:
                raise ValueError(
                    f"task deadline for {kind!r} must be > 0")
        if (self.default_task_deadline is not None
                and self.default_task_deadline <= 0):
            raise ValueError("default_task_deadline must be > 0")
        if self.heartbeat_timeout_seconds <= 0:
            raise ValueError("heartbeat_timeout_seconds must be > 0")

    def backoff(self, failures: int) -> float:
        """Seconds to wait before the retry after the N-th failure."""
        if failures < 1:
            return 0.0
        return min(self.backoff_max_seconds,
                   self.backoff_base_seconds * (2 ** (failures - 1)))

    def deadline_for(self, kind: str) -> Optional[float]:
        """Execution deadline for task kind ``kind`` (``None`` = none)."""
        deadline = self.task_deadlines.get(kind)
        if deadline is not None:
            return deadline
        return self.default_task_deadline

    def has_deadlines(self) -> bool:
        return bool(self.task_deadlines) or (
            self.default_task_deadline is not None)


@dataclass
class QuarantineRecord:
    """One poisoned task: identity, attempt count, last error + traceback."""

    task_id: TaskId
    kind: str
    attempts: int
    error: str
    traceback: str = ""
    quarantined_at: float = field(default_factory=time.time)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "task_id": repr(self.task_id),
            "kind": self.kind,
            "attempts": self.attempts,
            "error": self.error,
            "traceback": self.traceback,
            "quarantined_at": self.quarantined_at,
        }


class QuarantineError(RuntimeError):
    """A profile run quarantined one or more poisoned tasks.

    ``records`` lists the quarantined tasks (with last tracebacks);
    ``stats`` carries the run's :class:`~repro.runtime.ProfileRunStats`
    when available so callers can still report what did execute.
    """

    def __init__(self, records: List[QuarantineRecord],
                 stats: Any = None) -> None:
        self.records = list(records)
        self.stats = stats
        ids = ", ".join(repr(record.task_id) for record in self.records[:5])
        more = (f" (+{len(self.records) - 5} more)"
                if len(self.records) > 5 else "")
        super().__init__(
            f"{len(self.records)} task(s) quarantined after exhausting "
            f"their retry budget: {ids}{more}")
