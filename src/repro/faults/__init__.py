"""Fault injection and failure policy (stdlib-only, like :mod:`repro.obs`).

Two halves:

* :mod:`repro.faults.injection` — deterministic fault injection: named
  fault points armed by a seeded :class:`FaultPlan`
  (``REPRO_FAULTS=point:kind:nth[:arg],...``) that crash, raise, delay or
  tear writes at the N-th hit; zero-overhead no-ops when unarmed.
* :mod:`repro.faults.policy` — the :class:`FailurePolicy` threaded through
  scheduler and backends: retry budgets with exponential backoff, poison
  quarantine, per-kind execution deadlines and the queue's heartbeat
  timeout.

Core modules may import :mod:`repro.faults`; :mod:`repro.faults` imports
only the standard library and :mod:`repro.obs`.
"""

from .injection import (
    CRASH_EXIT_CODE,
    ENV_PLAN,
    ENV_STATE,
    EVERY_HIT,
    FAULT_KINDS,
    FAULT_POINTS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    active_state_dir,
    clear_plan,
    fire,
    install_plan,
    tear,
)
from .policy import FailurePolicy, QuarantineError, QuarantineRecord

__all__ = [
    "CRASH_EXIT_CODE",
    "ENV_PLAN",
    "ENV_STATE",
    "EVERY_HIT",
    "FAULT_KINDS",
    "FAULT_POINTS",
    "FailurePolicy",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "QuarantineError",
    "QuarantineRecord",
    "active_plan",
    "active_state_dir",
    "clear_plan",
    "fire",
    "install_plan",
    "tear",
]
