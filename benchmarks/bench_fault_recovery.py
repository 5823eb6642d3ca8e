"""Chaos soak: profiling and serving under a seeded fault plan.

The robustness claim of the failure-policy layer (``repro.faults``) is that
a profiling run under injected crashes, torn writes, transient errors and
delays produces a profile **record-identical** to the fault-free baseline —
retries, stale-claim requeues (a claim untouched by its worker's heartbeat
for ``heartbeat_timeout`` goes back to the queue), checkpoint repair and
corrupt-artifact discards absorb every fault — while genuinely poisoned
tasks are *quarantined* (bounded retries, dependents skipped, the failure
reported) instead of retried forever.  On the serving side, a stalled
property resolver must still answer every request, and repeated internal
errors must trip the per-model circuit breaker into fast ``503 +
Retry-After`` rejections.

Four phases:

1. **baseline** — fault-free inline profiling run (the reference records);
2. **chaos** — the same plan executed on a 2-worker queue backend with a
   seeded fault plan injecting four fault kinds across four fault points
   (transient task error, worker crash, torn artifact write, torn
   checkpoint append, delayed queue claim); gate: dataset identical to the
   baseline, zero quarantines;
3. **poison** — an every-hit fault on one task kind; gate: the run raises
   :class:`QuarantineError` with the poisoned tasks recorded and their
   dependents skipped, instead of looping forever;
4. **serving** — a trained service answering requests while the property
   resolver is (a) stalled, then (b) failing; gate: every request is
   answered (a plain ``200`` or breaker ``503 + Retry-After``), never
   hung, and the breaker transitions appear on ``/metrics``.

``--quick`` is the CI smoke mode: tiny corpus, the same gates, no timing.
"""

import argparse
import os
import shutil
import sys
import tempfile
import time

try:
    import pytest
except ImportError:  # pragma: no cover - direct CLI invocation
    pytest = None

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import report_table  # noqa: E402

from repro.faults import (  # noqa: E402
    FailurePolicy,
    FaultPlan,
    QuarantineError,
    clear_plan,
    install_plan,
)
from repro.generators import generate_rmat  # noqa: E402
from repro.ease import EASE, GraphProfiler  # noqa: E402
from repro.obs import get_registry  # noqa: E402
from repro.runtime import (  # noqa: E402
    ProfileExecutor,
    WorkerPoolBackend,
    build_dataset,
)
from repro.serving import (  # noqa: E402
    ModelRouter,
    RequestCore,
    SelectionService,
)

PARTITIONERS = ("2d", "dbh")

#: The chaos plan: four fault kinds across five fault points.  One-shot
#: specs share cross-process once-markers, so a crash injected into one
#: worker is not replayed by its replacement.
CHAOS_PLAN = ",".join([
    "worker.execute:error:2",        # transient task failure -> retried
    "worker.execute:crash:4",        # worker dies mid-run -> respawned,
                                     # claim requeued once its mtime (the
                                     # worker's heartbeat) goes stale
    "artifact.write:torn:3",         # torn cache write -> read as a miss
    "checkpoint.append:torn:1",      # torn journal frame -> repaired
    "queue.ack:torn:1",              # torn result file -> task respooled
    "queue.claim:delay:2:0.05",      # slow claim -> just slow, no failure
])


def make_profiler(seed=0):
    return GraphProfiler(partitioner_names=PARTITIONERS,
                         partition_counts=(2,),
                         processing_partition_count=2,
                         algorithms=("pagerank",), seed=seed)


def corpus(count, scale=96):
    return [generate_rmat(scale, 500 + 100 * s, seed=s, graph_type="rmat")
            for s in range(count)]


def datasets_identical(actual, expected):
    return (actual.quality == expected.quality
            and actual.partitioning_time == expected.partitioning_time
            and actual.processing == expected.processing)


# --------------------------------------------------------------------------- #
# Phases
# --------------------------------------------------------------------------- #
def run_baseline(graphs):
    clear_plan()
    profiler = make_profiler()
    started = time.perf_counter()
    dataset = profiler.profile(graphs, graphs)
    return dataset, time.perf_counter() - started


def _requeued_total():
    family = get_registry().get("runtime_requeued_tasks_total")
    return 0 if family is None else int(family.value)


def run_chaos(graphs, reference, workdir):
    """The same profiling plan under the chaos fault plan, on real workers;
    also returns how many stale claims the driver requeued."""
    requeued_before = _requeued_total()
    state_dir = os.path.join(workdir, "faults-state")
    queue_dir = os.path.join(workdir, "queue")
    install_plan(FaultPlan.parse(CHAOS_PLAN, seed=1234), state_dir=state_dir)
    try:
        plan = make_profiler().build_plan(graphs, graphs)
        backend = WorkerPoolBackend(queue_dir, spawn_workers=2,
                                    poll_interval=0.01,
                                    heartbeat_timeout=2.0)
        executor = ProfileExecutor(
            backend=backend,
            cache_dir=os.path.join(workdir, "cache"),
            checkpoint_path=os.path.join(workdir, "profile.ckpt"),
            checkpoint_every=1,
            policy=FailurePolicy(max_attempts=4, backoff_base_seconds=0.02))
        started = time.perf_counter()
        results, stats = executor.run(plan)
        elapsed = time.perf_counter() - started
        dataset = build_dataset(plan, results)
    finally:
        clear_plan()
    fired = sorted(name for name in os.listdir(state_dir)
                   if name.startswith("fired-")) \
        if os.path.isdir(state_dir) else []
    return dataset, stats, elapsed, fired, _requeued_total() - requeued_before


def run_poison(graphs):
    """An unretryable fault on one task kind must quarantine, not loop."""
    install_plan(FaultPlan.parse("worker.execute:error:*:partition", seed=7))
    try:
        profiler = make_profiler()
        profiler.failure_policy = FailurePolicy(max_attempts=2,
                                                backoff_base_seconds=0.01)
        try:
            profiler.profile(graphs, graphs)
        except QuarantineError as error:
            return error
        return None
    finally:
        clear_plan()


def run_serving(graphs):
    """200s under a stalled resolver, 503s under a failing one."""
    trained = EASE(partitioner_names=PARTITIONERS).train(
        make_profiler().profile(graphs, graphs))
    service = SelectionService(trained, breaker_threshold=3,
                               breaker_reset_seconds=30.0)
    core = RequestCore(ModelRouter({"default": service}))

    def request(seed):
        graph = generate_rmat(128, 900, seed=seed)
        return core.handle("POST", "/v1/select", body={
            "graph": {"src": graph.src.tolist(), "dst": graph.dst.tolist(),
                      "num_vertices": graph.num_vertices},
            "algorithm": "pagerank", "num_partitions": 2,
            "goal": "end_to_end"})

    try:
        # (a) resolver stalled: every request still answers a plain 200.
        install_plan(FaultPlan.parse(
            "serving.resolve_properties:delay:*:0.2", seed=11))
        slow = [request(40 + index) for index in range(3)]
        clear_plan()
        # (b) resolver failing outright: 500s until the breaker opens, then
        # fast 503 + Retry-After rejections.
        install_plan(FaultPlan.parse(
            "serving.resolve_properties:error:*", seed=12))
        failing = [request(60 + index) for index in range(6)]
        clear_plan()
        metrics = core.handle("GET", "/metrics").text
    finally:
        clear_plan()
        service.stop()
    return slow, failing, metrics, service


# --------------------------------------------------------------------------- #
# Orchestration
# --------------------------------------------------------------------------- #
def run(quick=False):
    graphs = corpus(2 if quick else 4, scale=96 if quick else 128)
    workdir = tempfile.mkdtemp(prefix="bench-fault-recovery-")
    try:
        reference, baseline_seconds = run_baseline(graphs)
        chaos_dataset, chaos_stats, chaos_seconds, fired, requeued = \
            run_chaos(graphs, reference, workdir)
        quarantine = run_poison(graphs)
        slow, failing, metrics, service = run_serving(graphs[:2])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    identical = datasets_identical(chaos_dataset, reference)
    stalled_ok = all(
        r.status == 200 and "degraded" not in r.payload for r in slow)
    failing_statuses = [r.status for r in failing]
    breaker_ok = (failing_statuses[:3] == [500, 500, 500]
                  and all(s == 503 for s in failing_statuses[3:]))
    retry_after_ok = all(
        dict(r.headers).get("Retry-After", "").isdigit()
        for r in failing if r.status == 503)
    transitions_ok = ('serving_breaker_transitions_total{' in metrics
                      and 'state="open"' in metrics)

    gates = [
        ("chaos_dataset_identical", identical,
         "worker-pool run under the chaos plan matches the fault-free "
         "baseline record-for-record"),
        ("chaos_zero_quarantines", chaos_stats.quarantined_tasks == 0,
         f"{chaos_stats.quarantined_tasks} tasks quarantined under "
         f"transient faults (want 0)"),
        ("chaos_faults_fired", len(fired) >= 3,
         f"{len(fired)}/{CHAOS_PLAN.count(',') + 1} one-shot chaos faults "
         f"fired ({', '.join(fired)})"),
        ("chaos_crash_requeued", requeued >= 1,
         f"{requeued} stale claims requeued (want >= 1: the crashed "
         f"worker's claim)"),
        ("poison_quarantined", quarantine is not None,
         "poisoned task kind raised QuarantineError"),
        ("poison_records", quarantine is not None
         and all(r.kind == "partition" for r in quarantine.records)
         and quarantine.stats.skipped_tasks > 0,
         "quarantine records carry the poisoned kind and dependents "
         "were skipped"),
        ("serving_degraded", stalled_ok,
         f"{sum(r.status == 200 for r in slow)}/{len(slow)} stalled-resolver "
         f"requests answered 200 with no 'degraded' key"),
        ("serving_breaker", breaker_ok and retry_after_ok,
         f"failing-resolver statuses {failing_statuses} "
         f"(want three 500s then 503s with Retry-After)"),
        ("serving_breaker_metrics", transitions_ok,
         "breaker transitions visible on /metrics"),
    ]

    report_table(
        "fault_recovery",
        ["phase", "seconds", "detail"],
        [
            ["baseline (inline, fault-free)", f"{baseline_seconds:.2f}",
             f"{len(graphs)} graphs x {len(PARTITIONERS)} partitioners"],
            ["chaos (2 workers + fault plan)", f"{chaos_seconds:.2f}",
             f"retries={chaos_stats.retried_tasks} "
             f"deadline_expiries={chaos_stats.deadline_failures} "
             f"requeued={requeued} fired={len(fired)}"],
            ["poison", "-",
             "-" if quarantine is None else
             f"{len(quarantine.records)} quarantined, "
             f"{quarantine.stats.skipped_tasks} dependents skipped"],
            ["serving (stalled resolver)", "-",
             f"statuses={[r.status for r in slow]}"],
            ["serving (failing resolver)", "-",
             f"statuses={failing_statuses}"],
        ],
        title="Fault recovery: profiling and serving under the chaos plan"
              + (" [quick]" if quick else ""),
        gates=gates,
        notes=f"chaos plan: {CHAOS_PLAN}",
    )
    failed = [gate for gate, passed, _ in gates if not passed]
    assert not failed, f"fault-recovery gates failed: {failed}"
    print("fault recovery soak passed: chaos run record-identical, poison "
          "quarantined, serving answered/shed but never hung")


if pytest is not None:
    @pytest.mark.benchmark(group="fault_recovery")
    def test_fault_recovery(benchmark):
        benchmark.pedantic(run, rounds=1, iterations=1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: tiny corpus, same gates")
    args = parser.parse_args(argv)
    run(quick=args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
