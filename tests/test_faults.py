"""Tests of the fault-injection harness and the failure-policy layer.

The contracts under test:

* the ``REPRO_FAULTS`` grammar parses/encodes losslessly, one-shot specs
  fire exactly once (also across re-installs sharing a state directory),
  ``*`` specs fire on every matching hit, and key filters scope faults to
  matching call sites;
* the checkpoint journal survives torn appends: every intact frame loads,
  the torn tail is truncated in place, and a file that is not a journal
  is replaced, never extended;
* corrupt artifact files are treated as cache misses (deleted, recomputed)
  instead of crashing the run;
* the scheduler retries transient task failures to a record-identical
  dataset, quarantines poisoned tasks (skipping their dependents) instead
  of retrying forever, and enforces per-task execution deadlines;
* a claim's mtime is its worker's heartbeat: a fresh claim (also of a
  long-spooled task) survives the stale-claim sweep, an untouched one is
  requeued by the waiting driver, and SIGTERM drains a worker gracefully
  (the in-flight task is acked, exit 0).
"""

import os
import pickle
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.faults import (
    CRASH_EXIT_CODE,
    EVERY_HIT,
    FAULT_POINTS,
    FailurePolicy,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    QuarantineError,
    clear_plan,
    fire,
    install_plan,
    tear,
)
from repro.generators import generate_rmat
from repro.ease import GraphProfiler
from repro.obs import get_registry
from repro.runtime import (
    ArtifactStore,
    CheckpointJournal,
    ProfileExecutor,
    WorkerPoolBackend,
    build_dataset,
)
from repro.runtime.backends import (
    InlineBackend,
    TaskEnvelope,
    _WorkerHeartbeat,
    _claim_next,
    run_worker,
)
from repro.runtime.journal import JOURNAL_MAGIC

PARTITIONERS = ("2d", "dbh")


def make_profiler(**kwargs):
    return GraphProfiler(partitioner_names=PARTITIONERS,
                         partition_counts=(2,),
                         processing_partition_count=2,
                         algorithms=("pagerank",), seed=0, **kwargs)


@pytest.fixture(autouse=True)
def disarm():
    """Fault plans are process-global; never leak one into another test."""
    clear_plan()
    yield
    clear_plan()


@pytest.fixture(scope="module")
def graphs():
    return [generate_rmat(96, 500, seed=s, graph_type="rmat")
            for s in range(2)]


@pytest.fixture(scope="module")
def reference(graphs):
    clear_plan()
    return make_profiler().profile(graphs, graphs)


def assert_datasets_identical(actual, expected):
    assert actual.quality == expected.quality
    assert actual.partitioning_time == expected.partitioning_time
    assert actual.processing == expected.processing


# --------------------------------------------------------------------------- #
# Plan grammar
# --------------------------------------------------------------------------- #
class TestFaultGrammar:
    def test_spec_roundtrip(self):
        spec = FaultSpec.parse("worker.execute:error:2")
        assert (spec.point, spec.kind, spec.nth, spec.arg) == \
            ("worker.execute", "error", 2, None)
        assert spec.encode() == "worker.execute:error:2"

    def test_star_means_every_hit(self):
        spec = FaultSpec.parse("queue.claim:delay:*:0.2")
        assert spec.nth == EVERY_HIT
        assert spec.delay_seconds() == 0.2
        assert spec.encode() == "queue.claim:delay:*:0.2"

    def test_kind_specific_args(self):
        assert FaultSpec.parse("artifact.write:torn:1:0.25").keep_fraction() \
            == 0.25
        assert FaultSpec.parse("artifact.write:torn:1").keep_fraction() == 0.5
        assert FaultSpec.parse("worker.execute:error:*:quality") \
            .key_filter() == "quality"
        assert FaultSpec.parse("queue.claim:delay:1").key_filter() is None

    @pytest.mark.parametrize("text", [
        "worker.execute",              # too few parts
        "worker.execute:error",        # no nth
        "worker.execute:bogus:1",      # unknown kind
        "worker.execute:error:0",      # nth < 1
        "worker.execute:error:x",      # non-integer nth
        ":error:1",                    # empty point
        "a:b:c:d:e",                   # too many parts
        "queue.claim:delay:1:-0.5",    # negative delay
        "artifact.write:torn:1:1.5",   # keep fraction out of range
    ])
    def test_bad_specs_rejected(self, text):
        with pytest.raises(ValueError):
            FaultSpec.parse(text)

    def test_plan_roundtrip_and_blank_segments(self):
        text = "worker.execute:error:2,artifact.write:torn:1:0.3"
        plan = FaultPlan.parse(text + ",")
        assert len(plan) == 2
        assert plan.encode() == text

    def test_from_env(self):
        plan = FaultPlan.from_env({"REPRO_FAULTS": "queue.ack:torn:1",
                                   "REPRO_FAULTS_SEED": "7"})
        assert plan is not None and plan.seed == 7
        assert plan.specs[0].point == "queue.ack"
        assert FaultPlan.from_env({"REPRO_FAULTS": "  "}) is None
        assert FaultPlan.from_env({}) is None

    def test_registered_points_cover_the_documented_surface(self):
        for point in ("artifact.write", "checkpoint.append", "queue.claim",
                      "queue.ack", "worker.execute",
                      "serving.resolve_properties"):
            assert point in FAULT_POINTS


# --------------------------------------------------------------------------- #
# Firing semantics
# --------------------------------------------------------------------------- #
class TestFire:
    def test_unarmed_is_a_noop(self):
        assert fire("worker.execute", key="anything") is None

    def test_one_shot_fires_exactly_once_on_the_nth_hit(self):
        install_plan(FaultPlan.parse("worker.execute:error:2"))
        assert fire("worker.execute") is None            # hit 1
        with pytest.raises(InjectedFault):
            fire("worker.execute")                       # hit 2
        assert fire("worker.execute") is None            # hit 3

    def test_every_hit_with_key_filter(self):
        install_plan(FaultPlan.parse("worker.execute:error:*:quality"))
        assert fire("worker.execute", key="('partition', 'g0')") is None
        for _ in range(2):
            with pytest.raises(InjectedFault):
                fire("worker.execute", key="('quality', 'g0', '2d', 2)")

    def test_points_count_hits_independently(self):
        install_plan(FaultPlan.parse("queue.ack:error:1"))
        assert fire("queue.claim") is None
        with pytest.raises(InjectedFault):
            fire("queue.ack")

    def test_delay_sleeps_a_seeded_jittered_interval(self):
        install_plan(FaultPlan.parse("queue.claim:delay:1:0.05", seed=3))
        started = time.perf_counter()
        assert fire("queue.claim") is None
        elapsed = time.perf_counter() - started
        assert 0.02 <= elapsed < 0.5  # within [0.5, 1.0] x 0.05, roughly

    def test_torn_spec_is_returned_for_cooperative_truncation(self):
        install_plan(FaultPlan.parse("artifact.write:torn:1:0.5"))
        spec = fire("artifact.write")
        assert spec is not None and spec.kind == "torn"
        assert tear(b"0123456789", spec) == b"01234"
        assert tear(b"x", spec) == b"x"  # never less than one byte

    def test_once_markers_survive_plan_reinstall(self, tmp_path):
        state = str(tmp_path / "state")
        install_plan(FaultPlan.parse("worker.execute:error:1"),
                     state_dir=state)
        with pytest.raises(InjectedFault):
            fire("worker.execute")
        # A respawned worker arms the same plan with the same state dir;
        # the marker left by the first firing suppresses a repeat.
        install_plan(FaultPlan.parse("worker.execute:error:1"),
                     state_dir=state)
        assert fire("worker.execute") is None

    def test_firing_increments_the_metrics_counter(self):
        counter = get_registry().counter(
            "faults_injected_total", labels=("point", "kind"))
        before = counter.labels("queue.claim", "delay").value
        install_plan(FaultPlan.parse("queue.claim:delay:1:0"))
        fire("queue.claim")
        assert counter.labels("queue.claim", "delay").value == before + 1


# --------------------------------------------------------------------------- #
# FailurePolicy
# --------------------------------------------------------------------------- #
class TestFailurePolicy:
    def test_backoff_doubles_and_caps(self):
        policy = FailurePolicy(backoff_base_seconds=0.05,
                               backoff_max_seconds=0.15)
        assert policy.backoff(0) == 0.0
        assert policy.backoff(1) == 0.05
        assert policy.backoff(2) == 0.1
        assert policy.backoff(3) == 0.15  # capped
        assert policy.backoff(10) == 0.15

    def test_deadline_lookup(self):
        policy = FailurePolicy(task_deadlines={"quality": 2.0},
                               default_task_deadline=5.0)
        assert policy.deadline_for("quality") == 2.0
        assert policy.deadline_for("partition") == 5.0
        assert policy.has_deadlines()
        assert not FailurePolicy().has_deadlines()
        assert FailurePolicy().deadline_for("quality") is None

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"backoff_base_seconds": -1},
        {"task_deadlines": {"quality": 0.0}},
        {"default_task_deadline": -2.0},
        {"heartbeat_timeout_seconds": 0.0},
        {"backoff_max_seconds": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            FailurePolicy(**kwargs)


# --------------------------------------------------------------------------- #
# Checkpoint journal
# --------------------------------------------------------------------------- #
class TestCheckpointJournal:
    def test_append_and_load_roundtrip(self, tmp_path):
        journal = CheckpointJournal(str(tmp_path / "cp.journal"))
        assert journal.load() == {}  # absent file
        journal.append({("a", 1): {"x": 1}})
        journal.append({("b", 2): {"y": 2}})
        assert journal.load() == {("a", 1): {"x": 1}, ("b", 2): {"y": 2}}

    def test_rewrite_compacts(self, tmp_path):
        path = str(tmp_path / "cp.journal")
        journal = CheckpointJournal(path)
        journal.append({"k": 1})
        journal.append({"k": 2})  # superseding frame
        assert journal.load() == {"k": 2}
        journal.rewrite({"k": 2})
        compact_size = os.path.getsize(path)
        journal.append({"k": 3})
        assert os.path.getsize(path) > compact_size
        assert journal.load() == {"k": 3}

    def test_torn_tail_is_truncated_and_repaired(self, tmp_path):
        path = str(tmp_path / "cp.journal")
        journal = CheckpointJournal(path)
        journal.append({"first": [1, 2, 3]})
        intact_size = os.path.getsize(path)
        journal.append({"second": [4, 5, 6]})
        with open(path, "r+b") as handle:
            handle.truncate(os.path.getsize(path) - 3)
        assert journal.load() == {"first": [1, 2, 3]}
        assert os.path.getsize(path) == intact_size  # tail cut away
        # Appends after the repair extend a clean journal.
        journal.append({"third": [7]})
        assert journal.load() == {"first": [1, 2, 3], "third": [7]}

    def test_injected_torn_append_loses_only_the_tail(self, tmp_path):
        path = str(tmp_path / "cp.journal")
        journal = CheckpointJournal(path)
        install_plan(FaultPlan.parse("checkpoint.append:torn:1:0.4"))
        journal.append({"a": 1, "b": 2, "c": 3})
        clear_plan()
        loaded = journal.load()
        assert set(loaded) < {"a", "b", "c"}  # tail lost, prefix intact
        journal.append({"d": 4})
        assert journal.load() == {**loaded, "d": 4}

    def test_foreign_file_loads_empty_and_is_replaced_by_append(
            self, tmp_path, capsys):
        path = str(tmp_path / "cp.pkl")
        foreign = pickle.dumps({"kind": "profile_checkpoint",
                                "format_version": 2,
                                "payloads": {"old": 42}})
        with open(path, "wb") as handle:
            handle.write(foreign)
        journal = CheckpointJournal(path)
        assert journal.load() == {}
        assert "checkpoint_not_a_journal" in capsys.readouterr().out
        with open(path, "rb") as handle:
            assert handle.read() == foreign  # load never touches it
        journal.append({"new": 43})
        with open(path, "rb") as handle:
            content = handle.read()
        assert content.startswith(JOURNAL_MAGIC)  # replaced, not extended
        assert foreign not in content
        assert journal.load() == {"new": 43}
        assert os.listdir(tmp_path) == ["cp.pkl"]  # no temp file left


# --------------------------------------------------------------------------- #
# Artifact-store corruption
# --------------------------------------------------------------------------- #
class TestArtifactCorruption:
    def test_corrupt_pickle_is_a_miss_and_is_deleted(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        store = ArtifactStore(cache_dir)
        key = ("partition", "fp", "2d", 2, 0)
        store.put(key, {"assignment": [0, 1]})
        path = store.path_for(key)
        with open(path, "wb") as handle:
            handle.write(b"\x80corrupt garbage")
        fresh = ArtifactStore(cache_dir)
        assert fresh.get(key) is None
        assert not os.path.exists(path)
        # The slot is reusable after the discard.
        fresh.put(key, {"assignment": [1, 0]})
        assert ArtifactStore(cache_dir).get(key) == {"assignment": [1, 0]}

    def test_verify_detects_and_discards_corruption(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        store = ArtifactStore(cache_dir)
        key = ("partition", "fp", "dbh", 2, 0)
        store.put(key, [1, 2, 3])
        assert ArtifactStore(cache_dir).verify(key)
        path = store.path_for(key)
        with open(path, "wb") as handle:
            handle.write(b"nope")
        fresh = ArtifactStore(cache_dir)
        assert not fresh.verify(key)
        assert not os.path.exists(path)

    def test_torn_write_fault_lands_a_detectable_corrupt_file(self, tmp_path):
        cache_dir = str(tmp_path / "cache")
        store = ArtifactStore(cache_dir)
        key = ("properties", "fp", False, 0)
        install_plan(FaultPlan.parse("artifact.write:torn:1"))
        store.put(key, {"big": list(range(100))})
        clear_plan()
        # The writing store still holds the value in memory...
        assert store.get(key) == {"big": list(range(100))}
        # ...but the disk mirror is torn, and a later run treats it as a
        # miss instead of crashing.
        assert ArtifactStore(cache_dir).get(key) is None


# --------------------------------------------------------------------------- #
# Retry / quarantine / deadlines through the scheduler
# --------------------------------------------------------------------------- #
class TestRetryAndQuarantine:
    def test_transient_fault_is_retried_to_an_identical_dataset(
            self, graphs, reference):
        install_plan(FaultPlan.parse("worker.execute:error:2"))
        profiler = make_profiler(failure_policy=FailurePolicy(
            backoff_base_seconds=0.01))
        dataset = profiler.profile(graphs, graphs)
        stats = profiler.last_run_stats
        assert stats.retried_tasks >= 1
        assert stats.quarantined_tasks == 0
        assert_datasets_identical(dataset, reference)

    def test_poison_task_is_quarantined_with_traceback(self, graphs):
        install_plan(FaultPlan.parse("worker.execute:error:*:quality"))
        profiler = make_profiler(failure_policy=FailurePolicy(
            max_attempts=2, backoff_base_seconds=0.001))
        with pytest.raises(QuarantineError) as excinfo:
            profiler.profile(graphs[:1], graphs[:1])
        records = excinfo.value.records
        assert records and all(r.kind == "quality" for r in records)
        assert all(r.attempts == 2 for r in records)
        assert all("InjectedFault" in r.traceback for r in records)
        stats = excinfo.value.stats
        assert stats is not None
        assert stats.quarantined_tasks == len(records)
        assert [q["kind"] for q in stats.quarantines] == \
            [r.kind for r in records]

    def test_poisoned_dependency_skips_its_dependents(self, graphs):
        install_plan(FaultPlan.parse("worker.execute:error:*:partition"))
        profiler = make_profiler(failure_policy=FailurePolicy(
            max_attempts=2, backoff_base_seconds=0.001))
        with pytest.raises(QuarantineError) as excinfo:
            profiler.profile(graphs[:1], graphs[:1])
        assert all(r.kind == "partition" for r in excinfo.value.records)
        stats = excinfo.value.stats
        # Quality/timing/processing tasks depend on the poisoned partitions
        # and must be skipped, not retried or executed.
        assert stats.skipped_tasks > 0

    def test_profile_cli_reports_quarantine_and_exits_3(self, tmp_path,
                                                        capsys):
        from repro.graph import GraphStore
        from repro.cli import main

        store = GraphStore(str(tmp_path / "graphs"))
        store.save(generate_rmat(96, 500, seed=0))
        install_plan(FaultPlan.parse("worker.execute:error:*:quality"))
        code = main(["profile", "--graph-store", store.root,
                     "--output", str(tmp_path / "p.pkl"),
                     "--partitioners", "2d",
                     "--algorithms", "pagerank",
                     "--partition-counts", "2",
                     "--processing-partitions", "2",
                     "--max-task-attempts", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert "quarantined" in err
        assert "InjectedFault" in err
        assert "--resume" in err

    def test_deadline_expiry_resubmits_the_task(self, graphs, reference):
        class SwallowOnceBackend(InlineBackend):
            """Swallows the first submission of each quality task (a hung
            worker); retried attempts execute inline."""

            def __init__(self):
                super().__init__()
                self.swallowed = set()

            def submit(self, envelope):
                task_id = envelope.task_id
                if task_id[0] == "quality" and task_id not in self.swallowed:
                    self.swallowed.add(task_id)
                    return  # never completes
                super().submit(envelope)

            def next_completed(self, timeout=None):
                if not self._completed:
                    return None  # timed out
                return self._completed.pop(0)

        backend = SwallowOnceBackend()
        policy = FailurePolicy(default_task_deadline=0.2,
                               backoff_base_seconds=0.01)
        plan = make_profiler().build_plan(graphs, graphs)
        executor = ProfileExecutor(backend=backend, policy=policy)
        results, stats = executor.run(plan)
        assert backend.swallowed
        assert stats.deadline_failures >= len(backend.swallowed)
        assert stats.retried_tasks >= len(backend.swallowed)
        assert stats.quarantined_tasks == 0
        assert_datasets_identical(build_dataset(plan, results), reference)


# --------------------------------------------------------------------------- #
# Worker heartbeats and graceful shutdown
# --------------------------------------------------------------------------- #
class TestWorkerHeartbeats:
    HOUR_AGO = 3600.0

    def _spool(self, backend, task_id=("t",)):
        backend.submit(TaskEnvelope(task_id=task_id, task=None,
                                    graph_fingerprint="missing"))

    def _age(self, path):
        old = time.time() - self.HOUR_AGO
        os.utime(path, (old, old))

    def _listing(self, queue_dir, subdir):
        return [name for name in os.listdir(os.path.join(queue_dir, subdir))
                if name.endswith(".task")]

    def test_claim_of_an_old_task_is_fresh(self, tmp_path):
        # The rename keeps a long-spooled task's mtime: without the touch at
        # claim time the next sweep would requeue a claim just taken.
        queue_dir = str(tmp_path / "queue")
        backend = WorkerPoolBackend(queue_dir, spawn_workers=0)
        backend.start({}, None)
        self._spool(backend)
        (name,) = self._listing(queue_dir, "tasks")
        self._age(os.path.join(queue_dir, "tasks", name))
        claimed = _claim_next(queue_dir)
        assert claimed is not None
        assert backend.requeue_stale(backend.heartbeat_timeout) == 0
        assert self._listing(queue_dir, "claimed") == [name]

    def test_fresh_heartbeat_vetoes_the_stale_sweep(self, tmp_path):
        queue_dir = str(tmp_path / "queue")
        backend = WorkerPoolBackend(queue_dir, spawn_workers=0,
                                    heartbeat_timeout=30.0)
        backend.start({}, None)
        self._spool(backend)
        claimed = _claim_next(queue_dir)
        heartbeat = _WorkerHeartbeat(interval=0.01)
        heartbeat.current_claim = claimed
        self._age(claimed)
        heartbeat.start()
        try:
            deadline = time.time() + 10.0
            while time.time() - os.path.getmtime(claimed) > 30.0:
                assert time.time() < deadline, "heartbeat never touched"
                time.sleep(0.01)
            # The owner is alive: its claim stays however long it runs.
            assert backend.requeue_stale(backend.heartbeat_timeout) == 0
        finally:
            heartbeat.stop()
        # The owner stops heartbeating: the same sweep now requeues.
        self._age(claimed)
        assert backend.requeue_stale(backend.heartbeat_timeout) == 1
        assert self._listing(queue_dir, "claimed") == []
        assert len(self._listing(queue_dir, "tasks")) == 1

    def test_waiting_driver_requeues_an_untouched_claim(self, tmp_path):
        queue_dir = str(tmp_path / "queue")
        backend = WorkerPoolBackend(queue_dir, spawn_workers=0,
                                    heartbeat_timeout=0.2)
        backend.start({}, None)
        self._spool(backend)
        claimed = _claim_next(queue_dir)
        self._age(claimed)  # the claiming worker died at once
        # No ack arrives, but the sweep inside the wait runs every
        # heartbeat_timeout and hands the claim back to the queue.
        assert backend.next_completed(timeout=1.0) is None
        assert self._listing(queue_dir, "claimed") == []
        assert self._listing(queue_dir, "tasks") == [
            os.path.basename(claimed)]

    def test_contended_claims_of_old_tasks_are_never_requeued(self,
                                                               tmp_path):
        # More claiming workers than cores, a short switch interval and a
        # sweeper requeueing any claim older than a second: every spooled
        # task is an hour old, so only the touch at claim time keeps each
        # claim fresh.  Every task completes exactly once and none returns.
        queue_dir = str(tmp_path / "queue")
        backend = WorkerPoolBackend(queue_dir, spawn_workers=0)
        backend.start({}, None)
        task_ids = [("t", index) for index in range(40)]
        for task_id in task_ids:
            self._spool(backend, task_id)
        for name in self._listing(queue_dir, "tasks"):
            self._age(os.path.join(queue_dir, "tasks", name))
        requeued = []
        done = threading.Event()

        def sweep():
            while not done.is_set():
                requeued.append(backend.requeue_stale(1.0))

        workers = [threading.Thread(
            target=run_worker, args=(queue_dir,),
            kwargs={"poll_interval": 0.001, "stop_when_idle": True,
                    "heartbeat_interval": 0.01}) for _ in range(4)]
        sweeper = threading.Thread(target=sweep)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            sweeper.start()
            for worker in workers:
                worker.start()
            completed = [backend.next_completed(timeout=30.0)
                         for _ in task_ids]
        finally:
            done.set()
            sys.setswitchinterval(previous)
            for thread in workers + [sweeper]:
                thread.join(timeout=30.0)
        assert not any(thread.is_alive() for thread in workers + [sweeper])
        assert None not in completed
        assert sorted(task_id for task_id, _ in completed) == task_ids
        assert sum(requeued) == 0
        assert self._listing(queue_dir, "claimed") == []

    @pytest.mark.parametrize("interval", [0.0, -1.0])
    def test_heartbeat_interval_must_be_positive(self, interval, tmp_path):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            run_worker(str(tmp_path), stop_when_idle=True,
                       heartbeat_interval=interval)

    def test_sigterm_drains_gracefully(self, tmp_path):
        queue_dir = str(tmp_path / "queue")
        backend = WorkerPoolBackend(queue_dir, spawn_workers=0)
        backend.start({}, None)
        self._spool(backend)
        import repro

        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        # The ack of the one task is held back a second, so SIGTERM lands
        # while it is in flight.
        env = dict(os.environ, PYTHONPATH=package_root,
                   REPRO_FAULTS="queue.ack:delay:1:1.0")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "worker",
             "--queue-dir", queue_dir, "--poll-interval", "0.01",
             "--heartbeat-interval", "0.05"],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        deadline = time.time() + 30.0
        while not self._listing(queue_dir, "claimed"):
            assert time.time() < deadline, "worker never claimed the task"
            assert process.poll() is None, "worker died before SIGTERM"
            time.sleep(0.01)
        process.send_signal(signal.SIGTERM)
        output, _ = process.communicate(timeout=30)
        assert process.returncode == 0
        assert "worker exiting after 1 tasks" in output
        # The in-flight task was acked, not orphaned.
        assert self._listing(queue_dir, "claimed") == []
        assert len(os.listdir(os.path.join(queue_dir, "results"))) == 1

    def test_crash_fault_exit_code_is_distinct(self, tmp_path):
        code = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, sys.argv[1]);"
             "from repro.faults import FaultPlan, install_plan, fire;"
             "install_plan(FaultPlan.parse('worker.execute:crash:1'));"
             "fire('worker.execute')",
             os.path.join(os.path.dirname(os.path.dirname(
                 os.path.abspath(__file__))), "src")],
            ).returncode
        assert code == CRASH_EXIT_CODE
