"""Tests of the task-DAG scheduler, executor backends and cache lifecycle.

The contracts under test:

* the DAG decomposition of a plan has the shape of the design
  (``PartitionTask`` feeding quality / timing / per-workload processing);
* the merged dataset equals the sequential loop record-for-record on every
  backend (inline, process pool, worker queue), at both granularities, for
  arbitrary small grids (property-based) — including out-of-order acks and
  crash/requeue in the worker queue;
* wall-clock timing records carry mean/std/repeats and resume from
  task-level checkpoints;
* the scheduler's pre-pass is a task's only artifact lookup;
* ``gc`` shrinks the artifact store in LRU order and ``cache gc`` reports
  reclaimed bytes.
"""

import os
import pickle
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.atomicfile import write_atomic
from repro.cli import main
from repro.generators import generate_rmat
from repro.ease import GraphProfiler
from repro.ease.persistence import canonical_sorted
from repro.runtime import (
    ArtifactStore,
    CheckpointJournal,
    ProfileExecutor,
    WorkerPoolBackend,
    build_dataset,
    build_task_graph,
)
from repro.runtime.backends import _claim_next, _execute_claim

PARTITIONERS = ("2d", "dbh")
PARTITION_COUNTS = (2,)
PROCESSING_K = 2
ALGORITHMS = ("pagerank", "connected_components")
SEED = 0


def make_profiler(**kwargs):
    return GraphProfiler(partitioner_names=PARTITIONERS,
                         partition_counts=PARTITION_COUNTS,
                         processing_partition_count=PROCESSING_K,
                         algorithms=ALGORITHMS, seed=SEED, **kwargs)


@pytest.fixture(scope="module")
def graphs():
    return [generate_rmat(96, 500, seed=s, graph_type="rmat")
            for s in range(2)]


@pytest.fixture(scope="module")
def reference(graphs):
    return make_profiler().profile(graphs, graphs)


def assert_datasets_identical(actual, expected):
    assert len(actual.quality) == len(expected.quality)
    assert len(actual.partitioning_time) == len(expected.partitioning_time)
    assert len(actual.processing) == len(expected.processing)
    for got, want in zip(actual.quality, expected.quality):
        assert got == want
    for got, want in zip(actual.partitioning_time,
                         expected.partitioning_time):
        assert got == want
    for got, want in zip(actual.processing, expected.processing):
        assert got == want


# --------------------------------------------------------------------------- #
# DAG shape
# --------------------------------------------------------------------------- #
class TestTaskGraphShape:
    def test_unit_decomposes_into_design_dag(self, graphs):
        plan = make_profiler().build_plan(graphs, graphs)
        by_kind = {}
        for task_id, task in build_task_graph(plan).items():
            by_kind.setdefault(task_id[0], []).append(task)
        units = {task.unit_key for task in by_kind["partition"]}
        assert len(units) == len(graphs) * len(PARTITIONERS)
        assert len(by_kind["properties"]) == len(graphs)
        assert all(task.unit_key is None for task in by_kind["properties"])
        for kind in ("partition", "quality", "partitioning_time_task"):
            assert len(by_kind[kind]) == len(units)
            assert {task.unit_key for task in by_kind[kind]} == units
        processing_units = {task.unit_key for task in by_kind["processing"]}
        assert processing_units == units  # every unit is at PROCESSING_K
        assert len(by_kind["processing"]) == len(units) * len(ALGORITHMS)

    def test_dependencies_point_at_the_partition(self, graphs):
        plan = make_profiler().build_plan(graphs, graphs)
        for task_id, task in build_task_graph(plan).items():
            kind = task_id[0]
            if kind in ("properties", "partition"):
                assert task.dependencies == ()
            else:
                (dep,) = task.dependencies
                assert dep[0] == "partition"
                assert dep[1:4] == task_id[1:4]
            if kind in ("quality", "processing"):
                assert task.input_dependencies == task.dependencies
            else:
                # Timing is sequenced after the partition but never ships
                # the assignment across a process boundary.
                assert tuple(task.input_dependencies) == ()


# --------------------------------------------------------------------------- #
# Determinism across backends (property-based)
# --------------------------------------------------------------------------- #
def sequential_reference(graphs, partitioners, counts, processing_k,
                         algorithms):
    profiler = GraphProfiler(partitioner_names=partitioners,
                             partition_counts=counts,
                             processing_partition_count=processing_k,
                             algorithms=algorithms, seed=SEED,
                             backend="inline")
    return profiler.profile(graphs, graphs)


class TestBackendDeterminism:
    @given(num_graphs=st.integers(1, 3),
           partitioners=st.sampled_from([("2d",), ("2d", "dbh"),
                                         ("dbh", "hdrf")]),
           counts=st.sampled_from([(2,), (2, 4)]),
           algorithms=st.sampled_from([(), ("pagerank",),
                                       ("pagerank", "sssp")]),
           granularity=st.sampled_from(["task", "unit"]))
    @settings(max_examples=12, deadline=None)
    def test_task_dag_merge_equals_sequential_loop(
            self, num_graphs, partitioners, counts, algorithms, granularity):
        graphs = [generate_rmat(64, 300, seed=s, graph_type="rmat")
                  for s in range(num_graphs)]
        expected = sequential_reference(graphs, partitioners, counts,
                                        PROCESSING_K, algorithms)
        profiler = GraphProfiler(partitioner_names=partitioners,
                                 partition_counts=counts,
                                 processing_partition_count=PROCESSING_K,
                                 algorithms=algorithms, seed=SEED)
        plan = profiler.build_plan(graphs, graphs)
        executor = ProfileExecutor(granularity=granularity)
        results, _ = executor.run(plan)
        assert_datasets_identical(build_dataset(plan, results), expected)

    @pytest.mark.parametrize("backend_kwargs", [
        {"backend": "inline"},
        {"backend": "process", "jobs": 2},
        {"backend": "worker", "jobs": 2},
    ])
    def test_every_backend_matches_the_reference(self, graphs, reference,
                                                 backend_kwargs):
        profiler = make_profiler(**backend_kwargs)
        dataset = profiler.profile(graphs, graphs)
        assert_datasets_identical(dataset, reference)
        assert_datasets_identical(canonical_sorted(dataset),
                                  canonical_sorted(reference))

    def test_unit_granularity_matches_on_a_pool(self, graphs, reference):
        plan = make_profiler().build_plan(graphs, graphs)
        executor = ProfileExecutor(jobs=2, granularity="unit")
        results, stats = executor.run(plan)
        assert_datasets_identical(build_dataset(plan, results), reference)
        assert stats.partitions_computed == stats.unique_partition_jobs


# --------------------------------------------------------------------------- #
# Worker queue: out-of-order acks, crash requeue, worker CLI
# --------------------------------------------------------------------------- #
class TestWorkerPoolBackend:
    def test_out_of_order_acks_merge_identically(self, graphs, reference,
                                                 tmp_path):
        queue_dir = str(tmp_path / "queue")
        backend = WorkerPoolBackend(queue_dir, spawn_workers=0,
                                    poll_interval=0.01)
        executor = ProfileExecutor(backend=backend)

        # Serve the queue in *reverse* claim order from a second thread: the
        # scheduler keeps dispatching, acks arrive maximally out of order,
        # and the merged dataset must not change.
        import threading

        stop = threading.Event()

        def adversarial_worker():
            store = ArtifactStore(None)
            local_graphs = {}
            while not stop.is_set():
                tasks_dir = os.path.join(queue_dir, "tasks")
                names = sorted(os.listdir(tasks_dir)) \
                    if os.path.isdir(tasks_dir) else []
                claimed = None
                for name in reversed(names):
                    if not name.endswith(".task"):
                        continue
                    source = os.path.join(tasks_dir, name)
                    target = os.path.join(queue_dir, "claimed", name)
                    try:
                        os.rename(source, target)
                    except OSError:
                        continue
                    claimed = target
                    break
                if claimed is None:
                    time.sleep(0.005)
                    continue
                _execute_claim(claimed, queue_dir, local_graphs, store)

        thread = threading.Thread(target=adversarial_worker, daemon=True)
        thread.start()
        try:
            plan = make_profiler().build_plan(graphs, graphs)
            results, _ = executor.run(plan)
        finally:
            stop.set()
            thread.join(timeout=10)
        assert_datasets_identical(build_dataset(plan, results), reference)

    def test_reused_queue_dir_discards_leftovers(self, tmp_path):
        # An interrupted earlier run leaves spooled tasks, claims and
        # uncollected acks behind; a fresh start must not execute or
        # collect any of them.
        queue_dir = str(tmp_path / "queue")
        stale = WorkerPoolBackend(queue_dir, spawn_workers=0)
        stale.start({}, None)
        for subdir, name, payload in (
                ("tasks", "old.task", {"task_id": ("old",)}),
                ("claimed", "held.task", {"task_id": ("held",)}),
                ("results", "done.result",
                 {"task_id": ("foreign",), "ok": True, "payload": 1})):
            with open(os.path.join(queue_dir, subdir, name), "wb") as handle:
                pickle.dump(payload, handle)

        backend = WorkerPoolBackend(queue_dir, spawn_workers=0)
        backend.start({}, None)
        for subdir in ("tasks", "claimed", "results"):
            assert os.listdir(os.path.join(queue_dir, subdir)) == []

    def test_foreign_and_duplicate_acks_are_ignored(self, tmp_path):
        queue_dir = str(tmp_path / "queue")
        backend = WorkerPoolBackend(queue_dir, spawn_workers=0,
                                    poll_interval=0.001)
        backend.start({}, None)
        # One real outstanding task, plus a foreign ack racing in from a
        # previous run's worker (e.g. acked after start()'s cleanup).
        backend._outstanding.add(("real",))
        write_atomic(os.path.join(queue_dir, "results", "a.result"),
                     pickle.dumps({"task_id": ("foreign",), "ok": True,
                                   "payload": 0}))
        write_atomic(os.path.join(queue_dir, "results", "b.result"),
                     pickle.dumps({"task_id": ("real",), "ok": True,
                                   "payload": 42}))
        task_id, payload = backend.next_completed()
        assert task_id == ("real",) and payload == 42
        # Both files were consumed; a duplicate ack of the completed task
        # would likewise be dropped on the next poll.
        assert os.listdir(os.path.join(queue_dir, "results")) == []

    def test_crashed_claim_is_requeued(self, tmp_path):
        queue_dir = str(tmp_path / "queue")
        backend = WorkerPoolBackend(queue_dir, spawn_workers=0)
        backend.start({}, None)
        payload = {"task_id": ("t",), "anything": 1}
        path = os.path.join(queue_dir, "tasks", "abc.task")
        with open(path, "wb") as handle:
            pickle.dump(payload, handle)
        claimed = _claim_next(queue_dir)
        assert claimed is not None
        assert os.listdir(os.path.join(queue_dir, "tasks")) == []
        # The worker "crashed" here: nothing acked, claim file left behind.
        assert backend.requeue_stale(max_age_seconds=0.0) == 1
        assert os.listdir(os.path.join(queue_dir, "tasks")) == ["abc.task"]
        assert os.listdir(os.path.join(queue_dir, "claimed")) == []

    def test_worker_cli_drains_a_queue(self, graphs, tmp_path, capsys):
        # Spool every independent task by hand, then let the CLI worker
        # drain the directory and ack results.
        from repro.runtime.backends import TaskEnvelope, _task_filename
        from repro.runtime.tasks import PartitionTask
        from repro.runtime.jobs import graph_fingerprint

        queue_dir = str(tmp_path / "queue")
        backend = WorkerPoolBackend(queue_dir, spawn_workers=0)
        fingerprint = graph_fingerprint(graphs[0])
        backend.start({fingerprint: graphs[0]}, None)
        for name in PARTITIONERS:
            task = PartitionTask(fingerprint, name, 2, SEED)
            backend.submit(TaskEnvelope(task.task_id, task, fingerprint))

        assert main(["worker", "--queue-dir", queue_dir, "--drain",
                     "--poll-interval", "0.01"]) == 0
        assert f"worker exiting after {len(PARTITIONERS)} tasks" \
            in capsys.readouterr().out
        collected = {backend.next_completed()[0][2]
                     for _ in range(len(PARTITIONERS))}
        assert collected == set(PARTITIONERS)


# --------------------------------------------------------------------------- #
# Crash/resume mid-DAG
# --------------------------------------------------------------------------- #
class TestMidDagResume:
    def test_wall_clock_timing_resumes_from_checkpoint(self, graphs,
                                                       tmp_path):
        checkpoint = str(tmp_path / "wall.checkpoint")
        profiler = make_profiler(partitioning_time_mode="wall_clock",
                                 time_repeats=2)
        first = profiler.profile(graphs, [], checkpoint_path=checkpoint)

        # Drop the quality tasks only: resuming must re-measure nothing
        # (wall-clock samples live in the checkpoint, not the cache) and the
        # timing records must be bit-identical to the first run.
        payloads = CheckpointJournal(checkpoint).load()
        timing_payloads = [key for key in payloads
                           if key[0] == "partitioning_time_task"]
        dropped = [key for key in payloads if key[0] == "quality"]
        for key in dropped:
            del payloads[key]
        CheckpointJournal(checkpoint).rewrite(payloads)

        resumed_profiler = make_profiler(partitioning_time_mode="wall_clock",
                                         time_repeats=2)
        resumed = resumed_profiler.profile(graphs, [],
                                           checkpoint_path=checkpoint)
        stats = resumed_profiler.last_run_stats
        assert stats.checkpoint_tasks >= len(timing_payloads)
        for got, want in zip(resumed.partitioning_time,
                             first.partitioning_time):
            assert got == want
        for record in resumed.partitioning_time:
            assert record.repeats == 2
            assert record.seconds > 0
            assert record.seconds_std >= 0

    def test_interrupted_run_resumes_mid_dag(self, graphs, reference,
                                             tmp_path):
        # Simulate a mid-DAG crash: keep only a prefix of the per-task
        # checkpoint (checkpoint_every=1 writes one per completion), then
        # resume the whole run from it.
        checkpoint = str(tmp_path / "crash.checkpoint")
        profiler = make_profiler()
        plan = profiler.build_plan(graphs, graphs)
        executor = ProfileExecutor(checkpoint_path=checkpoint,
                                   checkpoint_every=1)
        results, _ = executor.run(plan)
        full = CheckpointJournal(checkpoint).load()
        prefix = dict(sorted(full.items(), key=repr)[:len(full) // 3])
        CheckpointJournal(checkpoint).rewrite(prefix)

        resumed_profiler = make_profiler()
        resumed = resumed_profiler.profile(graphs, graphs,
                                           checkpoint_path=checkpoint)
        assert_datasets_identical(resumed, reference)
        stats = resumed_profiler.last_run_stats
        assert stats.checkpoint_tasks == len(prefix)
        assert stats.executed_tasks > 0


# --------------------------------------------------------------------------- #
# Artifact-cache lifecycle
# --------------------------------------------------------------------------- #
class TestCacheLifecycle:
    def _fill(self, store, count, size=1000):
        for index in range(count):
            store.put(("quality", f"artifact-{index:03d}"),
                      np.zeros(size, dtype=np.int8))
            time.sleep(0.002)  # distinct mtimes for a stable LRU order

    def test_max_bytes_evicts_least_recently_used(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        self._fill(store, 8)
        report = store.gc(max_bytes=5000)
        usage = store.disk_usage()
        assert usage["bytes"] <= 5000
        assert report["removed_files"] > 0
        # The newest artifacts survive.
        assert store.path_for(("quality", "artifact-007")) is not None
        assert os.path.exists(store.path_for(("quality", "artifact-007")))
        assert not os.path.exists(store.path_for(("quality", "artifact-000")))

    def test_get_refreshes_recency(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        self._fill(store, 4)
        fresh = ArtifactStore(str(tmp_path))
        assert fresh.get(("quality", "artifact-000")) is not None  # touch
        time.sleep(0.002)
        report = fresh.gc(max_bytes=2500)
        assert report["removed_files"] > 0
        # The touched artifact outlived younger-by-write ones.
        assert os.path.exists(store.path_for(("quality", "artifact-000")))
        assert not os.path.exists(store.path_for(("quality", "artifact-001")))

    def test_gc_reports_reclaimed_bytes(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        self._fill(store, 5)
        before = store.disk_usage()
        report = store.gc(max_bytes=0)
        assert report["reclaimed_bytes"] == before["bytes"]
        assert report["removed_files"] == before["files"]
        assert report["remaining_bytes"] == 0
        assert store.disk_usage() == {"files": 0, "bytes": 0}

    def test_cache_gc_cli(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        store = ArtifactStore(cache_dir)
        self._fill(store, 3, size=500)
        assert main(["cache", "gc", "--cache-dir", cache_dir,
                     "--max-bytes", "0"]) == 0
        out = capsys.readouterr().out
        assert "reclaimed" in out and "3 artifacts" in out
        assert store.disk_usage()["files"] == 0

    def test_cache_gc_cli_rejects_missing_directory(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["cache", "gc", "--cache-dir",
                  str(tmp_path / "does-not-exist"), "--max-bytes", "0"])

    def test_cache_gc_cli_requires_max_bytes(self, tmp_path):
        # Omitting --max-bytes must not silently clear the cache.
        with pytest.raises(SystemExit):
            main(["cache", "gc", "--cache-dir", str(tmp_path)])

    def test_gc_spares_fresh_tmp_files_of_live_writers(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        self._fill(store, 1)
        fresh_tmp = tmp_path / "quality" / "inflight.tmp"
        fresh_tmp.write_bytes(b"mid-write")
        old_tmp = tmp_path / "quality" / "crashed.tmp"
        old_tmp.write_bytes(b"leftover")
        os.utime(old_tmp, (time.time() - 3600, time.time() - 3600))
        store.gc(max_bytes=10 ** 9)  # bound not exceeded: only tmp sweep
        assert fresh_tmp.exists()  # a live writer may still rename it
        assert not old_tmp.exists()

    def test_evicted_cache_recomputes_correctly(self, graphs, reference,
                                                tmp_path):
        # Eviction must never change results — the cache is an optimisation,
        # not a source of truth: gc a warm cache down to almost nothing and
        # re-profile through it.
        cache_dir = str(tmp_path / "cache")
        make_profiler(cache_dir=cache_dir).profile(graphs, graphs)
        report = ArtifactStore(cache_dir).gc(max_bytes=1024)
        assert report["removed_files"] > 0
        again_profiler = make_profiler(cache_dir=cache_dir)
        again = again_profiler.profile(graphs, graphs)
        assert_datasets_identical(again, reference)
        assert again_profiler.last_run_stats.executed_tasks > 0


# --------------------------------------------------------------------------- #
# One artifact lookup per task
# --------------------------------------------------------------------------- #
def _artifact_misses():
    from repro.obs import get_registry

    family = get_registry().get("artifact_store_misses_total")
    return family.value if family is not None else 0.0


@pytest.mark.parametrize("cached", (False, True))
def test_cold_profile_looks_each_task_up_once(cached, tmp_path):
    # 2 graphs x {2d, hdrf} x k in {2, 4}: 8 partition, 8 quality, 8 timing
    # and 4 processing tasks plus 2 properties tasks.  The pre-pass looks
    # up the 22 non-partition tasks (partitions are checked with ``verify``,
    # which counts nothing); executing a task must not look it up again.
    corpus = [generate_rmat(200, 1500, seed=seed, name=f"g{seed}")
              for seed in (0, 1)]
    profiler = GraphProfiler(
        partitioner_names=["2d", "hdrf"], partition_counts=(2, 4),
        processing_partition_count=2, algorithms=["pagerank"],
        cache_dir=str(tmp_path / "cache") if cached else None)
    before = _artifact_misses()
    profiler.profile(corpus, corpus)
    stats = profiler.last_run_stats
    assert stats.executed_tasks == stats.total_tasks == 30
    assert _artifact_misses() - before == 22


def test_warm_reprofile_reads_no_partition(tmp_path, monkeypatch):
    # Every consumer of a partition is satisfied from the cache, so the
    # pre-pass prunes all 8 partitions without unpickling their assignments.
    corpus = [generate_rmat(200, 1500, seed=seed, name=f"g{seed}")
              for seed in (0, 1)]
    cache_dir = str(tmp_path / "cache")

    def make():
        return GraphProfiler(
            partitioner_names=["2d", "hdrf"], partition_counts=(2, 4),
            processing_partition_count=2, algorithms=["pagerank"],
            cache_dir=cache_dir)

    cold = make().profile(corpus, corpus)
    partition_dir = os.path.join(cache_dir, "partition")
    assert len(os.listdir(partition_dir)) == 8
    partition_loads = []
    real_load = pickle.load

    def counting_load(handle, *args, **kwargs):
        if os.path.dirname(getattr(handle, "name", "")) == partition_dir:
            partition_loads.append(handle.name)
        return real_load(handle, *args, **kwargs)

    monkeypatch.setattr(pickle, "load", counting_load)
    warm_profiler = make()
    warm = warm_profiler.profile(corpus, corpus)
    stats = warm_profiler.last_run_stats
    assert stats.executed_tasks == 0
    assert stats.cache_hit_tasks == stats.total_tasks == 30
    assert partition_loads == []
    assert warm.quality == cold.quality
    assert warm.processing == cold.processing


# --------------------------------------------------------------------------- #
# Wall-clock repeats on the record
# --------------------------------------------------------------------------- #
class TestWallClockRepeats:
    def test_repeats_recorded_with_mean_and_std(self, graphs):
        profiler = make_profiler(partitioning_time_mode="wall_clock",
                                 time_repeats=3)
        dataset = profiler.profile(graphs[:1], [])
        assert dataset.partitioning_time
        for record in dataset.partitioning_time:
            assert record.repeats == 3
            assert record.seconds > 0
            assert record.seconds_std >= 0

    def test_model_mode_is_single_exact_sample(self, reference):
        for record in reference.partitioning_time:
            assert record.repeats == 1
            assert record.seconds_std == 0.0

    def test_invalid_repeats_rejected(self):
        with pytest.raises(ValueError):
            make_profiler(time_repeats=0)
        with pytest.raises(ValueError):
            ProfileExecutor(time_repeats=0)


# --------------------------------------------------------------------------- #
# CLI backend selection
# --------------------------------------------------------------------------- #
class TestCLIBackends:
    def test_profile_backend_flag(self, graphs, tmp_path, capsys):
        from repro.graph import GraphStore

        store = GraphStore(str(tmp_path / "graphs"))
        store.save(graphs[0])
        output = str(tmp_path / "profile.pkl")
        assert main(["profile", "--graph-store", store.root,
                     "--output", output,
                     "--partitioners", "2d",
                     "--algorithms", "pagerank",
                     "--partition-counts", "2",
                     "--processing-partitions", "2",
                     "--jobs", "2", "--backend", "worker",
                     "--queue-dir", str(tmp_path / "queue")]) == 0
        out = capsys.readouterr().out
        assert "backend=worker" in out

    def test_invalid_backend_rejected(self):
        with pytest.raises(ValueError):
            ProfileExecutor(backend="teleport")
        with pytest.raises(SystemExit):
            main(["profile", "--graph-store", "x", "--output", "y",
                  "--backend", "teleport"])
