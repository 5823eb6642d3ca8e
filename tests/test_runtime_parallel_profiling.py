"""Parity, caching and resume tests of the job-based profiling runtime.

The contract under test: profiling through the runtime — sequentially, on a
process pool, from a warm artifact cache, or resumed from a checkpoint —
produces a ``ProfileDataset`` identical to the original sequential profiler
loops, while never partitioning the same ``(graph, partitioner, k)``
combination twice in one run.
"""

import json
import os

import numpy as np
import pytest

from repro.generators import generate_rmat
from reference import sequential_profile
from repro.graph import Graph, compute_properties
from repro.ease import EASE, GraphProfiler, ProfileDataset
from repro.ease.persistence import (
    append_dataset,
    canonical_sorted,
    load_dataset,
    merge_datasets,
    save_dataset,
)
from repro.runtime import (
    ArtifactStore,
    CheckpointJournal,
    build_task_graph,
    graph_fingerprint,
)
from repro.cli import main

PARTITIONERS = ("2d", "dbh", "hdrf")
PARTITION_COUNTS = (2, 4)
PROCESSING_K = 2
ALGORITHMS = ("pagerank", "connected_components")
SEED = 0


@pytest.fixture(scope="module")
def graphs():
    return [generate_rmat(128, 700, seed=s, graph_type="rmat")
            for s in range(3)]


def make_profiler(**kwargs):
    return GraphProfiler(partitioner_names=PARTITIONERS,
                         partition_counts=PARTITION_COUNTS,
                         processing_partition_count=PROCESSING_K,
                         algorithms=ALGORITHMS, seed=SEED, **kwargs)


def seed_path_reference(graphs) -> ProfileDataset:
    """``profile(graphs, graphs)`` by the seed's sequential loops."""
    return sequential_profile(graphs, graphs, PARTITIONERS, PARTITION_COUNTS,
                              PROCESSING_K, ALGORITHMS, seed=SEED)


def assert_datasets_identical(actual: ProfileDataset,
                              expected: ProfileDataset) -> None:
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


@pytest.fixture(scope="module")
def reference(graphs):
    return seed_path_reference(graphs)


@pytest.fixture(scope="module")
def parallel_state(graphs, tmp_path_factory):
    cache_dir = str(tmp_path_factory.mktemp("artifact-cache"))
    profiler = make_profiler(jobs=2, cache_dir=cache_dir)
    dataset = profiler.profile(graphs, graphs)
    return profiler, dataset, cache_dir


class TestSequentialParity:
    def test_runtime_matches_seed_path(self, graphs, reference):
        profiler = make_profiler()
        assert_datasets_identical(profiler.profile(graphs, graphs), reference)

    def test_phase_methods_match_seed_path(self, graphs, reference):
        profiler = make_profiler()
        dataset = profiler.profile_quality(graphs)
        dataset.extend(profiler.profile_processing(graphs))
        assert_datasets_identical(dataset, reference)


class TestParallelCachedParity:
    def test_parallel_identical_to_sequential(self, parallel_state,
                                              reference):
        _, dataset, _ = parallel_state
        assert_datasets_identical(dataset, reference)
        assert_datasets_identical(canonical_sorted(dataset),
                                  canonical_sorted(reference))

    def test_no_combination_partitioned_twice(self, parallel_state, graphs):
        profiler, _, _ = parallel_state
        stats = profiler.last_run_stats
        unique = len(graphs) * len(PARTITIONERS) * len(PARTITION_COUNTS)
        enumerated = unique + len(graphs) * len(PARTITIONERS)
        assert stats.partition_slots_enumerated == enumerated
        assert stats.unique_partition_jobs == unique
        assert stats.partitions_computed == unique
        assert stats.duplicate_partitions_avoided == enumerated - unique

    def test_warm_cache_partitions_nothing(self, parallel_state, graphs,
                                           reference):
        profiler, _, cache_dir = parallel_state
        warm = make_profiler(jobs=2, cache_dir=cache_dir)
        assert_datasets_identical(warm.profile(graphs, graphs), reference)
        stats = warm.last_run_stats
        assert stats.partitions_computed == 0
        assert stats.executed_tasks == 0
        assert stats.cache_hit_rate() == 1.0

    def test_train_from_graphs_parallel_equals_sequential(self, graphs):
        subset = graphs[:2]
        sequential = EASE.train_from_graphs(
            subset, subset, profiler=make_profiler())
        parallel = EASE.train_from_graphs(
            subset, subset, profiler=make_profiler(jobs=2))
        properties = compute_properties(subset[0], seed=SEED)
        columns = ([properties] * len(PARTITIONERS), list(PARTITIONERS),
                   [2] * len(PARTITIONERS))
        lhs = sequential.quality_predictor.predict_metric_columns(*columns)
        rhs = parallel.quality_predictor.predict_metric_columns(*columns)
        for key in lhs:
            assert lhs[key] == pytest.approx(rhs[key])


class TestCheckpointResume:
    def test_resume_completes_partial_run(self, graphs, reference, tmp_path):
        checkpoint = str(tmp_path / "profile.checkpoint")
        profiler = make_profiler()
        full = profiler.profile(graphs, graphs, checkpoint_path=checkpoint)
        assert_datasets_identical(full, reference)

        # Drop every task of alternating units to simulate an interrupted
        # run (checkpoints are task-granular since the DAG refactor).
        payloads = CheckpointJournal(checkpoint).load()
        unit_tasks = {}
        for key in payloads:
            if key[0] in ("quality", "processing",
                          "partitioning_time_task"):
                unit_tasks.setdefault(tuple(key[1:4]), []).append(key)
        dropped = sorted(unit_tasks)[::2]
        dropped_tasks = 0
        for unit_key in dropped:
            for key in unit_tasks[unit_key]:
                del payloads[key]
                dropped_tasks += 1
        CheckpointJournal(checkpoint).rewrite(payloads)

        resumed_profiler = make_profiler()
        resumed = resumed_profiler.profile(graphs, graphs,
                                           checkpoint_path=checkpoint)
        assert_datasets_identical(resumed, reference)
        stats = resumed_profiler.last_run_stats
        # Every journaled task resumes; a dropped unit re-runs its tasks
        # plus the one partition they consume.
        assert stats.checkpoint_tasks == len(payloads)
        assert stats.partitions_computed == len(dropped)
        assert stats.executed_tasks == dropped_tasks + len(dropped)

    def test_resume_mid_unit_skips_completed_tasks(self, graphs, reference,
                                                   tmp_path):
        checkpoint = str(tmp_path / "mid-unit.checkpoint")
        profiler = make_profiler()
        profiler.profile(graphs, graphs, checkpoint_path=checkpoint)

        # Drop only the processing tasks: the quality metrics and timing of
        # every unit stay checkpointed, so resuming executes the workloads
        # (plus the partitions they consume) but never re-measures quality.
        payloads = CheckpointJournal(checkpoint).load()
        dropped = [key for key in payloads if key[0] == "processing"]
        for key in dropped:
            del payloads[key]
        CheckpointJournal(checkpoint).rewrite(payloads)

        resumed_profiler = make_profiler()
        resumed = resumed_profiler.profile(graphs, graphs,
                                           checkpoint_path=checkpoint)
        assert_datasets_identical(resumed, reference)
        stats = resumed_profiler.last_run_stats
        processing_units = len(graphs) * len(PARTITIONERS)
        assert stats.checkpoint_tasks == len(payloads)
        assert stats.executed_tasks == len(dropped) + processing_units
        assert stats.partitions_computed == processing_units

    def test_corrupt_checkpoint_is_ignored(self, graphs, reference,
                                           tmp_path):
        checkpoint = tmp_path / "bad.checkpoint"
        checkpoint.write_bytes(b"not a pickle")
        profiler = make_profiler()
        dataset = profiler.profile(graphs, graphs,
                                   checkpoint_path=str(checkpoint))
        assert_datasets_identical(dataset, reference)


class TestRuntimePrimitives:
    def test_fingerprint_is_content_addressed(self, graphs):
        graph = graphs[0]
        twin = Graph(graph.src.copy(), graph.dst.copy(),
                     num_vertices=graph.num_vertices, name="other-name",
                     graph_type="web")
        assert graph_fingerprint(twin) == graph_fingerprint(graph)
        assert graph_fingerprint(graphs[1]) != graph_fingerprint(graph)

    def test_work_units_deduplicate_overlapping_phases(self, graphs):
        plan = make_profiler().build_plan(graphs, graphs)
        tasks = build_task_graph(plan).values()
        partitions = [t for t in tasks if t.task_id[0] == "partition"]
        # PROCESSING_K is one of PARTITION_COUNTS: both phases meet in one
        # unit, so the quality grid alone fixes the number of partitions.
        assert len(partitions) == (len(graphs) * len(PARTITIONERS)
                                   * len(PARTITION_COUNTS))
        assert len({t.unit_key for t in partitions}) == len(partitions)
        # The processing-k units carry the workloads of the processing phase.
        with_algorithms = {t.unit_key for t in tasks
                           if t.task_id[0] == "processing"}
        assert len(with_algorithms) == len(graphs) * len(PARTITIONERS)
        assert all(k == PROCESSING_K for _, _, k in with_algorithms)

    def test_artifact_store_roundtrip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = ("partition", "fingerprint", "2d", 4, 0)
        store.put(key, np.arange(5))
        fresh = ArtifactStore(str(tmp_path))
        assert key in fresh
        assert np.array_equal(fresh.get(key), np.arange(5))
        assert fresh.get(("partition", "missing", "2d", 4, 0)) is None

    def test_artifact_store_tolerates_corruption(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        key = ("quality", "fingerprint", "2d", 4, 0)
        store.put(key, {"replication_factor": 1.0})
        with open(store.path_for(key), "wb") as handle:
            handle.write(b"garbage")
        fresh = ArtifactStore(str(tmp_path))
        assert fresh.get(key) is None


class TestPartialDatasetPersistence:
    def test_merge_datasets(self, reference):
        halves = [ProfileDataset(), ProfileDataset()]
        halves[0].quality = reference.quality[:5]
        halves[1].quality = reference.quality[5:]
        halves[1].processing = list(reference.processing)
        merged = merge_datasets(halves)
        assert len(merged.quality) == len(reference.quality)
        assert len(merged.processing) == len(reference.processing)
        with pytest.raises(TypeError):
            merge_datasets([object()])

    def test_append_dataset(self, reference, tmp_path):
        path = str(tmp_path / "partial.pkl")
        first = ProfileDataset()
        first.quality = reference.quality[:4]
        append_dataset(first, path)
        second = ProfileDataset()
        second.quality = reference.quality[4:]
        combined = append_dataset(second, path)
        assert len(combined.quality) == len(reference.quality)
        assert len(load_dataset(path).quality) == len(reference.quality)

    def test_canonical_sorted_is_order_insensitive(self, reference):
        shuffled = ProfileDataset()
        shuffled.quality = list(reversed(reference.quality))
        shuffled.partitioning_time = list(
            reversed(reference.partitioning_time))
        shuffled.processing = list(reversed(reference.processing))
        assert_datasets_identical(canonical_sorted(shuffled),
                                  canonical_sorted(reference))


#: The ``run`` object of ``repro profile --stats-json``: a file format, so
#: spelled out here rather than derived from the dataclass that writes it.
STATS_JSON_RUN_KEYS = {
    "cache_hit_rate", "partitions_computed", "partition_slots_enumerated",
    "unique_partition_jobs", "duplicate_partitions_avoided",
    "properties_total", "properties_computed", "total_tasks",
    "executed_tasks", "cache_hit_tasks", "checkpoint_tasks", "backend",
    "retried_tasks", "deadline_failures", "quarantined_tasks",
    "skipped_tasks", "quarantines",
}


class TestCLIParallelProfiling:
    def test_profile_with_jobs_cache_and_resume(self, graphs, tmp_path,
                                                capsys):
        from repro.graph import GraphStore

        store = GraphStore(str(tmp_path / "graphs"))
        for graph in graphs[:2]:
            store.save(graph)
        output = str(tmp_path / "profile.pkl")
        cache_dir = str(tmp_path / "cache")
        stats_path = str(tmp_path / "stats.json")
        arguments = ["profile", "--graph-store", store.root,
                     "--output", output,
                     "--partitioners", "2d", "dbh",
                     "--algorithms", "pagerank",
                     "--partition-counts", "2",
                     "--processing-partitions", "2",
                     "--jobs", "2", "--cache-dir", cache_dir,
                     "--stats-json", stats_path]
        assert main(arguments) == 0
        cold = load_dataset(output)
        assert not os.path.exists(output + ".checkpoint")
        with open(stats_path, encoding="utf-8") as handle:
            run = json.load(handle)["run"]
        assert set(run) == STATS_JSON_RUN_KEYS
        assert run["unique_partition_jobs"] == run["partitions_computed"] == 4
        assert run["cache_hit_rate"] == 0.0

        assert main(arguments + ["--resume"]) == 0
        warm = load_dataset(output)
        assert_datasets_identical(warm, cold)
        assert "cache hit rate=100%" in capsys.readouterr().out
        with open(stats_path, encoding="utf-8") as handle:
            run = json.load(handle)["run"]
        assert set(run) == STATS_JSON_RUN_KEYS
        assert run["cache_hit_rate"] == 1.0
        assert run["cache_hit_tasks"] == run["total_tasks"]
