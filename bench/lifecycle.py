"""One untraced lifecycle run: build a selector from a corpus, then serve it.

Every workload walks the same road a user walks — generate -> graph import
-> cold profile -> train -> publish/promote -> (warm re-profile), each pass
in fresh directories, then ``repro serve`` on that pass's registry and
store for a cold start and a closed loop of ``/v1/select`` — and differs
only in its inputs (corpus, store, traffic) and in how much of the measuring
time the request window gets.  All end-to-end metrics come from here; the
traced run lives in :mod:`layers`.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .catalogue import (ALGORITHMS, PARTITIONERS, REQUEST_GRAPH_SIZE,
                        WINDOW_SHARE, WorkloadSpec)
from .loadgen import KeepAliveClient, Sample, ServerProcess, closed_loop
from .stats import percentile

from repro.ease import EASE, GraphProfiler
from repro.ease.persistence import save_ease
from repro.generators import TABLE2_PARAMETER_COMBINATIONS, generate_rmat
from repro.graph import compute_properties
from repro.graph.store import GraphStore
from repro.serving.registry import ModelRegistry, dataset_fingerprint

MODEL_NAME = "bench"
MODEL_TAG = "production"
#: Client connections = cores of the host this was sized for; never more
#: client threads than cores, so the generator is not the bottleneck.
CONNECTIONS = 2
PARTITION_CYCLE = (4, 8, 16, 32)
#: Rounds (one pass + one server lifetime) of a run, at least.
MIN_ROUNDS = 3
#: Set-up -> cold profile pairs of one pass, each on fresh graph objects:
#: as many as fit into the budget, at least one and at most this many.  Both
#: phases are short and the host's speed shifts from one few-second spell to
#: the next, so they are sampled more often than the pass's one training.
MAX_PAIRS_PER_PASS = 4
PAIR_BUDGET_SECONDS = 1.5
WARM_PROFILES_PER_PASS = 3
MIN_WINDOW_SECONDS = 3.0
WARMUP_SECONDS = 1.0
#: One in this many measured requests is re-answered in-process.
ORACLE_STRIDE = 20
#: Phases one offline pass appends a sample (or several) to.
OFFLINE_PHASES = ("setup_s", "profile_s", "cached_profile_s", "train_s",
                  "publish_s", "time_to_model_s", "reprofile_s")


class Checks:
    """Operation counts and correctness failures of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def require(self, condition: bool, message: str) -> None:
        if not condition:
            self.problems.append(message)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


# --------------------------------------------------------------------------- #
# Inputs (all from the seed)
# --------------------------------------------------------------------------- #
def corpus_graphs(spec: WorkloadSpec, seed: int):
    return [generate_rmat(vertices, edges,
                          TABLE2_PARAMETER_COMBINATIONS[combination - 1],
                          seed=seed * 1000 + index)
            for index, (vertices, edges, combination) in enumerate(spec.corpus)]


def request_graphs(spec: WorkloadSpec, seed: int):
    vertices, edges = REQUEST_GRAPH_SIZE
    return [generate_rmat(
        vertices, edges,
        TABLE2_PARAMETER_COMBINATIONS[index % len(TABLE2_PARAMETER_COMBINATIONS)],
        seed=seed * 1000 + 500 + index)
        for index in range(spec.store_graphs)]


def request_schedule(spec: WorkloadSpec, seed: int,
                     fingerprints: Sequence[str]) -> List[Tuple[str, str, int]]:
    """Seeded order of (fingerprint, algorithm, k) jobs.

    ``warm``: every combination, shuffled, cycled by the window.  ``cold``:
    one job per stored graph, so each is a first hit.
    """
    rng = random.Random(seed)
    if spec.traffic == "cold":
        order = list(fingerprints)
        rng.shuffle(order)
        return [(fingerprint, ALGORITHMS[index % len(ALGORITHMS)],
                 PARTITION_CYCLE[(index // len(ALGORITHMS))
                                 % len(PARTITION_CYCLE)])
                for index, fingerprint in enumerate(order)]
    jobs = [(fingerprint, algorithm, k) for fingerprint in fingerprints
            for algorithm in ALGORITHMS for k in PARTITION_CYCLE]
    rng.shuffle(jobs)
    return jobs


def body_maker(schedule: Sequence[Tuple[str, str, int]]
               ) -> Callable[[int], bytes]:
    """Request ``i`` -> JSON body.  ``num_iterations`` is a running counter,
    so no two requests of a run share a result-cache key."""
    def make(index: int) -> bytes:
        fingerprint, algorithm, k = schedule[index % len(schedule)]
        return json.dumps({"graph_fingerprint": fingerprint,
                           "algorithm": algorithm, "num_partitions": k,
                           "num_iterations": index + 1}).encode("utf-8")
    return make


def touch_body(fingerprint: str) -> bytes:
    """A plain request that loads one graph into the server's caches (no
    ``num_iterations``, so it shares no result-cache key with a measured
    request)."""
    return json.dumps({"graph_fingerprint": fingerprint,
                       "algorithm": ALGORITHMS[0],
                       "num_partitions": PARTITION_CYCLE[0]}).encode("utf-8")


# --------------------------------------------------------------------------- #
# Offline half
# --------------------------------------------------------------------------- #
@dataclass
class PassArtifacts:
    """What the online half needs from the pass it serves."""

    registry_dir: str
    store_dir: str
    request_fingerprints: List[str]
    corpus: list
    dataset: object


def make_profiler(spec: WorkloadSpec, cache_dir: Optional[str],
                  backend="inline") -> GraphProfiler:
    """All 11 partitioners, all 6 algorithms, analytic partitioning time."""
    return GraphProfiler(partition_counts=spec.partition_counts,
                         processing_partition_count=spec.processing_k,
                         partitioning_time_mode="model",
                         cache_dir=cache_dir, backend=backend)


def set_up(spec: WorkloadSpec, seed: int, store_dir: str):
    """Generate every input graph and import it into a fresh store."""
    corpus = corpus_graphs(spec, seed)
    requests = request_graphs(spec, seed)
    store = GraphStore(store_dir)
    for graph in corpus:
        store.save(graph)
    fingerprints = [store.save(graph) for graph in requests]
    return corpus, fingerprints


def publish_model(system: EASE, dataset, directory: str) -> None:
    """``train --output`` then ``models publish --tag production``."""
    bundle = os.path.join(directory, "ease.pkl")
    save_ease(system, bundle)
    registry = ModelRegistry(os.path.join(directory, "registry"))
    version = registry.publish(bundle, MODEL_NAME, dataset=dataset)
    registry.promote(MODEL_NAME, version.version, MODEL_TAG)


def check_warm_profile(profiler: GraphProfiler, warm_dataset, fingerprint: str,
                       checks: Checks) -> None:
    stats = profiler.last_run_stats
    checks.attempted += stats.total_tasks
    checks.require(dataset_fingerprint(warm_dataset) == fingerprint,
                   "warm profile produced a different dataset")
    checks.require(stats.partitions_computed == 0
                   and stats.cache_hit_tasks == stats.total_tasks,
                   f"warm profile was not fully cached: {stats.as_dict()}")


def offline_pass(spec: WorkloadSpec, seed: int, directory: str,
                 samples: Dict[str, List[float]], checks: Checks
                 ) -> Tuple[PassArtifacts, str, int]:
    """One pass in a fresh ``directory``; appends its samples per phase.

    ``profile_s`` is the profiler as the CLI runs it by default, without a
    ``cache_dir``.  The chain behind ``time_to_model_s`` profiles into a
    fresh ``cache_dir`` (``cached_profile_s``, kept in the record): creating
    its one file per task costs 0.04 to 0.7 ms on this filesystem from one
    spell to the next, which a whole chain absorbs and a profile of
    sub-millisecond tasks does not.
    """
    clock = time.perf_counter
    gc.collect()
    cold_stats, datasets = [], []
    spent = 0.0
    while True:
        # Each set-up into its own store; the last one is the one served.
        store_dir = os.path.join(directory, f"store{len(datasets)}")
        profiler = make_profiler(spec, None)
        started = clock()
        corpus, fingerprints = set_up(spec, seed, store_dir)
        set_up_ended = clock()
        datasets.append(profiler.profile(corpus, corpus))
        profiled = clock()
        samples["setup_s"].append(set_up_ended - started)
        samples["profile_s"].append(profiled - set_up_ended)
        cold_stats.append(profiler.last_run_stats)
        spent += profiled - started
        if len(datasets) >= MAX_PAIRS_PER_PASS \
                or spent >= PAIR_BUDGET_SECONDS:
            break

    # Graph objects keep the adjacency they built; a cold profile gets new
    # ones.
    corpus = corpus_graphs(spec, seed)
    profiler = make_profiler(spec, os.path.join(directory, "cache"))
    gc.collect()
    chain_started = clock()
    dataset = profiler.profile(corpus, corpus)
    profiled = clock()
    system = EASE().train(dataset)
    trained = clock()
    publish_model(system, dataset, directory)
    published = clock()
    samples["cached_profile_s"].append(profiled - chain_started)
    samples["train_s"].append(trained - profiled)
    samples["publish_s"].append(published - trained)
    samples["time_to_model_s"].append(published - chain_started)

    cold_stats.append(profiler.last_run_stats)
    for cold in cold_stats:
        checks.attempted += cold.total_tasks
        checks.failed += cold.quarantined_tasks + cold.skipped_tasks
    fingerprint = dataset_fingerprint(dataset)
    checks.require(
        all(dataset_fingerprint(other) == fingerprint for other in datasets),
        "profiles with and without a cache_dir produced different datasets")
    for _ in range(WARM_PROFILES_PER_PASS):
        warm_started = clock()
        warm_dataset = profiler.profile(corpus, corpus)
        samples["reprofile_s"].append(clock() - warm_started)
        check_warm_profile(profiler, warm_dataset, fingerprint, checks)
    artifacts = PassArtifacts(
        registry_dir=os.path.join(directory, "registry"),
        store_dir=store_dir, request_fingerprints=fingerprints,
        corpus=corpus, dataset=dataset)
    return artifacts, fingerprint, cold.total_tasks


# --------------------------------------------------------------------------- #
# Online half: helpers
# --------------------------------------------------------------------------- #
def serve_args(artifacts: PassArtifacts) -> List[str]:
    """Default batching knobs; model by registry tag; graphs by store."""
    return ["--registry", artifacts.registry_dir, "--name", MODEL_NAME,
            "--ref", MODEL_TAG, "--graph-store", artifacts.store_dir]


def first_answer(server: ServerProcess, body: bytes, checks: Checks) -> float:
    """Seconds from spawn to the first 200 of ``POST /v1/select``."""
    with KeepAliveClient(server.url) as client:
        status, payload = client.request("POST", "/v1/select", body)
    elapsed = time.perf_counter() - server.spawned_at
    checks.attempted += 1
    if status != 200:
        checks.failed += 1
        checks.problems.append(
            f"first request answered {status}: {payload[:200]!r}\n"
            + "".join(server.output[-20:]))
    return elapsed


class Oracle:
    """In-process re-answering of sampled requests from the same registry
    version the server loaded."""

    def __init__(self, artifacts: PassArtifacts) -> None:
        self._system = ModelRegistry(artifacts.registry_dir).load(
            MODEL_NAME, MODEL_TAG)
        self._store = GraphStore(artifacts.store_dir)
        self._properties: Dict[str, object] = {}

    def agrees(self, request: Dict, answer: Dict) -> bool:
        fingerprint = request["graph_fingerprint"]
        if fingerprint not in self._properties:
            # The settings the service uses for "exact" mode.
            self._properties[fingerprint] = compute_properties(
                self._store.open(fingerprint), exact_triangles=False)
        expected = self._system.select_partitioner(
            self._properties[fingerprint], request["algorithm"],
            request["num_partitions"],
            num_iterations=request["num_iterations"])
        return (answer.get("selected") == expected.selected
                and answer.get("ranking")
                == [score.partitioner for score in expected.ranking()])


def check_answers(samples: Sequence[Sample], make_body: Callable[[int], bytes],
                  oracle: Oracle, checks: Checks) -> None:
    """Every reply 200 with a known winner; 1 in 20 matches the oracle."""
    checks.attempted += len(samples)
    for sample in samples:
        if sample.status != 200:
            checks.failed += 1
            continue
        answer = json.loads(sample.body)
        if answer.get("selected") not in PARTITIONERS:
            checks.failed += 1
        elif sample.index % ORACLE_STRIDE == 0 and not oracle.agrees(
                json.loads(make_body(sample.index)), answer):
            checks.failed += 1


class Run:
    """State of one untraced run: samples per phase, the pass currently
    served, the measured requests."""

    def __init__(self, spec: WorkloadSpec, seed: int, workdir: str,
                 src_dir: str) -> None:
        self.spec, self.seed = spec, seed
        self.workdir, self.src_dir = workdir, src_dir
        self.checks = Checks()
        self.samples: Dict[str, List[float]] = {
            name: [] for name in OFFLINE_PHASES + (
                "cold_start_s", "latency_s", "wall_s", "server_rss_mb")}
        self.fingerprints: List[str] = []
        self.task_counts: List[int] = []
        self.measured: List[Sample] = []
        self.served: Optional[PassArtifacts] = None
        self.make_body: Optional[Callable[[int], bytes]] = None
        self.schedule_length = 0

    def offline_pass(self) -> None:
        """One pass in a fresh directory; it becomes the served pass."""
        directory = os.path.join(self.workdir,
                                 f"pass{len(self.fingerprints)}")
        os.makedirs(directory)
        previous = self.served
        self.served, fingerprint, tasks = offline_pass(
            self.spec, self.seed, directory, self.samples, self.checks)
        self.fingerprints.append(fingerprint)
        self.task_counts.append(tasks)
        if previous is None:
            schedule = request_schedule(self.spec, self.seed,
                                        self.served.request_fingerprints)
            self.schedule_length = len(schedule)
            self.make_body = body_maker(schedule)

    def lifetime(self, measure: Optional[Callable[[ServerProcess], None]]
                 ) -> None:
        """Spawn -> first answer (a cold-start sample) -> ``measure``."""
        with ServerProcess(serve_args(self.served), self.src_dir) as server:
            self.samples["cold_start_s"].append(
                first_answer(server, self.make_body(0), self.checks))
            if measure is not None:
                measure(server)
            self.samples["server_rss_mb"].append(server.peak_rss_mb())

    def record(self, loop: Tuple[List[Sample], float]) -> None:
        samples, wall = loop
        self.measured.extend(samples)
        self.samples["latency_s"].extend(s.seconds for s in samples)
        self.samples["wall_s"].append(wall)

    def first_hits(self, server: ServerProcess) -> None:
        """``cold`` traffic: request 0 was the cold-start request; the other
        graphs' first hits are the measured requests."""
        self.record(closed_loop(server.url, self.make_body, CONNECTIONS,
                                first_index=1,
                                count=self.schedule_length - 1))

    def window(self, seconds: float) -> Callable[[ServerProcess], None]:
        """``warm`` traffic: touch every graph, warm up, then measure."""
        def measure(server: ServerProcess) -> None:
            touched = self.served.request_fingerprints
            closed_loop(server.url, lambda i: touch_body(touched[i]),
                        CONNECTIONS, count=len(touched))
            warm, _ = closed_loop(server.url, self.make_body, CONNECTIONS,
                                  first_index=1, seconds=WARMUP_SECONDS)
            next_index = 1 + CONNECTIONS \
                + max((s.index for s in warm), default=0)
            self.record(closed_loop(server.url, self.make_body, CONNECTIONS,
                                    first_index=next_index, seconds=seconds))
        return measure


def run(spec: WorkloadSpec, seed: int, seconds: float, workdir: str,
        src_dir: str):
    """Returns (metrics, record details, checks) of one untraced run.

    Passes and server lifetimes alternate, so the samples of every phase
    spread over the whole run: on a shared host slow spells last seconds,
    and a minimum only helps when some sample falls outside them.
    """
    state = Run(spec, seed, workdir, src_dir)
    started = time.perf_counter()
    rounds = 0
    if spec.traffic == "cold":
        reserve, measure = 0.0, state.first_hits
    else:
        window_seconds = max(MIN_WINDOW_SECONDS,
                             seconds * WINDOW_SHARE[spec.focus])
        # The last lifetime also spawns, touches and warms up.
        reserve, measure = window_seconds + WARMUP_SECONDS + 2.0, None
    while True:
        state.offline_pass()
        state.lifetime(measure)
        rounds += 1
        elapsed = time.perf_counter() - started
        if rounds >= MIN_ROUNDS \
                and elapsed + elapsed / rounds > seconds - reserve:
            break
    if spec.traffic == "warm":
        state.lifetime(state.window(window_seconds))

    checks, samples = state.checks, state.samples
    check_answers(state.measured, state.make_body, Oracle(state.served),
                  checks)
    checks.require(len(set(state.fingerprints)) == 1,
                   f"dataset fingerprint changed between passes: "
                   f"{state.fingerprints}")
    checks.require(len(set(state.task_counts)) == 1,
                   f"task count changed between passes: {state.task_counts}")

    latencies_ms = [value * 1000.0 for value in samples["latency_s"]]
    # ru_maxrss is KiB on Linux.
    builder_rss_mb = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    server_rss_mb = max(samples["server_rss_mb"])
    metrics = {
        # Set-up is file creation, whose kernel time varies fivefold here
        # with the fast spells the rare ones: a minimum flips between modes,
        # the median does not.  Every other phase is a minimum.
        "setup_s": percentile(samples["setup_s"], 50.0),
        "profile_s": min(samples["profile_s"]),
        "time_to_model_s": min(samples["time_to_model_s"]),
        "train_s": min(samples["train_s"]),
        "reprofile_s": min(samples["reprofile_s"]),
        "cold_start_s": min(samples["cold_start_s"]),
        "select_p50_ms": percentile(latencies_ms, 50.0),
        "select_p95_ms": percentile(latencies_ms, 95.0),
        "select_rps": len(latencies_ms) / sum(samples["wall_s"]),
        "peak_rss_mb": (builder_rss_mb if spec.focus == "offline"
                        else server_rss_mb),
    }
    details = {
        "passes": rounds, "lifetimes": len(samples["cold_start_s"]),
        "requests": len(state.measured),
        "schedule_length": state.schedule_length,
        "dataset_fingerprint": state.fingerprints[0],
        "tasks_per_pass": state.task_counts[0],
        "dataset_rows": state.served.dataset.summary(),
        "samples": samples,
        "select_p99_ms": percentile(latencies_ms, 99.0),
        "select_max_ms": max(latencies_ms),
        "builder_rss_mb": builder_rss_mb, "server_rss_mb": server_rss_mb,
    }
    return metrics, details, checks
