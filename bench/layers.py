"""The traced run: where does the time of each pipeline go?

Everything here measures the program from *outside* — spans from the
benchmark's own recorder around calls into public functions, a timing
``InlineBackend`` subclass passed as ``backend=``, direct calls of single
layers, and deltas of the ``/metrics`` page the server already exports.
No file under ``src/`` knows about it.  End-to-end values are never taken
from this run; it reports how far tracing moved them
(``bench.trace_overhead_pct``) and what no named layer covers
(``bench.unattributed_pct``).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from . import lifecycle
from .catalogue import ALGORITHMS, PARTITIONERS, WorkloadSpec
from .lifecycle import (CONNECTIONS, MODEL_NAME, MODEL_TAG, PARTITION_CYCLE,
                        Checks, PassArtifacts)
from .loadgen import (KeepAliveClient, Sample, ServerProcess, closed_loop,
                      family_total, program_env, scrape_metrics)
from .spans import SpanRecorder
from .stats import percentile

from repro.ease import EASE
from repro.ease.evaluation import SelectionStrategyEvaluator
from repro.ease.features import QualityFeatureBuilder
from repro.ease.persistence import load_ease, save_ease
from repro.ease.quality_predictor import default_quality_model
from repro.ease.selector import OptimizationGoal, SelectionRequest
from repro.generators import generate_realworld_graph
from repro.graph import compute_properties
from repro.graph.store import GraphStore
from repro.ml import DecisionTreeRegressor, StandardScaler
from repro.partitioning import compute_quality_metrics, create_partitioner
from repro.processing import ProcessingEngine, create_algorithm
from repro.runtime import (InlineBackend, ProfileExecutor, build_dataset,
                           build_task_graph)
from repro.serving import ModelRegistry, ModelRouter, SelectionService
from repro.serving.core import RequestCore, parse_graph_payload
from repro.serving.registry import dataset_fingerprint

#: Untraced/traced pass pairs of the offline half.
PASS_PAIRS = 2
#: Measured seconds of the traced request window (``warm`` traffic).
TRACED_WINDOW_SECONDS = 4.0
#: Held-out evaluation families, one graph each, sized like the corpus's
#: largest graph.
EVALUATION_FAMILIES = ("soc", "web", "wiki")

#: The three predictors ``EASE.train`` fits, by attribute name.
PREDICTORS = ("quality_predictor", "partitioning_time_predictor",
              "processing_time_predictor")

#: Task-id head -> layer name.
TASK_KINDS = {"properties": "properties", "partition": "partition",
              "quality": "quality", "partitioning_time_task": "partition_time",
              "processing": "processing"}


def timed(call: Callable[[], object]) -> Tuple[float, object]:
    started = time.perf_counter()
    value = call()
    return time.perf_counter() - started, value


def best_of(repeats: int, call: Callable[[], object]) -> float:
    return min(timed(call)[0] for _ in range(repeats))


def median_ms(seconds: Sequence[float]) -> float:
    return percentile(seconds, 50.0) * 1000.0


class TimingBackend(InlineBackend):
    """Inline execution that records one span per ``submit()``."""

    def __init__(self, recorder: SpanRecorder) -> None:
        super().__init__()
        self._recorder = recorder

    def submit(self, envelope) -> None:
        started = time.perf_counter()
        super().submit(envelope)
        kind = TASK_KINDS.get(envelope.task_id[0], "other")
        self._recorder.add(f"runtime.tasks.{kind}", started,
                           time.perf_counter(), self._recorder.current)


# --------------------------------------------------------------------------- #
# Offline: one traced pass
# --------------------------------------------------------------------------- #
def traced_pass(spec: WorkloadSpec, seed: int, directory: str,
                recorder: SpanRecorder, trace_id: str, checks: Checks
                ) -> Dict[str, float]:
    """The steps of ``lifecycle.offline_pass`` with a span per layer;
    returns the layer table of this pass."""
    span = recorder.span
    with span("pass", trace_id):
        with span("setup"):
            with span("generators.generate"):
                corpus = lifecycle.corpus_graphs(spec, seed)
                requests = lifecycle.request_graphs(spec, seed)
            with span("graph.store.save"):
                store = GraphStore(os.path.join(directory, "store"))
                for graph in corpus + requests:
                    store.save(graph)
        cache_dir = os.path.join(directory, "cache")
        profiler = lifecycle.make_profiler(spec, cache_dir)
        with span("time_to_model"):
            with span("profile"):
                with span("runtime.jobs.plan"):
                    plan = profiler.build_plan(corpus, corpus)
                with span("runtime.scheduler"):
                    results, stats = ProfileExecutor(
                        cache_dir=cache_dir,
                        backend=TimingBackend(recorder)).run(plan)
                with span("runtime.executor.merge"):
                    dataset = build_dataset(plan, results)
            with span("train"):
                system = EASE()
                for name in PREDICTORS:
                    predictor = getattr(system, name)
                    predictor.fit = _spanned(recorder, f"ease.{name}.fit",
                                             predictor.fit)
                system.train(dataset)
                for name in PREDICTORS:
                    del getattr(system, name).fit  # unwrap before pickling
            with span("publish"):
                bundle = os.path.join(directory, "ease.pkl")
                with span("ease.persistence.save"):
                    save_ease(system, bundle)
                with span("serving.registry.publish"):
                    registry = ModelRegistry(
                        os.path.join(directory, "registry"))
                    version = registry.publish(bundle, MODEL_NAME,
                                               dataset=dataset)
                    registry.promote(MODEL_NAME, version.version, MODEL_TAG)
        with span("runtime.artifacts.warm_read"):
            warm_dataset = profiler.profile(corpus, corpus)
    checks.attempted += stats.total_tasks
    checks.failed += stats.quarantined_tasks + stats.skipped_tasks
    lifecycle.check_warm_profile(profiler, warm_dataset,
                                 dataset_fingerprint(dataset), checks)
    warm_stats = profiler.last_run_stats

    # run() builds the task graph itself; time that step on its own and
    # move it from the scheduler's share to the planner's.
    graph_seconds = best_of(2, lambda: build_task_graph(plan))
    totals, own = recorder.totals(), recorder.self_times()
    table = {
        "time_to_model_s": totals["time_to_model"],
        "generators.generate_s": totals["generators.generate"],
        "graph.store.save_s": totals["graph.store.save"],
        "runtime.jobs.plan_s": totals["runtime.jobs.plan"] + graph_seconds,
        "runtime.executor.merge_s": totals["runtime.executor.merge"],
        "runtime.tasks.count": stats.total_tasks,
        "runtime.scheduler.overhead_s":
            own["runtime.scheduler"] - graph_seconds,
        "runtime.artifacts.warm_read_s":
            totals["runtime.artifacts.warm_read"],
        "runtime.artifacts.hit_share":
            warm_stats.cache_hit_tasks / warm_stats.total_tasks,
        "ease.persistence.save_s": totals["ease.persistence.save"],
        "serving.registry.publish_s": totals["serving.registry.publish"],
    }
    for kind in TASK_KINDS.values():
        table[f"runtime.tasks.{kind}_s"] = totals.get(
            f"runtime.tasks.{kind}", 0.0)
    for name in PREDICTORS:
        table[f"ease.{name}.fit_s"] = totals[f"ease.{name}.fit"]
    table["runtime.scheduler.overhead_per_task_us"] = \
        table["runtime.scheduler.overhead_s"] / stats.total_tasks * 1e6
    # What no named layer covers: the glue inside the container spans.
    table["bench.unattributed_pct"] = 100.0 * sum(
        own[name] for name in ("time_to_model", "profile", "train",
                               "publish")) / totals["time_to_model"]
    return table


def _spanned(recorder: SpanRecorder, name: str, call):
    def wrapper(*args, **kwargs):
        with recorder.span(name):
            return call(*args, **kwargs)
    return wrapper


def offline_layers(spec: WorkloadSpec, seed: int, workdir: str,
                   checks: Checks):
    """Alternating untraced/traced passes; returns (layer table of the best
    traced pass, its recorder, artifacts of the last untraced pass)."""
    untraced: Dict[str, List[float]] = {
        name: [] for name in lifecycle.OFFLINE_PHASES}
    traced: List[Tuple[Dict[str, float], SpanRecorder]] = []
    artifacts = None
    for index in range(PASS_PAIRS):
        directory = os.path.join(workdir, f"plain{index}")
        os.makedirs(directory)
        artifacts, _, _ = lifecycle.offline_pass(spec, seed, directory,
                                                 untraced, checks)
        directory = os.path.join(workdir, f"traced{index}")
        os.makedirs(directory)
        recorder = SpanRecorder()
        traced.append((traced_pass(spec, seed, directory, recorder,
                                   f"pass{index}", checks), recorder))
    table, recorder = min(traced, key=lambda item: item[0]["time_to_model_s"])
    table["bench.trace_overhead_pct"] = 100.0 * (
        table.pop("time_to_model_s") / min(untraced["time_to_model_s"]) - 1.0)
    table["runtime.artifacts.cache_write_s"] = \
        min(untraced["cached_profile_s"]) - min(untraced["profile_s"])
    return table, recorder, artifacts


# --------------------------------------------------------------------------- #
# Offline: single layers called directly
# --------------------------------------------------------------------------- #
def runtime_probes(spec: WorkloadSpec, artifacts: PassArtifacts,
                   workdir: str) -> Dict[str, float]:
    """The same plan on the two multi-process backends and at unit
    granularity, without a cache."""
    corpus = artifacts.corpus

    def unit_granular() -> None:
        plan = lifecycle.make_profiler(spec, None).build_plan(corpus, corpus)
        results, _ = ProfileExecutor(backend="inline",
                                     granularity="unit").run(plan)
        build_dataset(plan, results)

    def parallel(backend: str) -> float:
        profiler = lifecycle.make_profiler(spec, None, backend=backend)
        profiler.jobs = 2
        # Keep the worker queue inside the checkout, not under /tmp.
        profiler.queue_dir = os.path.join(workdir, f"queue-{backend}")
        return timed(lambda: profiler.profile(corpus, corpus))[0]

    return {
        "runtime.backends.process_s": parallel("process"),
        "runtime.backends.worker_s": parallel("worker"),
        "runtime.executor.unit_granularity_s": timed(unit_granular)[0],
    }


def kernel_probes(spec: WorkloadSpec, artifacts: PassArtifacts
                  ) -> Dict[str, float]:
    """Each partitioner, the quality metrics and each algorithm, called
    directly on the largest corpus graph at the largest profiled k."""
    graph = max(artifacts.corpus, key=lambda g: g.num_edges)
    k = max(spec.partition_counts + (spec.processing_k,))
    table: Dict[str, float] = {}
    partitions = {}
    for name in PARTITIONERS:
        partitioner = create_partitioner(name, seed=0)
        seconds = best_of(3, lambda: partitions.__setitem__(
            name, partitioner.partition(graph, k)))
        table[f"partitioning.{name}.medges_per_s"] = \
            graph.num_edges / seconds / 1e6
    partition = partitions["hdrf"]
    table["partitioning.metrics.quality_ms"] = 1000.0 * best_of(
        3, lambda: compute_quality_metrics(partition))
    engine = ProcessingEngine()
    for name in ALGORITHMS:
        table[f"processing.{name}.run_ms"] = 1000.0 * best_of(
            2, lambda: engine.run(partition, create_algorithm(name, seed=0)))
    return table


def graph_probes(artifacts: PassArtifacts) -> Dict[str, float]:
    """Store open and property extraction per 12k-edge request graph."""
    store = GraphStore(artifacts.store_dir)
    opens, exact, approximate = [], [], []
    for fingerprint in artifacts.request_fingerprints[:8]:
        opens.append(timed(lambda: store.open(fingerprint))[0])
        # "Exact" as the serving path defines it (sampled triangles).
        exact.append(timed(lambda: compute_properties(
            store.open(fingerprint), exact_triangles=False))[0])
        approximate.append(timed(lambda: compute_properties(
            store.open(fingerprint), mode="approximate"))[0])
    return {"graph.store.open_ms": median_ms(opens),
            "graph.properties.exact_ms": median_ms(exact),
            "graph.properties.approx_ms": median_ms(approximate)}


def learning_probes(artifacts: PassArtifacts, bundle: str) -> Dict[str, float]:
    """The predictors' default model families fitted directly on the
    quality matrix of the pass's dataset."""
    records = artifacts.dataset.quality
    names = sorted({record.partitioner for record in records})
    features = QualityFeatureBuilder(feature_set="basic").fit(names).build(
        [record.properties for record in records],
        [record.partitioner for record in records],
        [record.num_partitions for record in records])
    matrix = StandardScaler().fit(features).transform(features)
    replication = np.array([r.metrics["replication_factor"] for r in records])
    balance = np.array([r.metrics["edge_balance"] for r in records])
    forest = default_quality_model("edge_balance")
    boosting = default_quality_model("replication_factor")
    tree = DecisionTreeRegressor(max_depth=12, min_samples_leaf=2)
    # 64 requests x 11 candidates: one full micro-batch of the server.
    batch = np.resize(matrix, (64 * len(PARTITIONERS), matrix.shape[1]))
    return {
        "ml.forest.fit_s": timed(lambda: forest.fit(matrix, balance))[0],
        "ml.boosting.fit_s":
            timed(lambda: boosting.fit(matrix, replication))[0],
        "ml.tree.fit_ms":
            1000.0 * best_of(3, lambda: tree.fit(matrix, balance)),
        "ml.forest.predict_ms":
            1000.0 * best_of(5, lambda: forest.predict(batch)),
        "ease.persistence.load_s": best_of(3, lambda: load_ease(bundle)),
    }


def quality_probes(spec: WorkloadSpec, seed: int, artifacts: PassArtifacts,
                   system: EASE) -> Dict[str, float]:
    """Is the selector still as good as the paper's?  A held-out set of
    three real-world-like graphs, profiled outside every timed phase."""
    vertices, edges, _ = max(spec.corpus, key=lambda entry: entry[1])
    graphs = [generate_realworld_graph(family, vertices, edges,
                                       seed=seed * 1000 + 900 + index)
              for index, family in enumerate(EVALUATION_FAMILIES)]
    evaluation = lifecycle.make_profiler(spec, None).profile_processing(graphs)
    seconds, comparisons = timed(
        lambda: SelectionStrategyEvaluator(system.selector).compare(evaluation))
    rows = [row for row in comparisons
            if row.goal == OptimizationGoal.END_TO_END]
    selected = sum(row.strategy_seconds["SPS"] * row.num_jobs for row in rows)
    optimal = sum(row.strategy_seconds["SO"] * row.num_jobs for row in rows)
    return {
        "ease.evaluation.compare_s": seconds,
        "ease.evaluation.selection_vs_optimal_pct": 100.0 * selected / optimal,
        "ease.quality_predictor.rf_mape": system.quality_predictor.evaluate(
            evaluation.quality)["replication_factor"]["mape"],
    }


# --------------------------------------------------------------------------- #
# Online
# --------------------------------------------------------------------------- #
def frontend_probes(src_dir: str, artifacts: PassArtifacts, first_body: bytes,
                    checks: Checks):
    """Import cost, spawn -> /healthz, first answer; returns (table, the
    live server) — the caller owns the server."""
    import_seconds = best_of(2, lambda: subprocess.run(
        [sys.executable, "-c", "import repro.cli"], env=program_env(src_dir),
        check=True))
    server = ServerProcess(lifecycle.serve_args(artifacts), src_dir)
    try:
        with KeepAliveClient(server.url) as client:
            status, _ = client.request("GET", "/healthz")
            healthy_at = time.perf_counter()
            checks.require(status == 200, f"/healthz answered {status}")
            seconds, (status, _) = timed(
                lambda: client.request("POST", "/v1/select", first_body))
            checks.attempted += 1
            checks.failed += status != 200
    except BaseException:
        server.stop()
        raise
    return {"serving.frontend.import_s": import_seconds,
            "serving.frontend.spawn_to_listen_s":
                healthy_at - server.spawned_at,
            "serving.frontend.first_answer_ms": seconds * 1000.0}, server


def histogram_mean_ms(before: Dict[str, float], after: Dict[str, float],
                      family: str) -> float:
    """Mean of the observations a histogram took between two scrapes."""
    count = family_total(after, family + "_count") \
        - family_total(before, family + "_count")
    total = family_total(after, family + "_sum") \
        - family_total(before, family + "_sum")
    return 1000.0 * total / count if count else 0.0


def server_side(before: Dict[str, float], after: Dict[str, float]
                ) -> Dict[str, float]:
    def delta(family: str) -> float:
        return family_total(after, family) - family_total(before, family)

    hits = delta("serving_result_cache_hits_total")
    misses = delta("serving_result_cache_misses_total")
    batches = delta("serving_batch_size_count")
    return {
        "serving.metrics.batch_queue_wait_ms": histogram_mean_ms(
            before, after, "serving_batch_queue_wait_seconds"),
        "serving.metrics.inference_ms": histogram_mean_ms(
            before, after, "serving_inference_seconds"),
        "serving.metrics.property_resolve_ms": histogram_mean_ms(
            before, after, "serving_property_resolve_seconds"),
        "serving.metrics.mean_batch_size":
            delta("serving_batch_size_sum") / batches if batches else 0.0,
        "serving.metrics.result_cache_hit_share":
            hits / (hits + misses) if hits + misses else 0.0,
    }


def traced_window(spec: WorkloadSpec, server: ServerProcess,
                  artifacts: PassArtifacts, make_body: Callable[[int], bytes],
                  schedule_length: int):
    """The workload's traffic once more, between two ``/metrics`` scrapes;
    returns (samples, generator CPU share of the loop, server-side table)."""
    if spec.traffic == "cold":
        loop = dict(first_index=1, count=schedule_length - 1)
    else:
        touched = artifacts.request_fingerprints
        closed_loop(server.url, lambda i: lifecycle.touch_body(touched[i]),
                    CONNECTIONS, count=len(touched))
        loop = dict(first_index=1, seconds=TRACED_WINDOW_SECONDS)
    before = scrape_metrics(server.url)
    cpu = time.process_time()
    samples, wall = closed_loop(server.url, make_body, CONNECTIONS, **loop)
    cpu_share = (time.process_time() - cpu) / wall
    return samples, cpu_share, server_side(before, scrape_metrics(server.url))


def replay_in_process(spec: WorkloadSpec, artifacts: PassArtifacts,
                      samples: Sequence[Sample],
                      make_body: Callable[[int], bytes],
                      recorder: SpanRecorder) -> Dict[str, float]:
    """The same request list through ``RequestCore.handle`` without a
    socket; per request one ``serving.core.handle`` span with the
    ``serving.service.select`` call inside it, then ``Response.body()``."""
    router = ModelRouter.from_specs(
        [("default", f"{MODEL_NAME}@{MODEL_TAG}")],
        registry=artifacts.registry_dir, graph_store=artifacts.store_dir)
    service = router.default_service
    service.select = _spanned(recorder, "serving.service.select",
                              service.select)
    core = RequestCore(router)
    handle, own, encode = [], [], []
    with router:
        if spec.traffic == "warm":
            for fingerprint in artifacts.request_fingerprints:
                core.handle("POST", "/v1/select", headers={},
                            body=lifecycle.touch_body(fingerprint))
        first_span = len(recorder.spans)
        for sample in samples:
            body = make_body(sample.index)
            with recorder.span("serving.core.handle", f"req{sample.index}"):
                response = core.handle("POST", "/v1/select", headers={},
                                       body=body)
            with recorder.span("serving.core.encode", f"req{sample.index}"):
                response.body()
    spans = recorder.spans[first_span:]
    selects = {trace_id: end - start for name, start, end, _, trace_id in spans
               if name == "serving.service.select"}
    for name, start, end, _, trace_id in spans:
        if name == "serving.core.handle":
            handle.append(end - start)
            own.append(end - start - selects.get(trace_id, 0.0))
        elif name == "serving.core.encode":
            encode.append(end - start)
    return {"serving.core.handle_ms": median_ms(handle),
            "serving.core.self_ms": median_ms(own),
            "serving.core.encode_ms": median_ms(encode)}


def service_probes(artifacts: PassArtifacts, system: EASE) -> Dict[str, float]:
    """Started vs. unstarted service, distinct vs. repeated keys, first vs.
    repeated graph — the same sequence on every workload."""
    service = SelectionService.from_registry(
        artifacts.registry_dir, MODEL_NAME, MODEL_TAG,
        graph_store=artifacts.store_dir)
    graphs = [service.resolve_graph(fingerprint)
              for fingerprint in artifacts.request_fingerprints[:8]]
    cold = [timed(lambda: service.resolve_properties(graph))[0]
            for graph in graphs]
    warm = [timed(lambda: service.resolve_properties(graph))[0]
            for graph in graphs]
    counter = iter(range(1, 10 ** 6))

    def select(repeated: bool = False) -> float:
        index = next(counter)
        return timed(lambda: service.select(
            graphs[index % len(graphs)], ALGORITHMS[index % len(ALGORITHMS)],
            PARTITION_CYCLE[index % len(PARTITION_CYCLE)],
            num_iterations=1 if repeated else 1 + index))[0]

    inline = [select() for _ in range(40)]
    service.select(graphs[0], ALGORITHMS[0], PARTITION_CYCLE[0],
                   num_iterations=1)
    hits = [timed(lambda: service.select(
        graphs[0], ALGORITHMS[0], PARTITION_CYCLE[0], num_iterations=1))[0]
        for _ in range(40)]
    with service:
        misses = [select() for _ in range(40)]

    properties = service.resolve_properties(graphs[0])
    table = {
        "serving.service.resolve_cold_ms": median_ms(cold),
        "serving.service.resolve_warm_ms": median_ms(warm),
        "serving.service.select_inline_ms": median_ms(inline),
        "serving.service.select_hit_ms": median_ms(hits),
        "serving.service.select_miss_ms": median_ms(misses),
        "serving.service.batch_wait_ms":
            median_ms(misses) - median_ms(inline),
    }
    for size in (1, 16, 64):
        batch = [SelectionRequest(properties, ALGORITHMS[i % len(ALGORITHMS)],
                                  PARTITION_CYCLE[i % len(PARTITION_CYCLE)],
                                  num_iterations=i + 1) for i in range(size)]
        table[f"ease.selector.select_batch_ms.b{size}"] = median_ms(
            [timed(lambda: system.selector.select_batch(batch))[0]
             for _ in range(15)])
    graph = graphs[0]
    payload = json.loads(json.dumps({"graph": {
        "src": graph.src.tolist(), "dst": graph.dst.tolist(),
        "num_vertices": graph.num_vertices}}))
    table["serving.core.parse_edges_ms"] = median_ms(
        [timed(lambda: parse_graph_payload(payload))[0] for _ in range(5)])
    return table


def online_layers(spec: WorkloadSpec, seed: int, artifacts: PassArtifacts,
                  src_dir: str, recorder: SpanRecorder, checks: Checks
                  ) -> Dict[str, float]:
    schedule = lifecycle.request_schedule(spec, seed,
                                          artifacts.request_fingerprints)
    make_body = lifecycle.body_maker(schedule)
    table, server = frontend_probes(src_dir, artifacts, make_body(0), checks)
    with server:
        samples, cpu_share, server_table = traced_window(
            spec, server, artifacts, make_body, len(schedule))
    lifecycle.check_answers(samples, make_body, lifecycle.Oracle(artifacts),
                            checks)
    for sample in samples:
        recorder.add("serving.http.request", sample.started,
                     sample.started + sample.seconds, None,
                     f"req{sample.index}")
    table.update(server_table)
    table.update(replay_in_process(spec, artifacts, samples, make_body,
                                   recorder))
    client_p50 = median_ms([sample.seconds for sample in samples])
    table["serving.http.overhead_ms"] = client_p50 \
        - table["serving.core.handle_ms"] - table["serving.core.encode_ms"]
    table["bench.loadgen_cpu_share"] = cpu_share
    return table


# --------------------------------------------------------------------------- #
def run(spec: WorkloadSpec, seed: int, workdir: str, src_dir: str,
        trace_path: str):
    """Returns (per-layer metrics, record details, checks).

    The traced run is sized by counts (pass pairs, probe repeats, one
    window), not by ``--seconds``.
    """
    checks = Checks()
    table, recorder, artifacts = offline_layers(spec, seed, workdir, checks)
    bundle = os.path.join(os.path.dirname(artifacts.registry_dir), "ease.pkl")
    system = load_ease(bundle)
    table.update(runtime_probes(spec, artifacts, workdir))
    table.update(kernel_probes(spec, artifacts))
    table.update(graph_probes(artifacts))
    table.update(learning_probes(artifacts, bundle))
    table.update(quality_probes(spec, seed, artifacts, system))
    table.update(service_probes(artifacts, system))
    table.update(online_layers(spec, seed, artifacts, src_dir, recorder,
                               checks))
    table["bench.failed_share"] = checks.failed / checks.attempted
    os.makedirs(os.path.dirname(trace_path), exist_ok=True)
    recorder.dump(trace_path)
    details = {"self_times_s": recorder.self_times(),
               "dataset_fingerprint":
                   dataset_fingerprint(artifacts.dataset),
               "spans": len(recorder.spans)}
    return table, details, checks
