"""The benchmark's fixed vocabulary: workloads, metrics, and which layer
metric should move which end-to-end metric on which workload.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python bench/run.py --write-manifest``); the unit tests fail when the two
drift apart.  Later performance and simplicity PRs are judged by these
names, so they do not change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

__all__ = ["END_TO_END", "PER_LAYER", "RUN_SECONDS", "WORKLOADS",
           "WorkloadSpec", "manifest"]

#: Measuring time of one run (the ``--seconds`` the driver passes).
RUN_SECONDS = 28

PARTITIONERS = ("1dd", "1ds", "2d", "2ps", "crvc", "dbh", "hdrf", "hep1",
                "hep10", "hep100", "ne")
ALGORITHMS = ("pagerank", "connected_components", "sssp", "kcores",
              "synthetic_low", "synthetic_high")


@dataclass(frozen=True)
class WorkloadSpec:
    """Inputs of one lifecycle run (all derived from ``--seed``) and how the
    measuring time is split between the two pipelines."""

    name: str
    why: str
    #: The pipeline this workload is sized to stress: its process is the one
    #: whose peak memory ``peak_rss_mb`` reports, and it sets the window's
    #: share of the measuring time.
    focus: str
    #: R-MAT training corpus: (|V|, |E|, Table II combination 1..9) each.
    corpus: Tuple[Tuple[int, int, int], ...]
    partition_counts: Tuple[int, ...]
    processing_k: int
    #: Request graphs imported into the served graph store.
    store_graphs: int
    #: ``warm``: every graph touched before the measured window, requests
    #: only read the property cache and graph LRU.  ``cold``: every
    #: measured request is the first hit on its graph and writes both.
    traffic: str


#: Share of ``--seconds`` the measured request window of ``warm`` traffic
#: gets, by focus; passes and cold starts alternate in the rest.
WINDOW_SHARE = {"offline": 0.2, "online": 0.35}

#: Request graphs are R-MAT (1500, 12000), cycling the Table II combinations.
REQUEST_GRAPH_SIZE = (1500, 12000)

WORKLOADS: Tuple[WorkloadSpec, ...] = (
    WorkloadSpec(
        name="offline_fanout", focus="offline",
        why="300 sub-millisecond tasks on 3 tiny graphs: per-task runtime "
            "overhead, artifact I/O and ML training dominate; partition "
            "kernels do not show",
        corpus=((64, 400, 1), (128, 900, 5), (192, 1500, 9)),
        partition_counts=(4,), processing_k=4, store_graphs=24,
        traffic="warm"),
    WorkloadSpec(
        name="offline_kernels", focus="offline",
        why="133 tasks on one 30k-edge graph at k=8/32: partition, quality, "
            "processing kernels and property extraction dominate profile_s; "
            "scheduler overhead does not show",
        corpus=((3000, 30000, 5),),
        partition_counts=(8, 32), processing_k=8, store_graphs=24,
        traffic="warm"),
    WorkloadSpec(
        name="online_warm", focus="online",
        why="closed loop of result-cache misses on 24 already-seen graphs: "
            "property cache and graph LRU are only read; framing, batching, "
            "inference and JSON encode do the work",
        corpus=((64, 400, 5), (192, 1500, 5)),
        partition_counts=(4,), processing_k=4, store_graphs=24,
        traffic="warm"),
    WorkloadSpec(
        name="online_cold", focus="online",
        why="every request is the first hit on one of 70 stored graphs: "
            "store open and exact property extraction write the caches "
            "online_warm only reads",
        corpus=((64, 400, 5), (192, 1500, 5)),
        partition_counts=(4,), processing_k=4, store_graphs=70,
        traffic="cold"),
)

#: (name, unit, better, bound, definition)
END_TO_END: Tuple[Tuple[str, str, str, float, str], ...] = (
    ("setup_s", "s", "lower", 0.25,
     "generate corpus + request graphs and GraphStore.save them into a "
     "fresh store; median over the 1 to 4 set-ups of every pass"),
    ("time_to_model_s", "s", "lower", 0.25,
     "one clock around cold profile into a fresh cache_dir -> EASE().train "
     "-> save_ease + registry publish/promote; min over the passes"),
    ("profile_s", "s", "lower", 0.25,
     "GraphProfiler.profile(corpus, corpus) on fresh graphs, inline "
     "backend, no cache_dir (the CLI's default); min over the 1 to 4 calls "
     "of every pass"),
    ("train_s", "s", "lower", 0.25,
     "EASE().train(dataset); min over the passes"),
    ("reprofile_s", "s", "lower", 0.25,
     "the chain's profile call again on its now-warm cache_dir; min over 3 "
     "calls per pass"),
    ("cold_start_s", "s", "lower", 0.25,
     "spawn `python -m repro.cli serve` -> first 200 from POST /v1/select; "
     "min over the server lifetimes"),
    ("select_p50_ms", "ms", "lower", 0.20,
     "client-observed latency of the measured /v1/select requests, p50"),
    ("select_p95_ms", "ms", "lower", 0.20,
     "client-observed latency of the measured /v1/select requests, p95"),
    ("select_rps", "1/s", "higher", 0.20,
     "measured requests completed / measured wall time, closed loop, "
     "2 connections"),
    ("peak_rss_mb", "MB", "lower", 0.10,
     "offline_*: ru_maxrss of the process after its passes; online_*: max "
     "VmHWM of the server processes"),
)


def _layers() -> List[Tuple[str, str, str, Tuple[str, ...]]]:
    """(name, unit, better, moves) with moves as 'metric@workload'."""
    offline = ("offline_fanout", "offline_kernels")
    online = ("online_warm", "online_cold")
    every = offline + online

    def at(metric: str, workloads) -> Tuple[str, ...]:
        return tuple(f"{metric}@{workload}" for workload in workloads)

    rows: List[Tuple[str, str, str, Tuple[str, ...]]] = [
        ("generators.generate_s", "s", "lower", at("setup_s", every)),
        ("graph.store.save_s", "s", "lower", at("setup_s", every)),
        ("runtime.jobs.plan_s", "s", "lower",
         at("profile_s", ("offline_fanout",))
         + at("reprofile_s", ("offline_fanout",))),
        ("runtime.executor.merge_s", "s", "lower",
         at("profile_s", ("offline_fanout",))
         + at("reprofile_s", ("offline_fanout",))),
    ]
    for kind in ("properties", "partition", "quality", "partition_time",
                 "processing"):
        rows.append((f"runtime.tasks.{kind}_s", "s", "lower",
                     at("profile_s", ("offline_kernels",))))
    rows += [
        ("runtime.tasks.count", "count", "lower",
         at("profile_s", offline)),
        ("runtime.scheduler.overhead_s", "s", "lower",
         at("profile_s", ("offline_fanout",))),
        ("runtime.scheduler.overhead_per_task_us", "us", "lower",
         at("profile_s", ("offline_fanout",))),
        ("runtime.artifacts.cache_write_s", "s", "lower",
         at("time_to_model_s", ("offline_fanout",))),
        ("runtime.artifacts.warm_read_s", "s", "lower",
         at("reprofile_s", offline)),
        ("runtime.artifacts.hit_share", "ratio", "higher",
         at("reprofile_s", offline)),
        # Informational: what ROADMAP item 3 needs to decide what to delete.
        ("runtime.backends.process_s", "s", "lower", ()),
        ("runtime.backends.worker_s", "s", "lower", ()),
        ("runtime.executor.unit_granularity_s", "s", "lower", ()),
    ]
    for name in PARTITIONERS:
        rows.append((f"partitioning.{name}.medges_per_s", "Medges/s",
                     "higher", at("profile_s", ("offline_kernels",))))
    rows.append(("partitioning.metrics.quality_ms", "ms", "lower",
                 at("profile_s", ("offline_kernels",))))
    for name in ALGORITHMS:
        rows.append((f"processing.{name}.run_ms", "ms", "lower",
                     at("profile_s", ("offline_kernels",))))
    rows += [
        ("graph.properties.exact_ms", "ms", "lower",
         at("select_p50_ms", ("online_cold",))
         + at("profile_s", ("offline_kernels",))),
        ("graph.properties.approx_ms", "ms", "lower", ()),
        ("graph.store.open_ms", "ms", "lower",
         at("select_p50_ms", ("online_cold",))),
        ("ease.quality_predictor.fit_s", "s", "lower",
         at("train_s", offline) + at("time_to_model_s", offline)),
        ("ease.partitioning_time_predictor.fit_s", "s", "lower",
         at("train_s", offline) + at("time_to_model_s", offline)),
        ("ease.processing_time_predictor.fit_s", "s", "lower",
         at("train_s", offline) + at("time_to_model_s", offline)),
        ("ml.forest.fit_s", "s", "lower", at("train_s", offline)),
        ("ml.boosting.fit_s", "s", "lower", at("train_s", offline)),
        ("ml.tree.fit_ms", "ms", "lower", at("train_s", offline)),
        ("ml.forest.predict_ms", "ms", "lower",
         at("select_p50_ms", ("online_warm",))
         + at("select_rps", ("online_warm",))),
        ("ease.persistence.save_s", "s", "lower",
         at("time_to_model_s", offline)),
        ("ease.persistence.load_s", "s", "lower",
         at("cold_start_s", every)),
        ("serving.registry.publish_s", "s", "lower",
         at("time_to_model_s", offline)),
        ("ease.evaluation.compare_s", "s", "lower", ()),
        # Demoted from end-to-end: across seeds they move by more than any
        # bound the driver accepts (see bench/README.md).  At one seed they
        # are deterministic and must repeat exactly.
        ("ease.evaluation.selection_vs_optimal_pct", "%", "lower", ()),
        ("ease.quality_predictor.rf_mape", "ratio", "lower", ()),
        ("serving.http.overhead_ms", "ms", "lower",
         at("select_p50_ms", online) + at("select_p95_ms", online)
         + at("select_rps", online)),
        ("serving.core.handle_ms", "ms", "lower",
         at("select_p50_ms", ("online_warm",))),
        ("serving.core.self_ms", "ms", "lower",
         at("select_p50_ms", ("online_warm",))),
        ("serving.core.encode_ms", "ms", "lower",
         at("select_p50_ms", ("online_warm",))),
        ("serving.core.parse_edges_ms", "ms", "lower", ()),
        ("serving.service.select_miss_ms", "ms", "lower",
         at("select_p50_ms", ("online_warm",))),
        ("serving.service.select_inline_ms", "ms", "lower",
         at("select_p50_ms", ("online_warm",))),
        ("serving.service.batch_wait_ms", "ms", "lower",
         at("select_p50_ms", ("online_warm",))
         + at("select_p95_ms", ("online_warm",))),
        ("serving.service.select_hit_ms", "ms", "lower", ()),
        ("serving.service.resolve_cold_ms", "ms", "lower",
         at("select_p50_ms", ("online_cold",))
         + at("select_p95_ms", ("online_cold",))),
        ("serving.service.resolve_warm_ms", "ms", "lower",
         at("select_p50_ms", ("online_warm",))),
        ("ease.selector.select_batch_ms.b1", "ms", "lower",
         at("select_p50_ms", ("online_warm",))),
        ("ease.selector.select_batch_ms.b16", "ms", "lower",
         at("select_rps", ("online_warm",))),
        ("ease.selector.select_batch_ms.b64", "ms", "lower",
         at("select_rps", ("online_warm",))),
        # Cross-checks from the server's own /metrics page.
        ("serving.metrics.batch_queue_wait_ms", "ms", "lower", ()),
        ("serving.metrics.inference_ms", "ms", "lower", ()),
        ("serving.metrics.property_resolve_ms", "ms", "lower", ()),
        ("serving.metrics.mean_batch_size", "count", "higher", ()),
        ("serving.metrics.result_cache_hit_share", "ratio", "higher", ()),
        ("serving.frontend.import_s", "s", "lower",
         at("cold_start_s", every)),
        ("serving.frontend.spawn_to_listen_s", "s", "lower",
         at("cold_start_s", every)),
        ("serving.frontend.first_answer_ms", "ms", "lower",
         at("cold_start_s", every)),
        # Hygiene of the benchmark itself.
        ("bench.failed_share", "ratio", "lower", ()),
        ("bench.loadgen_cpu_share", "ratio", "lower", ()),
        ("bench.trace_overhead_pct", "%", "lower", ()),
        ("bench.unattributed_pct", "%", "lower", ()),
    ]
    return rows


PER_LAYER: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = \
    tuple(_layers())


def manifest() -> Dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": spec.name, "why": spec.why}
                      for spec in WORKLOADS],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound, _ in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better, _ in PER_LAYER],
    }
