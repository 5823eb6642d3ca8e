"""Stdlib-only observability layer: metrics, traces, structured logs.

Three pillars, each importable on its own and free of any dependency on the
rest of :mod:`repro` apart from the stdlib-only leaf :mod:`repro.atomicfile`
(core modules import obs, never the reverse — an AST lint enforces both
directions):

* :mod:`repro.obs.metrics` — a process-wide :class:`MetricsRegistry` of
  labeled counters, gauges and fixed-log-bucket histograms, a Prometheus
  text renderer, and a :class:`ScrapeDir` aggregation path that merges the
  per-pid registries of a prefork serving pool at scrape time.
* :mod:`repro.obs.trace` — span-based tracing (trace/span/parent ids,
  ``contextvars`` propagation, JSONL export) whose context rides task
  envelopes across process boundaries, so one ``repro profile`` yields a
  single stitched trace over driver and workers.
* :mod:`repro.obs.logging` — structured, level-gated logging in JSON or
  human-readable line format, adopted by the serving and worker CLIs.

Everything here is standard library only: the layer must be importable in
the thinnest worker process and can never be the reason a deployment grows
a dependency.
"""

from .logging import configure_logging, get_logger
from .metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ScrapeDir,
    get_registry,
    log_buckets,
    render_prometheus,
)
from .trace import (
    add_event,
    begin_span,
    configure_tracing,
    current_context,
    envelope_context,
    read_trace,
    span,
    task_span,
    tracing_enabled,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ScrapeDir",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "log_buckets",
    "render_prometheus",
    "configure_logging",
    "get_logger",
    "add_event",
    "begin_span",
    "configure_tracing",
    "current_context",
    "envelope_context",
    "read_trace",
    "span",
    "task_span",
    "tracing_enabled",
]
