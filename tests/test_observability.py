"""Tests for the observability layer: metrics registry + Prometheus
rendering, prefork scrape-dir aggregation, span tracing with cross-process
stitching, structured logging, the new CLI surfaces, and the import lint
that keeps ``repro.obs`` stdlib-only.

The two ISSUE acceptance claims live here:

* ``GET /metrics`` on a multi-worker prefork server returns one merged
  Prometheus page whose counters equal the sum across all worker pids;
* ``repro profile`` on the worker-pool backend emits a JSONL trace in which
  every worker-side ``task.execute`` span parents (via the driver's
  ``task.dispatch`` span) back to the single ``profile.run`` root.
"""

import ast
import io
import json
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import urllib.request

import pytest

from repro.cli import main
from repro.generators import generate_rmat
from repro.graph import compute_properties
from repro.ease import EASE, GraphProfiler
from repro.ease.persistence import save_ease
from repro.obs import get_registry
from repro.obs.logging import configure_logging, get_logger
from repro.obs.metrics import (
    MetricsRegistry,
    ScrapeDir,
    log_buckets,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.trace import (
    configure_tracing,
    disable_tracing,
    envelope_context,
    read_trace,
    span,
    span_tree,
    task_span,
    tracing_enabled,
)
from repro.runtime import WorkerPoolBackend
from repro.runtime.backends import _claim_next

PARTITIONERS = ("2d", "dbh", "ne")


@pytest.fixture(scope="module")
def trained_system():
    profiler = GraphProfiler(partitioner_names=PARTITIONERS,
                             partition_counts=(2,),
                             processing_partition_count=2,
                             algorithms=("pagerank",))
    graphs = [generate_rmat(96, 500 + 150 * s, seed=s, graph_type="rmat")
              for s in range(3)]
    return EASE(partitioner_names=PARTITIONERS).train(
        profiler.profile(graphs, graphs))


@pytest.fixture()
def no_tracing():
    """Tracing and logging are process-global; leave both pristine."""
    disable_tracing()
    yield
    disable_tracing()
    configure_logging()


# --------------------------------------------------------------------------- #
# Registry primitives
# --------------------------------------------------------------------------- #
class TestMetricsPrimitives:
    def test_counter_counts_per_label_set(self):
        registry = MetricsRegistry()
        family = registry.counter("requests_total", "requests",
                                  labels=("route",))
        family.labels("/a").inc()
        family.labels("/a").inc(2)
        family.labels("/b").inc()
        assert family.labels("/a").value == 3
        assert family.labels("/b").value == 1

    def test_counter_rejects_negative_increment(self):
        family = MetricsRegistry().counter("c_total")
        with pytest.raises(ValueError):
            family.inc(-1)

    def test_gauge_set_inc_dec_and_set_max(self):
        gauge = MetricsRegistry().gauge("inflight")
        gauge.set(4)
        gauge.inc()
        gauge.dec(2)
        assert gauge.value == 3
        gauge.set_max(10)
        gauge.set_max(5)  # lower than current max: no effect
        assert gauge.value == 10

    def test_histogram_count_sum_and_monotone_quantiles(self):
        histogram = MetricsRegistry().histogram(
            "latency_seconds", buckets=log_buckets(0.5, 2.0, 6))
        for value in range(1, 9):
            histogram.observe(float(value))
        assert histogram.count == 8
        assert histogram.sum == 36.0
        p50, p90, p99 = (histogram.quantile(q) for q in (0.5, 0.9, 0.99))
        assert 0.0 < p50 <= p90 <= p99
        with pytest.raises(ValueError):
            histogram.quantile(1.5)

    def test_get_or_create_returns_the_same_family(self):
        registry = MetricsRegistry()
        first = registry.counter("hits_total", "hits")
        assert registry.counter("hits_total") is first
        assert registry.get("hits_total") is first
        assert registry.get("absent") is None

    def test_type_and_label_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x_total", labels=("a",))
        with pytest.raises(ValueError):
            registry.gauge("x_total", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("x_total", labels=("b",))

    def test_label_arity_enforced(self):
        family = MetricsRegistry().counter("y_total", labels=("a", "b"))
        with pytest.raises(ValueError):
            family.labels("only-one")


# --------------------------------------------------------------------------- #
# Prometheus text rendering
# --------------------------------------------------------------------------- #
class TestPrometheusRendering:
    def test_counter_and_gauge_samples(self):
        registry = MetricsRegistry()
        registry.counter("req_total", "All requests",
                         labels=("route",)).labels("/v1/select").inc(7)
        registry.gauge("inflight", "In-flight requests").set(2)
        text = registry.render()
        assert "# HELP req_total All requests" in text
        assert "# TYPE req_total counter" in text
        assert 'req_total{route="/v1/select"} 7' in text
        assert "# TYPE inflight gauge" in text
        assert "inflight 2" in text.splitlines()

    def test_histogram_buckets_are_cumulative_with_inf(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("h_seconds", buckets=(1.0, 2.0))
        for value in (0.5, 1.5, 1.7, 5.0):
            histogram.observe(value)
        lines = registry.render().splitlines()
        assert 'h_seconds_bucket{le="1"} 1' in lines
        assert 'h_seconds_bucket{le="2"} 3' in lines
        assert 'h_seconds_bucket{le="+Inf"} 4' in lines
        assert "h_seconds_count 4" in lines
        assert any(line.startswith("h_seconds_sum ") for line in lines)

    def test_label_values_are_escaped(self):
        registry = MetricsRegistry()
        registry.counter("e_total", labels=("path",)).labels(
            'a"b\\c\nd').inc()
        assert 'e_total{path="a\\"b\\\\c\\nd"} 1' in registry.render()


# --------------------------------------------------------------------------- #
# Pool merge semantics
# --------------------------------------------------------------------------- #
def _snapshot_with(counter=0, gauge=None, observations=()):
    registry = MetricsRegistry()
    if counter:
        registry.counter("tasks_total", "tasks").inc(counter)
    if gauge is not None:
        registry.gauge("rate", "rate").set(gauge)
    histogram = registry.histogram("wait_seconds", buckets=(1.0, 2.0))
    for value in observations:
        histogram.observe(value)
    return registry.snapshot()


class TestMergeSnapshots:
    def test_counters_and_histograms_sum_across_pids(self):
        merged = merge_snapshots({
            101: _snapshot_with(counter=3, observations=(0.5, 1.5)),
            202: _snapshot_with(counter=4, observations=(5.0,)),
        })
        assert merged["tasks_total"]["children"][()] == 7
        histogram = merged["wait_seconds"]["children"][()]
        assert histogram["count"] == 3
        assert histogram["sum"] == 7.0
        assert histogram["counts"] == [1, 1, 1]

    def test_gauges_grow_a_pid_label_instead_of_summing(self):
        merged = merge_snapshots({
            101: _snapshot_with(gauge=10.0),
            202: _snapshot_with(gauge=30.0),
        })
        assert merged["rate"]["labels"] == ["pid"]
        assert merged["rate"]["children"] == {("101",): 10.0,
                                              ("202",): 30.0}
        # The merged view renders one series per worker.
        text = render_prometheus(merged)
        assert 'rate{pid="101"} 10' in text
        assert 'rate{pid="202"} 30' in text


# --------------------------------------------------------------------------- #
# ScrapeDir: slot files, dead-pid hygiene, torn writes
# --------------------------------------------------------------------------- #
def _write_slot(scrape: ScrapeDir, pid: int, snapshot) -> str:
    path = scrape.slot_path(pid)
    with open(path, "wb") as handle:
        pickle.dump({"pid": pid, "time": time.time(),
                     "snapshot": snapshot}, handle)
    return path


class TestScrapeDir:
    def test_flush_and_merged_render_cover_live_slots(self, tmp_path):
        scrape = ScrapeDir(str(tmp_path / "scrape"))
        registry = MetricsRegistry()
        registry.counter("own_total").inc(2)
        scrape.flush(registry)
        # A second live process: the parent of this test run.
        _write_slot(scrape, os.getppid(), _snapshot_with(counter=5))
        merged, pids = scrape.merged_snapshot()
        assert set(pids) == {os.getpid(), os.getppid()}
        assert merged["own_total"]["children"][()] == 2
        assert merged["tasks_total"]["children"][()] == 5
        text = scrape.render(registry)
        assert "own_total 2" in text.splitlines()

    def test_dead_pid_slots_are_skipped_and_unlinked(self, tmp_path):
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        dead_pid = probe.pid
        scrape = ScrapeDir(str(tmp_path / "scrape"))
        _write_slot(scrape, os.getpid(), _snapshot_with(counter=1))
        dead_path = _write_slot(scrape, dead_pid, _snapshot_with(counter=9))

        # Offline inspection keeps the dead worker's numbers ...
        merged, pids = scrape.merged_snapshot(include_dead=True)
        assert set(pids) == {os.getpid(), dead_pid}
        assert merged["tasks_total"]["children"][()] == 10
        assert os.path.exists(dead_path)

        # ... the live scrape path drops and reaps them.
        merged, pids = scrape.merged_snapshot()
        assert pids == [os.getpid()]
        assert merged["tasks_total"]["children"][()] == 1
        assert not os.path.exists(dead_path)

    def test_torn_slot_writes_are_skipped(self, tmp_path):
        scrape = ScrapeDir(str(tmp_path / "scrape"))
        _write_slot(scrape, os.getpid(), _snapshot_with(counter=3))
        with open(scrape.slot_path(os.getppid()), "wb") as handle:
            handle.write(b"\x80\x04 torn mid-write")
        merged, pids = scrape.merged_snapshot()
        assert pids == [os.getpid()]
        assert merged["tasks_total"]["children"][()] == 3

    def test_non_slot_files_are_ignored(self, tmp_path):
        scrape = ScrapeDir(str(tmp_path / "scrape"))
        with open(os.path.join(scrape.path, "notes.txt"), "w") as handle:
            handle.write("not a slot")
        with open(os.path.join(scrape.path, "abc.slot"), "w") as handle:
            handle.write("non-numeric stem")
        merged, pids = scrape.merged_snapshot()
        assert merged == {} and pids == []


# --------------------------------------------------------------------------- #
# Structured logging
# --------------------------------------------------------------------------- #
class TestStructuredLogging:
    @pytest.fixture(autouse=True)
    def restore_config(self):
        yield
        configure_logging()

    def test_json_format_emits_one_object_per_line(self):
        stream = io.StringIO()
        configure_logging(level="debug", format="json", stream=stream)
        logger = get_logger("repro.test")
        logger.info("request served", route="/v1/select", seconds=0.25)
        record = json.loads(stream.getvalue())
        assert record["level"] == "info"
        assert record["logger"] == "repro.test"
        assert record["event"] == "request served"
        assert record["route"] == "/v1/select"
        assert record["seconds"] == 0.25

    def test_level_gate_suppresses_below_threshold(self):
        stream = io.StringIO()
        configure_logging(level="warning", stream=stream)
        logger = get_logger("repro.test")
        logger.info("hidden")
        logger.warning("visible")
        lines = stream.getvalue().splitlines()
        assert len(lines) == 1 and "visible" in lines[0]

    def test_human_format_keeps_event_text_verbatim(self):
        # The serve CLI's URL announcement is parsed with
        # ``line.rsplit(" on ", 1)`` by tests and the load benchmark; the
        # human format must keep the event text at the end of the line.
        stream = io.StringIO()
        configure_logging(stream=stream)
        get_logger("repro.serve").info(
            "serving model 'ease' version None on http://127.0.0.1:8080")
        line = stream.getvalue().strip()
        assert line.rsplit(" on ", 1)[1] == "http://127.0.0.1:8080"
        assert " INFO    repro.serve  serving model" in line

    def test_invalid_level_and_format_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="chatty")
        with pytest.raises(ValueError):
            configure_logging(format="xml")

    def test_worker_cli_exit_line_survives_in_json_format(self, tmp_path,
                                                          capsys):
        queue_dir = str(tmp_path / "queue")
        backend = WorkerPoolBackend(queue_dir, spawn_workers=0)
        backend.start({}, None)
        assert main(["worker", "--queue-dir", queue_dir, "--drain",
                     "--poll-interval", "0.01", "--log-format",
                     "json"]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert record["event"] == "worker exiting after 0 tasks"
        assert record["logger"] == "repro.worker"


# --------------------------------------------------------------------------- #
# Trace units
# --------------------------------------------------------------------------- #
class TestTraceUnits:
    def test_spans_are_noops_until_configured(self, no_tracing):
        assert not tracing_enabled()
        with span("anything") as context:
            assert context is None
        assert envelope_context() is None

    def test_serve_has_no_trace_dir(self, tmp_path, capsys):
        """Serving opens no span, so ``serve`` offers no trace directory
        (``profile --trace-dir`` does)."""
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", "--model", "irrelevant.pkl",
                  "--trace-dir", str(tmp_path / "trace")])
        assert exit_info.value.code == 2
        assert "--trace-dir" in capsys.readouterr().err
        assert not (tmp_path / "trace").exists()

    def test_nested_spans_share_a_trace_and_parent_correctly(self, tmp_path,
                                                             no_tracing):
        directory = str(tmp_path / "trace")
        configure_tracing(directory)
        with span("outer", attrs={"k": 1}) as outer:
            with span("inner") as inner:
                assert inner["trace_id"] == outer["trace_id"]
        records = read_trace(directory)
        by_name = {record["name"]: record for record in records}
        assert by_name["inner"]["parent_id"] == outer["span_id"]
        assert by_name["outer"]["parent_id"] is None
        assert by_name["outer"]["attrs"] == {"k": 1}
        assert by_name["outer"]["duration"] >= by_name["inner"]["duration"]

    def test_envelope_context_carries_the_trace_dir(self, tmp_path,
                                                    no_tracing):
        directory = str(tmp_path / "trace")
        configure_tracing(directory)
        assert envelope_context() is None  # no span open yet
        with span("driver") as context:
            envelope = envelope_context()
        assert envelope == {"trace_id": context["trace_id"],
                            "span_id": context["span_id"],
                            "trace_dir": directory}

    def test_task_span_autoconfigures_an_unconfigured_process(self, tmp_path,
                                                              no_tracing):
        # Simulates a queue worker: tracing off, the envelope context alone
        # must bring the span into the driver's trace directory.
        directory = str(tmp_path / "trace")
        envelope = {"trace_id": "t" * 32, "span_id": "s" * 16,
                    "trace_dir": directory}
        assert not tracing_enabled()
        with task_span(envelope, "task.execute", attrs={"kind": "partition"}):
            pass
        assert tracing_enabled()
        records = read_trace(directory)
        assert len(records) == 1
        assert records[0]["trace_id"] == "t" * 32
        assert records[0]["parent_id"] == "s" * 16
        with task_span(None, "task.execute") as context:
            assert context is None  # untraced envelope: no-op

    def test_read_trace_filters_by_id_and_skips_torn_lines(self, tmp_path,
                                                           no_tracing):
        directory = str(tmp_path / "trace")
        configure_tracing(directory)
        with span("first"):
            pass
        with span("second") as second:
            pass
        path = os.path.join(directory, f"spans-{os.getpid()}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"type": "span", "truncat')
        records = read_trace(directory)
        assert [record["name"] for record in records] == ["first", "second"]
        only = read_trace(directory, trace_id=second["trace_id"])
        assert [record["name"] for record in only] == ["second"]

    def test_span_tree_nests_children_and_events(self, tmp_path, no_tracing):
        from repro.obs.trace import add_event

        directory = str(tmp_path / "trace")
        configure_tracing(directory)
        with span("root"):
            with span("child"):
                add_event("milestone", {"n": 1})
        roots = span_tree(read_trace(directory))
        assert len(roots) == 1 and roots[0]["name"] == "root"
        child, = roots[0]["children"]
        assert child["name"] == "child"
        assert [event["name"] for event in child["events"]] == ["milestone"]
        assert child["events"][0]["attrs"] == {"n": 1}

    def test_escaping_exception_is_recorded(self, tmp_path, no_tracing):
        directory = str(tmp_path / "trace")
        configure_tracing(directory)
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        record, = read_trace(directory)
        assert record["attrs"]["error"] == "RuntimeError: boom"


# --------------------------------------------------------------------------- #
# Requeue-after-crash: span event + counter
# --------------------------------------------------------------------------- #
class TestRequeueObservability:
    def test_requeue_stale_emits_event_and_counter(self, tmp_path,
                                                   no_tracing):
        queue_dir = str(tmp_path / "queue")
        backend = WorkerPoolBackend(queue_dir, spawn_workers=0)
        backend.start({}, None)
        with open(os.path.join(queue_dir, "tasks", "abc.task"),
                  "wb") as handle:
            pickle.dump({"task_id": ("t",)}, handle)
        assert _claim_next(queue_dir) is not None
        # The worker "crashed" here: the claim file is orphaned.

        family = get_registry().get("runtime_requeued_tasks_total")
        before = family.value if family is not None else 0.0
        directory = str(tmp_path / "trace")
        configure_tracing(directory)
        with span("profile.run") as root:
            assert backend.requeue_stale(max_age_seconds=0.0) == 1
        disable_tracing()

        after = get_registry().get("runtime_requeued_tasks_total").value
        assert after == before + 1
        events = [record for record in read_trace(directory)
                  if record["type"] == "event"]
        assert len(events) == 1
        event = events[0]
        assert event["name"] == "requeue_stale"
        assert event["attrs"] == {"requeued": 1, "max_age_seconds": 0.0}
        assert event["span_id"] == root["span_id"]


# --------------------------------------------------------------------------- #
# ACCEPTANCE: worker-pool profile run emits one stitched trace
# --------------------------------------------------------------------------- #
class TestWorkerPoolTraceStitching:
    def test_every_task_span_parents_back_to_the_profile_root(self, tmp_path,
                                                              no_tracing):
        directory = str(tmp_path / "trace")
        profiler = GraphProfiler(partitioner_names=("2d", "dbh"),
                                 partition_counts=(2,),
                                 processing_partition_count=2,
                                 algorithms=("pagerank",), seed=0,
                                 backend="worker", jobs=2)
        graphs = [generate_rmat(96, 500, seed=s, graph_type="rmat")
                  for s in range(2)]
        configure_tracing(directory)
        try:
            profiler.profile(graphs, graphs)
        finally:
            disable_tracing()

        spans = [record for record in read_trace(directory)
                 if record["type"] == "span"]
        assert len({record["trace_id"] for record in spans}) == 1
        by_id = {record["span_id"]: record for record in spans}
        roots = [record for record in spans if record["parent_id"] is None]
        assert [record["name"] for record in roots] == ["profile.run"]

        driver_pid = os.getpid()
        executes = [record for record in spans
                    if record["name"] == "task.execute"]
        assert executes, "no worker-side task spans were exported"
        for record in executes:
            # Executed in a worker process, dispatched by the driver.
            assert record["pid"] != driver_pid
            dispatch = by_id[record["parent_id"]]
            assert dispatch["name"] == "task.dispatch"
            assert dispatch["pid"] == driver_pid
            assert dispatch["attrs"]["backend"] == "worker"
            ancestor, hops = dispatch, 0
            while ancestor["parent_id"] is not None:
                ancestor = by_id[ancestor["parent_id"]]
                hops += 1
                assert hops < 10, "dispatch span nested unexpectedly deep"
            assert ancestor["name"] == "profile.run"

        # The same records stitch into one tree, and the scheduler's task
        # metrics landed in the process registry alongside the spans.
        tree = span_tree(spans)
        assert len(tree) == 1 and tree[0]["name"] == "profile.run"
        task_seconds = get_registry().get("runtime_task_seconds")
        assert task_seconds is not None
        kinds = {labels[0] for labels, child in task_seconds.children()
                 if child.count > 0}
        assert "partition" in kinds

        # ``repro trace show`` renders the same directory.
        import contextlib

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["trace", "show", "--trace-dir", directory]) == 0
        shown = buffer.getvalue()
        assert f"trace {spans[0]['trace_id']}" in shown
        assert "profile.run" in shown and "task.execute" in shown


# --------------------------------------------------------------------------- #
# ACCEPTANCE: prefork /metrics is one pool-merged page
# --------------------------------------------------------------------------- #
def _select_payload(graph):
    return {"properties": compute_properties(
        graph, exact_triangles=False).as_dict(),
        "algorithm": "pagerank", "num_partitions": 2, "goal": "end_to_end"}


def _slot_counter_totals(scrape_path: str, metric: str):
    """Per-pid totals of one counter family, straight from the slot files."""
    totals = {}
    for name in sorted(os.listdir(scrape_path)):
        if not name.endswith(ScrapeDir.SLOT_SUFFIX):
            continue
        with open(os.path.join(scrape_path, name), "rb") as handle:
            payload = pickle.load(handle)
        family = payload["snapshot"].get(metric)
        totals[payload["pid"]] = (sum(family["children"].values())
                                  if family else 0.0)
    return totals


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
class TestPreforkMetricsAggregation:
    WORKERS = 4
    REQUESTS = 12

    def test_metrics_page_sums_counters_across_worker_pids(self, tmp_path,
                                                           trained_system):
        bundle = str(tmp_path / "ease.pkl")
        save_ease(trained_system, bundle)
        scrape_path = str(tmp_path / "scrape")
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))), "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--model", f"default={bundle}",
             "--workers", str(self.WORKERS), "--port", "0",
             "--batch-wait-ms", "1", "--scrape-dir", scrape_path],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True)
        url = [None]

        def find_url():
            for line in process.stdout:
                if " on http://" in line:
                    url[0] = line.rsplit(" on ", 1)[1].strip()
                    return

        reader = threading.Thread(target=find_url, daemon=True)
        reader.start()
        reader.join(timeout=60)
        try:
            assert url[0], "server never announced its URL"
            graph = generate_rmat(128, 900, seed=33)
            body = json.dumps(_select_payload(graph)).encode("utf-8")
            for _ in range(self.REQUESTS):
                request = urllib.request.Request(
                    f"{url[0]}/v1/select", data=body,
                    headers={"Content-Type": "application/json"})
                with urllib.request.urlopen(request, timeout=30) as response:
                    assert response.status == 200

            # The kernel round-robins accepts; confirm >1 worker pid served
            # (healthz does not touch the request counters).
            pids_seen = set()
            for _ in range(60):
                with urllib.request.urlopen(f"{url[0]}/healthz",
                                            timeout=30) as response:
                    pids_seen.add(json.load(response)["pid"])
                if len(pids_seen) >= 2:
                    break
            assert len(pids_seen) >= 2, f"only saw worker pids {pids_seen}"

            # Any worker answers /metrics with the pool-merged page; the
            # per-slot flush trails the response, so poll briefly.
            deadline = time.time() + 30
            while True:
                with urllib.request.urlopen(f"{url[0]}/metrics",
                                            timeout=30) as response:
                    content_type = response.headers.get("Content-Type", "")
                    exposition = response.read().decode("utf-8")
                per_pid = _slot_counter_totals(scrape_path,
                                               "serving_requests_total")
                if (sum(per_pid.values()) >= self.REQUESTS
                        or time.time() > deadline):
                    break
                time.sleep(0.1)
            assert content_type.startswith("text/plain; version=0.0.4")

            # Every worker owns a slot, and the merged page's counter is
            # exactly the sum of the per-pid slot values.
            assert len(per_pid) == self.WORKERS
            assert sum(per_pid.values()) == self.REQUESTS

            def metric_sum(name):
                total, found = 0.0, False
                for line in exposition.splitlines():
                    if line.startswith(name + "{") or line == name or \
                            line.startswith(name + " "):
                        total += float(line.rsplit(" ", 1)[1])
                        found = True
                assert found, f"{name} absent from /metrics"
                return total

            assert metric_sum("serving_requests_total") == self.REQUESTS
            assert metric_sum(
                "serving_request_seconds_count") == self.REQUESTS
            assert metric_sum("serving_admitted_total") == self.REQUESTS
            # Gauges keep per-worker truth: one pid-labeled series each.
            import re

            gauge_pids = set(re.findall(
                r'serving_inflight_requests\{[^}]*pid="(\d+)"\}',
                exposition))
            assert len(gauge_pids) == self.WORKERS
            assert str(process.pid) not in gauge_pids
        finally:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        assert process.returncode == 0

        # The scrape dir outlives the pool for offline inspection.
        import contextlib

        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            assert main(["metrics", "--scrape-dir", scrape_path]) == 0
        offline = buffer.getvalue()
        assert "serving_requests_total" in offline


# --------------------------------------------------------------------------- #
# Import lint: obs stays stdlib-only; core imports obs, never the reverse
# --------------------------------------------------------------------------- #
def _import_roots(path: str):
    """(lineno, root, level) of every import in one source file."""
    with open(path, "r", encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0], 0
        elif isinstance(node, ast.ImportFrom):
            yield node.lineno, (node.module or "").split(".")[0], node.level


class TestObsImportLint:
    def test_obs_imports_stdlib_only(self):
        import repro.obs

        package_dir = os.path.dirname(repro.obs.__file__)
        allowed_roots = set(sys.stdlib_module_names)
        offenders = []
        # The one repro module obs may import is the stdlib-only leaf
        # atomic writer, itself checked like an obs module.
        paths = [os.path.join(package_dir, filename)
                 for filename in sorted(os.listdir(package_dir))
                 if filename.endswith(".py")]
        paths.append(os.path.join(os.path.dirname(package_dir),
                                  "atomicfile.py"))
        for path in paths:
            filename = os.path.basename(path)
            for lineno, root, level in _import_roots(path):
                if level == 2 and root == "atomicfile":
                    continue
                if level >= 2 or (level == 1 and filename == "atomicfile.py"):
                    # ``from .. import x`` would reach back into repro
                    # proper — the dependency direction the lint forbids.
                    offenders.append(f"{filename}:{lineno}: relative "
                                     f"import above the obs package")
                elif level == 0 and root and root not in allowed_roots:
                    offenders.append(f"{filename}:{lineno}: {root}")
        assert not offenders, \
            "repro.obs must stay stdlib-only, found: " + str(offenders)

    @pytest.mark.parametrize("module_path", [
        "serving/core.py",
        "serving/service.py",
        "runtime/scheduler.py",
        "runtime/executor.py",
        "runtime/backends.py",
        "runtime/tasks.py",
        "runtime/artifacts.py",
        "partitioning/kernels.py",
        "graph/properties.py",
        "cli.py",
    ])
    def test_core_modules_import_obs(self, module_path):
        import repro

        path = os.path.join(os.path.dirname(repro.__file__), module_path)
        imports_obs = any(
            (level > 0 and root == "obs")
            or (level == 0 and root == "repro" and "obs" in line_text)
            for lineno, root, level in _import_roots(path)
            for line_text in [_source_line(path, lineno)])
        assert imports_obs, f"{module_path} is expected to be instrumented " \
                            "through repro.obs"


def _source_line(path: str, lineno: int) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, 1):
            if number == lineno:
                return line
    return ""
