"""Selection-service throughput: sequential requests vs. micro-batching.

The serving subsystem's claim is that coalescing concurrent selection
requests into one vectorized predictor pass amortises the per-call model
overhead: a batch of B requests scores a (B x candidates) feature matrix with
the same number of model invocations as a single request.  This benchmark
trains a small EASE system, then measures requests/sec of the
:class:`~repro.serving.service.SelectionService`:

* **sequential** — one thread, unstarted service (inline execution, batch
  size 1 per request);
* **micro-batched** — the batching worker running, swept over client
  concurrency levels; every client thread issues blocking requests in a
  closed loop.

Batched and sequential answers are asserted identical (same selected
partitioner per request), and the full run asserts micro-batched throughput
>= MIN_BATCHED_SPEEDUP x the sequential baseline at concurrency >= 8.

A second benchmark drives the *whole* serving stack — prefork HTTP workers,
request core, admission gate — with a **multi-process load generator** and
asserts operational SLOs rather than throughput geomeans:

* **capacity phase**: N generator processes against a 2-worker prefork
  server with no admission limit; every request must succeed and the p50 /
  p99 request latencies must meet the SLO bounds;
* **overload phase**: the same generators against a deliberately starved
  server (``--max-inflight 1``, slow batcher, every request a new job), which
  must shed deterministically: 429 responses observed, every one carrying
  ``Retry-After``, successes still completing, and the shed counter visible
  on ``/healthz``.

Runs both as a pytest benchmark and as a script; ``--quick`` is the CI smoke
mode (tiny model, equality + SLO-shape assertions with relaxed bounds).
"""

import argparse
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import threading
import time
import urllib.error
import urllib.request

try:
    import pytest
except ImportError:  # pragma: no cover - script mode without pytest
    pytest = None

if __package__ is None or __package__ == "":
    import os

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from _harness import cached, report_table
from repro.generators import generate_rmat
from repro.ease import EASE, GraphProfiler
from repro.graph import compute_properties
from repro.serving import SelectionService

PARTITIONERS = ("2d", "1dd", "dbh", "hdrf", "2ps")
CONCURRENCY_SWEEP = (1, 2, 4, 8, 16, 32)
REQUESTS_PER_LEVEL = 240
#: Best-of repeats per level, the same noise control as the other
#: throughput benches (thread scheduling jitter swings single runs by
#: tens of percent).
REPEATS = 3
MIN_BATCHED_SPEEDUP = 3.0
ASSERTED_CONCURRENCY = 8

QUICK_CONCURRENCY_SWEEP = (1, 4)
QUICK_REQUESTS_PER_LEVEL = 24

# Load-generator settings: (processes, requests per process) and the p50/p99
# latency SLOs of the capacity phase.  Full-run bounds are loopback-generous
# (selection is a sub-ms model query; the bound catches order-of-magnitude
# regressions like a lost micro-batcher or an accept stall, not jitter);
# quick mode relaxes them further for loaded CI machines.
LOAD_PROCESSES = 4
LOAD_REQUESTS_PER_PROCESS = 50
P50_SLO_SECONDS = 0.5
P99_SLO_SECONDS = 2.5
QUICK_LOAD_PROCESSES = 3
QUICK_LOAD_REQUESTS_PER_PROCESS = 15
QUICK_P50_SLO_SECONDS = 2.0
QUICK_P99_SLO_SECONDS = 10.0


def _train_system(num_graphs: int = 4):
    profiler = GraphProfiler(partitioner_names=PARTITIONERS,
                             partition_counts=(2,),
                             processing_partition_count=2,
                             algorithms=("pagerank",))
    graphs = [generate_rmat(96, 500 + 150 * s, seed=s, graph_type="rmat")
              for s in range(num_graphs)]
    dataset = profiler.profile(graphs, graphs)
    return EASE(partitioner_names=PARTITIONERS).train(dataset)


def _request_grid(num_requests: int):
    """(properties, k) job mix over a handful of query graphs."""
    graphs = [generate_rmat(128, 800 + 120 * s, seed=30 + s)
              for s in range(4)]
    properties = [compute_properties(g, exact_triangles=False)
                  for g in graphs]
    return [(properties[i % len(properties)], 2 + (i % 3))
            for i in range(num_requests)]


def _run_closed_loop(service, jobs, concurrency: int):
    """Run ``jobs`` through ``service.select`` from ``concurrency`` threads."""
    results = [None] * len(jobs)
    barrier = threading.Barrier(concurrency + 1)

    def worker(offset: int) -> None:
        barrier.wait()
        for index in range(offset, len(jobs), concurrency):
            properties, k = jobs[index]
            results[index] = service.select(properties, "pagerank", k)

    threads = [threading.Thread(target=worker, args=(offset,))
               for offset in range(concurrency)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    return results, elapsed


def _best_of(service_factory, jobs, concurrency: int, repeats: int,
             expected=None, start_worker: bool = True):
    """Best requests/sec over ``repeats`` runs (plus mean batch size)."""
    best_rps = 0.0
    mean_batch = 0.0
    results = None
    for _ in range(repeats):
        service = service_factory()
        if start_worker:
            service.start()
        try:
            results, elapsed = _run_closed_loop(service, jobs, concurrency)
        finally:
            service.stop()
        if expected is not None:
            for result, reference in zip(results, expected):
                if result.selected != reference.selected:
                    raise AssertionError(
                        "micro-batched selection differs from single-request "
                        f"serving: {result.selected!r} != "
                        f"{reference.selected!r}")
        if len(jobs) / elapsed > best_rps:
            best_rps = len(jobs) / elapsed
            mean_batch = service.stats.mean_batch_size()
    return best_rps, mean_batch, results


def run_benchmark(concurrency_sweep, requests_per_level: int,
                  check_speedup: bool = True, repeats: int = REPEATS):
    system = cached("selection_service_model", _train_system)
    jobs = _request_grid(requests_per_level)

    def unbatched():
        # Single-request serving: same worker/queue/future machinery, but
        # every request is its own predictor pass (batch size capped at 1).
        return SelectionService(system, max_batch_size=1)

    def batched():
        return SelectionService(system, max_batch_size=64,
                                batch_wait_seconds=0.002)

    # One-thread inline reference (no worker at all), for context.
    inline_rps, _, reference = _best_of(
        lambda: SelectionService(system), jobs, concurrency=1,
        repeats=repeats, start_worker=False)
    rows = [("inline sequential", 1, len(jobs), inline_rps, inline_rps,
             "1.00x", 1.0)]

    speedup_at = {}
    for concurrency in concurrency_sweep:
        single_rps, _, _ = _best_of(unbatched, jobs, concurrency, repeats,
                                    expected=reference)
        batch_rps, mean_batch, _ = _best_of(batched, jobs, concurrency,
                                            repeats, expected=reference)
        speedup = batch_rps / single_rps
        speedup_at[concurrency] = speedup
        rows.append((f"c={concurrency}", concurrency, len(jobs), single_rps,
                     batch_rps, f"{speedup:.2f}x", mean_batch))

    best = max((speedup_at[c] for c in speedup_at
                if c >= ASSERTED_CONCURRENCY), default=None)
    report_table(
        "selection_service_throughput",
        ("mode", "clients", "requests", "single req/s", "batched req/s",
         "speedup", "mean batch"),
        rows,
        title=f"Selection-service throughput: {len(PARTITIONERS)} candidate "
              f"partitioners, {requests_per_level} requests per level, "
              "best of "
              f"{repeats}; single-request = same service with batching "
              "disabled (max_batch_size=1); identical selections asserted "
              "per request",
        gates=[("batched_speedup_floor",
                not check_speedup
                or (best is not None and best >= MIN_BATCHED_SPEEDUP),
                f"best={best if best is None else f'{best:.2f}x'} "
                f"floor={MIN_BATCHED_SPEEDUP}x at concurrency >= "
                f"{ASSERTED_CONCURRENCY}")])

    if check_speedup:
        assert best >= MIN_BATCHED_SPEEDUP, (
            f"micro-batched speedup {best:.2f}x at concurrency >= "
            f"{ASSERTED_CONCURRENCY} below {MIN_BATCHED_SPEEDUP}x")
    return speedup_at


# --------------------------------------------------------------------------- #
# Multi-process load generation against the full serving stack
# --------------------------------------------------------------------------- #
def _serve_subprocess(bundle_path: str, extra_args):
    """Launch ``repro serve`` on a free port; returns (process, url)."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--model", bundle_path,
         "--port", "0"] + list(extra_args),
        env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    url = [None]

    def find_url():
        for line in process.stdout:
            if " on http://" in line:
                url[0] = line.rsplit(" on ", 1)[1].strip()
                return

    reader = threading.Thread(target=find_url, daemon=True)
    reader.start()
    reader.join(timeout=60)
    if not url[0]:
        process.kill()
        process.wait()
        raise AssertionError("serve subprocess never announced its URL")
    return process, url[0]


def _stop_subprocess(process) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30)
    except subprocess.TimeoutExpired:
        process.kill()
        process.wait()


def _load_worker(url: str, payloads, out_queue) -> None:
    """One generator process: POST every payload, record per-request
    (status, latency_seconds, has_retry_after)."""
    samples = []
    for payload in payloads:
        data = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            f"{url}/v1/select", data=data,
            headers={"Content-Type": "application/json"})
        start = time.perf_counter()
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                response.read()
                status = response.status
                has_retry_after = False
        except urllib.error.HTTPError as error:
            error.read()
            status = error.code
            has_retry_after = error.headers.get("Retry-After") is not None
        samples.append((status, time.perf_counter() - start,
                        has_retry_after))
    out_queue.put(samples)


def _run_load(url: str, processes: int, requests_per_process: int,
              unique_jobs: bool):
    """Fan ``processes`` generator processes at ``url``; returns samples.

    ``unique_jobs`` gives every request a distinct ``num_iterations``, so
    every request of the overload phase is a different job and each one
    runs the predictors behind the admission gate.
    """
    properties = _request_grid(1)[0][0].as_dict()
    context = multiprocessing.get_context(
        "fork" if "fork" in multiprocessing.get_all_start_methods()
        else None)
    out_queue = context.Queue()
    workers = []
    for rank in range(processes):
        payloads = []
        for index in range(requests_per_process):
            payload = {"properties": properties, "algorithm": "pagerank",
                       "num_partitions": 2 + (index % 3),
                       "goal": "end_to_end"}
            if unique_jobs:
                payload["num_iterations"] = \
                    1 + rank * requests_per_process + index
            payloads.append(payload)
        workers.append(context.Process(target=_load_worker,
                                       args=(url, payloads, out_queue)))
    for worker in workers:
        worker.start()
    samples = []
    for _ in workers:
        samples.extend(out_queue.get(timeout=300))
    for worker in workers:
        worker.join(timeout=60)
    return samples


def _percentile(sorted_values, fraction: float) -> float:
    return sorted_values[min(len(sorted_values) - 1,
                             int(fraction * len(sorted_values)))]


def _healthz(url: str) -> dict:
    with urllib.request.urlopen(f"{url}/healthz", timeout=30) as response:
        return json.loads(response.read())


def _scrape_metrics(url: str) -> str:
    with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
        content_type = response.headers.get("Content-Type", "")
        assert content_type.startswith("text/plain"), content_type
        return response.read().decode("utf-8")


def _metric_sum(exposition: str, name: str) -> float:
    """Sum of every sample of ``name`` across label sets (pool-merged)."""
    import re

    pattern = re.compile(rf"^{re.escape(name)}(?:\{{[^}}]*\}})? (\S+)$")
    values = [float(match.group(1))
              for line in exposition.splitlines()
              if (match := pattern.match(line))]
    assert values, f"metric {name} absent from the /metrics exposition"
    return sum(values)


def run_load_benchmark(processes: int, requests_per_process: int,
                       p50_slo: float, p99_slo: float):
    """Capacity + overload phases against the prefork serving stack."""
    system = cached("selection_service_model", _train_system)
    from repro.ease.persistence import save_ease

    fd, bundle = tempfile.mkstemp(suffix=".pkl")
    os.close(fd)
    rows = []
    try:
        save_ease(system, bundle)

        # ---- capacity: 2 prefork workers, no admission limit ---------- #
        process, url = _serve_subprocess(
            bundle, ["--workers", "2", "--batch-wait-ms", "1"])
        try:
            samples = _run_load(url, processes, requests_per_process,
                                unique_jobs=False)
            # Scrape while the pool is still up: whichever worker answers
            # must merge its siblings' metric slots into one exposition.
            exposition = _scrape_metrics(url)
        finally:
            _stop_subprocess(process)
        statuses = [status for status, _, _ in samples]
        latencies = sorted(latency for _, latency, _ in samples)
        p50 = _percentile(latencies, 0.50)
        p99 = _percentile(latencies, 0.99)
        rows.append(("capacity", processes * requests_per_process,
                     statuses.count(200), statuses.count(429), p50, p99))
        assert statuses.count(200) == len(statuses), (
            f"capacity phase had non-200 responses: "
            f"{sorted(set(statuses))}")
        assert p50 <= p50_slo, f"p50 {p50:.3f}s over SLO {p50_slo}s"
        assert p99 <= p99_slo, f"p99 {p99:.3f}s over SLO {p99_slo}s"
        # The serving-phase histograms must be populated and aggregated
        # over the whole pool: one worker's scrape accounts for every
        # generator request, not just its own share.
        import re as _re

        total = processes * requests_per_process
        pids = set(_re.findall(r'pid="(\d+)"', exposition))
        assert len(pids) >= 2, (
            f"merged exposition covers {len(pids)} worker pid(s); "
            "expected the whole 2-worker pool")
        assert _metric_sum(exposition, "serving_requests_total") >= total
        assert _metric_sum(exposition,
                           "serving_request_seconds_count") >= total
        assert _metric_sum(exposition,
                           "serving_admission_wait_seconds_count") >= total
        assert _metric_sum(exposition,
                           "serving_batch_queue_wait_seconds_count") >= 1
        assert _metric_sum(exposition, "serving_inference_seconds_count") >= 1

        # ---- overload: 1 starved worker, 1-slot admission gate -------- #
        process, url = _serve_subprocess(
            bundle, ["--workers", "1", "--max-inflight", "1",
                     "--batch-wait-ms", "50"])
        try:
            samples = _run_load(url, processes, requests_per_process,
                                unique_jobs=True)
            health = _healthz(url)
        finally:
            _stop_subprocess(process)
        statuses = [status for status, _, _ in samples]
        shed = [(status, has_retry) for status, _, has_retry in samples
                if status == 429]
        latencies = sorted(latency for _, latency, _ in samples)
        rows.append(("overload", processes * requests_per_process,
                     statuses.count(200), len(shed),
                     _percentile(latencies, 0.50),
                     _percentile(latencies, 0.99)))
        assert set(statuses) <= {200, 429}, (
            f"overload produced unexpected statuses {sorted(set(statuses))}")
        assert statuses.count(200) >= 1, "overload starved every request"
        assert shed, ("a 1-slot admission gate under "
                      f"{processes} generator processes shed nothing")
        assert all(has_retry for _, has_retry in shed), \
            "a 429 response was missing its Retry-After header"
        assert health["admission"]["shed_total"] >= len(shed) / 2, (
            "/healthz shed counter does not reflect the observed sheds: "
            f"{health['admission']}")
    finally:
        os.remove(bundle)

    report_table(
        "selection_service_load",
        ("phase", "requests", "200s", "429s", "p50 (s)", "p99 (s)"),
        rows,
        title=f"Serving-stack load generation: {processes} generator "
              f"processes x {requests_per_process} requests; capacity = 2 "
              f"prefork workers (SLO p50 <= {p50_slo}s, p99 <= {p99_slo}s, "
              "zero sheds allowed; /metrics scraped under load and asserted "
              "pool-aggregated); overload = 1 worker with a 1-slot "
              "admission gate (sheds required, Retry-After asserted on "
              "every 429)",
        gates=[("capacity_p50_slo", rows[0][4] <= p50_slo,
                f"p50={rows[0][4]:.3f}s slo={p50_slo}s"),
               ("capacity_p99_slo", rows[0][5] <= p99_slo,
                f"p99={rows[0][5]:.3f}s slo={p99_slo}s"),
               ("overload_sheds_observed", rows[1][3] > 0,
                f"429s={rows[1][3]}")])


if pytest is not None:
    @pytest.mark.benchmark(group="selection_service")
    def test_selection_service_throughput(benchmark):
        speedup_at = benchmark.pedantic(
            run_benchmark, args=(CONCURRENCY_SWEEP, REQUESTS_PER_LEVEL),
            rounds=1, iterations=1)
        assert max(speedup_at[c] for c in speedup_at
                   if c >= ASSERTED_CONCURRENCY) >= MIN_BATCHED_SPEEDUP


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI smoke mode: tiny model, equality assertions "
                             "only (no timing thresholds)")
    args = parser.parse_args(argv)
    if args.quick:
        run_benchmark(QUICK_CONCURRENCY_SWEEP, QUICK_REQUESTS_PER_LEVEL,
                      check_speedup=False, repeats=1)
        run_load_benchmark(QUICK_LOAD_PROCESSES,
                           QUICK_LOAD_REQUESTS_PER_PROCESS,
                           QUICK_P50_SLO_SECONDS, QUICK_P99_SLO_SECONDS)
        print("quick smoke passed: micro-batched selections identical to "
              "sequential; load-generator SLOs, pool-aggregated /metrics "
              "and 429 shedding asserted")
    else:
        run_benchmark(CONCURRENCY_SWEEP, REQUESTS_PER_LEVEL)
        run_load_benchmark(LOAD_PROCESSES, LOAD_REQUESTS_PER_PROCESS,
                           P50_SLO_SECONDS, P99_SLO_SECONDS)
    return 0


if __name__ == "__main__":
    sys.exit(main())
