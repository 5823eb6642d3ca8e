"""Command-line interface of the EASE reproduction.

Four subcommands mirror the phases of the paper's pipeline (Figure 5):

``generate``
    Generate a training corpus of R-MAT graphs (Table I / Table II grids,
    scaled) and save it into a graph store (see ``graph`` below).
``profile``
    Profile the graphs of a store: partition with every candidate
    partitioner, measure quality metrics and partitioning time, run the
    processing workloads, and store the resulting dataset.
``train``
    Train the EASE predictors from a profiling dataset and store the trained
    system.
``select``
    Load a trained system and select a partitioner for a graph (a stored
    graph's directory or an edge-list file) and workload.

Two support the profiling runtime:

``worker``
    Serve a shared profiling queue directory: claim spooled tasks, execute
    them, ack results (the remote half of ``profile --backend worker``).
``cache gc``
    Shrink a content-addressed artifact cache to a size bound (LRU order)
    and report the reclaimed bytes.

One manages the memory-mapped graph store (``docs/ARCHITECTURE.md``):

``graph``
    ``graph import`` ingests edge-list files into an on-disk
    content-addressed store of raw edges + the precomputed simple
    undirected CSR view; ``graph ls`` lists the stored graphs and the
    store's disk usage.  The store is the one persisted graph format:
    ``profile`` and ``properties`` read their graphs from ``--graph-store``
    and ``serve`` resolves ``graph_fingerprint`` requests from it, each as
    zero-copy memory maps (workers share the OS page cache instead of
    receiving pickled copies).

One exposes the property engine:

``properties``
    Extract the :class:`GraphProperties` of a store's graphs in one
    batched property-engine pass and write one ``<name>.properties.json``
    per graph — the precomputed-properties payload accepted by ``select
    --properties`` and the HTTP ``/v1/select`` endpoint.  With
    ``--cache-dir`` the extraction is memoized through the artifact cache
    shared with ``profile``.

Two expose the serving subsystem (``docs/SERVING.md``):

``models``
    Manage the model registry: ``publish`` a trained bundle as a
    content-hashed version, ``list`` versions, ``promote`` a version to a
    tag such as ``production``.
``serve``
    Run the HTTP selection server on a registry model or a bundle file;
    concurrent requests are micro-batched into single predictor calls.

Two expose the observability layer (``docs/OBSERVABILITY.md``):

``metrics``
    Print a Prometheus-text exposition — scraped from a running server's
    ``GET /metrics``, or rendered offline from the slot files of a
    ``--scrape-dir`` (works after the pool exited).
``trace show``
    Pretty-print the distributed span trees that a ``profile --trace-dir``
    run exported as per-pid JSONL files.

Example session::

    python -m repro.cli generate --output graphs/ --max-graphs 40
    python -m repro.cli graph ls --store graphs/
    python -m repro.cli profile --graph-store graphs/ --output profile.pkl \
        --jobs 4 --cache-dir profile-cache/ --backend process
    python -m repro.cli cache gc --cache-dir profile-cache/ \
        --max-bytes 500000000
    python -m repro.cli train --profile profile.pkl --output ease.pkl
    python -m repro.cli select --model ease.pkl --graph my_graph.txt \
        --algorithm pagerank --partitions 8 --goal end_to_end
    python -m repro.cli models publish --registry registry/ \
        --model ease.pkl --name ease --profile profile.pkl --tag production
    python -m repro.cli serve --registry registry/ --name ease --port 8080
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional, Sequence

from .graph import (
    Graph,
    GraphStore,
    GraphStoreError,
    graph_fingerprint,
    open_stored_graph,
    read_edge_list,
)
from .generators import generate_training_corpus, rmat_small_grid
from .partitioning import ALL_PARTITIONER_NAMES
from .processing import ALL_ALGORITHM_NAMES
from .ease import EASE, GraphProfiler, OptimizationGoal, ProfileDataset
from .ease.persistence import (
    canonical_sorted,
    load_dataset,
    merge_datasets,
    save_dataset,
    save_ease,
)

__all__ = ["main", "build_parser"]


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def _load_graph(path: str) -> Graph:
    """A stored graph's directory (memory-mapped) or an edge-list file."""
    if not os.path.isdir(path):
        return read_edge_list(path)
    try:
        return open_stored_graph(path)
    except GraphStoreError as error:
        raise SystemExit(str(error))


def _store_graphs(directory: str) -> List[Graph]:
    """Every graph of the store at ``directory``, memory-mapped."""
    if not os.path.isdir(directory):
        raise SystemExit(f"graph store {directory!r} does not exist")
    try:
        graphs = GraphStore(directory).open_all()
    except GraphStoreError as error:
        raise SystemExit(str(error))
    if not graphs:
        raise SystemExit(f"graph store {directory!r} holds no graphs")
    return graphs


# --------------------------------------------------------------------------- #
# Subcommands
# --------------------------------------------------------------------------- #
def _command_generate(args: argparse.Namespace) -> int:
    specs = rmat_small_grid(scale=args.scale)
    if args.step > 1:
        specs = specs[::args.step]
    os.makedirs(args.output, exist_ok=True)
    store = GraphStore(args.output)
    count = 0
    for graph in generate_training_corpus(specs, seed=args.seed,
                                          max_graphs=args.max_graphs):
        store.save(graph)
        count += 1
    print(f"generated {count} training graphs in graph store {args.output}")
    return 0


def _write_profile_stats(path: str, stats) -> None:
    """Dump ProfileRunStats plus per-task-kind latency percentiles as JSON.

    The percentiles come from the process-wide ``runtime_task_seconds``
    histogram the scheduler feeds, so the file reflects exactly the run
    that just finished (the registry is fresh per CLI invocation).
    """
    import json

    from .obs import get_registry

    payload: dict = {"run": stats.as_dict() if stats is not None else None}
    kinds = {}
    family = get_registry().get("runtime_task_seconds")
    if family is not None:
        for label_values, histogram in family.children():
            count = histogram.count
            kinds[label_values[0]] = {
                "count": count,
                "total_seconds": histogram.sum,
                "mean_seconds": histogram.sum / count if count else 0.0,
                "p50_seconds": histogram.quantile(0.5),
                "p90_seconds": histogram.quantile(0.9),
                "p99_seconds": histogram.quantile(0.99),
            }
    payload["task_seconds_by_kind"] = kinds
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _command_profile(args: argparse.Namespace) -> int:
    if args.trace_dir:
        from .obs import configure_tracing

        configure_tracing(args.trace_dir)
    graphs = _store_graphs(args.graph_store)
    existing = None
    if args.extend:
        if not os.path.exists(args.extend):
            raise SystemExit(f"--extend dataset {args.extend!r} does not exist")
        existing = load_dataset(args.extend)
        known = set(existing.graph_names())
        skipped = [graph for graph in graphs if graph.name in known]
        graphs = [graph for graph in graphs if graph.name not in known]
        print(f"extending {args.extend}: {len(skipped)} graphs already "
              f"profiled, {len(graphs)} new")
    from .faults import FailurePolicy, QuarantineError

    if args.max_task_attempts < 1:
        raise SystemExit("--max-task-attempts must be >= 1")
    policy = FailurePolicy(max_attempts=args.max_task_attempts,
                           default_task_deadline=args.task_deadline_seconds)
    profiler = GraphProfiler(
        partitioner_names=args.partitioners,
        partition_counts=tuple(args.partition_counts),
        processing_partition_count=args.processing_partitions,
        partitioning_time_mode=args.time_mode,
        time_repeats=args.time_repeats,
        algorithms=args.algorithms,
        seed=args.seed,
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        backend=args.backend,
        queue_dir=args.queue_dir,
        failure_policy=policy)
    checkpoint_path = args.output + ".checkpoint"
    if not args.resume and os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    if graphs:
        try:
            dataset = profiler.profile(graphs, graphs,
                                       checkpoint_path=checkpoint_path)
        except QuarantineError as error:
            # The checkpoint is left in place: fix the cause and re-run
            # with --resume to retry only the quarantined work.
            print(f"profiling aborted: {error}", file=sys.stderr)
            for record in error.records:
                last_line = record.traceback.strip().splitlines()[-1] \
                    if record.traceback else record.error
                print(f"  quarantined {record.task_id} "
                      f"({record.kind}, {record.attempts} attempts): "
                      f"{last_line}", file=sys.stderr)
            if args.stats_json and error.stats is not None:
                _write_profile_stats(args.stats_json, error.stats)
                print(f"run stats written to {args.stats_json}",
                      file=sys.stderr)
            print(f"checkpoint kept at {checkpoint_path}; re-run with "
                  f"--resume after fixing the cause", file=sys.stderr)
            return 3
    else:
        dataset = ProfileDataset()
    if existing is not None:
        # Merge the incremental run into the existing corpus; canonical
        # order makes the result independent of which graphs came first.
        dataset = canonical_sorted(merge_datasets([existing, dataset]))
    save_dataset(dataset, args.output)
    if os.path.exists(checkpoint_path):
        os.remove(checkpoint_path)
    stats = profiler.last_run_stats
    print(f"profiled {len(graphs)} graphs -> {dataset.summary()}")
    if stats is not None:
        print(f"jobs={args.jobs}  backend={stats.backend}"
              f"  tasks={stats.total_tasks}: {stats.executed_tasks} executed,"
              f" {stats.cache_hit_tasks} from cache,"
              f" {stats.checkpoint_tasks} resumed"
              f"  partitions computed={stats.partitions_computed}"
              f"  cache hit rate={stats.cache_hit_rate():.0%}")
        if stats.retried_tasks or stats.deadline_failures:
            print(f"failure policy: {stats.retried_tasks} retries, "
                  f"{stats.deadline_failures} deadline expiries "
                  f"(all tasks recovered)")
    if args.stats_json:
        _write_profile_stats(args.stats_json, stats)
        print(f"run stats written to {args.stats_json}")
    if args.trace_dir:
        print(f"trace written to {args.trace_dir} "
              f"(inspect with 'repro trace show --trace-dir "
              f"{args.trace_dir}')")
    print(f"dataset written to {args.output}")
    return 0


def _command_worker(args: argparse.Namespace) -> int:
    from .obs import configure_logging, get_logger
    from .runtime import run_worker

    configure_logging(level=args.log_level, format=args.log_format)
    logger = get_logger("repro.worker")
    logger.debug("worker serving queue", queue_dir=args.queue_dir,
                 poll_interval=args.poll_interval)
    processed = run_worker(args.queue_dir,
                           poll_interval=args.poll_interval,
                           max_tasks=args.max_tasks,
                           stop_when_idle=args.drain,
                           heartbeat_interval=args.heartbeat_interval)
    # The event text is load-bearing: callers (and tests) match the
    # "worker exiting after N tasks" line on stdout.
    logger.info(f"worker exiting after {processed} tasks")
    return 0


def _command_cache_gc(args: argparse.Namespace) -> int:
    from .runtime import ArtifactStore

    if not os.path.isdir(args.cache_dir):
        raise SystemExit(f"cache directory {args.cache_dir!r} does not exist")
    report = ArtifactStore(args.cache_dir).gc(max_bytes=args.max_bytes)
    print(f"reclaimed {report['reclaimed_bytes']} bytes "
          f"({report['removed_files']} artifacts); "
          f"{report['remaining_bytes']} bytes in "
          f"{report['remaining_files']} artifacts remain")
    return 0


def _command_graph_import(args: argparse.Namespace) -> int:
    store = GraphStore(args.store)
    imported = skipped = 0
    for path in args.inputs:
        if not os.path.exists(path):
            raise SystemExit(f"graph file {path!r} does not exist")
        graph = _load_graph(path)
        already = graph_fingerprint(graph) in store
        fingerprint = store.save(graph)
        if already:
            skipped += 1
            status = "exists"
        else:
            imported += 1
            status = "stored"
        print(f"{fingerprint}  {status}  {graph.name}  "
              f"|V|={graph.num_vertices} |E|={graph.num_edges}")
    print(f"imported {imported} graphs into {args.store} "
          f"({skipped} already present)")
    return 0


def _command_graph_ls(args: argparse.Namespace) -> int:
    if not os.path.isdir(args.store):
        raise SystemExit(f"graph store {args.store!r} does not exist")
    store = GraphStore(args.store)
    infos, unreadable = store.scan()
    infos.sort(key=lambda info: (info.name, info.fingerprint))
    for directory, reason in unreadable.items():
        print(f"unreadable  {directory}  {reason}")
    if not infos:
        print("no stored graphs")
        return 0
    print(f"{'fingerprint':20s} {'name':24s} {'type':10s} "
          f"{'|V|':>10s} {'|E|':>12s} {'bytes':>14s}")
    for info in infos:
        print(f"{info.fingerprint:20s} {info.name:24s} "
              f"{info.graph_type:10s} {info.num_vertices:10d} "
              f"{info.num_edges:12d} {info.nbytes:14d}")
    usage = store.disk_usage()
    print(f"{len(infos)} graphs, {len(unreadable)} unreadable, "
          f"{usage['bytes']} bytes on disk")
    return 0


def _command_properties(args: argparse.Namespace) -> int:
    import json

    from .graph import compute_properties_batch

    graphs = _store_graphs(args.graph_store)
    store = None
    if args.cache_dir:
        from .runtime import ArtifactStore

        store = ArtifactStore(args.cache_dir)
    properties = compute_properties_batch(
        graphs, exact_triangles=args.exact_triangles, seed=args.seed,
        store=store, mode=args.mode, wedge_budget=args.wedge_budget)
    os.makedirs(args.output, exist_ok=True)
    for graph, props in zip(graphs, properties):
        path = os.path.join(args.output, f"{graph.name}.properties.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(props.as_dict(), handle, indent=2, sort_keys=True)
    print(f"extracted properties of {len(graphs)} graphs "
          f"({len(set(id(p) for p in properties))} distinct contents) "
          f"-> {args.output}")
    if store is not None:
        print(f"artifact cache: {store.hits} hits, {store.misses} misses")
    return 0


def _command_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.profile)
    system = EASE(feature_set=args.feature_set,
                  replication_feature_set=args.replication_feature_set)
    system.train(dataset)
    save_ease(system, args.output)
    print(f"trained EASE from {len(dataset.quality)} quality, "
          f"{len(dataset.partitioning_time)} timing and "
          f"{len(dataset.processing)} processing records")
    print(f"model written to {args.output}")
    return 0


def _build_service(args: argparse.Namespace, **service_kwargs):
    """SelectionService (+ registry, if any) from --model or --registry."""
    from .serving import ModelRegistry, SelectionService

    if getattr(args, "registry", None):
        if not getattr(args, "name", None):
            raise SystemExit("--name is required with --registry")
        registry = ModelRegistry(args.registry)
        return SelectionService.from_registry(
            registry, args.name, getattr(args, "ref", None),
            **service_kwargs), registry
    if not getattr(args, "model", None):
        raise SystemExit("either --model or --registry/--name is required")
    return SelectionService.from_bundle(args.model, **service_kwargs), None


def _command_select(args: argparse.Namespace) -> int:
    if (args.graph is None) == (args.properties is None):
        raise SystemExit("exactly one of --graph and --properties is required")
    service, _ = _build_service(args)
    if args.properties:
        import json

        from .graph import GraphProperties

        with open(args.properties, "r", encoding="utf-8") as handle:
            graph = GraphProperties.from_dict(json.load(handle))
        print(f"graph: {args.properties} (precomputed properties)  "
              f"|V|={graph.num_vertices} |E|={graph.num_edges}")
    else:
        graph = _load_graph(args.graph)
        print(f"graph: {graph.name}  |V|={graph.num_vertices} "
              f"|E|={graph.num_edges}")
    result = service.select(graph, algorithm=args.algorithm,
                            num_partitions=args.partitions,
                            goal=args.goal,
                            num_iterations=args.iterations)
    print(f"algorithm: {args.algorithm}  k={args.partitions}  goal={args.goal}")
    print(f"selected partitioner: {result.selected}")
    print(f"{'partitioner':12s} {'partitioning (s)':>17s} {'processing (s)':>15s} "
          f"{'end-to-end (s)':>15s}")
    for score in result.ranking():
        print(f"{score.partitioner:12s} "
              f"{score.predicted_partitioning_seconds:17.4f} "
              f"{score.predicted_processing_seconds:15.4f} "
              f"{score.predicted_end_to_end_seconds:15.4f}")
    return 0


def _build_router(args: argparse.Namespace):
    """ModelRouter (+ registry, if any) from --model specs or --registry."""
    from .serving import ModelRegistry, ModelRouter, parse_model_spec

    registry = ModelRegistry(args.registry) if args.registry else None
    specs = []
    for raw in args.model or ():
        if "=" in raw:
            specs.append(parse_model_spec(raw))
        else:
            # Backward-compatible single-model form: a bare bundle path (or
            # registry name) serves as the default tag.
            specs.append(("default", raw))
    if not specs:
        if registry is None:
            raise SystemExit(
                "either --model or --registry/--name is required")
        if not args.name:
            raise SystemExit("--name is required with --registry")
        ref = f"@{args.ref}" if args.ref else ""
        specs.append(("default", f"{args.name}{ref}"))
    router = ModelRouter.from_specs(
        specs, registry=registry, default=args.default_model,
        graph_store=args.graph_store,
        watch_interval=args.watch_interval,
        max_batch_size=args.max_batch_size,
        batch_wait_seconds=args.batch_wait_ms / 1000.0,
        max_inflight=args.max_inflight,
        breaker_threshold=args.breaker_threshold,
        breaker_reset_seconds=args.breaker_reset_seconds)
    return router, registry


def _command_serve(args: argparse.Namespace) -> int:
    from .obs import configure_logging, get_logger
    from .serving import PreforkFrontend, SelectionHTTPServer

    configure_logging(level=args.log_level, format=args.log_format)
    logger = get_logger("repro.serve")
    if args.graph_store and not os.path.isdir(args.graph_store):
        raise SystemExit(f"graph store {args.graph_store!r} does not exist")
    if args.workers < 1:
        raise SystemExit("--workers must be >= 1")
    # Model/batching knobs go through the constructors so their validation
    # applies.
    try:
        router, registry = _build_router(args)
    except (KeyError, ValueError) as error:
        raise SystemExit(str(error))
    if args.workers > 1:
        front = PreforkFrontend(router, registry=registry, host=args.host,
                                port=args.port, workers=args.workers,
                                verbose=args.verbose,
                                scrape_dir=args.scrape_dir)
        url, closer = front.url, front.shutdown
    else:
        front = SelectionHTTPServer(router, registry=registry,
                                    host=args.host, port=args.port,
                                    verbose=args.verbose,
                                    scrape_dir=args.scrape_dir)
        url, closer = front.url, front.server_close
    info = router.default_service.model_info
    # The url reports the actually bound port (--port 0 picks a free one);
    # the logger flushes every line, so a load generator reading our pipe
    # sees it before traffic.  The " on <url>" tail is load-bearing:
    # subprocess drivers parse the URL off this line.
    logger.info(f"serving model {info.get('name')!r} "
                f"version {info.get('version')} on {url}")
    if len(router.services) > 1:
        logger.info(f"models: {', '.join(router.tags())} "
                    f"(default: {router.default_tag}; route with the "
                    f"'model' field or X-Repro-Model header)")
    if args.workers > 1:
        logger.info(f"workers: {args.workers} processes on one shared "
                    f"listener")
    if args.graph_store:
        logger.info(f"graph store: {args.graph_store} (requests may send "
                    f"'graph_fingerprint' instead of edge arrays)")
    logger.info("endpoints: POST /v1/select  GET /v1/models  "
                "GET /healthz  GET /metrics")
    try:
        front.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        closer()
    return 0


def _command_metrics(args: argparse.Namespace) -> int:
    if (args.url is None) == (args.scrape_dir is None):
        raise SystemExit("exactly one of --url and --scrape-dir is required")
    if args.url:
        from urllib.error import URLError
        from urllib.request import urlopen

        url = args.url.rstrip("/") + "/metrics"
        try:
            with urlopen(url, timeout=args.timeout) as response:
                sys.stdout.write(response.read().decode("utf-8"))
        except (URLError, OSError) as error:
            raise SystemExit(f"scrape of {url} failed: {error}")
        return 0
    from .obs import ScrapeDir, render_prometheus

    if not os.path.isdir(args.scrape_dir):
        raise SystemExit(
            f"scrape directory {args.scrape_dir!r} does not exist")
    # include_dead keeps the slots of an already-exited pool: the offline
    # path exists precisely to inspect what a finished run left behind.
    merged, pids = ScrapeDir(args.scrape_dir).merged_snapshot(
        include_dead=True)
    if not pids:
        raise SystemExit(f"no metric slots found in {args.scrape_dir!r}")
    sys.stdout.write(render_prometheus(merged))
    return 0


def _format_span_line(node: dict, depth: int) -> str:
    duration = node.get("duration")
    timing = (f"{duration * 1000.0:10.2f}ms" if duration is not None
              else f"{'open':>12s}")
    attrs = " ".join(f"{key}={value}" for key, value
                     in sorted(node.get("attrs", {}).items()))
    return (f"{timing}  {'  ' * depth}{node['name']}"
            f"{'  ' + attrs if attrs else ''}  [pid {node['pid']}]")


def _command_trace_show(args: argparse.Namespace) -> int:
    from .obs.trace import read_trace, span_tree

    records = read_trace(args.trace_dir, trace_id=args.trace_id)
    if not records:
        print(f"no spans recorded in {args.trace_dir}")
        return 0

    def render(node: dict, depth: int) -> None:
        print(_format_span_line(node, depth))
        for event in node.get("events", ()):
            attrs = " ".join(f"{key}={value}" for key, value
                             in sorted(event.get("attrs", {}).items()))
            print(f"{'':12s}  {'  ' * (depth + 1)}@ {event['name']}"
                  f"{'  ' + attrs if attrs else ''}")
        children = sorted(node.get("children", ()),
                          key=lambda child: child.get("start", 0.0))
        for child in children:
            render(child, depth + 1)

    roots = span_tree(records)
    by_trace: dict = {}
    for root in roots:
        by_trace.setdefault(root["trace_id"], []).append(root)
    for trace_id, trace_roots in sorted(by_trace.items()):
        spans = sum(1 for record in records
                    if record.get("type") == "span"
                    and record.get("trace_id") == trace_id)
        print(f"trace {trace_id}  ({spans} spans)")
        for root in trace_roots:
            render(root, 1)
    return 0


def _command_models_publish(args: argparse.Namespace) -> int:
    from .serving import ModelRegistry

    registry = ModelRegistry(args.registry)
    dataset = load_dataset(args.profile) if args.profile else None
    entry = registry.publish(args.model, args.name, dataset=dataset)
    for tag in args.tag or ():
        entry = registry.promote(args.name, entry.version, tag=tag)
    tags = f" tags={','.join(entry.tags)}" if entry.tags else ""
    print(f"published {entry.name} version {entry.version}{tags}")
    return 0


def _command_models_list(args: argparse.Namespace) -> int:
    from .serving import ModelRegistry

    registry = ModelRegistry(args.registry)
    entries = (registry.versions(args.name) if args.name
               else registry.list_models())
    if not entries:
        print("no published models")
        return 0
    print(f"{'name':16s} {'version':14s} {'tags':20s} {'created':22s} "
          f"{'partitioners':>12s} {'algorithms':>10s}")
    for entry in entries:
        manifest = entry.manifest
        print(f"{entry.name:16s} {entry.version:14s} "
              f"{','.join(entry.tags) or '-':20s} "
              f"{manifest.get('created_at', '-'):22s} "
              f"{len(manifest.get('partitioners', [])):12d} "
              f"{len(manifest.get('algorithms', [])):10d}")
    return 0


def _command_models_promote(args: argparse.Namespace) -> int:
    from .serving import ModelRegistry

    registry = ModelRegistry(args.registry)
    resolved = registry.resolve(args.name, args.version)
    entry = registry.promote(args.name, resolved.version, tag=args.tag)
    print(f"promoted {entry.name} version {entry.version} to {args.tag!r}")
    return 0


# --------------------------------------------------------------------------- #
# Parser
# --------------------------------------------------------------------------- #
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli",
        description="EASE: automatic edge partitioner selection (ICDE 2023 "
                    "reproduction)")
    subparsers = parser.add_subparsers(dest="command", required=True)

    generate = subparsers.add_parser(
        "generate", help="generate an R-MAT training corpus")
    generate.add_argument("--output", required=True,
                          help="graph store directory the generated graphs "
                               "are saved into (created if missing)")
    generate.add_argument("--scale", type=float, default=1.0 / 50_000,
                          help="scale factor applied to the Table I grid")
    generate.add_argument("--step", type=int, default=8,
                          help="keep every step-th cell of the grid")
    generate.add_argument("--max-graphs", type=int, default=None,
                          help="stop after this many graphs")
    generate.add_argument("--seed", type=int, default=0)
    generate.set_defaults(handler=_command_generate)

    profile = subparsers.add_parser(
        "profile", help="profile graphs with all partitioners and workloads")
    profile.add_argument("--graph-store", required=True, metavar="DIR",
                         help="graph store whose graphs are profiled (see "
                              "'generate' and 'graph import'), opened "
                              "zero-copy so parallel workers share pages "
                              "instead of receiving pickled copies")
    profile.add_argument("--output", required=True,
                         help="output path of the profiling dataset (.pkl)")
    profile.add_argument("--partitioners", nargs="+",
                         default=list(ALL_PARTITIONER_NAMES),
                         choices=list(ALL_PARTITIONER_NAMES))
    profile.add_argument("--algorithms", nargs="+",
                         default=list(ALL_ALGORITHM_NAMES),
                         choices=list(ALL_ALGORITHM_NAMES))
    profile.add_argument("--partition-counts", nargs="+", type=int,
                         default=[4, 8])
    profile.add_argument("--processing-partitions", type=int, default=4)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--jobs", type=int, default=1,
                         help="parallelism of the profiling grid "
                              "(results are identical to --jobs 1)")
    profile.add_argument("--backend", default="auto",
                         choices=["auto", "inline", "process", "worker"],
                         help="executor backend of the task-DAG scheduler; "
                              "auto = inline for --jobs 1, process pool "
                              "otherwise")
    profile.add_argument("--queue-dir", default=None,
                         help="shared queue directory of the worker backend "
                              "(default: run-scoped temporary directory); "
                              "external 'repro worker' processes may serve "
                              "it too")
    profile.add_argument("--cache-dir", default=None,
                         help="content-addressed artifact cache reused "
                              "across profiling runs")
    profile.add_argument("--time-mode", default="model",
                         choices=["model", "wall_clock"],
                         help="partitioning run-time labels: deterministic "
                              "cost model or wall-clock measurement")
    profile.add_argument("--time-repeats", type=int, default=1,
                         help="wall-clock timing measurements per "
                              "combination (mean/std recorded; ignored in "
                              "model mode)")
    profile.add_argument("--max-task-attempts", type=int, default=3,
                         help="attempts per task before it is quarantined "
                              "as poison (default 3)")
    profile.add_argument("--task-deadline-seconds", type=float, default=None,
                         help="per-task execution deadline; an expired task "
                              "counts as a failure against its retry budget "
                              "(default: none)")
    profile.add_argument("--resume", action="store_true",
                         help="resume from the checkpoint left by an "
                              "interrupted run of the same command")
    profile.add_argument("--extend", default=None, metavar="DATASET",
                         help="incremental corpus growth: profile only the "
                              "graphs absent from this existing dataset "
                              "(shared combinations ride the warm artifact "
                              "cache) and write the merged, canonically "
                              "sorted dataset to --output")
    profile.add_argument("--stats-json", default=None, metavar="PATH",
                         help="also write run statistics (work units, cache "
                              "hits, per-task-kind latency percentiles) as "
                              "JSON to this path")
    profile.add_argument("--trace-dir", default=None, metavar="DIR",
                         help="record one distributed trace of the run: "
                              "driver and worker spans export to per-pid "
                              "JSONL files here (view with 'repro trace "
                              "show')")
    profile.set_defaults(handler=_command_profile)

    worker = subparsers.add_parser(
        "worker", help="serve a shared profiling queue directory")
    worker.add_argument("--queue-dir", required=True,
                        help="queue directory of a profile --backend worker "
                             "run (may be on a shared filesystem)")
    worker.add_argument("--poll-interval", type=float, default=0.05,
                        help="seconds between queue polls when idle")
    worker.add_argument("--max-tasks", type=int, default=None,
                        help="exit after this many tasks (default: serve "
                             "until the queue's stop sentinel appears)")
    worker.add_argument("--heartbeat-interval", type=float, default=1.0,
                        help="seconds between touches of the claimed "
                             "task's mtime, the worker's heartbeat; keep it "
                             "well under the driver's heartbeat timeout "
                             "(default 1.0)")
    worker.add_argument("--drain", action="store_true",
                        help="exit as soon as the queue is empty instead of "
                             "waiting for the stop sentinel")
    _add_logging_arguments(worker)
    worker.set_defaults(handler=_command_worker)

    cache = subparsers.add_parser(
        "cache", help="artifact-cache lifecycle commands")
    cache_commands = cache.add_subparsers(dest="cache_command", required=True)
    cache_gc = cache_commands.add_parser(
        "gc", help="shrink an artifact cache to a size bound (LRU order)")
    cache_gc.add_argument("--cache-dir", required=True,
                          help="artifact cache directory to collect")
    cache_gc.add_argument("--max-bytes", type=int, required=True,
                          help="target size in bytes (0 clears the cache "
                               "entirely)")
    cache_gc.set_defaults(handler=_command_cache_gc)

    graph = subparsers.add_parser(
        "graph", help="manage the memory-mapped graph store")
    graph_commands = graph.add_subparsers(dest="graph_command", required=True)
    graph_import = graph_commands.add_parser(
        "import", help="ingest graphs into a content-addressed store of "
                       "raw edges + the precomputed undirected CSR view")
    graph_import.add_argument("inputs", nargs="+", metavar="GRAPH",
                              help="whitespace edge-list files (or stored "
                                   "graph directories)")
    graph_import.add_argument("--store", required=True,
                              help="store directory (created if missing)")
    graph_import.set_defaults(handler=_command_graph_import)
    graph_ls = graph_commands.add_parser(
        "ls", help="list stored graphs (fingerprint, size, on-disk bytes)")
    graph_ls.add_argument("--store", required=True,
                          help="store directory to list")
    graph_ls.set_defaults(handler=_command_graph_ls)

    properties = subparsers.add_parser(
        "properties", help="extract graph properties in one batched "
                           "property-engine pass")
    properties.add_argument("--graph-store", required=True, metavar="DIR",
                            help="graph store whose graphs are extracted "
                                 "(opened zero-copy)")
    properties.add_argument("--output", required=True,
                            help="directory for the <name>.properties.json "
                                 "files (created if missing)")
    properties.add_argument("--exact-triangles", action="store_true",
                            help="count triangles exactly instead of the "
                                 "sampled estimate used beyond the sample "
                                 "size")
    properties.add_argument("--seed", type=int, default=0,
                            help="seed of the sampled triangle estimator")
    properties.add_argument("--cache-dir", default=None,
                            help="content-addressed artifact cache shared "
                                 "with profile runs; already-extracted "
                                 "graphs are restored instead of recomputed")
    properties.add_argument("--mode", choices=("exact", "approximate"),
                            default="exact",
                            help="'approximate' replaces triangle/clustering "
                                 "features with bounded wedge-sampling "
                                 "estimates (cached separately from exact "
                                 "artifacts)")
    properties.add_argument("--wedge-budget", type=int, default=None,
                            help="closure-check cap of --mode approximate "
                                 "(default: the library default budget)")
    properties.set_defaults(handler=_command_properties)

    train = subparsers.add_parser("train", help="train EASE from a profile")
    train.add_argument("--profile", required=True,
                       help="profiling dataset produced by the profile command")
    train.add_argument("--output", required=True,
                       help="output path of the trained model (.pkl)")
    train.add_argument("--feature-set", default="basic",
                       choices=["simple", "basic", "advanced"])
    train.add_argument("--replication-feature-set", default=None,
                       choices=["simple", "basic", "advanced"])
    train.set_defaults(handler=_command_train)

    select = subparsers.add_parser(
        "select", help="select a partitioner for a graph and workload")
    _add_model_source_arguments(select, model_required=False)
    select.add_argument("--graph", default=None,
                        help="stored graph directory (<store>/"
                             "<fingerprint>, as 'graph ls' lists them) or "
                             "whitespace edge-list file")
    select.add_argument("--properties", default=None, metavar="JSON",
                        help="precomputed GraphProperties JSON (as_dict "
                             "output); skips graph loading and property "
                             "recomputation")
    select.add_argument("--algorithm", required=True,
                        choices=list(ALL_ALGORITHM_NAMES) + ["label_propagation"])
    select.add_argument("--partitions", type=int, default=4)
    select.add_argument("--goal", default=OptimizationGoal.END_TO_END,
                        choices=[OptimizationGoal.END_TO_END,
                                 OptimizationGoal.PROCESSING])
    select.add_argument("--iterations", type=int, default=None,
                        help="number of iterations for fixed-iteration "
                             "algorithms")
    select.set_defaults(handler=_command_select)

    serve = subparsers.add_parser(
        "serve", help="run the HTTP selection server "
                      "(micro-batched /v1/select)")
    serve.add_argument("--model", action="append", default=None,
                       metavar="[TAG=]SPEC",
                       help="model to serve: a bundle file, a registry "
                            "NAME[@REF] (with --registry), or TAG=SPEC to "
                            "serve several models routed by the 'model' "
                            "request field / X-Repro-Model header "
                            "(repeatable, e.g. --model prod=ease@production "
                            "--model canary=ease@canary)")
    serve.add_argument("--registry", default=None,
                       help="model registry directory backing NAME[@REF] "
                            "specs and /v1/models")
    serve.add_argument("--name", default=None,
                       help="registry model name (single-model shorthand "
                            "for --model NAME)")
    serve.add_argument("--ref", default=None,
                       help="registry version id, prefix or tag (default: "
                            "the production tag, falling back to the "
                            "newest version)")
    serve.add_argument("--default-model", default=None, metavar="TAG",
                       help="tag served when a request names no model "
                            "(default: the first --model)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8080,
                       help="TCP port (0 picks a free port)")
    serve.add_argument("--workers", type=int, default=1,
                       help="HTTP worker processes forked over one shared "
                            "listening socket (model pages are "
                            "copy-on-write shared; default: 1, in-process)")
    serve.add_argument("--max-batch-size", type=int, default=64,
                       help="upper bound of one coalesced micro-batch")
    serve.add_argument("--batch-wait-ms", type=float, default=2.0,
                       help="how long the batcher waits for additional "
                            "concurrent requests")
    serve.add_argument("--max-inflight", type=int, default=None,
                       help="admission limit per model and worker process: "
                            "requests beyond this many in flight are shed "
                            "with 429 + Retry-After (default: unlimited)")
    serve.add_argument("--breaker-threshold", type=int, default=5,
                       help="consecutive internal errors before the "
                            "per-model circuit breaker opens and sheds "
                            "with 503 + Retry-After (default 5)")
    serve.add_argument("--breaker-reset-seconds", type=float, default=5.0,
                       help="how long an open circuit breaker waits before "
                            "half-open probe requests (default 5.0)")
    serve.add_argument("--watch-interval", type=float, default=0.0,
                       metavar="SECONDS",
                       help="poll the registry this often and auto-reload "
                            "models whose tag moved ('repro models promote' "
                            "rolls out without restarts; default: disabled)")
    serve.add_argument("--graph-store", default=None, metavar="DIR",
                       help="memory-mapped graph store; lets requests "
                            "reference stored graphs by 'graph_fingerprint' "
                            "instead of shipping edge arrays (O(1) "
                            "cold-start: only meta.json is read up front)")
    serve.add_argument("--verbose", action="store_true",
                       help="log every HTTP request")
    serve.add_argument("--scrape-dir", default=None, metavar="DIR",
                       help="directory of the per-worker metric slot files "
                            "behind GET /metrics (default: a run-scoped "
                            "temporary directory; set it to keep slots "
                            "inspectable after shutdown via 'repro "
                            "metrics --scrape-dir')")
    _add_logging_arguments(serve)
    serve.set_defaults(handler=_command_serve)

    metrics = subparsers.add_parser(
        "metrics", help="print a Prometheus-text metrics exposition")
    metrics.add_argument("--url", default=None,
                         help="base URL of a running server; scrapes "
                              "<url>/metrics")
    metrics.add_argument("--scrape-dir", default=None, metavar="DIR",
                         help="render a local scrape directory instead of "
                              "an HTTP scrape (works after the pool exited)")
    metrics.add_argument("--timeout", type=float, default=10.0,
                         help="HTTP timeout of --url scrapes in seconds")
    metrics.set_defaults(handler=_command_metrics)

    trace = subparsers.add_parser(
        "trace", help="inspect distributed traces")
    trace_commands = trace.add_subparsers(dest="trace_command", required=True)
    trace_show = trace_commands.add_parser(
        "show", help="print the span trees of a trace directory")
    trace_show.add_argument("--trace-dir", required=True,
                            help="directory of spans-<pid>.jsonl files "
                                 "(--trace-dir of profile)")
    trace_show.add_argument("--trace-id", default=None,
                            help="restrict to one trace id")
    trace_show.set_defaults(handler=_command_trace_show)

    models = subparsers.add_parser(
        "models", help="manage the versioned model registry")
    models_commands = models.add_subparsers(dest="models_command",
                                            required=True)
    publish = models_commands.add_parser(
        "publish", help="publish a trained bundle as a content-hashed version")
    publish.add_argument("--registry", required=True,
                         help="registry directory (created if missing)")
    publish.add_argument("--model", required=True,
                         help="trained model produced by the train command")
    publish.add_argument("--name", required=True, help="model name")
    publish.add_argument("--profile", default=None,
                         help="profiling dataset the model was trained from "
                              "(records provenance in the manifest)")
    publish.add_argument("--tag", action="append", default=None,
                         help="tag to point at the published version "
                              "(repeatable, e.g. --tag production)")
    publish.set_defaults(handler=_command_models_publish)
    models_list = models_commands.add_parser(
        "list", help="list published versions and their tags")
    models_list.add_argument("--registry", required=True)
    models_list.add_argument("--name", default=None,
                             help="restrict to one model name")
    models_list.set_defaults(handler=_command_models_list)
    promote = models_commands.add_parser(
        "promote", help="point a tag (e.g. production) at a version")
    promote.add_argument("--registry", required=True)
    promote.add_argument("--name", required=True)
    promote.add_argument("--version", required=True,
                         help="version id or unique prefix")
    promote.add_argument("--tag", default="production")
    promote.set_defaults(handler=_command_models_promote)
    return parser


def _add_logging_arguments(parser: argparse.ArgumentParser) -> None:
    """--log-level / --log-format of the structured logger."""
    parser.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"],
                        help="minimum level of status lines (default: info)")
    parser.add_argument("--log-format", default="human",
                        choices=["human", "json"],
                        help="'human' keeps event text verbatim at the end "
                             "of each line; 'json' emits one object per "
                             "line (default: human)")


def _add_model_source_arguments(parser: argparse.ArgumentParser,
                                model_required: bool) -> None:
    """--model (bundle file) or --registry/--name/--ref (registry version)."""
    parser.add_argument("--model", required=model_required, default=None,
                        help="trained model produced by the train command")
    parser.add_argument("--registry", default=None,
                        help="model registry directory (alternative to "
                             "--model)")
    parser.add_argument("--name", default=None,
                        help="registry model name (with --registry)")
    parser.add_argument("--ref", default=None,
                        help="registry version id, prefix or tag (default: "
                             "the production tag, falling back to the "
                             "newest version)")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.cli``."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests on main()
    sys.exit(main())
