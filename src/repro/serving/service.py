"""SelectionService: the in-process core of the EASE serving subsystem.

The service keeps one trained EASE system resident and answers selection
requests through a single code path shared by the CLI, the HTTP frontend and
library callers.  Two mechanisms make it fast under concurrent load:

* **Property memoization** — ``GraphProperties`` are cached by graph content
  fingerprint, so repeated queries about the same graph skip the (sampled)
  triangle counting entirely.  Callers holding precomputed properties can
  submit those directly and skip graph shipping altogether.
* **Micro-batching** — concurrent requests are coalesced by a background
  worker into one :meth:`PartitionerSelector.select_batch` call, which scores
  the whole (requests x candidates) grid with a single vectorized call per
  underlying predictor model instead of one call per request per candidate.

Every request runs the predictors.  Batched and sequential answers come from
the same batched selector path, which answers each request the same whatever
else shares its batch.  A batch of raw graphs resolves its properties with
one :func:`repro.ease.selector.request_properties` call (content-deduplicated;
one vectorized engine pass per distinct graph) via :meth:`submit_many`.
"""

from __future__ import annotations

import itertools
import math
import os
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..faults import fire
from ..obs import get_registry
from ..obs.metrics import SIZE_BUCKETS

from ..graph import (
    Graph,
    GraphProperties,
    GraphStore,
    GraphStoreError,
)
from ..ease.pipeline import EASE
from ..ease.selector import (
    OptimizationGoal,
    SelectionRequest,
    SelectionResult,
    request_properties,
)
from ..runtime.jobs import graph_fingerprint
from .registry import ModelRegistry, ModelVersion

__all__ = ["AdmissionGate", "CircuitBreaker", "GraphResolver",
           "SelectionService", "ServiceStats"]

#: Process-wide sequence distinguishing service/gate/resolver instances in
#: the metrics registry.  The registry outlives any one instance, so each
#: instance gets its own ``service="<prefix>:<seq>"`` label value and starts
#: from zeroed children.  A prefork pool forks *after* construction, so all
#: workers share one label value and their slot files merge by exact sum.
_INSTANCE_SEQUENCE = itertools.count()

#: Memoized ``GraphProperties`` per service (LRU by content fingerprint).
PROPERTY_CACHE_SIZE = 1024

#: Opened stored graphs per :class:`GraphResolver`.  Mappings are cheap; the
#: bound only caps file-descriptor usage on stores with many graphs.
GRAPH_CACHE_SIZE = 128


def _instance_label(prefix: str) -> str:
    return f"{prefix}:{next(_INSTANCE_SEQUENCE)}"


class AdmissionGate:
    """Bounded in-flight admission gate of one service.

    The transport-agnostic request core acquires a slot before any work on a
    request (graph resolution, property extraction, prediction) and releases
    it when the response is built.  When all ``limit`` slots are taken the
    request is *shed* — the core answers ``429`` with a ``Retry-After`` hint
    instead of queueing unboundedly.  ``limit=None`` admits everything but
    still counts in-flight requests, so ``/healthz`` always reports load.

    The counters live in the process metrics registry (one ``service``-
    labeled series per gate instance) — ``/healthz``, ``/metrics`` and the
    ``in_flight`` / ``admitted_total`` / ``shed_total`` attributes all read
    the same source of truth.
    """

    def __init__(self, limit: Optional[int] = None,
                 retry_after_seconds: float = 1.0,
                 instance: Optional[str] = None) -> None:
        if limit is not None and limit < 1:
            raise ValueError("admission limit must be >= 1 (None = unlimited)")
        if retry_after_seconds <= 0:
            raise ValueError("retry_after_seconds must be > 0")
        self.limit = limit
        self.retry_after_seconds = retry_after_seconds
        self.instance = instance or _instance_label("gate")
        self._lock = threading.Lock()
        registry = get_registry()
        labels = ("service",)
        self._in_flight = registry.gauge(
            "serving_inflight_requests",
            "Requests currently between admission and response",
            labels).labels(self.instance)
        self._admitted = registry.counter(
            "serving_admitted_total", "Requests admitted past the gate",
            labels).labels(self.instance)
        self._shed = registry.counter(
            "serving_shed_total", "Requests shed with 429 at the gate",
            labels).labels(self.instance)

    @property
    def in_flight(self) -> int:
        return int(self._in_flight.value)

    @property
    def admitted_total(self) -> int:
        return int(self._admitted.value)

    @property
    def shed_total(self) -> int:
        return int(self._shed.value)

    def try_acquire(self) -> bool:
        """Take one slot; False (and a shed count) when the gate is full."""
        with self._lock:
            if self.limit is not None and self.in_flight >= self.limit:
                self._shed.inc()
                return False
            self._in_flight.inc()
            self._admitted.inc()
            return True

    def release(self) -> None:
        with self._lock:
            if self.in_flight <= 0:
                raise RuntimeError("AdmissionGate.release without acquire")
            self._in_flight.dec()

    def as_dict(self) -> Dict:
        with self._lock:
            return {"limit": self.limit,
                    "in_flight": self.in_flight,
                    "admitted_total": self.admitted_total,
                    "shed_total": self.shed_total}


class CircuitBreaker:
    """Per-service circuit breaker over internal (5xx-class) failures.

    Closed by default; :meth:`record_failure` counts consecutive internal
    errors and at ``failure_threshold`` the breaker *opens*: :meth:`allow`
    answers ``(False, retry_after)`` — the request core turns that into
    ``503`` with a ``Retry-After`` header — until ``reset_seconds`` have
    elapsed.  It then moves to *half-open* and lets traffic through as
    probes: the first success closes the breaker, the first failure reopens
    it for another full reset window.  A success in the closed state clears
    the consecutive-failure count.

    State surfaces three ways, all one source of truth: the
    ``serving_breaker_open`` gauge and ``serving_breaker_transitions_total``
    counter on ``/metrics``, :meth:`as_dict` on ``/healthz``, and the
    ``state`` attribute for tests.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, failure_threshold: int = 5,
                 reset_seconds: float = 5.0,
                 instance: Optional[str] = None) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if reset_seconds <= 0:
            raise ValueError("reset_seconds must be > 0")
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self.instance = instance or _instance_label("breaker")
        self._lock = threading.Lock()
        self._state = self.CLOSED
        self._failures = 0
        self._opened_at = 0.0
        registry = get_registry()
        self._open_gauge = registry.gauge(
            "serving_breaker_open",
            "1 while the service circuit breaker is open, else 0",
            ("service",)).labels(self.instance)
        self._transitions = registry.counter(
            "serving_breaker_transitions_total",
            "Circuit-breaker state transitions by target state",
            ("service", "state"))

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _transition(self, state: str) -> None:
        # Caller holds the lock.
        if state == self._state:
            return
        self._state = state
        self._open_gauge.set(1 if state == self.OPEN else 0)
        self._transitions.labels(self.instance, state).inc()

    def allow(self) -> Tuple[bool, Optional[int]]:
        """Whether a request may proceed; else the Retry-After seconds.

        An open breaker whose reset window has elapsed moves to half-open
        here and admits the request as a probe.
        """
        with self._lock:
            if self._state == self.OPEN:
                remaining = self._opened_at + self.reset_seconds \
                    - time.monotonic()
                if remaining > 0:
                    return False, max(1, int(math.ceil(remaining)))
                self._transition(self.HALF_OPEN)
            return True, None

    def record_success(self) -> None:
        with self._lock:
            self._failures = 0
            if self._state == self.HALF_OPEN:
                self._transition(self.CLOSED)

    def record_failure(self) -> None:
        with self._lock:
            if self._state == self.HALF_OPEN:
                self._opened_at = time.monotonic()
                self._transition(self.OPEN)
                return
            self._failures += 1
            if self._state == self.CLOSED \
                    and self._failures >= self.failure_threshold:
                self._opened_at = time.monotonic()
                self._transition(self.OPEN)

    def as_dict(self) -> Dict:
        with self._lock:
            payload = {"state": self._state,
                       "consecutive_failures": self._failures,
                       "failure_threshold": self.failure_threshold,
                       "reset_seconds": self.reset_seconds}
            if self._state == self.OPEN:
                payload["retry_after_seconds"] = max(
                    0.0, self._opened_at + self.reset_seconds
                    - time.monotonic())
            return payload


class GraphResolver:
    """Bounded LRU of opened store-backed graphs, shareable across services.

    Opening a stored graph is O(1) (one ``meta.json`` read; arrays are
    memory-mapped lazily), but reusing the object keeps one mapping — and one
    set of attached CSR views — per graph instead of one per request.  A
    multi-model router passes one resolver to all its services so N models
    share a single open-graph LRU (of :data:`GRAPH_CACHE_SIZE` graphs) over
    the same store.
    """

    def __init__(self, store: Union[GraphStore, str]) -> None:
        if isinstance(store, str):
            store = GraphStore(store)
        self.store = store
        self._lock = threading.Lock()
        self._open: "OrderedDict[str, Graph]" = OrderedDict()
        self.instance = _instance_label("resolver")
        registry = get_registry()
        self._hits = registry.counter(
            "serving_graph_lru_hits_total",
            "Stored-graph opens answered by the open-graph LRU",
            ("resolver",)).labels(self.instance)
        self._misses = registry.counter(
            "serving_graph_lru_misses_total",
            "Stored-graph opens that had to hit the graph store",
            ("resolver",)).labels(self.instance)

    def resolve(self, fingerprint: str) -> Graph:
        """Open a stored graph by content fingerprint (O(1) memory-map).

        Raises :class:`ValueError` on an unknown fingerprint — the error the
        request core maps to 400.
        """
        with self._lock:
            cached = self._open.get(fingerprint)
            if cached is not None:
                self._open.move_to_end(fingerprint)
                self._hits.inc()
                return cached
        self._misses.inc()
        try:
            graph = self.store.open(fingerprint)
        except GraphStoreError as error:
            raise ValueError(str(error)) from error
        with self._lock:
            self._open[fingerprint] = graph
            self._open.move_to_end(fingerprint)
            while len(self._open) > GRAPH_CACHE_SIZE:
                self._open.popitem(last=False)
        return graph

    def __len__(self) -> int:
        with self._lock:
            return len(self._open)


class ServiceStats:
    """Request/batch accounting of one service instance.

    Every count is backed by the process metrics registry under a
    ``service``-labeled series unique to this instance, so ``/healthz``,
    ``GET /metrics`` and the plain attribute reads
    (``service.stats.requests`` ...) are one source of truth.  Mutation
    goes through :meth:`inc` / :meth:`observe_batch`; attribute reads
    return the registry values.
    """

    _COUNTER_HELP = {
        "requests": "Requests answered",
        "batches": "Micro-batches executed",
        "property_cache_hits": "Property-cache hits",
        "property_cache_misses": "Property-cache misses",
    }

    def __init__(self, instance: Optional[str] = None) -> None:
        registry = get_registry()
        self.instance = instance or _instance_label("service")
        counters = {}
        for name, help_text in self._COUNTER_HELP.items():
            family = registry.counter(f"serving_{name}_total", help_text,
                                      ("service",))
            counters[name] = family.labels(self.instance)
        self._counters = counters
        self._max_batch = registry.gauge(
            "serving_max_batch_size", "Largest micro-batch executed",
            ("service",)).labels(self.instance)

    def inc(self, name: str, amount: int = 1) -> None:
        self._counters[name].inc(amount)

    def observe_batch(self, size: int) -> None:
        self._max_batch.set_max(size)

    def __getattr__(self, name: str) -> int:
        counters = self.__dict__.get("_counters")
        if counters is not None and name in counters:
            return int(counters[name].value)
        raise AttributeError(name)

    @property
    def max_batch_size(self) -> int:
        return int(self._max_batch.value)

    def mean_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {"requests": self.requests, "batches": self.batches,
                "max_batch_size": self.max_batch_size,
                "mean_batch_size": self.mean_batch_size(),
                "property_cache_hits": self.property_cache_hits,
                "property_cache_misses": self.property_cache_misses}


@dataclass
class _Pending:
    request: SelectionRequest
    future: Future = field(default_factory=Future)
    #: ``time.monotonic()`` at enqueue; feeds the batch-queue-wait
    #: histogram when the batch executes (0.0 = never enqueued).
    enqueued_at: float = 0.0


_STOP = object()


class SelectionService:
    """Holds a loaded EASE system and serves selection requests.

    Parameters
    ----------
    system:
        A trained :class:`~repro.ease.pipeline.EASE` instance.
    model_info:
        Optional metadata dictionary describing the loaded model (filled
        automatically by :meth:`from_registry` / :meth:`from_bundle`).
    max_batch_size:
        Upper bound of one coalesced micro-batch.
    batch_wait_seconds:
        How long the batching worker waits for additional requests after the
        first one arrives.  Zero still batches whatever is already queued.
    graph_store:
        Optional :class:`~repro.graph.GraphStore` (or its root directory, or
        a shared :class:`GraphResolver`) backing :meth:`resolve_graph`:
        requests may then reference stored graphs by content fingerprint
        instead of shipping edge arrays, and the first hit on a huge graph
        memory-maps it in O(1) instead of loading O(m) bytes (the
        ``--graph-store`` serving cold-start path).  Passing a
        :class:`GraphResolver` shares one open-graph LRU across services.
    max_inflight:
        Admission-control bound: at most this many requests may be between
        admission and response on this service at once; overflow is shed
        with HTTP 429 by the request core.  ``None`` admits everything.
    breaker_threshold / breaker_reset_seconds:
        :class:`CircuitBreaker` configuration: consecutive internal errors
        before the breaker opens, and how long it stays open before
        half-open probes.

    The micro-batcher only runs between :meth:`start` and :meth:`stop` (or
    inside a ``with`` block); an unstarted service executes every request
    inline through the same batched code path, which is what the one-shot
    CLI uses.
    """

    def __init__(self, system: EASE,
                 model_info: Optional[Dict] = None,
                 max_batch_size: int = 64,
                 batch_wait_seconds: float = 0.002,
                 graph_store: Optional[Union[GraphStore, str,
                                             GraphResolver]] = None,
                 max_inflight: Optional[int] = None,
                 breaker_threshold: int = 5,
                 breaker_reset_seconds: float = 5.0) -> None:
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if batch_wait_seconds < 0:
            raise ValueError("batch_wait_seconds must be >= 0")
        self.system = system
        self.model_info = dict(model_info or {})
        self.max_batch_size = max_batch_size
        self.batch_wait_seconds = batch_wait_seconds
        if graph_store is None or isinstance(graph_store, GraphResolver):
            self.graph_resolver = graph_store
        else:
            self.graph_resolver = GraphResolver(graph_store)
        # One instance label shared by every metric series of this service
        # (fresh series per instance; prefork workers fork after this and
        # therefore share the label, so pool merges sum exactly).
        self.instance = _instance_label(
            str(dict(model_info or {}).get("name") or "service"))
        self.admission = AdmissionGate(max_inflight, instance=self.instance)
        self.breaker = CircuitBreaker(breaker_threshold,
                                      breaker_reset_seconds,
                                      instance=self.instance)
        self.stats = ServiceStats(instance=self.instance)
        registry = get_registry()
        self._queue_wait_hist = registry.histogram(
            "serving_batch_queue_wait_seconds",
            "Time a request waited in the micro-batch queue",
            ("service",)).labels(self.instance)
        self._batch_size_hist = registry.histogram(
            "serving_batch_size", "Coalesced micro-batch sizes",
            ("service",), buckets=SIZE_BUCKETS).labels(self.instance)
        self._inference_hist = registry.histogram(
            "serving_inference_seconds",
            "Vectorized predictor pass latency per micro-batch",
            ("service",)).labels(self.instance)
        self._property_hist = registry.histogram(
            "serving_property_resolve_seconds",
            "Property-extraction latency of cache misses",
            ("service",)).labels(self.instance)
        self.started_at = time.time()
        # Keyed by graph content fingerprint.
        self._properties: "OrderedDict[str, GraphProperties]" = OrderedDict()
        # Filled by from_registry so reload_from_registry can re-resolve.
        self._registry: Optional[ModelRegistry] = None
        self._registry_name: Optional[str] = None
        self._registry_ref: Optional[str] = None
        self._lock = threading.Lock()
        # Serialises start/stop against the running-check-plus-enqueue in
        # submit(): without it a request could be enqueued just after stop()
        # drained the queue and its future would never resolve.
        self._lifecycle_lock = threading.Lock()
        self._queue: "queue.Queue" = queue.Queue()
        self._worker: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Construction from stored models
    # ------------------------------------------------------------------ #
    @classmethod
    def from_registry(cls, registry: Union[ModelRegistry, str], name: str,
                      ref: Optional[str] = None, **kwargs) -> "SelectionService":
        """Serve a registry version (tag, version id or prefix; see
        :meth:`ModelRegistry.resolve`)."""
        if isinstance(registry, str):
            registry = ModelRegistry(registry)
        entry = registry.resolve(name, ref)
        system = registry.load(name, entry.version)
        info = {"name": entry.name, "version": entry.version,
                "tags": entry.tags, "source": "registry",
                "manifest": entry.manifest}
        service = cls(system, model_info=info, **kwargs)
        service._registry = registry
        service._registry_name = name
        service._registry_ref = ref
        return service

    @classmethod
    def from_bundle(cls, path: str, **kwargs) -> "SelectionService":
        """Serve a plain ``save_ease`` bundle file."""
        from ..ease.persistence import load_ease

        system = load_ease(path)
        info = {"name": path, "version": None, "tags": [], "source": "bundle"}
        return cls(system, model_info=info, **kwargs)

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    @property
    def running(self) -> bool:
        return self._worker is not None and self._worker.is_alive()

    def start(self) -> "SelectionService":
        """Start the micro-batching worker (idempotent)."""
        with self._lifecycle_lock:
            if not self.running:
                self._worker = threading.Thread(target=self._batch_loop,
                                                name="selection-batcher",
                                                daemon=True)
                self._worker.start()
        return self

    def stop(self) -> None:
        """Stop the worker after draining queued requests."""
        with self._lifecycle_lock:
            if self.running:
                self._queue.put(_STOP)
                self._worker.join()
            self._worker = None
            # Anything still queued was enqueued before the sentinel but
            # after the worker stopped collecting; answer it inline so no
            # future ever hangs.
            leftovers = []
            while True:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is not _STOP:
                    leftovers.append(item)
            if leftovers:
                self._execute(leftovers)

    def __enter__(self) -> "SelectionService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    # ------------------------------------------------------------------ #
    # Graph-store resolution
    # ------------------------------------------------------------------ #
    @property
    def graph_store(self) -> Optional[GraphStore]:
        """The backing store of :meth:`resolve_graph`, if any."""
        return None if self.graph_resolver is None else \
            self.graph_resolver.store

    def resolve_graph(self, fingerprint: str) -> Graph:
        """Open a stored graph by content fingerprint (O(1) memory-map).

        Raises :class:`ValueError` when no graph store is configured or the
        fingerprint is unknown — the errors the request core maps to 400.
        """
        if self.graph_resolver is None:
            raise ValueError(
                "graph fingerprints require a configured graph store "
                "(serve with --graph-store)")
        return self.graph_resolver.resolve(fingerprint)

    # ------------------------------------------------------------------ #
    # Property memoization
    # ------------------------------------------------------------------ #
    def resolve_properties(self, graph: Union[Graph, GraphProperties]
                           ) -> GraphProperties:
        """Graph properties memoized by content fingerprint (LRU)."""
        return self.resolve_properties_batch([graph])[0]

    def resolve_properties_batch(self,
                                 graphs: Sequence[Union[Graph,
                                                        GraphProperties]]
                                 ) -> List[GraphProperties]:
        """Batched property resolution: one engine call for all cache misses.

        Cold-starting a corpus of unseen graphs therefore costs a single
        :func:`repro.ease.selector.request_properties` invocation — content
        duplicates collapse to one computation, each distinct graph runs one
        vectorized engine pass — instead of one per-request extraction
        round-trip through the service cache.
        """
        if any(not isinstance(graph, GraphProperties) for graph in graphs):
            fire("serving.resolve_properties")
        resolved: List[Optional[GraphProperties]] = [None] * len(graphs)
        # Hash outside the lock: fingerprinting reads the full edge arrays,
        # and serializing every request thread on it would gut the
        # concurrency the micro-batcher exists to exploit.
        cache_keys: List[Optional[str]] = [None] * len(graphs)
        for position, graph in enumerate(graphs):
            if isinstance(graph, GraphProperties):
                resolved[position] = graph
            else:
                cache_keys[position] = graph_fingerprint(graph)
        missing: "OrderedDict[str, Graph]" = OrderedDict()
        with self._lock:
            for position, cache_key in enumerate(cache_keys):
                if cache_key is None:
                    continue
                cached = self._properties.get(cache_key)
                if cached is not None:
                    self._properties.move_to_end(cache_key)
                    self.stats.inc("property_cache_hits")
                    resolved[position] = cached
                else:
                    self.stats.inc("property_cache_misses")
                    missing.setdefault(cache_key, graphs[position])
        if missing:
            # The selector's own property path, so cached and uncached
            # requests answer identically.
            started = time.perf_counter()
            computed = dict(zip(missing, request_properties(
                list(missing.values()))))
            self._property_hist.observe(time.perf_counter() - started)
            with self._lock:
                for cache_key, properties in computed.items():
                    self._properties[cache_key] = properties
                    self._properties.move_to_end(cache_key)
                while len(self._properties) > PROPERTY_CACHE_SIZE:
                    self._properties.popitem(last=False)
            for position, cache_key in enumerate(cache_keys):
                if resolved[position] is None and cache_key is not None:
                    resolved[position] = computed[cache_key]
        return resolved

    # ------------------------------------------------------------------ #
    # Model reload
    # ------------------------------------------------------------------ #
    def reload(self, system: EASE,
               model_info: Optional[Dict] = None) -> None:
        """Swap the served model; the next batch answers with it.

        Graph properties stay cached — they do not depend on the model.
        In-flight batches finish against the system they started with.
        """
        self.system = system
        self.model_info = dict(model_info or {})

    @property
    def registry_backed(self) -> bool:
        """Whether :meth:`reload_from_registry` can re-resolve this model."""
        return self._registry is not None

    def reload_from_registry(self) -> bool:
        """Re-resolve the registry reference; reload if it moved.

        Picks up ``repro models promote`` (the serving ref is usually a tag
        such as ``production``) and newly published versions.  Returns True
        when a different version was loaded and False when the resolved
        version is unchanged.
        """
        if self._registry is None:
            raise RuntimeError("service was not constructed from_registry")
        entry = self._registry.resolve(self._registry_name, self._registry_ref)
        if entry.version == self.model_info.get("version"):
            return False
        system = self._registry.load(entry.name, entry.version)
        self.reload(system, model_info={
            "name": entry.name, "version": entry.version,
            "tags": entry.tags, "source": "registry",
            "manifest": entry.manifest})
        return True

    # ------------------------------------------------------------------ #
    # Request paths
    # ------------------------------------------------------------------ #
    def _validate(self, request: SelectionRequest) -> SelectionRequest:
        OptimizationGoal.validate(request.goal)
        algorithms = self.system.processing_time_predictor.algorithms
        if request.algorithm not in algorithms:
            raise ValueError(f"no trained model for algorithm "
                             f"{request.algorithm!r}; available: "
                             f"{list(algorithms)}")
        if request.num_partitions < 1:
            raise ValueError("num_partitions must be >= 1")
        if isinstance(request.graph, GraphProperties):
            request.graph.validate()
        return request

    def submit(self, request: SelectionRequest) -> "Future[SelectionResult]":
        """Enqueue one request; returns a future with the SelectionResult.

        Invalid requests fail fast here (before batching) so one malformed
        request can never poison a coalesced batch.
        """
        return self.submit_many([request])[0]

    def submit_many(self, requests: Sequence[SelectionRequest]
                    ) -> List["Future[SelectionResult]"]:
        """Enqueue a batch of requests; returns one future per request.

        All raw graphs in the batch resolve their properties through one
        content-deduplicated :meth:`resolve_properties_batch` call.  Invalid
        requests fail fast (the whole call raises before anything is
        enqueued).
        """
        for request in requests:
            self._validate(request)
        properties = self.resolve_properties_batch(
            [request.graph for request in requests])
        batch = [_Pending(SelectionRequest(
            graph=props, algorithm=request.algorithm,
            num_partitions=request.num_partitions, goal=request.goal,
            num_iterations=request.num_iterations))
            for request, props in zip(requests, properties)]
        if batch:
            with self._lifecycle_lock:
                running = self.running
                if running:
                    for pending in batch:
                        pending.enqueued_at = time.monotonic()
                        self._queue.put(pending)
            if not running:
                self._execute(batch)
        return [pending.future for pending in batch]

    def select_many(self, requests: Sequence[SelectionRequest],
                    timeout: Optional[float] = None) -> List[SelectionResult]:
        """Blocking batch selection (one property pass, one predictor pass
        when inline; coalesced by the worker otherwise)."""
        return [future.result(timeout=timeout)
                for future in self.submit_many(requests)]

    def select(self, graph: Union[Graph, GraphProperties], algorithm: str,
               num_partitions: int, goal: str = OptimizationGoal.END_TO_END,
               num_iterations: Optional[int] = None,
               timeout: Optional[float] = None) -> SelectionResult:
        """Select a partitioner (blocking; coalesced when the worker runs)."""
        return self.submit(SelectionRequest(
            graph=graph, algorithm=algorithm, num_partitions=num_partitions,
            goal=goal, num_iterations=num_iterations)).result(timeout=timeout)

    # ------------------------------------------------------------------ #
    # Micro-batching worker
    # ------------------------------------------------------------------ #
    def _batch_loop(self) -> None:
        while True:
            item = self._queue.get()
            if item is _STOP:
                return
            batch = [item]
            deadline = time.monotonic() + self.batch_wait_seconds
            # Stop collecting once arrivals go quiet: concurrent callers
            # enqueue within a fraction of the hard deadline of each other,
            # and waiting out the full window after the burst would only add
            # latency to every request in the batch.
            quiet_window = self.batch_wait_seconds / 4.0
            stop = False
            while len(batch) < self.max_batch_size:
                now = time.monotonic()
                remaining = min(deadline - now, quiet_window)
                try:
                    if remaining > 0:
                        item = self._queue.get(timeout=remaining)
                    else:
                        item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _STOP:
                    stop = True
                    break
                batch.append(item)
            self._execute(batch)
            if stop:
                return

    def _execute(self, batch: List[_Pending]) -> None:
        self.stats.inc("requests", len(batch))
        self.stats.inc("batches")
        self.stats.observe_batch(len(batch))
        self._batch_size_hist.observe(len(batch))
        dequeued = time.monotonic()
        for pending in batch:
            if pending.enqueued_at:
                self._queue_wait_hist.observe(dequeued - pending.enqueued_at)
        inference_started = time.perf_counter()
        try:
            results = self.system.selector.select_batch(
                [pending.request for pending in batch])
        except BaseException as error:  # pragma: no cover - defensive
            for pending in batch:
                if not pending.future.done():
                    pending.future.set_exception(error)
            return
        self._inference_hist.observe(time.perf_counter() - inference_started)
        for pending, result in zip(batch, results):
            pending.future.set_result(result)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def health(self) -> Dict:
        """Liveness payload of the ``/healthz`` endpoint."""
        return {
            "status": "ok",
            "pid": os.getpid(),
            "uptime_seconds": time.time() - self.started_at,
            "batching": self.running,
            "model": {key: self.model_info.get(key)
                      for key in ("name", "version", "tags", "source")},
            "algorithms": list(self.system.processing_time_predictor.algorithms),
            "partitioners": list(self.system.partitioner_names),
            "queue_depth": self._queue.qsize(),
            "admission": self.admission.as_dict(),
            "breaker": self.breaker.as_dict(),
            "stats": self.stats.as_dict(),
        }
