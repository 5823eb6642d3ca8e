"""Transport-agnostic request core of the selection server.

:class:`RequestCore` maps ``(method, path, query, headers, body)`` to a
:class:`Response` — status, JSON-able payload, extra headers — with **no
socket, thread or HTTP framing anywhere in sight**.  The stdlib HTTP server
(:mod:`repro.serving.http`) is a thin adapter over it, and an asyncio/ASGI
front can be bolted on without touching request semantics.  A unit test can
drive the full endpoint surface by calling :meth:`RequestCore.handle`
directly.

The core owns, per request:

1. **Body decoding** — raw bytes (or a pre-decoded dict, for tests) to a
   JSON object, with the size bound of :data:`MAX_BODY_BYTES`.
2. **Model routing** — the ``model`` body field or ``X-Repro-Model`` header
   picks a tag of the :class:`~repro.serving.router.ModelRouter`; absent
   both, the default tag serves.
3. **Admission control** — one slot of the routed service's
   :class:`~repro.serving.service.AdmissionGate` is held across parsing and
   prediction; a full gate sheds the request with ``429`` and a
   ``Retry-After`` header instead of queueing it unboundedly.
4. **Payload validation** (:func:`parse_graph_payload`,
   :func:`parse_job_payload`) and **response serialization**.

Endpoints:

``GET /healthz[?model=TAG]``
    Aggregated liveness (or one model's): per-model identity, queue depth,
    in-flight/shed admission counters, batching and cache stats.
``GET /v1/models``
    Registry contents (when serving from a registry) or the loaded bundles.
    A corrupt or concurrently-mutated registry yields ``503``, never an
    unhandled exception.
``POST /v1/select``
    Body: ``{"graph": {...}}`` or ``{"properties": {...}}`` or
    ``{"graph_fingerprint": "..."}`` plus ``algorithm``/``num_partitions``
    (optional ``goal``, default ``end_to_end``; optional
    ``num_iterations``; optional ``model`` routing tag).  The answer carries
    the winner, the ranking and every candidate's predicted costs.  Raw
    graphs resolve their properties through the service's one sampled
    extraction; a request for any other property mode is a ``400``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union
from urllib.parse import parse_qs

import numpy as np

from ..graph import Graph, GraphProperties
from ..ease.selector import OptimizationGoal, PartitionerScore, SelectionResult
from ..obs import get_registry
from ..obs.metrics import ScrapeDir
from .router import ModelRouter

__all__ = ["BadRequest", "MAX_BODY_BYTES", "RequestCore", "Response",
           "parse_graph_payload", "parse_job_payload"]

#: Request payloads above this size are rejected (a graph of ~2M edges as
#: JSON; callers with bigger graphs should send precomputed properties or a
#: graph-store fingerprint).
MAX_BODY_BYTES = 64 * 1024 * 1024


class BadRequest(ValueError):
    """Raised for malformed request payloads (mapped to HTTP 400)."""


@dataclass(frozen=True)
class Response:
    """One transport-agnostic response: status, payload, extra headers."""

    status: int
    payload: Dict
    headers: Tuple[Tuple[str, str], ...] = ()
    #: A transport that supports persistent connections should close this
    #: one (set on framing errors where request bytes may still be in
    #: flight and would desync the stream).
    close_connection: bool = False
    content_type: str = "application/json"
    #: Pre-rendered non-JSON body (the Prometheus exposition of
    #: ``/metrics``); when set it wins over ``payload``.
    text: Optional[str] = None

    def body(self) -> bytes:
        if self.text is not None:
            return self.text.encode("utf-8")
        return json.dumps(self.payload).encode("utf-8")


# --------------------------------------------------------------------------- #
# Payload parsing / serialization
# --------------------------------------------------------------------------- #
def _score_payload(score: PartitionerScore) -> Dict:
    return {
        "partitioner": score.partitioner,
        "predicted_partitioning_seconds": score.predicted_partitioning_seconds,
        "predicted_processing_seconds": score.predicted_processing_seconds,
        "predicted_end_to_end_seconds": score.predicted_end_to_end_seconds,
        "predicted_quality": score.predicted_quality,
    }


def _selection_payload(result: SelectionResult) -> Dict:
    return {
        "selected": result.selected,
        "goal": result.goal,
        "algorithm": result.algorithm,
        "num_partitions": result.num_partitions,
        "ranking": [score.partitioner for score in result.ranking()],
        "scores": [_score_payload(score) for score in result.scores],
    }


def parse_graph_payload(
        payload: Dict,
        resolver: Optional[Callable[[str], Graph]] = None,
) -> Union[Graph, GraphProperties]:
    """Extract the graph (or precomputed properties) of a request body.

    ``resolver`` maps a ``graph_fingerprint`` to a stored graph (the request
    core passes :meth:`SelectionService.resolve_graph`); without one,
    fingerprint payloads are rejected.
    """
    if not isinstance(payload, dict):
        raise BadRequest("request body must be a JSON object")
    sources = [key for key in ("graph", "properties", "graph_fingerprint")
               if key in payload]
    if len(sources) != 1:
        raise BadRequest("exactly one of 'graph', 'properties' and "
                         "'graph_fingerprint' is required")
    if sources[0] == "graph_fingerprint":
        fingerprint = payload["graph_fingerprint"]
        if not isinstance(fingerprint, str) or not fingerprint:
            raise BadRequest("'graph_fingerprint' must be a non-empty string")
        if resolver is None:
            raise BadRequest("this server has no graph store; send 'graph' "
                             "or 'properties' instead")
        try:
            return resolver(fingerprint)
        except ValueError as error:
            raise BadRequest(str(error)) from error
    if sources[0] == "properties":
        if not isinstance(payload["properties"], dict):
            raise BadRequest("'properties' must be an object")
        try:
            return GraphProperties.from_dict(payload["properties"])
        except (TypeError, ValueError) as error:
            raise BadRequest(f"invalid properties: {error}") from error
    graph = payload["graph"]
    if not isinstance(graph, dict) or "src" not in graph or "dst" not in graph:
        raise BadRequest("'graph' must be an object with 'src' and 'dst' "
                         "edge arrays")
    num_vertices = graph.get("num_vertices")
    if num_vertices is not None and (not isinstance(num_vertices, int)
                                     or isinstance(num_vertices, bool)):
        raise BadRequest("invalid graph: 'num_vertices' must be an integer")
    try:
        src, dst = np.asarray(graph["src"]), np.asarray(graph["dst"])
        # Empty JSON lists decode as float arrays; anything else must
        # already be integral (no truncated floats, strings or booleans).
        if any(ends.size and ends.dtype.kind not in "iu"
               for ends in (src, dst)):
            raise ValueError("'src' and 'dst' must be integer arrays")
        return Graph(src, dst, num_vertices=num_vertices,
                     name=str(graph.get("name", "request-graph")))
    except (TypeError, ValueError) as error:
        raise BadRequest(f"invalid graph: {error}") from error


def parse_job_payload(payload: Dict,
                      resolver: Optional[Callable[[str], Graph]] = None,
                      ) -> Dict:
    """Validate and normalise a select request body."""
    graph = parse_graph_payload(payload, resolver=resolver)
    algorithm = payload.get("algorithm")
    if not isinstance(algorithm, str) or not algorithm:
        raise BadRequest("'algorithm' is required")
    num_partitions = payload.get("num_partitions")
    if not isinstance(num_partitions, int) or isinstance(num_partitions, bool) \
            or num_partitions < 1:
        raise BadRequest("'num_partitions' must be a positive integer")
    goal = payload.get("goal", OptimizationGoal.END_TO_END)
    try:
        OptimizationGoal.validate(goal)
    except ValueError as error:
        raise BadRequest(str(error)) from error
    num_iterations = payload.get("num_iterations")
    if num_iterations is not None and (
            not isinstance(num_iterations, int)
            or isinstance(num_iterations, bool) or num_iterations < 1):
        raise BadRequest("'num_iterations' must be a positive integer")
    if payload.get("properties_mode", "exact") != "exact":
        raise BadRequest("'properties_mode' must be 'exact': approximate "
                         "property extraction is not served")
    return {"graph": graph, "algorithm": algorithm,
            "num_partitions": num_partitions, "goal": goal,
            "num_iterations": num_iterations}


def _header(headers, name: str) -> Optional[str]:
    """Case-insensitive header lookup over a Message or a plain dict."""
    if headers is None:
        return None
    value = headers.get(name)
    if value is not None:
        return value
    lowered = name.lower()
    for key, candidate in getattr(headers, "items", lambda: ())():
        if key.lower() == lowered:
            return candidate
    return None


# --------------------------------------------------------------------------- #
# The request core
# --------------------------------------------------------------------------- #
class RequestCore:
    """Pure request handling over a :class:`ModelRouter` — no transport.

    Parameters
    ----------
    router:
        The model router whose services answer requests.
    registry:
        Optional registry backing ``/v1/models``; without one the endpoint
        describes only the loaded models.
    scrape_dir:
        Optional :class:`~repro.obs.metrics.ScrapeDir` (or its path).  With
        one, ``GET /metrics`` renders the exposition merged across every
        live process flushing into the directory (the prefork pool), and
        this process flushes its own slot after each handled request so
        whichever sibling answers the next scrape sees exact counts.
        Without one, ``/metrics`` renders this process's registry alone.
    """

    MODEL_HEADER = "X-Repro-Model"

    #: Content type of the Prometheus text exposition (version 0.0.4).
    METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

    def __init__(self, router: ModelRouter,
                 registry=None,
                 scrape_dir: Optional[Union[ScrapeDir, str]] = None) -> None:
        self.router = router
        self.registry = registry
        if isinstance(scrape_dir, str):
            scrape_dir = ScrapeDir(scrape_dir)
        self.scrape_dir = scrape_dir
        metrics = get_registry()
        self._request_hist = metrics.histogram(
            "serving_request_seconds",
            "Wall time handling one POST request by route and status",
            ("route", "status"))
        self._admission_wait_hist = metrics.histogram(
            "serving_admission_wait_seconds",
            "Time from request receipt to the admission decision")

    # ------------------------------------------------------------------ #
    def error(self, status: int, message: str,
              close_connection: bool = False,
              headers: Tuple[Tuple[str, str], ...] = ()) -> Response:
        return Response(status, {"error": message}, headers=tuple(headers),
                        close_connection=close_connection)

    def handle(self, method: str, path: str, query: str = "",
               headers=None, body: Union[bytes, bytearray, Dict,
                                         None] = None) -> Response:
        """Answer one request; never raises."""
        try:
            if method == "GET":
                return self._handle_get(path, query)
            if method == "POST":
                started = time.perf_counter()
                response = self._handle_post(path, headers, body)
                if path == "/v1/select":
                    self._request_hist.labels(path, str(response.status)) \
                        .observe(time.perf_counter() - started)
                if self.scrape_dir is not None:
                    self.scrape_dir.flush()
                return response
            return self.error(405, f"method {method!r} not allowed")
        except BadRequest as error:
            return self.error(400, str(error))
        except Exception as error:  # pragma: no cover - defensive
            return self.error(500, f"internal error: {error}")

    # ------------------------------------------------------------------ #
    # GET endpoints
    # ------------------------------------------------------------------ #
    def _handle_get(self, path: str, query: str) -> Response:
        if path == "/healthz":
            params = parse_qs(query or "")
            tag = (params.get("model") or [None])[0]
            try:
                return Response(200, self.router.health(tag))
            except KeyError as error:
                return self.error(400, str(error).strip("'\""))
        if path == "/v1/models":
            return self.models_response()
        if path == "/metrics":
            return self.metrics_response()
        return self.error(404, f"unknown path {path!r}")

    def metrics_response(self) -> Response:
        """Prometheus text exposition — pool-merged when a scrape dir is
        configured, this process's registry alone otherwise."""
        if self.scrape_dir is not None:
            text = self.scrape_dir.render()
        else:
            text = get_registry().render()
        return Response(200, {}, content_type=self.METRICS_CONTENT_TYPE,
                        text=text)

    def models_response(self) -> Response:
        """Registry contents plus the models loaded under each routing tag.

        Registry listing reads manifest/tag JSON files that an operator (or
        a concurrent publish) may be mutating; any failure degrades to a
        ``503`` payload instead of killing the transport's handler thread.
        """
        routes = {}
        for tag, service in self.router.services.items():
            routes[tag] = {key: service.model_info.get(key)
                           for key in ("name", "version", "tags", "source")}
        loaded = routes[self.router.default_tag]
        models: List[Dict] = []
        if self.registry is not None:
            try:
                for entry in self.registry.list_models():
                    models.append({"name": entry.name,
                                   "version": entry.version,
                                   "tags": entry.tags,
                                   "manifest": entry.manifest})
            except Exception as error:
                return self.error(
                    503, f"registry listing failed: {error}")
        return Response(200, {"loaded": loaded, "routes": routes,
                              "default_model": self.router.default_tag,
                              "models": models})

    # ------------------------------------------------------------------ #
    # POST endpoints
    # ------------------------------------------------------------------ #
    def _decode_body(self, body) -> Dict:
        if body is None:
            raise BadRequest("a JSON request body is required")
        if isinstance(body, (bytes, bytearray)):
            if len(body) > MAX_BODY_BYTES:
                raise BadRequest(
                    f"request body exceeds {MAX_BODY_BYTES} bytes")
            try:
                body = json.loads(bytes(body).decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as error:
                raise BadRequest(
                    f"request body is not valid JSON: {error}") from error
        if not isinstance(body, dict):
            raise BadRequest("request body must be a JSON object")
        return body

    def _route(self, payload: Dict, headers) -> Tuple[str, "object"]:
        tag = payload.get("model")
        if tag is None:
            tag = _header(headers, self.MODEL_HEADER)
        if tag is not None and (not isinstance(tag, str) or not tag):
            raise BadRequest("'model' must be a non-empty string")
        try:
            service = self.router.route(tag)
        except KeyError as error:
            raise BadRequest(str(error).strip("'\"")) from None
        return tag or self.router.default_tag, service

    def _handle_post(self, path: str, headers, body) -> Response:
        if path != "/v1/select":
            return self.error(404, f"unknown path {path!r}")
        admission_started = time.perf_counter()
        payload = self._decode_body(body)
        tag, service = self._route(payload, headers)
        breaker = service.breaker
        allowed, breaker_retry_after = breaker.allow()
        if not allowed:
            return Response(
                503,
                {"error": f"model {tag!r} circuit breaker is open; retry "
                          f"after {breaker_retry_after}s",
                 "model": tag, "retry_after": breaker_retry_after,
                 "breaker": breaker.as_dict()},
                headers=(("Retry-After", str(breaker_retry_after)),))
        gate = service.admission
        admitted = gate.try_acquire()
        self._admission_wait_hist.observe(
            time.perf_counter() - admission_started)
        if not admitted:
            retry_after = max(1, round(gate.retry_after_seconds))
            return Response(
                429,
                {"error": f"model {tag!r} is at its admission limit "
                          f"({gate.limit} in-flight requests); retry after "
                          f"{retry_after}s",
                 "model": tag, "retry_after": retry_after},
                headers=(("Retry-After", str(retry_after)),))
        try:
            resolver = service.resolve_graph \
                if service.graph_resolver is not None else None
            job = parse_job_payload(payload, resolver=resolver)
            try:
                answer = _selection_payload(service.select(
                    job["graph"], job["algorithm"], job["num_partitions"],
                    goal=job["goal"], num_iterations=job["num_iterations"]))
            except ValueError as error:
                # e.g. an algorithm without a trained model; a caller error,
                # so the breaker is unaffected
                return self.error(400, str(error))
            except Exception as error:
                # Internal failure: feed the breaker so a failing model
                # starts shedding with 503 instead of burning every request.
                breaker.record_failure()
                return self.error(500, f"internal error: {error}")
            breaker.record_success()
            answer["model"] = tag
            return Response(200, answer)
        finally:
            gate.release()
