"""Thin stdlib client for the selection server (:mod:`repro.serving.http`).

Returns the decoded JSON payloads of the endpoints; HTTP error responses
raise :class:`SelectionServiceError` carrying the server's ``error`` message,
and transport failures (connection refused/reset, DNS) are wrapped in the
same exception with ``status=None`` instead of leaking raw urllib errors.

When the server sheds load (``429`` + ``Retry-After`` from the admission
gate, or ``503`` + ``Retry-After`` from an open circuit breaker — see
:mod:`repro.serving.service`), a client constructed with ``retries=N``
sleeps out the server's hint (with jitter, so a herd of clients does not
re-arrive in lockstep) and retries up to N times before surfacing the
error.
"""

from __future__ import annotations

import json
import random
import time
import urllib.error
import urllib.request
from typing import Dict, Optional, Union

from ..graph import Graph, GraphProperties

__all__ = ["SelectionClient", "SelectionServiceError"]


class SelectionServiceError(RuntimeError):
    """An HTTP error response (or transport failure) of the selection server.

    ``status`` is the HTTP status code, or ``None`` for transport-level
    failures that never produced a response.
    """

    def __init__(self, status: Optional[int], message: str) -> None:
        prefix = f"HTTP {status}" if status is not None else "connection error"
        super().__init__(f"{prefix}: {message}")
        self.status = status
        self.message = message


def _graph_payload(graph: Union[Graph, GraphProperties, Dict, str]) -> Dict:
    if isinstance(graph, GraphProperties):
        return {"properties": graph.as_dict()}
    if isinstance(graph, Graph):
        return {"graph": {"src": graph.src.tolist(),
                          "dst": graph.dst.tolist(),
                          "num_vertices": graph.num_vertices,
                          "name": graph.name}}
    if isinstance(graph, str):  # a graph-store content fingerprint
        return {"graph_fingerprint": graph}
    if isinstance(graph, dict):  # pre-built "graph"/"properties" fragment
        # Copy so the request fields added by select() never leak
        # into (and persist on) the caller's fragment.
        return dict(graph)
    raise TypeError("graph must be a Graph, GraphProperties, payload dict "
                    "or graph-store fingerprint")


class SelectionClient:
    """Client for one selection server, e.g. ``SelectionClient("http://host:8080")``.

    Parameters
    ----------
    base_url:
        Server base URL.
    timeout:
        Per-request socket timeout in seconds.
    retries:
        How many times a shed request (``429`` from the admission gate or
        ``503`` from an open circuit breaker) is retried after sleeping out
        the server's ``Retry-After`` hint; ``0`` (the default) surfaces the
        error immediately.
    max_retry_wait:
        Upper bound of one retry sleep, whatever the server hints.
    model:
        Optional routing tag sent as the ``X-Repro-Model`` header on every
        request, selecting one model of a multi-model server.
    """

    def __init__(self, base_url: str, timeout: float = 30.0,
                 retries: int = 0, max_retry_wait: float = 30.0,
                 model: Optional[str] = None) -> None:
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if max_retry_wait <= 0:
            raise ValueError("max_retry_wait must be > 0")
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout
        self.retries = retries
        self.max_retry_wait = max_retry_wait
        self.model = model
        # Injection points for deterministic tests.
        self._sleep = time.sleep
        self._random = random.random

    # ------------------------------------------------------------------ #
    def _retry_wait(self, error: SelectionServiceError, attempt: int,
                    retry_after: Optional[str]) -> float:
        """Sleep duration before retry ``attempt`` (0-based), jittered."""
        try:
            base = float(retry_after) if retry_after is not None else 0.0
        except ValueError:
            base = 0.0
        if base <= 0:
            base = 0.1 * (2 ** attempt)  # no/bad hint: exponential backoff
        # Full jitter over [base/2, base]: desynchronises a client herd that
        # was shed by the same burst without undershooting the server hint
        # by more than half.
        return min(self.max_retry_wait, base * (0.5 + 0.5 * self._random()))

    def _request_once(self, path: str, payload: Optional[Dict]) -> Dict:
        url = f"{self.base_url}{path}"
        data = None
        headers = {"Accept": "application/json"}
        if self.model is not None:
            headers["X-Repro-Model"] = self.model
        if payload is not None:
            data = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        request = urllib.request.Request(url, data=data, headers=headers)
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as resp:
                return json.loads(resp.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            body = error.read().decode("utf-8", errors="replace")
            try:
                message = json.loads(body).get("error", body)
            except json.JSONDecodeError:
                message = body
            wrapped = SelectionServiceError(error.code, message)
            wrapped.retry_after = error.headers.get("Retry-After")
            raise wrapped from error
        except urllib.error.URLError as error:
            # Connection refused/reset, DNS failure, timeout: no response.
            raise SelectionServiceError(None, str(error.reason)) from error

    #: Statuses worth retrying: 429 (admission gate shed) and 503 (circuit
    #: breaker open / registry briefly unreadable); both carry Retry-After.
    RETRYABLE_STATUSES = (429, 503)

    def _request(self, path: str, payload: Optional[Dict] = None) -> Dict:
        for attempt in range(self.retries + 1):
            try:
                return self._request_once(path, payload)
            except SelectionServiceError as error:
                if error.status not in self.RETRYABLE_STATUSES \
                        or attempt >= self.retries:
                    raise
                self._sleep(self._retry_wait(
                    error, attempt, getattr(error, "retry_after", None)))
        raise AssertionError("unreachable")  # pragma: no cover

    # ------------------------------------------------------------------ #
    def health(self) -> Dict:
        return self._request("/healthz")

    def models(self) -> Dict:
        return self._request("/v1/models")

    def select(self, graph: Union[Graph, GraphProperties, Dict, str],
               algorithm: str, num_partitions: int,
               goal: str = "end_to_end",
               num_iterations: Optional[int] = None) -> Dict:
        payload = _graph_payload(graph)
        payload.update({"algorithm": algorithm,
                        "num_partitions": num_partitions, "goal": goal})
        if num_iterations is not None:
            payload["num_iterations"] = num_iterations
        return self._request("/v1/select", payload)
