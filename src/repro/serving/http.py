"""Stdlib HTTP adapter over the transport-agnostic request core.

This module owns *only* the wire: reading HTTP/1.1 request framing
(Content-Length bounded bodies), writing status lines and headers, and
keep-alive hygiene.  Everything about what a request *means* — routing,
payload validation, admission control, response payloads — lives in
:class:`repro.serving.core.RequestCore`; see that module for the endpoint
documentation.

Built on :class:`http.server.ThreadingHTTPServer` — one thread per
connection, which is exactly the concurrency the service's micro-batcher
coalesces.  A :class:`~repro.serving.frontend.PreforkFrontend` runs N of
these processes over one shared listening socket.  No dependencies beyond
the standard library.
"""

from __future__ import annotations

import socket
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple, Union
from urllib.parse import urlsplit

from .core import MAX_BODY_BYTES, BadRequest, RequestCore, Response
from .registry import ModelRegistry
from .router import ModelRouter
from .service import SelectionService

__all__ = ["SelectionHTTPServer"]


class _SelectionRequestHandler(BaseHTTPRequestHandler):
    server: "SelectionHTTPServer"
    protocol_version = "HTTP/1.1"

    # ------------------------------------------------------------------ #
    def _write_response(self, response: Response) -> None:
        body = response.body()
        if response.close_connection:
            self.close_connection = True
        self.send_response(response.status)
        self.send_header("Content-Type", response.content_type)
        self.send_header("Content-Length", str(len(body)))
        for name, value in response.headers:
            self.send_header(name, value)
        if response.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)

    def _read_body(self, required: bool) -> bytes:
        """Read the framed request body (empty when it is not ``required``
        and no Content-Length is sent); raises :class:`BadRequest` (with
        connection close — unread bytes would desync the keep-alive stream)
        on bad framing.  Only Content-Length framing is read: a request
        naming Transfer-Encoding is refused, never framed by its length."""
        if "Transfer-Encoding" in self.headers:
            raise BadRequest("Transfer-Encoding is not supported; "
                             "send a Content-Length body")
        length = self.headers.get("Content-Length")
        if length is None:
            if not required:
                return b""
            raise BadRequest("Content-Length header is required")
        try:
            length = int(length)
        except ValueError as error:
            raise BadRequest("invalid Content-Length") from error
        if length < 0 or length > MAX_BODY_BYTES:
            raise BadRequest(f"request body exceeds {MAX_BODY_BYTES} bytes")
        return self.rfile.read(length)

    def _handle(self, method: str) -> None:
        parts = urlsplit(self.path)
        try:
            # A GET body is read only to be discarded (the core ignores it):
            # left on the wire, it would be parsed as the next request.
            body = self._read_body(required=method == "POST")
        except BadRequest as error:
            # The body was not (fully) read, so the bytes left on the wire
            # would desync the next request of a keep-alive connection.
            self._write_response(self.server.core.error(
                400, str(error), close_connection=True))
            return
        self._write_response(self.server.core.handle(
            method, parts.path, query=parts.query, headers=self.headers,
            body=body))

    # ------------------------------------------------------------------ #
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        self._handle("GET")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        self._handle("POST")

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.server.verbose:  # pragma: no cover - log formatting
            super().log_message(format, *args)


class SelectionHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server over a :class:`SelectionService` or
    :class:`ModelRouter`.

    Parameters
    ----------
    service:
        The service (wrapped in a single-tag router) or multi-model router
        to expose.  Micro-batching workers are started by
        :meth:`serve_forever` (and by entering the context manager).
    registry:
        Optional registry backing ``/v1/models``; without one the endpoint
        describes only the loaded models.
    host, port:
        Bind address; port ``0`` picks a free port (see :attr:`url`).
    listen_socket:
        An already-bound, already-listening socket to adopt instead of
        binding ``(host, port)`` — the prefork frontend binds once in the
        parent and passes the inherited socket to each forked worker's
        server, so all workers accept from one shared queue.
    scrape_dir:
        Optional shared metrics scrape directory (path or
        :class:`~repro.obs.metrics.ScrapeDir`) passed through to the
        request core so ``GET /metrics`` aggregates across the prefork
        pool flushing into it.
    """

    daemon_threads = True

    def __init__(self, service: Union[SelectionService, ModelRouter],
                 registry: Optional[ModelRegistry] = None,
                 host: str = "127.0.0.1", port: int = 8080,
                 verbose: bool = False,
                 listen_socket: Optional[socket.socket] = None,
                 scrape_dir=None) -> None:
        if isinstance(service, ModelRouter):
            self.router = service
        else:
            self.router = ModelRouter({"default": service})
        self.core = RequestCore(self.router, registry=registry,
                                scrape_dir=scrape_dir)
        self.registry = registry
        self.verbose = verbose
        if listen_socket is None:
            super().__init__((host, port), _SelectionRequestHandler)
        else:
            super().__init__(listen_socket.getsockname(),
                             _SelectionRequestHandler,
                             bind_and_activate=False)
            self.socket.close()
            self.socket = listen_socket
            self.server_address = self.socket.getsockname()
            # server_bind (skipped above) normally fills these.
            self.server_name = self.server_address[0]
            self.server_port = self.server_address[1]

    # ------------------------------------------------------------------ #
    @property
    def service(self) -> SelectionService:
        """The default-tag service (single-model compatibility surface)."""
        return self.router.default_service

    @property
    def address(self) -> Tuple[str, int]:
        return self.server_address[0], self.server_address[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------ #
    def serve_forever(self, poll_interval: float = 0.5) -> None:
        self.router.start()
        try:
            super().serve_forever(poll_interval=poll_interval)
        finally:
            self.router.stop()

    def __enter__(self) -> "SelectionHTTPServer":
        self.router.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.server_close()
        self.router.stop()
