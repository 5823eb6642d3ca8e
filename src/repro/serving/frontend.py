"""Prefork multi-process front of the selection server.

One parent process binds the listening socket and loads the models once,
then forks ``workers`` children.  Each child runs a full
:class:`~repro.serving.http.SelectionHTTPServer` (threaded accept loop,
micro-batcher, tag watcher) over the *inherited* listener, so the kernel
load-balances accepted connections across processes — the stdlib-only
equivalent of an SO_REUSEPORT pool.

What is shared and what is not:

* **Model pages** are loaded before the fork and shared copy-on-write —
  N workers cost roughly one model's RSS.
* The **mmap graph store** is position-independent read-only data: every
  worker maps the same files, so resident graph bytes are shared through
  the page cache regardless of worker count.
* **Caches and counters** (property cache, open-graph LRU, admission
  counters) are per-process — ``/healthz`` reports the worker that
  happened to answer (its ``pid`` field tells which).

The parent supervises: a child that dies is respawned (up to
``max_respawns`` times, so a crash loop terminates instead of spinning),
and SIGTERM/SIGINT shut the pool down by signalling every child and
reaping it.  Only POSIX (``os.fork``) platforms are supported — exactly
the platforms the profiling runtime already forks on.
"""

from __future__ import annotations

import os
import shutil
import signal
import socket
import sys
import tempfile
from typing import Dict, Optional, Tuple, Union

from ..obs.metrics import ScrapeDir
from .http import SelectionHTTPServer
from .registry import ModelRegistry
from .router import ModelRouter
from .service import SelectionService

__all__ = ["PreforkFrontend"]


class _StopFrontend(Exception):
    """Raised inside the parent's wait loop by the shutdown signal handler."""


class PreforkFrontend:
    """Fork-per-core pool of HTTP workers over one shared listening socket.

    Parameters
    ----------
    service:
        The service or multi-model router every worker serves.  Built
        *before* the fork, so model pages are copy-on-write shared.
    registry:
        Optional registry backing ``/v1/models`` in every worker.
    host, port:
        Bind address of the shared listener; port ``0`` picks a free port
        (read :attr:`url` after construction).
    workers:
        Number of forked HTTP worker processes (>= 1).
    max_respawns:
        Total number of times dead workers are replaced before the pool
        gives up and shuts down (a crash-looping model should not retry
        forever).
    scrape_dir:
        Shared metrics scrape directory every worker flushes its registry
        into, so ``GET /metrics`` answered by any one worker covers the
        whole pool.  ``None`` (default) creates a private temporary
        directory, removed on :meth:`shutdown`; pass a path to scrape the
        slot files out-of-band (``repro metrics --scrape-dir``).
    """

    def __init__(self, service: Union[SelectionService, ModelRouter],
                 registry: Optional[ModelRegistry] = None,
                 host: str = "127.0.0.1", port: int = 8080,
                 workers: int = 2, verbose: bool = False,
                 max_respawns: int = 100,
                 scrape_dir: Optional[str] = None) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        if not hasattr(os, "fork"):  # pragma: no cover - POSIX only
            raise RuntimeError("PreforkFrontend requires os.fork; use "
                               "--workers 1 on this platform")
        if isinstance(service, ModelRouter):
            self.router = service
        else:
            self.router = ModelRouter({"default": service})
        self.registry = registry
        self.workers = workers
        self.verbose = verbose
        self.max_respawns = max_respawns
        self._children: Dict[int, int] = {}  # pid -> worker index
        self._owns_scrape_dir = scrape_dir is None
        if scrape_dir is None:
            scrape_dir = tempfile.mkdtemp(prefix="repro-scrape-")
        self.scrape_dir = ScrapeDir(scrape_dir)
        self._listener = socket.create_server(
            (host, port), family=socket.AF_INET, backlog=128,
            reuse_port=False)

    # ------------------------------------------------------------------ #
    @property
    def address(self) -> Tuple[str, int]:
        name = self._listener.getsockname()
        return name[0], name[1]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------ #
    def _spawn(self, index: int) -> int:
        pid = os.fork()
        if pid != 0:
            self._children[pid] = index
            return pid
        # Child: never returns.  os._exit (not sys.exit) on every path so a
        # raising worker cannot fall back into the parent's stack and run
        # the supervision loop twice.
        status = 0
        try:
            self._child_serve(index)
        except SystemExit as stop:
            status = int(stop.code or 0)
        except BaseException:  # pragma: no cover - crash path
            status = 1
        finally:
            os._exit(status)
        raise AssertionError("unreachable")  # pragma: no cover

    def _child_serve(self, index: int) -> None:
        # A terminating pool SIGTERMs the children; turn that into a clean
        # SystemExit so `finally` blocks (service stop) still run.
        signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        server = SelectionHTTPServer(self.router, registry=self.registry,
                                     verbose=self.verbose,
                                     listen_socket=self._listener,
                                     scrape_dir=self.scrape_dir)
        # Flush an initial (zeroed) slot so a scrape right after startup
        # already sees every worker of the pool.
        self.scrape_dir.flush()
        # serve_forever starts the router's batchers/watcher and stops them
        # on the way out (the SIGTERM-raised SystemExit lands here).
        server.serve_forever(poll_interval=0.1)

    # ------------------------------------------------------------------ #
    def serve_forever(self) -> None:
        """Fork the pool and supervise until SIGTERM/SIGINT (or the respawn
        budget is exhausted)."""

        def _shutdown(*_):
            raise _StopFrontend()

        previous = {signal.SIGTERM: signal.signal(signal.SIGTERM, _shutdown),
                    signal.SIGINT: signal.signal(signal.SIGINT, _shutdown)}
        respawns = 0
        try:
            for index in range(self.workers):
                self._spawn(index)
            while True:
                try:
                    pid, _status = os.wait()
                except ChildProcessError:
                    break  # every child is gone
                index = self._children.pop(pid, None)
                if index is None:
                    continue
                if respawns >= self.max_respawns:
                    break
                respawns += 1
                self._spawn(index)
        except _StopFrontend:
            pass
        finally:
            for signum, handler in previous.items():
                signal.signal(signum, handler)
            self.shutdown()

    def shutdown(self) -> None:
        """Terminate and reap every worker, then close the listener."""
        for pid in list(self._children):
            try:
                os.kill(pid, signal.SIGTERM)
            except ProcessLookupError:
                pass
        for pid in list(self._children):
            try:
                os.waitpid(pid, 0)
            except ChildProcessError:
                pass
            self._children.pop(pid, None)
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self._owns_scrape_dir:
            shutil.rmtree(self.scrape_dir.path, ignore_errors=True)

    def __enter__(self) -> "PreforkFrontend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
