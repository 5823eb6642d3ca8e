"""Load generator and server harness of the online half of the benchmark.

One process, at most ``nproc`` client threads, one keep-alive connection per
thread.  Every connection sets ``TCP_NODELAY`` and sends each request in a
single ``sendall``, so the client adds no stall of its own: whatever latency
is measured belongs to the server.  The loop is *closed* — a client sends
its next request only after the previous reply arrived — because the users
modelled here (job submitters asking "which partitioner?") wait for their
answer.

The server is always the real thing: ``python -m repro.cli serve`` on
``--port 0``, its URL parsed off the ``serving ... on <url>`` log line.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple
from urllib.parse import urlsplit

__all__ = ["KeepAliveClient", "Sample", "ServerProcess", "closed_loop",
           "family_total", "program_env", "scrape_metrics"]


class KeepAliveClient:
    """One persistent HTTP/1.1 connection to ``url``."""

    def __init__(self, url: str, timeout: float = 30.0) -> None:
        parts = urlsplit(url)
        self._host = f"{parts.hostname}:{parts.port}"
        self._sock = socket.create_connection((parts.hostname, parts.port),
                                              timeout=timeout)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._reader = self._sock.makefile("rb")

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, bytes]:
        """Send one request (one ``sendall``) and read the whole reply."""
        head = (f"{method} {path} HTTP/1.1\r\nHost: {self._host}\r\n"
                f"Content-Type: application/json\r\n"
                f"Content-Length: {len(body or b'')}\r\n\r\n")
        self._sock.sendall(head.encode("ascii") + (body or b""))
        status_line = self._reader.readline()
        if not status_line:
            raise ConnectionError("server closed the connection")
        status = int(status_line.split(None, 2)[1])
        length = 0
        while True:
            line = self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self._reader.read(length)

    def close(self) -> None:
        self._reader.close()
        self._sock.close()

    def __enter__(self) -> "KeepAliveClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class Sample:
    """One answered request of a closed loop."""

    index: int
    started: float
    seconds: float
    status: int
    body: bytes


def closed_loop(url: str, make_body: Callable[[int], bytes],
                connections: int, first_index: int = 0,
                count: Optional[int] = None,
                seconds: Optional[float] = None
                ) -> Tuple[List[Sample], float]:
    """Drive ``connections`` keep-alive clients of ``POST /v1/select`` in a
    closed loop.

    Request ``i`` carries ``make_body(i)``; client ``t`` sends
    ``first_index + t, first_index + t + connections, ...`` until ``count``
    requests were issued in total or ``seconds`` elapsed, whichever is
    given.  Returns the samples in index order and the wall time of the
    loop.
    """
    if (count is None) == (seconds is None):
        raise ValueError("exactly one of count and seconds is required")
    results: List[List[Sample]] = [[] for _ in range(connections)]
    errors: List[BaseException] = []
    clients = [KeepAliveClient(url) for _ in range(connections)]
    started = time.perf_counter()
    deadline = None if seconds is None else started + seconds

    def run(slot: int) -> None:
        client, out = clients[slot], results[slot]
        offset = slot
        try:
            while count is None or offset < count:
                body = make_body(first_index + offset)
                sent = time.perf_counter()
                if deadline is not None and sent >= deadline:
                    break
                status, payload = client.request("POST", "/v1/select",
                                                 body)
                out.append(Sample(first_index + offset, sent,
                                  time.perf_counter() - sent, status, payload))
                offset += connections
        except BaseException as error:  # re-raised on the calling thread
            errors.append(error)

    threads = [threading.Thread(target=run, args=(slot,), daemon=True)
               for slot in range(connections)]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        for client in clients:
            client.close()
    wall = time.perf_counter() - started
    if errors:
        raise errors[0]
    samples = sorted((sample for out in results for sample in out),
                     key=lambda sample: sample.index)
    return samples, wall


def program_env(src_dir: str) -> Dict[str, str]:
    """This process's environment with the program's ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return env


class ServerProcess:
    """A ``repro serve`` subprocess; use as a context manager.

    ``spawned_at`` is taken immediately before ``Popen`` so cold-start
    timings include interpreter start-up and imports.  Output (stdout and
    stderr, merged) is drained by a reader thread and kept for the failure
    record.
    """

    def __init__(self, serve_args: Sequence[str], src_dir: str,
                 startup_timeout: float = 60.0) -> None:
        self.output: List[str] = []
        self.url: Optional[str] = None
        self.listening_at: Optional[float] = None
        self._url_seen = threading.Event()
        self.spawned_at = time.perf_counter()
        self._process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *serve_args,
             "--port", "0", "--workers", "1"],
            env=program_env(src_dir), stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True)
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            if not self._url_seen.wait(startup_timeout) or self.url is None:
                raise RuntimeError(
                    "serve subprocess never announced its URL:\n"
                    + "".join(self.output[-40:]))
        except BaseException:
            self.stop()
            raise

    def _drain(self) -> None:
        for line in self._process.stdout:
            self.output.append(line)
            if self.url is None and " on http://" in line:
                self.listening_at = time.perf_counter()
                self.url = line.rsplit(" on ", 1)[1].strip()
                self._url_seen.set()
        self._url_seen.set()  # EOF: unblock a waiter, url stays None

    @property
    def pid(self) -> int:
        return self._process.pid

    def peak_rss_mb(self) -> float:
        """High-water-mark resident set (``VmHWM``) of the live server."""
        with open(f"/proc/{self.pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found in /proc status")

    def stop(self) -> None:
        if self._process.poll() is None:
            self._process.terminate()
            try:
                self._process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._process.kill()
                self._process.wait()
        self._reader.join(timeout=5)
        self._process.stdout.close()

    def __enter__(self) -> "ServerProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def scrape_metrics(url: str) -> Dict[str, float]:
    """``GET /metrics`` parsed into ``{series: value}`` (labels kept)."""
    with KeepAliveClient(url) as client:
        status, body = client.request("GET", "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics answered {status}")
    series: Dict[str, float] = {}
    for line in body.decode("utf-8").splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            series[name] = float(value)
    return series


def family_total(series: Dict[str, float], family: str) -> float:
    """Sum of every labelled series of one metric family."""
    return sum(value for name, value in series.items()
               if name == family or name.startswith(family + "{"))
