"""Pluggable executor backends of the task-DAG scheduler.

A backend owns *where* ready tasks run; the scheduler owns *when*.  The
contract is deliberately small:

``start(graphs, cache_dir, store=None)``
    Prepare workers.  ``graphs`` maps fingerprints to the representative
    :class:`Graph` objects of the tasks that will be submitted.
``submit(envelope)``
    Accept one :class:`TaskEnvelope` (task + shipped input payloads).
``next_completed(timeout=None)``
    Block until any submitted envelope finishes; return
    ``(task_id, payload)``.  A failed execution attempt is a *completion
    too*: its payload is a :class:`TaskFailure` carrying the error and
    traceback — the scheduler, not the backend, decides between retry and
    quarantine.  With a ``timeout``, return ``None`` once it elapses with
    nothing completed (the scheduler uses this for retry backoff wake-ups
    and per-kind execution deadlines).  Completion order is unconstrained
    — the deterministic merge happens downstream.
``discard(task_id)``
    Forget an outstanding task (quarantined by the scheduler); a late
    completion of it must not be returned.
``close()``
    Release workers.

Three implementations:

* :class:`InlineBackend` — executes on ``submit`` in the calling process,
  sharing the parent's graphs and artifact store (no pickling).
* :class:`ProcessPoolBackend` — a ``ProcessPoolExecutor`` whose workers
  receive the graph descriptions once via initializer.  Store-backed graphs
  (:mod:`repro.graph.store`) ship as path references that workers re-open as
  shared memory maps — O(1) IPC per graph and one physical copy of the
  corpus across the pool; in-RAM graphs fall back to shipping the edge
  arrays (IPC proportional to the corpus, not the grid).
* :class:`WorkerPoolBackend` — a shared-directory task queue: envelopes are
  spooled as pickles, external ``repro worker`` processes claim them by
  atomic rename, execute, and ack results back into the directory.  This is
  the distributed stepping stone: the queue directory can live on a network
  filesystem and workers on other machines, and the backend can also spawn
  local worker subprocesses for single-machine use.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import signal
import subprocess
import sys
import threading
import time
import traceback as traceback_module
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..atomicfile import write_atomic
from ..faults import FaultPlan, active_plan, active_state_dir, fire, \
    install_plan, tear
from ..graph import Graph
from ..obs import add_event, get_logger, get_registry
from .artifacts import ArtifactStore
from .tasks import TaskId, execute_task

__all__ = [
    "TaskEnvelope",
    "TaskFailure",
    "ExecutorBackend",
    "InlineBackend",
    "ProcessPoolBackend",
    "WorkerPoolBackend",
    "run_worker",
]


@dataclass(frozen=True)
class TaskFailure:
    """A failed execution attempt, returned as a completion payload.

    Backends report failures instead of raising so the scheduler can apply
    the :class:`~repro.faults.FailurePolicy` — retry with backoff, then
    quarantine — uniformly across inline, process-pool and worker-queue
    execution.  ``deadline`` marks driver-side deadline expiries (the task
    may still be running; a late genuine completion is accepted).
    """

    error: str
    traceback: str = ""
    deadline: bool = False

    def __str__(self) -> str:
        return self.error


@dataclass(frozen=True)
class TaskEnvelope:
    """One dispatchable task plus the dependency payloads it consumes."""

    task_id: TaskId
    task: Any
    graph_fingerprint: str
    inputs: Dict[TaskId, Any] = field(default_factory=dict)
    #: Tracing context of the driver's dispatch span
    #: (:func:`repro.obs.envelope_context`); rides the envelope across the
    #: process boundary so worker-side task spans stitch into one trace.
    #: ``None`` when tracing is off (and on envelopes pickled before the
    #: field existed).
    trace: Optional[Dict[str, str]] = None


class ExecutorBackend:
    """Interface of an execution backend (see module docstring)."""

    name = "abstract"

    def start(self, graphs: Dict[str, Graph], cache_dir: Optional[str],
              store: Optional[ArtifactStore] = None) -> None:
        raise NotImplementedError

    def submit(self, envelope: TaskEnvelope) -> None:
        raise NotImplementedError

    def next_completed(self, timeout: Optional[float] = None
                       ) -> Optional[Tuple[TaskId, Any]]:
        raise NotImplementedError

    def discard(self, task_id: TaskId) -> None:
        """Forget an outstanding (quarantined) task; default no-op."""

    def close(self) -> None:
        raise NotImplementedError


# --------------------------------------------------------------------------- #
# Inline
# --------------------------------------------------------------------------- #
class InlineBackend(ExecutorBackend):
    """Execute tasks immediately in the calling process.

    Operates on the original graph objects (their cached adjacency views
    persist across tasks) and the parent's artifact store, so nothing is
    pickled.  The right choice for small grids and the reference every other
    backend is tested against.
    """

    name = "inline"

    def __init__(self) -> None:
        self._graphs: Dict[str, Graph] = {}
        self._store: Optional[ArtifactStore] = None
        self._completed: List[Tuple[TaskId, Any]] = []

    def start(self, graphs, cache_dir, store=None):
        self._graphs = dict(graphs)
        self._store = store if store is not None else ArtifactStore(cache_dir)

    def submit(self, envelope):
        graph = self._graphs[envelope.graph_fingerprint]
        try:
            payload = execute_task(envelope.task, graph, self._store,
                                   envelope.inputs, trace=envelope.trace)
        except Exception as error:
            payload = TaskFailure(
                error=f"{type(error).__name__}: {error}",
                traceback=traceback_module.format_exc())
        self._completed.append((envelope.task_id, payload))

    def next_completed(self, timeout=None):
        if not self._completed:
            raise RuntimeError("no submitted task is pending")
        return self._completed.pop(0)

    def close(self):
        self._graphs = {}
        self._completed = []


# --------------------------------------------------------------------------- #
# Process pool
# --------------------------------------------------------------------------- #
#: Per-worker state installed by :func:`_init_pool_worker`: the graphs of the
#: current run (keyed by fingerprint) and the cache directory.  Shipping each
#: graph once per worker instead of once per task keeps the IPC volume
#: bounded by the corpus (store-backed graphs ship as O(1) path references),
#: and lets a worker reuse a graph's cached adjacency views across tasks.
_WORKER_GRAPHS: Dict[str, Graph] = {}
_WORKER_STORE: Optional[ArtifactStore] = None


#: Tags of the two wire formats of :func:`_graph_to_arrays`.
_SHIP_STORE = "store"
_SHIP_ARRAYS = "arrays"


def _graph_to_arrays(graph: Graph) -> Tuple:
    """Serialisable description of a graph for shipment to a worker.

    Store-backed graphs (``graph.is_mapped``) ship as a tiny store-path
    reference: the worker re-opens the memory map and shares the parent's
    OS page cache, so IPC per graph is O(1) instead of O(m), and the
    fingerprint and simple undirected CSR view recorded at save time
    arrive with the re-opened entry.  The directory must be reachable at
    the same path in the worker — always true for the local process pool,
    and the same shared-filesystem contract the worker-queue directory
    already requires.

    In-RAM graphs fall back to shipping the raw edge arrays.  Cached
    adjacency views are deliberately *not* shipped on this path: pickling
    them would multiply the IPC volume for structures the worker rebuilds
    in one vectorized pass per view — so a fallback worker recomputes
    ``undirected_adjacency()`` / ``undirected_simple_csr()`` lazily, on
    first use.
    """
    if graph.is_mapped:
        return (_SHIP_STORE, graph.store_path, graph.name, graph.graph_type)
    return (_SHIP_ARRAYS, graph.src, graph.dst, graph.num_vertices,
            graph.name, graph.graph_type)


def _graph_from_arrays(arrays: Tuple) -> Graph:
    """Rebuild a worker-side graph from :func:`_graph_to_arrays` output."""
    if arrays[0] == _SHIP_STORE:
        from ..graph.store import open_stored_graph

        _, store_path, name, graph_type = arrays
        # Re-opening attaches the precomputed mapped CSR view, so nothing
        # the parent already computed is recomputed here.
        return open_stored_graph(store_path, name=name, graph_type=graph_type)
    _, src, dst, num_vertices, name, graph_type = arrays
    return Graph(src, dst, num_vertices=num_vertices, name=name,
                 graph_type=graph_type)


def _init_pool_worker(graph_arrays: Dict[str, Tuple],
                      cache_dir: Optional[str]) -> None:
    global _WORKER_GRAPHS, _WORKER_STORE
    _WORKER_GRAPHS = {fingerprint: _graph_from_arrays(arrays)
                      for fingerprint, arrays in graph_arrays.items()}
    _WORKER_STORE = ArtifactStore(cache_dir)


def _pool_run_envelope(envelope: TaskEnvelope) -> Tuple[TaskId, Any]:
    graph = _WORKER_GRAPHS[envelope.graph_fingerprint]
    try:
        payload = execute_task(envelope.task, graph, _WORKER_STORE,
                               envelope.inputs, trace=envelope.trace)
    except Exception as error:
        payload = TaskFailure(
            error=f"{type(error).__name__}: {error}",
            traceback=traceback_module.format_exc())
    return envelope.task_id, payload


class ProcessPoolBackend(ExecutorBackend):
    """Dispatch tasks to a :class:`ProcessPoolExecutor`."""

    name = "process"

    def __init__(self, max_workers: int = 2) -> None:
        if max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        self.max_workers = max_workers
        self._pool: Optional[ProcessPoolExecutor] = None
        self._pending = set()
        self._done_buffer: List[Tuple[TaskId, Any]] = []

    def start(self, graphs, cache_dir, store=None):
        graph_arrays = {fingerprint: _graph_to_arrays(graph)
                        for fingerprint, graph in graphs.items()}
        self._pool = ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=_init_pool_worker,
            initargs=(graph_arrays, cache_dir))

    def submit(self, envelope):
        self._pending.add(self._pool.submit(_pool_run_envelope, envelope))

    def next_completed(self, timeout=None):
        if self._done_buffer:
            return self._done_buffer.pop(0)
        if not self._pending:
            raise RuntimeError("no submitted task is pending")
        done, self._pending = wait(self._pending, timeout=timeout,
                                   return_when=FIRST_COMPLETED)
        if not done:
            return None
        for future in done:
            self._done_buffer.append(future.result())
        return self._done_buffer.pop(0)

    def close(self):
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        self._pending = set()
        self._done_buffer = []


# --------------------------------------------------------------------------- #
# Directory-queue worker pool
# --------------------------------------------------------------------------- #
_QUEUE_SUBDIRS = ("tasks", "claimed", "results", "graphs")
_STOP_SENTINEL = "stop"
_CONFIG_FILE = "config.pkl"
#: Spawned workers touch their claim this many times per
#: ``heartbeat_timeout``, so one slow beat never makes a live claim stale.
_BEATS_PER_TIMEOUT = 4


def _task_filename(task_id: TaskId) -> str:
    return hashlib.sha256(repr(task_id).encode("utf-8")).hexdigest() + ".task"


def _remove_quietly(path: str) -> None:
    try:
        os.remove(path)
    except OSError:
        pass


class WorkerPoolBackend(ExecutorBackend):
    """Shared-directory task queue claimed by external worker processes.

    Queue layout under ``queue_dir``::

        config.pkl        run configuration (cache_dir)
        graphs/<fp>.pkl   graph description, written once per content
                          fingerprint: a store-path reference for
                          store-backed graphs (workers re-open the shared
                          memory map; the store must be visible at the same
                          path, like the queue directory itself), or the
                          pickled edge arrays otherwise
        tasks/<id>.task   spooled envelopes awaiting a worker
        claimed/<id>.task envelopes currently owned by a worker; the
                          file's mtime is the owner's heartbeat
        results/<id>.result   acked payloads awaiting collection
        stop              sentinel telling idle workers to exit

    Workers claim a task by atomically renaming it from ``tasks/`` into
    ``claimed/`` (rename fails if another worker won the race), execute it,
    ack the result into ``results/`` and delete the claim.  Acks may arrive
    in any order, and duplicate or foreign acks (a task requeued after a
    worker crash and finished twice, or leftovers of an earlier interrupted
    run) are discarded: only results of currently outstanding task ids are
    returned.

    A claim's mtime is the one liveness signal: the owning worker touches
    it when it claims the task and then every heartbeat interval.  A worker
    crash leaves the claim file behind and its mtime stops moving; claims
    untouched for ``heartbeat_timeout`` are returned to the queue while the
    driver waits (tasks are pure, so re-execution is safe), and
    :meth:`requeue_stale` does the same on demand.

    ``spawn_workers > 0`` launches that many local ``repro worker``
    subprocesses for the lifetime of the backend — the single-machine
    convenience path; distributed use starts workers externally against a
    shared directory.  Spawned-worker stderr goes to
    ``queue_dir/worker-<n>.stderr.log`` (an unread pipe would block a
    chatty worker once the OS buffer fills).  Spawned workers heartbeat
    every ``heartbeat_timeout / 4`` seconds; external workers set
    ``repro worker --heartbeat-interval``, which must stay well under the
    driver's ``heartbeat_timeout``.
    """

    name = "worker"

    def __init__(self, queue_dir: str, spawn_workers: int = 0,
                 poll_interval: float = 0.02,
                 heartbeat_timeout: float = 10.0,
                 max_respawns: Optional[int] = None) -> None:
        if spawn_workers < 0:
            raise ValueError("spawn_workers must be >= 0")
        if heartbeat_timeout <= 0:
            raise ValueError("heartbeat_timeout must be > 0")
        if max_respawns is not None and max_respawns < 0:
            raise ValueError("max_respawns must be >= 0")
        self.queue_dir = queue_dir
        self.spawn_workers = spawn_workers
        self.poll_interval = poll_interval
        self.heartbeat_timeout = heartbeat_timeout
        #: Crashed spawned workers are replaced up to this many times per
        #: run (an injected-crash plan must not strand the queue, but a
        #: deterministic crash loop must not respawn forever either).
        self.max_respawns = (2 * spawn_workers if max_respawns is None
                             else max_respawns)
        self._processes: List[subprocess.Popen] = []
        self._stderr_logs: List[str] = []
        self._outstanding: set = set()
        #: Outstanding envelopes by task id, kept for resubmission when a
        #: result file turns out torn (the claim is already gone by then,
        #: so the stale sweep cannot bring the task back).
        self._envelopes: Dict[TaskId, TaskEnvelope] = {}
        #: First time a result file failed to load, by file name; a file
        #: corrupt for longer than the ack-retry window is a torn ack.
        self._corrupt_results: Dict[str, float] = {}
        self._respawns_used = 0
        self._spawn_index = 0
        self._last_stale_sweep = 0.0
        self._logger = get_logger("runtime.queue")

    # ------------------------------------------------------------------ #
    def _path(self, *parts: str) -> str:
        return os.path.join(self.queue_dir, *parts)

    def start(self, graphs, cache_dir, store=None):
        for subdir in _QUEUE_SUBDIRS:
            os.makedirs(self._path(subdir), exist_ok=True)
        stop_path = self._path(_STOP_SENTINEL)
        if os.path.exists(stop_path):
            os.remove(stop_path)
        # A reused queue directory may hold leftovers of an interrupted
        # earlier run; drop them so they are neither executed nor collected
        # as results of this run (foreign acks racing in later are filtered
        # by the outstanding-id check in next_completed).
        for subdir, suffix in (("tasks", ".task"), ("claimed", ".task"),
                               ("results", ".result")):
            directory = self._path(subdir)
            for name in os.listdir(directory):
                if name.endswith(suffix) or name.endswith(".tmp"):
                    _remove_quietly(os.path.join(directory, name))
        config: Dict[str, Any] = {"cache_dir": cache_dir}
        plan = active_plan()
        if plan:
            # Ship the armed fault plan to every worker (spawned or
            # external) with a shared once-marker directory, so a one-shot
            # crash spec fires in exactly one worker process instead of
            # killing each respawn in turn.
            state_dir = active_state_dir() or self._path("faults-state")
            os.makedirs(state_dir, exist_ok=True)
            config["faults"] = plan.encode()
            config["faults_seed"] = plan.seed
            config["faults_state"] = state_dir
        write_atomic(self._path(_CONFIG_FILE), pickle.dumps(config))
        for fingerprint, graph in graphs.items():
            path = self._path("graphs", f"{fingerprint}.pkl")
            if not os.path.exists(path):
                write_atomic(path, pickle.dumps(_graph_to_arrays(graph)))
        self._last_stale_sweep = time.time()
        for _ in range(self.spawn_workers):
            self._processes.append(self._spawn_worker(self._spawn_index))
            self._spawn_index += 1

    def _spawn_worker(self, index: int) -> subprocess.Popen:
        import repro

        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(
            os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (package_root if not existing
                             else package_root + os.pathsep + existing)
        log_path = self._path(f"worker-{index}.stderr.log")
        self._stderr_logs.append(log_path)
        with open(log_path, "wb") as log_handle:
            return subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "worker",
                 "--queue-dir", self.queue_dir,
                 "--poll-interval", str(self.poll_interval),
                 "--heartbeat-interval",
                 str(self.heartbeat_timeout / _BEATS_PER_TIMEOUT)],
                env=env, stdout=subprocess.DEVNULL, stderr=log_handle)

    # ------------------------------------------------------------------ #
    def submit(self, envelope):
        write_atomic(self._path("tasks", _task_filename(envelope.task_id)),
                     pickle.dumps(envelope))
        self._outstanding.add(envelope.task_id)
        self._envelopes[envelope.task_id] = envelope

    def discard(self, task_id):
        """Forget a quarantined task: drop its spool file and late acks."""
        self._outstanding.discard(task_id)
        self._envelopes.pop(task_id, None)
        _remove_quietly(self._path("tasks", _task_filename(task_id)))

    def next_completed(self, timeout=None):
        if not self._outstanding:
            raise RuntimeError("no submitted task is pending")
        results_dir = self._path("results")
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            for name in sorted(os.listdir(results_dir)):
                if not name.endswith(".result"):
                    continue
                path = os.path.join(results_dir, name)
                try:
                    with open(path, "rb") as handle:
                        result = pickle.load(handle)
                except (OSError, pickle.UnpicklingError, EOFError):
                    # Another collector won, the ack is mid-write — or it
                    # is torn (worker crashed / fault injected between
                    # write and claim removal).  Give a mid-write ack one
                    # ack-retry window to become readable, then drop it
                    # and respool the task from the retained envelope.
                    self._note_corrupt_result(name, path)
                    continue
                self._corrupt_results.pop(name, None)
                _remove_quietly(path)
                task_id = result.get("task_id")
                if task_id not in self._outstanding:
                    continue  # duplicate or foreign ack
                self._outstanding.discard(task_id)
                self._envelopes.pop(task_id, None)
                if not result.get("ok", False):
                    return task_id, TaskFailure(
                        error=f"worker failed on task {task_id!r}: "
                              f"{result.get('error')}",
                        traceback=result.get("traceback", ""))
                return task_id, result["payload"]
            self._check_spawned_workers()
            self._sweep_stale_claims()
            if deadline is not None and time.monotonic() >= deadline:
                return None
            time.sleep(self.poll_interval)

    def _note_corrupt_result(self, name: str, path: str) -> None:
        """Track an unreadable result file; respool its task if it stays
        unreadable past the ack-retry window (a torn ack: the worker's
        claim is already deleted, so no stale sweep will ever retry it)."""
        now = time.monotonic()
        first_seen = self._corrupt_results.setdefault(name, now)
        window = max(1.0, min(self.heartbeat_timeout, 5.0))
        if now - first_seen < window:
            return
        self._corrupt_results.pop(name, None)
        task_id = None
        stem = name[:-len(".result")]
        for candidate in self._outstanding:
            if _task_filename(candidate).startswith(stem):
                task_id = candidate
                break
        _remove_quietly(path)
        if task_id is None:
            return  # foreign leftover; removing it is enough
        envelope = self._envelopes.get(task_id)
        if envelope is None:
            return
        get_registry().counter(
            "runtime_torn_acks_total",
            "Unreadable result files replaced by task resubmission").inc()
        self._logger.warning("torn_ack_respooled", task_id=repr(task_id),
                             result_file=name)
        add_event("queue.torn_ack", {"task_id": repr(task_id)})
        write_atomic(self._path("tasks", _task_filename(task_id)),
                     pickle.dumps(envelope))

    def _sweep_stale_claims(self) -> None:
        """Requeue claims of crashed workers while the driver waits.

        A claim untouched for ``heartbeat_timeout`` is assumed orphaned (its
        worker died mid-task) and returned to ``tasks/`` for a live worker.
        Tasks are pure, so the rare double execution of a task whose worker
        was merely starved is wasteful but harmless — duplicate acks are
        filtered by the outstanding-id check above.
        """
        now = time.time()
        if now - self._last_stale_sweep < self.heartbeat_timeout:
            return
        self._last_stale_sweep = now
        self.requeue_stale(self.heartbeat_timeout)

    def _check_spawned_workers(self) -> None:
        """Replace crashed spawned workers (bounded), fail when stranded.

        A dead spawned worker is respawned while the respawn budget lasts
        (shared fault-plan once-markers keep an injected one-shot crash
        from re-firing in the replacement).  Once the budget is exhausted
        and *every* spawned worker is dead, fail fast instead of polling
        forever (external workers may still exist when
        ``spawn_workers == 0``)."""
        if not self._processes:
            return
        for slot, process in enumerate(self._processes):
            if process.poll() is None:
                continue
            if self._respawns_used >= self.max_respawns:
                continue
            self._respawns_used += 1
            replacement = self._spawn_worker(self._spawn_index)
            self._spawn_index += 1
            self._processes[slot] = replacement
            get_registry().counter(
                "runtime_worker_respawns_total",
                "Crashed spawned queue workers replaced by the driver") \
                .inc()
            self._logger.warning("worker_respawned",
                                 exit_code=process.returncode,
                                 respawns_used=self._respawns_used,
                                 max_respawns=self.max_respawns)
            add_event("queue.worker_respawned",
                      {"exit_code": process.returncode,
                       "respawns_used": self._respawns_used})
        if any(process.poll() is None for process in self._processes):
            return
        stderr_tail = ""
        for log_path in self._stderr_logs:
            try:
                with open(log_path, "rb") as handle:
                    tail = handle.read()[-2000:].decode("utf-8", "replace")
            except OSError:
                continue
            if tail:
                stderr_tail = tail
        raise RuntimeError("all spawned queue workers exited while "
                           f"{len(self._outstanding)} tasks are "
                           f"outstanding; last stderr: {stderr_tail}")

    def requeue_stale(self, max_age_seconds: float = 0.0) -> int:
        """Return claims whose mtime is older than ``max_age_seconds`` to
        the task queue.

        A live worker touches its claim every heartbeat, so only claims of
        silent (crashed or partitioned-away) workers age past the bound."""
        claimed_dir = self._path("claimed")
        requeued = 0
        now = time.time()
        for name in sorted(os.listdir(claimed_dir)):
            if not name.endswith(".task"):
                continue
            path = os.path.join(claimed_dir, name)
            try:
                age = now - os.path.getmtime(path)
            except OSError:
                continue
            if age < max_age_seconds:
                continue
            try:
                os.rename(path, self._path("tasks", name))
                requeued += 1
            except OSError:
                continue
        if requeued:
            get_registry().counter(
                "runtime_requeued_tasks_total",
                "Stale claims of crashed workers returned to the queue") \
                .inc(requeued)
            add_event("requeue_stale", {"requeued": requeued,
                                        "max_age_seconds": max_age_seconds})
        return requeued

    def close(self):
        """Stop workers: sentinel first, then SIGTERM (graceful), then kill.

        The stop sentinel lets idle workers exit on their own; a worker
        still executing gets SIGTERM, which its graceful path turns into
        "finish and ack the in-flight task, exit 0" — only a
        worker ignoring that for another grace period is killed."""
        try:
            write_atomic(self._path(_STOP_SENTINEL), b"stop")
        except OSError:
            pass
        for process in self._processes:
            try:
                process.wait(timeout=10)
                continue
            except subprocess.TimeoutExpired:
                pass
            process.terminate()
            try:
                process.wait(timeout=10)
                continue
            except subprocess.TimeoutExpired:
                pass
            process.kill()
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:  # pragma: no cover
                pass
        self._processes = []
        self._outstanding = set()
        self._envelopes = {}
        self._corrupt_results = {}


# --------------------------------------------------------------------------- #
# Worker loop (the ``repro worker`` CLI)
# --------------------------------------------------------------------------- #
def _claim_next(queue_dir: str) -> Optional[str]:
    """Claim one spooled task by atomic rename; return the claimed path.

    A claim's mtime is its worker's heartbeat, and the rename keeps the
    mtime of a task spooled long ago.  The task is therefore touched just
    before the rename: touched after it, a claim would look stale to a
    driver sweep in between and be requeued the moment it was taken.
    """
    tasks_dir = os.path.join(queue_dir, "tasks")
    claimed_dir = os.path.join(queue_dir, "claimed")
    try:
        names = sorted(os.listdir(tasks_dir))
    except FileNotFoundError:
        return None
    for name in names:
        if not name.endswith(".task"):
            continue
        fire("queue.claim", key=name)
        source = os.path.join(tasks_dir, name)
        target = os.path.join(claimed_dir, name)
        try:
            os.utime(source)
            os.rename(source, target)
        except OSError:
            continue  # another worker won the race
        return target
    return None


def _execute_claim(claimed_path: str, queue_dir: str,
                   graphs: Dict[str, Graph],
                   store: ArtifactStore) -> None:
    """Execute one claimed envelope and ack its result (or error)."""
    with open(claimed_path, "rb") as handle:
        envelope: TaskEnvelope = pickle.load(handle)
    try:
        graph = graphs.get(envelope.graph_fingerprint)
        if graph is None:
            graph_path = os.path.join(queue_dir, "graphs",
                                      f"{envelope.graph_fingerprint}.pkl")
            with open(graph_path, "rb") as handle:
                graph = _graph_from_arrays(pickle.load(handle))
            graphs[envelope.graph_fingerprint] = graph
        payload = execute_task(envelope.task, graph, store, envelope.inputs,
                               trace=getattr(envelope, "trace", None))
        result = {"task_id": envelope.task_id, "ok": True, "payload": payload}
    except Exception as error:  # ack the failure; the scheduler retries
        result = {"task_id": envelope.task_id, "ok": False,
                  "error": f"{type(error).__name__}: {error}",
                  "traceback": traceback_module.format_exc()}
    name = os.path.basename(claimed_path)[:-len(".task")] + ".result"
    result_path = os.path.join(queue_dir, "results", name)
    torn = fire("queue.ack", key=name)
    data = pickle.dumps(result)
    # An injected torn ack lands a truncated result file, as a worker crash
    # mid-ack on a non-atomic filesystem would leave it.
    write_atomic(result_path, tear(data, torn) if torn else data)
    os.remove(claimed_path)


class _WorkerHeartbeat:
    """Background heartbeat of one queue worker: every interval it touches
    the worker's current claim, whose mtime the driver's stale sweep reads.
    """

    def __init__(self, interval: float) -> None:
        self.interval = interval
        self.current_claim: Optional[str] = None
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="worker-heartbeat")

    def start(self) -> None:
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval):
            claim = self.current_claim
            if claim is not None:
                try:
                    os.utime(claim)
                except OSError:
                    pass  # acked (or requeued) since it was read

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def run_worker(queue_dir: str, poll_interval: float = 0.05,
               max_tasks: Optional[int] = None,
               stop_when_idle: bool = False,
               heartbeat_interval: float = 1.0) -> int:
    """Claim-execute-ack loop of one queue worker; returns tasks processed.

    The worker exits when the queue's ``stop`` sentinel appears and no task
    is claimable, after ``max_tasks`` tasks, or — with ``stop_when_idle`` —
    as soon as the queue is momentarily empty (drain mode).

    While a task runs it touches the claim every ``heartbeat_interval``
    seconds, so the driver's stale sweep can tell live-but-slow from dead;
    the interval must stay well under the driver's ``heartbeat_timeout``.
    SIGTERM is graceful: the in-flight task is finished and acked and the
    worker exits cleanly — no claim is orphaned.

    A fault plan shipped in the queue's ``config.pkl`` (or the
    ``REPRO_FAULTS`` environment) is armed before the first claim.
    """
    if heartbeat_interval <= 0:
        # A zero wait would spin the heartbeat thread on a whole core.
        raise ValueError("heartbeat_interval must be > 0")
    config_path = os.path.join(queue_dir, _CONFIG_FILE)
    cache_dir = None
    config: Dict[str, Any] = {}
    if os.path.exists(config_path):
        with open(config_path, "rb") as handle:
            config = pickle.load(handle)
        cache_dir = config.get("cache_dir")
    if config.get("faults"):
        install_plan(FaultPlan.parse(config["faults"],
                                     seed=config.get("faults_seed", 0)),
                     state_dir=config.get("faults_state"))
    store = ArtifactStore(cache_dir)
    graphs: Dict[str, Graph] = {}
    logger = get_logger("runtime.worker")
    stop_requested = threading.Event()

    def _handle_sigterm(signum, frame):  # pragma: no cover - signal path
        stop_requested.set()

    try:
        previous_handler = signal.signal(signal.SIGTERM, _handle_sigterm)
    except ValueError:  # not the main thread (embedded use)
        previous_handler = None

    heartbeat = _WorkerHeartbeat(heartbeat_interval)
    heartbeat.start()
    processed = 0
    try:
        while max_tasks is None or processed < max_tasks:
            if stop_requested.is_set():
                logger.info("worker_sigterm_drain", processed=processed)
                break
            try:
                claimed = _claim_next(queue_dir)
            except Exception as error:
                # A failing claim (filesystem hiccup, injected fault) is
                # transient: no task was taken, so just back off and retry.
                logger.warning("worker_claim_error",
                               error=f"{type(error).__name__}: {error}")
                time.sleep(poll_interval)
                continue
            if claimed is None:
                if stop_when_idle:
                    break
                if os.path.exists(os.path.join(queue_dir, _STOP_SENTINEL)):
                    break
                time.sleep(poll_interval)
                continue
            heartbeat.current_claim = claimed
            try:
                _execute_claim(claimed, queue_dir, graphs, store)
                processed += 1
            except Exception as error:
                # The ack itself failed; the claim file stays behind and
                # the driver's stale sweep will requeue the task.
                logger.warning("worker_ack_error", claim=claimed,
                               error=f"{type(error).__name__}: {error}")
                time.sleep(poll_interval)
            finally:
                heartbeat.current_claim = None
    finally:
        heartbeat.stop()
        if previous_handler is not None:
            try:
                signal.signal(signal.SIGTERM, previous_handler)
            except ValueError:  # pragma: no cover
                pass
    return processed
