"""Process-wide metrics registry with prefork aggregation.

A :class:`MetricsRegistry` holds labeled metric *families* — Counters,
Gauges and Histograms — keyed by name.  A family with label names vends one
child per label-value combination; a family without labels acts as its own
single child.  All mutation is lock-cheap: one short critical section per
``inc``/``set``/``observe`` on a per-family lock, no I/O, no allocation on
the hot path once a child exists.

Histograms use fixed log-spaced buckets (see :func:`log_buckets`), so p50 /
p90 / p99 are derivable from the bucket counts at read time
(:meth:`Histogram.quantile`) and two histograms merge by summing bucket
counts — the property the prefork aggregation below relies on.

Prefork aggregation
-------------------
A prefork serving pool has N worker processes, each with its own registry
(fork copies the parent's).  The :class:`ScrapeDir` protocol makes any one
worker able to answer ``GET /metrics`` for the whole pool:

* every worker **flushes** its registry snapshot to a per-pid slot file
  (``<scrape_dir>/<pid>.slot``, a pickled snapshot written atomically via
  temp-file + rename) after handling a request;
* the worker answering a scrape flushes itself, reads every slot whose pid
  is still alive (stale slots of dead pids are skipped and unlinked), and
  **merges**: counters and histograms sum across pids; gauges — whose sum
  is meaningless across processes — keep per-worker truth by growing a
  ``pid`` label in the merged view.

Everything is standard library only (the slot writer,
:mod:`repro.atomicfile`, is a stdlib-only leaf module).
"""

from __future__ import annotations

import os
import pickle
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..atomicfile import write_atomic

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "ScrapeDir",
    "DEFAULT_LATENCY_BUCKETS",
    "get_registry",
    "log_buckets",
    "render_prometheus",
]


def log_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` log-spaced upper bounds: ``start * factor**i``."""
    if start <= 0 or factor <= 1 or count < 1:
        raise ValueError("need start > 0, factor > 1, count >= 1")
    return tuple(start * factor ** i for i in range(count))


#: 10 microseconds to ~5 minutes in x2 steps — wide enough for admission
#: waits and whole profiling tasks alike, and coarse enough (25 buckets)
#: that a histogram child stays a handful of ints.
DEFAULT_LATENCY_BUCKETS = log_buckets(1e-5, 2.0, 25)

#: Micro-batch sizes and similar small-count distributions.
SIZE_BUCKETS = log_buckets(1.0, 2.0, 12)


class _Metric:
    """Shared child plumbing: a value slot guarded by the family lock."""

    __slots__ = ("_lock",)

    def __init__(self, lock: threading.Lock) -> None:
        self._lock = lock


class Counter(_Metric):
    """Monotonically increasing count."""

    __slots__ = ("_value",)

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _state(self) -> float:
        return self.value


class Gauge(_Metric):
    """A value that can go up and down (in-flight requests, rates)."""

    __slots__ = ("_value",)

    def __init__(self, lock: threading.Lock) -> None:
        super().__init__(lock)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_max(self, value: float) -> None:
        """Keep the running maximum (e.g. max batch size seen)."""
        with self._lock:
            if value > self._value:
                self._value = float(value)

    @property
    def value(self) -> float:
        with self._lock:
            return self._value

    def _state(self) -> float:
        return self.value


class Histogram(_Metric):
    """Fixed-bucket histogram; quantiles derive from the bucket counts.

    ``bounds`` are inclusive upper bounds; one implicit ``+Inf`` bucket
    catches the overflow.  Counts are per-bucket (not cumulative) in memory
    and cumulated only at render time, so merging two histograms is an
    element-wise sum.
    """

    __slots__ = ("bounds", "_counts", "_sum", "_count")

    def __init__(self, lock: threading.Lock,
                 bounds: Sequence[float]) -> None:
        super().__init__(lock)
        self.bounds = tuple(float(b) for b in bounds)
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ValueError("histogram bounds must be strictly increasing")
        self._counts = [0] * (len(self.bounds) + 1)
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = self._bucket_index(value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    def _bucket_index(self, value: float) -> int:
        # Linear scan beats bisect for ~25 buckets dominated by small
        # latencies; correctness is what matters here, not the ns.
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                return index
        return len(self.bounds)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        with self._lock:
            return self._sum

    def quantile(self, q: float) -> float:
        """Approximate quantile by linear interpolation within the bucket."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            counts = list(self._counts)
            total = self._count
        return _quantile_from_buckets(self.bounds, counts, total, q)

    def _state(self) -> Dict[str, object]:
        with self._lock:
            return {"bounds": self.bounds, "counts": list(self._counts),
                    "sum": self._sum, "count": self._count}


def _quantile_from_buckets(bounds: Sequence[float], counts: Sequence[int],
                           total: int, q: float) -> float:
    if total == 0:
        return 0.0
    rank = q * total
    cumulative = 0
    lower = 0.0
    for index, bound in enumerate(bounds):
        in_bucket = counts[index]
        if cumulative + in_bucket >= rank:
            if in_bucket == 0:
                return bound
            fraction = (rank - cumulative) / in_bucket
            return lower + (bound - lower) * min(max(fraction, 0.0), 1.0)
        cumulative += in_bucket
        lower = bound
    return bounds[-1] if bounds else 0.0


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class _Family:
    """One named metric family: type, help, label names, children."""

    def __init__(self, name: str, kind: str, help_text: str,
                 label_names: Tuple[str, ...],
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.kind = kind
        self.help = help_text
        self.label_names = label_names
        self.buckets = tuple(buckets) if buckets is not None else None
        self._lock = threading.Lock()
        self._children: Dict[Tuple[str, ...], _Metric] = {}

    def labels(self, *values: str):
        values = tuple(str(v) for v in values)
        if len(values) != len(self.label_names):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.label_names}, "
                f"got {values}")
        child = self._children.get(values)
        if child is None:
            with self._lock:
                child = self._children.get(values)
                if child is None:
                    if self.kind == "histogram":
                        child = Histogram(self._lock, self.buckets
                                          or DEFAULT_LATENCY_BUCKETS)
                    else:
                        child = _TYPES[self.kind](self._lock)
                    self._children[values] = child
        return child

    # Unlabeled convenience: the family proxies its single () child.
    def inc(self, amount: float = 1.0) -> None:
        self.labels().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self.labels().dec(amount)

    def set(self, value: float) -> None:
        self.labels().set(value)

    def set_max(self, value: float) -> None:
        self.labels().set_max(value)

    def observe(self, value: float) -> None:
        self.labels().observe(value)

    @property
    def value(self) -> float:
        return self.labels().value

    @property
    def count(self) -> int:
        return self.labels().count

    @property
    def sum(self) -> float:
        return self.labels().sum

    def quantile(self, q: float) -> float:
        return self.labels().quantile(q)

    def children(self) -> List[Tuple[Tuple[str, ...], _Metric]]:
        with self._lock:
            return sorted(self._children.items())

    def _snapshot(self) -> Dict[str, object]:
        return {"type": self.kind, "help": self.help,
                "labels": list(self.label_names),
                "buckets": self.buckets,
                "children": {values: child._state()
                             for values, child in self.children()}}


class MetricsRegistry:
    """Registry of metric families; ``get_registry()`` is the process one.

    ``counter`` / ``gauge`` / ``histogram`` are get-or-create: the first
    call defines the family, later calls return it (and validate that the
    type and label names agree, so two modules cannot silently register the
    same name with different meanings).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}

    def _family(self, name: str, kind: str, help_text: str,
                label_names: Sequence[str],
                buckets: Optional[Sequence[float]] = None) -> _Family:
        label_names = tuple(label_names)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(name, kind, help_text, label_names, buckets)
                self._families[name] = family
            elif family.kind != kind or family.label_names != label_names:
                raise ValueError(
                    f"metric {name!r} already registered as {family.kind} "
                    f"with labels {family.label_names}")
            return family

    def counter(self, name: str, help: str = "",
                labels: Sequence[str] = ()) -> _Family:
        return self._family(name, "counter", help, labels)

    def gauge(self, name: str, help: str = "",
              labels: Sequence[str] = ()) -> _Family:
        return self._family(name, "gauge", help, labels)

    def histogram(self, name: str, help: str = "",
                  labels: Sequence[str] = (),
                  buckets: Optional[Sequence[float]] = None) -> _Family:
        return self._family(name, "histogram", help, labels, buckets)

    def get(self, name: str) -> Optional[_Family]:
        with self._lock:
            return self._families.get(name)

    def families(self) -> List[_Family]:
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def snapshot(self) -> Dict[str, Dict]:
        """Picklable state of every family (the slot-file payload)."""
        return {family.name: family._snapshot()
                for family in self.families()}

    def render(self) -> str:
        """Prometheus text exposition of this registry alone."""
        return render_prometheus(self.snapshot())


#: The process-wide registry every instrumented module shares.
_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    return _REGISTRY


# --------------------------------------------------------------------------- #
# Prometheus text rendering
# --------------------------------------------------------------------------- #
def _escape(value: str) -> str:
    return (value.replace("\\", "\\\\").replace("\n", "\\n")
            .replace('"', '\\"'))


def _labels_text(names: Sequence[str], values: Sequence[str],
                 extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = [f'{name}="{_escape(str(value))}"'
             for name, value in zip(names, values)]
    pairs.extend(f'{name}="{_escape(str(value))}"' for name, value in extra)
    return "{" + ",".join(pairs) + "}" if pairs else ""


def _format_number(value: float) -> str:
    if value == float("inf"):
        return "+Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def render_prometheus(snapshot: Dict[str, Dict]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` (or merged snapshot) as the
    Prometheus text exposition format (version 0.0.4)."""
    lines: List[str] = []
    for name in sorted(snapshot):
        family = snapshot[name]
        kind = family["type"]
        if family.get("help"):
            lines.append(f"# HELP {name} {_escape(family['help'])}")
        lines.append(f"# TYPE {name} {kind}")
        label_names = list(family.get("labels", ()))
        for values in sorted(family["children"]):
            state = family["children"][values]
            if kind in ("counter", "gauge"):
                lines.append(f"{name}{_labels_text(label_names, values)} "
                             f"{_format_number(state)}")
                continue
            bounds = list(state["bounds"]) + [float("inf")]
            cumulative = 0
            for bound, count in zip(bounds, state["counts"]):
                cumulative += count
                labels = _labels_text(label_names, values,
                                      extra=(("le", _format_number(bound)),))
                lines.append(f"{name}_bucket{labels} {cumulative}")
            base = _labels_text(label_names, values)
            lines.append(f"{name}_sum{base} {_format_number(state['sum'])}")
            lines.append(f"{name}_count{base} {state['count']}")
    return "\n".join(lines) + ("\n" if lines else "")


# --------------------------------------------------------------------------- #
# Prefork aggregation
# --------------------------------------------------------------------------- #
def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:  # pragma: no cover - alive but not ours
        return True
    except OSError:
        return False
    return True


def merge_snapshots(snapshots: Dict[int, Dict[str, Dict]]) -> Dict[str, Dict]:
    """Merge per-pid registry snapshots into one pool-wide snapshot.

    Counters and histograms sum across pids (identical bucket bounds are
    guaranteed by construction — every worker runs the same code).  Gauges
    keep per-worker truth instead: the merged family grows a trailing
    ``pid`` label, one series per worker, because summing e.g. an
    edges-per-second rate gauge across processes would fabricate a number
    nobody measured.
    """
    merged: Dict[str, Dict] = {}
    for pid in sorted(snapshots):
        for name, family in snapshots[pid].items():
            kind = family["type"]
            target = merged.get(name)
            if target is None:
                labels = list(family.get("labels", ()))
                if kind == "gauge":
                    labels = labels + ["pid"]
                target = merged[name] = {"type": kind,
                                         "help": family.get("help", ""),
                                         "labels": labels, "children": {}}
            children = target["children"]
            for values, state in family["children"].items():
                values = tuple(values)
                if kind == "gauge":
                    children[values + (str(pid),)] = state
                elif kind == "counter":
                    children[values] = children.get(values, 0.0) + state
                else:
                    existing = children.get(values)
                    if existing is None:
                        children[values] = {
                            "bounds": tuple(state["bounds"]),
                            "counts": list(state["counts"]),
                            "sum": state["sum"], "count": state["count"]}
                    elif tuple(existing["bounds"]) == tuple(state["bounds"]):
                        existing["counts"] = [
                            a + b for a, b in zip(existing["counts"],
                                                  state["counts"])]
                        existing["sum"] += state["sum"]
                        existing["count"] += state["count"]
    return merged


class ScrapeDir:
    """Shared directory of per-pid registry slot files (prefork scraping).

    The parent of a prefork pool creates one ScrapeDir before forking; each
    worker inherits it and calls :meth:`flush` after handling a request, so
    whichever worker answers ``GET /metrics`` can :meth:`render` a merged
    exposition that covers the whole pool.  Slot files are pickled registry
    snapshots written atomically (temp file + rename), so a scrape never
    reads a torn write.  Slots whose pid no longer exists are skipped and
    unlinked — a respawned worker's fresh slot replaces its predecessor's.
    """

    SLOT_SUFFIX = ".slot"

    def __init__(self, path: str) -> None:
        self.path = path
        os.makedirs(path, exist_ok=True)

    def slot_path(self, pid: Optional[int] = None) -> str:
        return os.path.join(self.path,
                            f"{pid if pid is not None else os.getpid()}"
                            f"{self.SLOT_SUFFIX}")

    def flush(self, registry: Optional[MetricsRegistry] = None) -> str:
        """Write this process's registry snapshot to its slot file."""
        registry = registry if registry is not None else get_registry()
        payload = {"pid": os.getpid(), "time": time.time(),
                   "snapshot": registry.snapshot()}
        path = self.slot_path()
        write_atomic(path, pickle.dumps(payload))
        return path

    def _iter_slots(self) -> Iterable[Tuple[int, str]]:
        try:
            names = os.listdir(self.path)
        except OSError:
            return
        for name in sorted(names):
            if not name.endswith(self.SLOT_SUFFIX):
                continue
            stem = name[:-len(self.SLOT_SUFFIX)]
            if not stem.isdigit():
                continue
            yield int(stem), os.path.join(self.path, name)

    def merged_snapshot(self, include_dead: bool = False
                        ) -> Tuple[Dict[str, Dict], List[int]]:
        """Merge every live worker's slot; returns (snapshot, pids seen).

        ``include_dead`` keeps slots of exited pids — offline inspection of
        a scrape dir left behind by a shut-down pool — instead of unlinking
        them as stale.
        """
        snapshots: Dict[int, Dict[str, Dict]] = {}
        for pid, path in self._iter_slots():
            if not include_dead and not _pid_alive(pid):
                try:
                    os.remove(path)  # dead worker's stale slot
                except OSError:
                    pass
                continue
            try:
                with open(path, "rb") as handle:
                    payload = pickle.load(handle)
            except (OSError, pickle.UnpicklingError, EOFError, ValueError):
                continue  # mid-write or truncated; the next scrape sees it
            snapshot = payload.get("snapshot")
            if isinstance(snapshot, dict):
                snapshots[pid] = snapshot
        return merge_snapshots(snapshots), sorted(snapshots)

    def render(self, registry: Optional[MetricsRegistry] = None) -> str:
        """Flush this process, then render the pool-merged exposition."""
        self.flush(registry)
        merged, _ = self.merged_snapshot()
        return render_prometheus(merged)
