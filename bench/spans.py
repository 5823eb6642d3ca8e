"""The benchmark's own in-memory span recorder.

Spans are recorded from the benchmark's side of each layer boundary — around
the calls into the program's public functions — kept in memory and written
out once, when the traced run ends.  A layer's *self time* is its span's
duration minus the part of that interval its child spans cover.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

__all__ = ["SpanRecorder", "covered_seconds", "self_times"]

#: One span: (name, start, end, parent index or None, trace id).
Span = Tuple[str, float, float, Optional[int], str]


def covered_seconds(start: float, end: float,
                    intervals: Sequence[Tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for lower, upper in sorted(intervals):
        lower = max(lower, cursor)
        upper = min(upper, end)
        if upper > lower:
            covered += upper - lower
            cursor = upper
    return covered


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    for _, start, end, parent, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: Dict[str, float] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        own = (end - start) - covered_seconds(start, end,
                                              children.get(index, ()))
        totals[name] = totals.get(name, 0.0) + own
    return totals


class SpanRecorder:
    """Collects spans; nesting follows the ``with`` structure per thread."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None, trace_id: str = "") -> int:
        """Record a finished span measured elsewhere; returns its index."""
        with self._lock:
            self.spans.append((name, start, end, parent, trace_id))
            return len(self.spans) - 1

    @property
    def current(self) -> Optional[int]:
        """Index of the innermost open span of this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextmanager
    def span(self, name: str, trace_id: str = "") -> Iterator[int]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        if not trace_id and parent is not None:
            trace_id = self.spans[parent][4]
        # Reserve the slot first so children can point at it.
        index = self.add(name, time.perf_counter(), float("nan"), parent,
                         trace_id)
        stack.append(index)
        try:
            yield index
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                name, start, _, parent, trace_id = self.spans[index]
                self.spans[index] = (name, start, end, parent, trace_id)

    def totals(self) -> Dict[str, float]:
        """Total duration per span name."""
        out: Dict[str, float] = {}
        for name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        return out

    def self_times(self) -> Dict[str, float]:
        return self_times(self.spans)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump([{"name": name, "start": start, "end": end,
                        "parent": parent, "trace_id": trace_id}
                       for name, start, end, parent, trace_id in self.spans],
                      handle)
