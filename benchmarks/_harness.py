"""Shared infrastructure of the runtime, serving, store and chaos scripts.

Memory measurement, text/JSON result tables under ``benchmarks/results/``
and a pickle cache under ``benchmarks/_cache`` for trained models.  The
paper's tables and figures are reproduced by ``reproduce.py``, which uses
none of this.
"""

from __future__ import annotations

import os
import pickle
import sys
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

RESULTS_DIRECTORY = os.path.join(os.path.dirname(__file__), "results")
CACHE_DIRECTORY = os.path.join(os.path.dirname(__file__), "_cache")


# --------------------------------------------------------------------------- #
# Memory measurement
# --------------------------------------------------------------------------- #
def peak_rss_bytes(children: bool = False) -> int:
    """High-water-mark resident set size via ``getrusage``, in bytes.

    ``ru_maxrss`` is KiB on Linux and bytes on macOS; ``children=True``
    reports the peak over all waited-for child processes (one worker's
    peak, not their sum) — the number the memory benchmarks compare.
    """
    import resource

    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    peak = resource.getrusage(who).ru_maxrss
    if sys.platform != "darwin":
        peak *= 1024
    return peak


def _child_pids() -> List[int]:
    """PIDs of the direct children of this process (Linux)."""
    pids: List[int] = []
    task_dir = f"/proc/{os.getpid()}/task"
    try:
        for tid in os.listdir(task_dir):
            with open(os.path.join(task_dir, tid, "children"),
                      "r", encoding="ascii") as handle:
                pids.extend(int(pid) for pid in handle.read().split())
        return pids
    except OSError:
        pids.clear()
    try:  # fallback: scan /proc for our PPid
        entries = os.listdir("/proc")
    except OSError:
        return pids
    self_pid = os.getpid()
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                stat = handle.read()
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        if ppid == self_pid:
            pids.append(int(entry))
    return pids


def _pss_bytes(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/smaps_rollup", "r",
                  encoding="ascii") as handle:
            for line in handle:
                if line.startswith("Pss:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:  # no smaps_rollup: VmRSS over-counts shared pages, never under
        with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def children_pss_bytes() -> int:
    """Aggregate proportional set size of this process's children, in bytes.

    PSS charges each resident page ``1/sharers``, so a memory-mapped file
    held by N pool workers counts *once* in the sum while N private
    (unpickled) copies count N times — the footprint metric the zero-copy
    benchmarks gate on.  Children that exit between enumeration and reading
    contribute 0.  Linux-only; returns 0 where /proc is unavailable.
    """
    return sum(_pss_bytes(pid) for pid in _child_pids())


def current_rss_bytes() -> int:
    """Resident set size of this process right now, in bytes.

    Reads ``/proc/self/status`` (Linux); falls back to the getrusage peak
    where /proc is unavailable, which only ever over-reports.
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return peak_rss_bytes()


# --------------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------------- #
def format_table(headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "") -> str:
    """Render a fixed-width text table."""
    rows = [[_format_cell(cell) for cell in row] for row in rows]
    widths = [max(len(str(header)), *(len(row[i]) for row in rows)) if rows
              else len(str(header))
              for i, header in enumerate(headers)]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(row))))
    return "\n".join(lines)


def _format_cell(cell) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000 or abs(cell) < 0.001:
            return f"{cell:.3e}"
        return f"{cell:.3f}"
    return str(cell)


def report(name: str, text: str) -> None:
    """Print a benchmark report and persist it under ``benchmarks/results``."""
    banner = f"\n===== {name} =====\n"
    print(banner + text)
    os.makedirs(RESULTS_DIRECTORY, exist_ok=True)
    path = os.path.join(RESULTS_DIRECTORY, f"{name}.txt")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _json_cell(cell):
    """A table cell as a JSON-serialisable value (numpy scalars unboxed)."""
    if isinstance(cell, (np.integer,)):
        return int(cell)
    if isinstance(cell, (np.floating,)):
        return float(cell)
    if isinstance(cell, (int, float, str, bool)) or cell is None:
        return cell
    return str(cell)


def report_table(name: str, headers: Sequence[str], rows: Iterable[Sequence],
                 title: str = "", gates: Optional[Sequence] = None,
                 notes: str = "") -> None:
    """Report one result table as text *and* machine-readable JSON.

    The text rendering goes through :func:`report` (stdout +
    ``results/<name>.txt``, unchanged format); alongside it,
    ``results/BENCH_<name>.json`` records the headers, the raw rows and the
    gate verdicts so downstream tooling never parses the fixed-width table.

    ``gates`` is a sequence of ``(gate_name, passed, detail)`` triples —
    record the verdicts *before* asserting them so a failing run still
    leaves its JSON behind.  ``notes`` is free-form text appended to the
    text report and carried verbatim in the JSON.
    """
    import json

    rows = [list(row) for row in rows]
    gate_records = [{"name": gate_name, "passed": bool(passed),
                     "detail": str(detail)}
                    for gate_name, passed, detail in (gates or ())]
    text = format_table(headers, rows, title=title)
    if gate_records:
        text += "\n" + "\n".join(
            f"gate {record['name']}: "
            f"{'PASS' if record['passed'] else 'FAIL'}  ({record['detail']})"
            for record in gate_records)
    if notes:
        text += "\n" + notes
    report(name, text)
    payload = {
        "benchmark": name,
        "title": title,
        "headers": list(headers),
        "rows": [[_json_cell(cell) for cell in row] for row in rows],
        "gates": gate_records,
        "notes": notes,
    }
    path = os.path.join(RESULTS_DIRECTORY, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


# --------------------------------------------------------------------------- #
# Disk cache for the expensive shared fixtures
# --------------------------------------------------------------------------- #
def cached(key: str, builder):
    """Build-or-load a pickled artefact keyed by ``key``.

    The cache keeps benchmark re-runs fast; delete ``benchmarks/_cache`` to
    force a rebuild (e.g. after changing profiling settings).
    """
    os.makedirs(CACHE_DIRECTORY, exist_ok=True)
    path = os.path.join(CACHE_DIRECTORY, f"{key}.pkl")
    if os.path.exists(path):
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception:
            os.remove(path)
    artefact = builder()
    with open(path, "wb") as handle:
        pickle.dump(artefact, handle)
    return artefact
