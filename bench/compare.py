#!/usr/bin/env python3
"""Compare two benchmark records: ``python3 bench/compare.py A.json B.json``.

One row per (workload, end-to-end metric): both medians, the ratio with its
base, the bound the benchmark fixed, and a verdict:

``ok``
    B's median is no worse than A's by more than the bound.
``regressed``
    it is worse by more than the bound (exit status 1).
``unresolved``
    the spread between one side's own runs exceeds the bound and the two
    sides' runs interleave, so the records cannot tell.

A record is what ``bench/run.py --all`` writes: ``workloads -> name ->
end_to_end -> metric -> [one value per run]``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

if __package__ in (None, ""):
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))

from bench.catalogue import END_TO_END  # noqa: E402
from bench.stats import quartile_spread  # noqa: E402

__all__ = ["compare_records", "verdict"]


def verdict(a_values: Sequence[float], b_values: Sequence[float],
            better: str, bound: float) -> Tuple[str, float]:
    """(``ok | regressed | unresolved``, relative worsening of B's median
    over A's — positive means worse)."""
    a, b = statistics.median(a_values), statistics.median(b_values)
    worsening = (b - a) / abs(a) if better == "lower" else (a - b) / abs(a)
    noisy = max(quartile_spread(a_values), quartile_spread(b_values)) > bound
    interleaved = not (max(a_values) < min(b_values)
                       or max(b_values) < min(a_values))
    if noisy and interleaved:
        return "unresolved", worsening
    return ("regressed" if worsening > bound else "ok"), worsening


def compare_records(record_a: Dict, record_b: Dict) -> List[Dict]:
    rows = []
    for workload, entry_a in record_a["workloads"].items():
        entry_b = record_b["workloads"].get(workload)
        if entry_b is None:
            continue
        for name, unit, better, bound, _ in END_TO_END:
            a_values = entry_a["end_to_end"].get(name)
            b_values = entry_b["end_to_end"].get(name)
            if not a_values or not b_values:
                continue
            outcome, worsening = verdict(a_values, b_values, better, bound)
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "better": better, "bound": bound,
                "a": statistics.median(a_values),
                "b": statistics.median(b_values),
                "worsening": worsening, "verdict": outcome})
    return rows


def render(rows: Sequence[Dict]) -> str:
    lines = [f"{'workload':16s} {'metric':16s} {'A':>11s} {'B':>11s} "
             f"{'B/A (base A)':>22s} {'bound':>6s}  verdict"]
    for row in rows:
        ratio = f"{row['b'] / row['a']:.3f} (A={row['a']:.4g} {row['unit']})"
        lines.append(
            f"{row['workload']:16s} {row['metric']:16s} {row['a']:11.5g} "
            f"{row['b']:11.5g} {ratio:>22s} {row['bound']:6.2f}  "
            f"{row['verdict']}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    records = []
    for path in argv:
        with open(path, "r", encoding="utf-8") as handle:
            records.append(json.load(handle))
    rows = compare_records(*records)
    print(render(rows))
    regressed = [row for row in rows if row["verdict"] == "regressed"]
    unresolved = [row for row in rows if row["verdict"] == "unresolved"]
    print(f"{len(rows)} rows: {len(regressed)} regressed, "
          f"{len(unresolved)} unresolved")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
