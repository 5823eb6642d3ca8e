"""Order statistics shared by the benchmark runner, the comparer and the tests.

Pure functions over plain lists; no numpy, so ``compare.py`` runs anywhere.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

__all__ = ["percentile", "quartile_spread", "summarize"]


def percentile(values: Sequence[float], q: float) -> float:
    """``q``-th percentile (0..100), linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be within [0, 100]")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lower = int(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def summarize(samples: Sequence[float]) -> Dict[str, float]:
    """Best-of-R summary of the in-run repeats of one phase.

    ``min`` is the reported value (noise on a shared host is additive and
    bursty, so the minimum is the steadiest estimator); median and
    quartiles are kept beside it in the record.
    """
    if not samples:
        raise ValueError("summary of an empty sample")
    return {
        "n": len(samples),
        "min": min(samples),
        "q1": percentile(samples, 25.0),
        "median": percentile(samples, 50.0),
        "q3": percentile(samples, 75.0),
        "max": max(samples),
    }


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)`` — the definition the
    acceptance driver applies to ten runs of one workload.
    """
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    if median == 0:
        return 0.0 if q3 == q1 else float("inf")
    return (q3 - q1) / abs(median)
