"""Arithmetic shared by the benchmark runner and the steadiness check.

Percentiles use the nearest-rank rule, so every reported latency is one that
was actually observed.  The tail percentile is chosen from a fixed ladder so
that small changes in the number of samples do not move it between runs.
"""

from __future__ import annotations

import math
import statistics

TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def rank_index(count: int, pct: float) -> int:
    """0-based index of the nearest-rank pct-th percentile of count values."""
    if count <= 0:
        raise ValueError("no samples")
    # rounding keeps float error from pushing e.g. 99.9% of 10000 past 9990
    return max(0, math.ceil(round(pct * count / 100.0, 6)) - 1)


def percentile(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[rank_index(len(ordered), pct)]


def tail(values) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile that has at
    least MIN_BEYOND samples above its rank.  Fewer than 2 * MIN_BEYOND
    samples leave no such percentile; then it is the maximum, (100, max)."""
    ordered = sorted(values)
    count = len(ordered)
    best = (100.0, ordered[-1])
    for pct in TAIL_LADDER:
        idx = rank_index(count, pct)
        if count - 1 - idx >= MIN_BEYOND:
            best = (pct, ordered[idx])
    return best


def spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
