"""Order statistics for the ledger (no numpy: nothing to install)."""

from __future__ import annotations

import statistics


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation."""
    ranked = sorted(values)
    if not ranked:
        raise ValueError("percentile of no samples")
    position = q * (len(ranked) - 1)
    low = int(position)
    high = min(low + 1, len(ranked) - 1)
    return ranked[low] + (ranked[high] - ranked[low]) * (position - low)


def median(values) -> float:
    return percentile(values, 0.5)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(n=4)`` gives them
    (the rule the benchmark contract states); one sample is its own
    quartiles."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def latency_summary(samples_ms) -> dict:
    """p50/p95 (gated) and p99/max (reported only) with the count."""
    return {
        "p50": percentile(samples_ms, 0.50),
        "p95": percentile(samples_ms, 0.95),
        "p99": percentile(samples_ms, 0.99),
        "max": max(samples_ms),
        "samples": len(samples_ms),
    }
