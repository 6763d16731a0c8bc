"""Order statistics the benchmark reports."""

from __future__ import annotations

from statistics import median, quantiles

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``: with ``n`` sorted samples the value is
    the one at rank ``n - TAIL_BEYOND`` (1-based), so exactly ten samples
    lie above it, and the percentile is ``100 * (n - 10) / n``.
    """
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"a tail needs more than {TAIL_BEYOND} samples, got {n}"
        )
    ordered = sorted(samples)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)
