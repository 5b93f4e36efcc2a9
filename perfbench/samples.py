"""Order statistics the benchmark reports: medians, quartile spread, tails."""

from __future__ import annotations

import math
import statistics

#: Samples a reported tail percentile must leave beyond it.
BEYOND = 10


def median(values) -> float:
    """Median of a non-empty sample."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def tail(values) -> tuple[float, int, int]:
    """The highest percentile with at least ``BEYOND`` samples above it.

    Nearest-rank percentiles: the p-th percentile of ``n`` sorted samples
    is the ``ceil(p * n / 100)``-th smallest. The largest whole ``p`` that
    leaves ``BEYOND`` samples strictly above that rank is
    ``floor(100 * (n - BEYOND) / n)``. Returns ``(value, p, n)``.

    Below ``2 * BEYOND`` samples no percentile above the median has that
    many samples beyond it, so the median is returned as the 50th
    percentile; the recorded ``n`` tells the reader how little it rests
    on. (The maximum of a handful of samples, the alternative, moved by
    20% between runs of figures-cold.)
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n < 2 * BEYOND:
        return median(ordered), 50, n
    p = (100 * (n - BEYOND)) // n
    rank = math.ceil(p * n / 100)
    return float(ordered[rank - 1]), p, n
