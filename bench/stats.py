"""Order statistics for the benchmark report and its spread check."""

import math
import statistics


def percentile(values, q):
    """The q-th percentile (0 <= q <= 100) of a non-empty sample.

    Linear interpolation between closest ranks, the rule numpy uses by
    default, so the median of an even-sized sample is the mean of the two
    middle values.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must lie in [0, 100], got {q!r}")
    pos = (len(xs) - 1) * q / 100.0
    lo, hi = math.floor(pos), math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(values):
    """The highest of p90 and p99 that leaves at least ten samples beyond
    it, as ``(q, value)``; ``None`` when the sample is too small for p90."""
    n = len(values)
    for q in (99, 90):
        if n * (100 - q) / 100.0 >= 10:
            return q, percentile(values, q)
    return None


def quartile_spread(values):
    """Distance between the first and third quartiles as a share of the
    median, with quartiles from ``statistics.quantiles(values, n=4)``."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
