"""Order statistics used by the benchmark report.

Kept free of the program under test so that the arithmetic can be unit
tested on its own (see ``test_bench.py``).
"""

from __future__ import annotations

import math
import statistics


def median(values):
    """Median of the present values; None when there are none."""
    present = [v for v in values if v is not None]
    return statistics.median(present) if present else None


def quartiles(values):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    With one value all three are that value.
    """
    present = sorted(v for v in values if v is not None)
    if not present:
        return None
    if len(present) == 1:
        return (present[0],) * 3
    q1, q2, q3 = statistics.quantiles(present, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q = quartiles(values)
    if q is None or q[1] == 0:
        return None
    return (q[2] - q[0]) / q[1]


def tail_percentile(values):
    """Highest whole percentile with at least ten samples beyond it.

    Returns (percentile, value), or None when fewer than eleven samples
    exist. The value is the smallest sample with ten or more samples
    above it at that percentile, i.e. the nearest-rank percentile.
    """
    present = sorted(v for v in values if v is not None)
    n = len(present)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(p / 100 * n))
    return p, present[rank - 1]


def fastest(values):
    """Smallest value; None if any value is missing (a failure is not fast)."""
    if not values or any(v is None for v in values):
        return None
    return min(values)


def geomean(values):
    """Geometric mean of positive values; None if any value is missing."""
    if not values or any(v is None for v in values):
        return None
    if any(v <= 0 for v in values):
        raise ValueError("geometric mean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def pass_seconds(rows):
    """Time to all verdicts of one pass of item rows; missing if any failed."""
    if not rows or not all(r["ok"] for r in rows):
        return None
    return sum(r["seconds"] for r in rows)


def per_item(passes, stat=median):
    """item -> ``stat`` (by default the median) of its seconds over passes."""
    samples = {}
    for rows in passes:
        for r in rows:
            samples.setdefault(r["item"], []).append(r["seconds"])
    return {item: stat(v) for item, v in samples.items()}


def pass_estimate(passes, stat=median):
    """Time of one pass over every item: the sum over items of ``stat`` of
    each item's times in (possibly partial) passes; missing if any item
    ever failed."""
    if not passes or any(not r["ok"] for rows in passes for r in rows):
        return None
    return sum(per_item(passes, stat).values())


def failed_frac(failed: int, attempted: int) -> float:
    """Failed items divided by attempted items."""
    if attempted < 1:
        raise ValueError("no item was attempted")
    if not 0 <= failed <= attempted:
        raise ValueError("failed must lie between 0 and attempted")
    return failed / attempted
