"""Order statistics used by the end-to-end metrics."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile). The value is a sample: the largest one that
    still has TAIL_BEYOND samples strictly greater, so ties never shrink the
    count.
    """
    beyond = TAIL_BEYOND
    xs = sorted(samples)
    k = len(xs) - beyond - 1
    while k >= 0 and sum(1 for x in xs[k + 1:] if x > xs[k]) < beyond:
        k -= 1
    if k < 0:
        raise ValueError(f"need more than {beyond} samples above some sample, "
                         f"got {len(xs)} samples")
    return xs[k], 100.0 * (k + 1) / len(xs)


def median(samples: list[float]) -> float:
    return statistics.median(samples)
