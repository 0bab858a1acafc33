"""Calibrated timing for a shared machine.

The machines this benchmark runs on share CPUs with other tenants, and their
speed drifts by 10% or more over tens of seconds. The benchmark times a fixed
calibration loop between operations and rescales each operation's time by
the loops nearest to it, so times read in seconds of the reference machine
(2 shared CPUs, Python 3.11.7, where the loop takes CAL_REF_S) and two runs
agree however busy the machine's other tenants were.
"""

from __future__ import annotations

import bisect
import statistics
import time

CAL_REF_S = 0.0082
# start of a bare interpreter (`python3 -c pass`) on the reference machine;
# set-up time is measured as a multiple of it (run.measure_setup)
BARE_REF_S = 0.055
CAL_ITERATIONS = 40000
CAL_EVERY_S = 0.25
CAL_WINDOW = 5


def calibrate() -> list[float]:
    """[midpoint, duration] of a fixed loop of big-int bit operations, the
    same kind of work as the library's inner loops."""
    t0 = time.perf_counter()
    acc, mask = 0, (1 << 200) - 1
    for i in range(CAL_ITERATIONS):
        acc ^= (mask >> (i & 127)) & (i * 2654435761)
    t1 = time.perf_counter()
    return [(t0 + t1) / 2, t1 - t0]


def scale_at(cals: list[list[float]], t: float) -> float:
    """CAL_REF_S over the median of the CAL_WINDOW loops nearest to time t;
    cals must be in time order."""
    i = bisect.bisect_left([c[0] for c in cals], t)
    lo = max(0, min(i - CAL_WINDOW // 2, len(cals) - CAL_WINDOW))
    return CAL_REF_S / statistics.median(c[1] for c in cals[lo:lo + CAL_WINDOW])
