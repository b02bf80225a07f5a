"""A fixed computation that tells how fast the machine runs ewaldkit-like
code at the moment.

The benchmark runs on shared hosts whose speed drifts: for stretches of
seconds to minutes the same Python code runs up to 2x slower, with CPU
time equal to wall time, so neither best-of-k nor CPU time removes it.
reference_work() is exact rational Gauss-Jordan elimination over every
4-row subset of a fixed 10x4 integer matrix, the kind of work ewaldkit's
vertex enumeration does, written here so that it shares no code with
ewaldkit: a change to ewaldkit cannot change its time.  run.py times it
throughout a run and reports every time scaled to the speed at which
reference_work() takes NOMINAL_S.

    python3 perfbench/reference.py   # prints the reference time here
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction
from itertools import combinations

ROWS = tuple(tuple((3 * i + 5 * j + i * j) % 7 - 3 for j in range(4)) for i in range(10))
CALLS = 3  # reference_work() calls in one probe
# seconds of one reference_work() call on the machine the bounds were set
# on (2-vCPU Xeon VM, Python 3.11), in its fast phase
NOMINAL_S = 0.030


def reference_work():
    """Count the 4-row subsets of ROWS whose square part is invertible."""
    found = 0
    for sub in combinations(ROWS, 4):
        m = [[Fraction(x) for x in row] + [Fraction(1)] for row in sub]
        for c in range(4):
            pivot = next((r for r in range(c, 4) if m[r][c] != 0), None)
            if pivot is None:
                break
            m[c], m[pivot] = m[pivot], m[c]
            for r in range(4):
                if r != c and m[r][c] != 0:
                    f = m[r][c] / m[c][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]
        else:
            found += 1
    return found


def probe():
    """Seconds per reference_work() call, over CALLS calls.  The garbage
    collector is off meanwhile, so that the heap ewaldkit left behind does
    not change the time."""
    was_on = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        for _ in range(CALLS):
            reference_work()
        return (time.perf_counter() - t) / CALLS
    finally:
        if was_on:
            gc.enable()


if __name__ == "__main__":
    times = [probe() for _ in range(20)]
    print("reference_work(): min %.5f s, median %.5f s (NOMINAL_S %.5f s)"
          % (min(times), statistics.median(times), NOMINAL_S))
