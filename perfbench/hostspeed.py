"""The host's current speed, read from a fixed piece of stdlib-only work.

The machines this benchmark runs on change speed by up to a factor of two in
phases of seconds to minutes (shared cores, frequency changes), and a phase
can cover a whole run.  So every timing is taken together with readings of
the time of the reference work below, made right before and after it, and
rescaled to the speed at which the reference work takes REFERENCE_S:

    rescaled = measured * REFERENCE_S / reference_seconds()

The reference work uses no hahnforge code, so no change to the package moves
it.  It mixes tuple-keyed dict building and sorting with big-integer
factorial arithmetic in the proportion that, on a 2-vCPU x86-64 VM, slowed
by the same factor as the workloads over 10 s windows of a 5-minute
recording (log-log slope 0.9 to 1.05); the dict-and-sort part alone gave
0.8 to 0.95 and the big-integer part alone 1.1 to 1.3.  Runs report the raw
seconds next to the rescaled ones in their meta line.
"""

from __future__ import annotations

import math
import time

# about the reference work's time on that VM; any constant would do, this
# one keeps rescaled values near that machine's wall-clock seconds
REFERENCE_S = 3.5e-3
REPEATS = 2


def reference_work():
    rows = [(i * 7919 % 10007, (i % 97, i % 89), str(i)) for i in range(3000)]
    acc = {}
    for a, key, _ in rows:
        acc[key] = acc.get(key, 0) + a
    rows.sort()
    n = 0
    for _ in range(4):
        f = 1
        for i in range(1, 400):
            f *= i
        for k in range(1, 60):
            n += f // (math.factorial(k) * math.factorial(60 - k)) % 1_000_003
    return len(acc), rows[0], n


def reference_seconds():
    """Fastest of REPEATS timings of the reference work (the fastest one
    leaves out the moments another process had the core)."""
    clock = time.perf_counter
    best = float("inf")
    for _ in range(REPEATS):
        t0 = clock()
        reference_work()
        best = min(best, clock() - t0)
    return best
