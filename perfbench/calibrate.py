"""A fixed reference computation that tracks the host's current speed.

On a shared host the speed of a CPU-bound Python loop can drift by a factor
of 1.5 to 2 within minutes, and whole runs of the benchmark land in a slow
or a fast phase.  Times measured in seconds then spread too widely across
runs to compare commits.  The benchmark therefore also times this reference
computation next to every measured step and reports the step's time in
units of the reference's time at that moment (unit ``ref``).  All of the
benchmark's processes are pinned to one CPU, so the reference and the
measured work run on the same CPU.

The reference mixes the kinds of work blockprod's hot paths do, written
apart from blockprod: digit scans of small integers (block counting), an
atanh series at a 160-bit fixed-point scale (the log-sum kernels) and a
Taylor series at 1100 bits (Gamma at 1024 bits).  It never changes between
commits, so a ratio moves only when blockprod's own time does.
"""

from __future__ import annotations

import time


def reference() -> int:
    hits = 0
    for n in range(1, 1200):
        digits = []
        while n:
            n, r = divmod(n, 3)
            digits.append(r)
        for i in range(len(digits) - 1):
            if digits[i] == 1 and digits[i + 1] == 2:
                hits += 1
    scale = 160
    acc = 0
    for k in range(1, 180):
        c = 2 * (4 * k + 1) * (4 * k + 3) + 1
        u = (2 << scale) // c
        j = 1
        while u:
            acc += u // j
            u //= c * c
            j += 2
    wide = 1100
    x = (1 << wide) // 7
    for _ in range(3):
        t, j = 1 << wide, 1
        while t:
            t = (t * x >> wide) // j
            acc += t
            j += 1
    return hits + acc


def timed_reference() -> float:
    """Median time of three back-to-back runs of the reference, in seconds."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference()
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]
