"""Scale measured times to a fixed machine speed.

The shared 2-core machine this benchmark was built on changes speed by up to
a third over spells of seconds to minutes: in successive windows of ten
0.1 s operations, identical work took 0.78 to 1.22 times its median.  A
fixed pure-Python loop timed next to each measurement slows by much the same
factor, so every time the benchmark reports is scaled by REF_S / (that
loop's time around it): the time the work would take on a machine that runs
the loop in REF_S.  Over the same windows the scaled times stayed within
0.88 to 1.15 of their median; README.md compares whole runs.

The loop does the kind of work padicdyn does, big-integer arithmetic modulo
p^N and small-object churn, and touches no padicdyn code, so a change to
the program cannot move it.
"""
from __future__ import annotations

import statistics
import time

REF_S = 0.0003    # the reference speed: one loop in 0.3 ms
_MODULUS = 13 ** 64


def reference_seconds() -> float:
    """Wall time of one fixed reference loop, now."""
    t0 = time.perf_counter()
    x, acc, table = 123456789, 0, {}
    for i in range(1000):
        x = x * 1103515245 % _MODULUS
        acc += x >> 7
        table[i % 97] = (i, acc & 0xFFFF)
    return time.perf_counter() - t0


def scaled(seconds: list[float], refs: list[float], reach: int = 3) -> list[float]:
    """`seconds` at the reference speed.  refs[i] and refs[i + 1] are the loop
    times just before and after seconds[i]; each time is scaled by the median
    of the `reach` loops on either side, so one loop lengthened by an
    interrupt does not count."""
    return [s * REF_S / statistics.median(refs[max(0, i + 1 - reach):i + 1 + reach])
            for i, s in enumerate(seconds)]
