"""Host-speed normalization of measured times.

The benchmark's reference host is shared, and its CPU speed swings by up to
a factor of two for minutes at a time, in CPU time as much as in wall time.
A time divided by the time of a fixed pure-Python kernel measured next to
it does not swing: over two minutes, 93-row rounds took 0.43-0.74 s while
their ratio to the kernel stayed within 290-313. Every reported time is
therefore scaled to the reference host's speed:

    reported = measured * KERNEL_S / (the kernel's time next to the measurement)

KERNEL_S is the kernel's fastest time on the reference host, so reported
times read as that host's times when it is unloaded. The kernel does the
kind of work the program does (exact fractions, gcds, tuple-keyed dicts)
and touches no program code, so a change to the program moves reported
times by exactly as much as it moves measured ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from time import perf_counter

KERNEL_S = 0.00125    # the kernel's fastest time on the reference host
KERNEL_REPEATS = 3    # one reading is the fastest of this many kernels
STALE_S = 0.1         # a reading older than this is taken again


def kernel() -> int:
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, i + 1)
    table = {}
    for i in range(3000):
        table[(i, i * 7 % 13)] = gcd(i, 360)
    return acc.denominator % 7 + len(table)


class HostSpeed:
    """The factor that scales a time measured now to the reference host."""

    def __init__(self):
        self.scale = 1.0
        self._read_at = float("-inf")

    def read(self) -> float:
        """Measure the host now."""
        fastest = float("inf")
        for _ in range(KERNEL_REPEATS):
            start = perf_counter()
            kernel()
            fastest = min(fastest, perf_counter() - start)
        self.scale = KERNEL_S / fastest
        self._read_at = perf_counter()
        return self.scale

    def recent(self) -> float:
        """The last reading, measured again when it is stale."""
        if perf_counter() - self._read_at > STALE_S:
            return self.read()
        return self.scale
