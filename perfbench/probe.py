"""CPU speed probe: express a timed region in reference seconds.

The machines this benchmark runs on share their cores with other
tenants, and a core's speed changes by up to 2x over seconds to minutes
without any of it showing as steal time or in the process's CPU time.
A wall-clock time then measures the neighbours as much as the program.

`SpeedProbe` samples the core's speed while the region runs: a wall-clock
interval timer interrupts the region every `interval` seconds and times
a fixed loop, a schoolbook product of two 6-digit tuples of large
integers reduced mod 3^12, repeated PROBE_ROUNDS times.  That is the
shape of the program's hottest path (`RingElement.__mul__`) and tracked
its slowdowns best among the loops tried.  Each sample stands for one
equal slice of wall time, and the work done in a slice is inversely
proportional to the loop's time in it.  So

    reference seconds = (wall - time spent in the probe)
                        * REF_LOOP_S * mean(1 / loop time)

is the region's wall time on a core where the loop takes REF_LOOP_S,
which is what it takes on an uncontended core of the machine the
reference figures were taken on (Intel Xeon vCPU at 2.0 GHz,
Python 3.11.7).  The raw wall time is reported beside it.
"""

from __future__ import annotations

import signal
import time

PROBE_ROUNDS = 12
REF_LOOP_S = 75e-6
_MOD = 3 ** 12
_X = tuple(range(123457, 123457 + 6 * 7919, 7919))
_Y = tuple(range(98765, 98765 + 6 * 104729, 104729))


def _loop() -> float:
    t0 = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        conv = [0] * 11
        for i, a in enumerate(_X):
            for j, b in enumerate(_Y):
                conv[i + j] += a * b
        tuple(c % _MOD for c in conv[:6])
    return time.perf_counter() - t0


class SpeedProbe:
    """Context manager timing a region in wall and reference seconds."""

    def __init__(self, interval: float):
        self.interval = interval
        self.samples: list[float] = []
        self.wall = 0.0

    def _sample(self, signum, frame):
        self.samples.append(_loop())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        self.samples.append(_loop())
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.wall = time.perf_counter() - self._t0
        signal.signal(signal.SIGALRM, self._old)
        return False

    @property
    def scale(self) -> float:
        """Reference seconds per second of the region's own work."""
        return REF_LOOP_S * sum(1 / s for s in self.samples) / len(self.samples)

    @property
    def reference_s(self) -> float:
        # the first sample is taken before the clock starts
        return (self.wall - sum(self.samples[1:])) * self.scale
