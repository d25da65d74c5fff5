"""Host-speed correction for timings taken on a shared machine.

On a shared two-vCPU Xeon virtual machine (Python 3.11) the same work took
anywhere from 1x to 2x as long from one half-minute to the next, and CPU
time moved with wall time, so neither clock alone gives repeatable numbers.
A run therefore samples the host's speed while it works: a fixed reference
chunk of pure-Python Fraction and dict arithmetic (the kind of work pengeom
does) is timed every INTERVAL_S of wall time, from a SIGALRM handler in the
benchmark's own single thread. Each measured interval is scaled by the mean
of REF_NOMINAL_S / chunk time over the samples taken while it ran, which
turns it into seconds at the nominal host speed. The handler's own time is
excluded from every measurement through `now()`.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.02
# one reference chunk on the quiet host; only fixes the scale of the
# corrected times, so it must never change between compared commits
REF_NOMINAL_S = 0.00025
MIN_SAMPLES = 50


def reference_chunk():
    s = Fraction(0)
    d: dict[int, int] = {}
    for i in range(1, 40):
        s += Fraction(i, i + 7) * Fraction(3, i + 1)
        d[i % 7] = d.get(i % 7, 0) + i
    return s


def _speed() -> float:
    a = perf_counter()
    reference_chunk()
    return REF_NOMINAL_S / (perf_counter() - a)


def measure_speed(chunks: int = 25) -> float:
    """Mean speed ratio over `chunks` reference chunks run right now."""
    return sum(_speed() for _ in range(chunks)) / chunks


class HostSpeed:
    """Speed samples taken on a wall-clock timer while work runs."""

    def __init__(self, interval: float = INTERVAL_S):
        self.interval = interval
        self.spent = 0.0
        self.speeds: list[float] = []

    def _tick(self, signum, frame):
        a = perf_counter()
        self.speeds.append(_speed())
        self.spent += perf_counter() - a

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def now(self) -> float:
        """perf_counter() minus the time spent sampling."""
        return perf_counter() - self.spent

    def mark(self) -> int:
        return len(self.speeds)

    def factor(self, since: int) -> float:
        """Mean speed ratio of the samples taken after `mark()` returned
        `since`, widened to the latest MIN_SAMPLES for short intervals."""
        samples = self.speeds[max(0, min(since, len(self.speeds) - MIN_SAMPLES)):]
        if not samples:
            samples = [measure_speed()]
        return sum(samples) / len(samples)
