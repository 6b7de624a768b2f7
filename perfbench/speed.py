"""Host-speed meter: timings in seconds at a fixed reference speed.

On a shared host the same pure-Python code runs up to 1.6x slower from one
stretch of seconds to the next, because other guests contend for the
physical cores.  A raw timing then says more about the neighbours than
about the program.  The meter measures the host's speed while the program
runs and scales each timing to a fixed reference speed.

Every ``INTERVAL_S`` a SIGALRM handler runs ``kernel()``, a fixed piece of
interpreter work that does not touch sl2q, and records when it started and
how long it took.  Each sample gives the host's speed at that moment as
``REF_KERNEL_S / kernel time``.  A timed interval [t0, t1] is reported as

    (t1 - t0 - handler time inside it) * mean speed of the samples

where the mean runs over the samples from ``PAD_S`` before t0 to ``PAD_S``
after t1.  The mean of the speeds, not the median of the kernel times,
integrates the speed over an interval during which it changes; on
repetitions of min_sweep it halved the spread that remained.
``REF_KERNEL_S`` is a constant, close to the kernel's time on the machine
the benchmark was defined on when that was lightly loaded, so a value
reads roughly as seconds there.  The scaling does not depend on sl2q: a
program change moves the scaled time as much as the raw one.  Raw times
are kept beside the scaled ones in each record.

The handler costs about 1 % of the run, and its time is subtracted.  All
times come from ``time.monotonic`` (CLOCK_MONOTONIC, shared with the
parent process).
"""

from __future__ import annotations

import bisect
import random
import signal
import statistics
import time

INTERVAL_S = 0.01
REF_KERNEL_S = 70e-6
PAD_S = 0.1
MIN_SAMPLES = 8

_ARITH_LOOPS = 500
_rng = random.Random(5)
_TABLE = tuple(_rng.sample(range(256), 256))
_INDICES = tuple(_rng.randrange(256) for _ in range(800))


def kernel() -> int:
    """Integer arithmetic, then a chain of table lookups.

    Neither part touches sl2q or keeps state between calls, and the lookups
    allocate nothing, so the kernel's time does not depend on what the
    program holds in memory.  In short trials beside product_report calls
    and field builds, the arithmetic alone mostly slowed about 1.2 times as
    much as the program and the lookups alone 0.4 to 0.7 times as much;
    with the two taking about equal time the kernel came closest.
    """
    s = 0
    for i in range(_ARITH_LOOPS):
        s += i * i % 7
    t = _TABLE
    for x in _INDICES:
        s = t[s & 255 ^ x]
    return s


class Meter:
    """Kernel samples (start, duration), taken on SIGALRM while running."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._spent: list[float] = [0.0]  # running sum of durations

    def _sample(self, signum, frame):
        t = time.monotonic()
        kernel()
        d = time.monotonic() - t
        self.starts.append(t)
        self.durations.append(d)
        self._spent.append(self._spent[-1] + d)

    def start(self) -> "Meter":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _index(self, t: float) -> int:
        return bisect.bisect_left(self.starts, t)

    def spent(self, t0: float, t1: float) -> float:
        """Handler time of the samples that started inside [t0, t1)."""
        return self._spent[self._index(t1)] - self._spent[self._index(t0)]

    def factor(self, t0: float, t1: float) -> float:
        """Mean host speed around [t0, t1], relative to the reference."""
        lo, hi = self._index(t0 - PAD_S), self._index(t1 + PAD_S)
        if hi - lo < MIN_SAMPLES:  # widen to the nearest samples
            mid = (lo + hi) // 2
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.starts) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("no host-speed samples were taken")
        return REF_KERNEL_S * statistics.fmean(1.0 / d for d in window)

    def busy(self, t0: float, t1: float) -> float:
        """Seconds spent in [t0, t1] outside the handler, unscaled."""
        return t1 - t0 - self.spent(t0, t1)

    def scaled(self, t0: float, t1: float) -> float:
        """Seconds spent in [t0, t1] outside the handler, at reference speed."""
        return self.busy(t0, t1) * self.factor(t0, t1)
