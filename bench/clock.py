"""A clock that keeps the pace of a reference machine while the real one drifts.

On a small share of a busy host the same pure-Python loop runs up to 1.5
times slower for tens of seconds at a time.  Timed with ``perf_counter``
alone, two runs of the same code a few minutes apart then differ by more
than any change worth measuring.  The speed changes slowly: samples 30 ms
apart are strongly correlated, samples seconds apart much less so.

``SpeedClock`` therefore measures the machine's speed every ``TICK_S``:
a timer signal interrupts the work, and the handler times one fixed
reference loop.  The wall time from the end of one sample to the start
of the next is counted at the speed just measured (the median of the
last few samples), scaled so that a reference loop taking
``REFERENCE_S`` counts at its face value.  The time spent in the handler
itself is not counted.  Readings of ``now()`` are
seconds on a machine on which the reference loop takes ``REFERENCE_S``.
"""

from __future__ import annotations

import signal
from time import perf_counter

TICK_S = 0.05
# The speed used is the median of the last SMOOTH samples, which damps
# the noise of a single sample.
SMOOTH = 3
# Median duration of one reference sample on the machine the benchmark
# was defined on (2 cores of a shared Xeon host, Python 3.11).
REFERENCE_S = 0.0023

_ROWS = tuple(tuple((7 * i + 3 * k) % 23 - 11 for k in range(40)) for i in range(360))


def reference_loop(rows=_ROWS) -> int:
    """Fixed interpreter work: integer products and list indexing."""
    acc = 1
    for row in rows:
        for k in range(1, len(row)):
            acc = (acc * 31 + row[k] * row[k - 1]) % 1_000_003
    return acc


class SpeedClock:
    """Seconds of work at the reference speed, from ``start()`` on."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._counted = 0.0
        self._since = 0.0
        self._rate = 1.0
        self._running = False

    def start(self) -> None:
        self._sample()
        self._counted = 0.0
        self._running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> float:
        """Stop sampling; returns the final reading."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        reading = self.now()
        self._counted, self._running = reading, False
        return reading

    def now(self) -> float:
        if not self._running:
            return self._counted
        return self._counted + (perf_counter() - self._since) * self._rate

    def slowdown(self) -> float:
        """Median reference sample over ``REFERENCE_S``: above 1 is slower."""
        ordered = sorted(self.samples)
        return ordered[len(ordered) // 2] / REFERENCE_S

    def _tick(self, signum, frame) -> None:
        self._counted += (perf_counter() - self._since) * self._rate
        self._sample()

    def _sample(self) -> None:
        t = perf_counter()
        reference_loop()
        self._since = perf_counter()
        took = self._since - t
        self.samples.append(took)
        recent = sorted(self.samples[-SMOOTH:])
        self._rate = REFERENCE_S / recent[len(recent) // 2]
