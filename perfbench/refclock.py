"""Reference clock: factors the machine's drifting speed out of a timing.

On a shared host the same code runs at very different speeds from one
minute to the next (see the README's "Noise on this machine").  While a
:class:`RefClock` is open, a timer signal interrupts the timed code every
``PERIOD_S`` and times a fixed pure-Python loop in the same thread.  The
loop's median time says how fast the machine ran during that interval, and
:meth:`RefClock.reference_s` converts the timed code's own time (the elapsed
time minus the loop's) to *reference seconds*: seconds on a machine on which
the loop takes ``NOMINAL_S``.

The loop does not touch tsclab, so a change to tsclab moves the timed code's
time and leaves the loop's alone.
"""

from __future__ import annotations

import signal
import time

PERIOD_S = 0.01  # one loop per 10 ms of timed code: about 1.5 % of the time
NOMINAL_S = 140e-6  # the loop's time when this machine runs at its fastest
MIN_SAMPLES = 5  # a body shorter than this many periods is sampled after it


def reference_loop() -> int:
    """The fixed work whose time measures the machine's speed."""
    total = 0
    slots = {}
    for i in range(1500):
        total += i * i % 7
        slots[i & 63] = total
    return total


class RefClock:
    """Times a block and samples the reference loop while it runs.

    ``own_s`` is the block's elapsed time minus the time spent in the loop.
    The timer signal is delivered to this process only: child processes do
    not inherit interval timers.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0
        self.own_s = 0.0
        self._previous = None
        self._t0 = 0.0

    def _tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        reference_loop()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent_s += dt

    def __enter__(self) -> "RefClock":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.own_s = time.perf_counter() - self._t0 - self.spent_s
        signal.signal(signal.SIGALRM, self._previous)
        while len(self.samples) < MIN_SAMPLES:
            self._tick()

    def speed(self) -> float:
        """How much slower than nominal the machine ran (1.0 = nominal)."""
        # the middle sample, without importing statistics: a fresh
        # interpreter times its imports under this clock
        return sorted(self.samples)[len(self.samples) // 2] / NOMINAL_S

    def reference_s(self, seconds: float | None = None) -> float:
        """``seconds`` (default: the block's own time) in reference seconds."""
        return (self.own_s if seconds is None else seconds) / self.speed()
