"""Machine-speed calibration.

On a shared machine the same Python code runs up to twice as fast or as
slow from one minute to the next, and such a spell moves every timing
together.  A fixed unit of pure-Python work that uses nothing of the
engine (string formatting, dict building and a sort; of the kinds of
unit tried, the one whose time tracks the engine's most closely) is
timed twice right before and twice right after each measured operation
(or each lap of a long one, see ``Stopwatch``), with the collector off.
The operation's time is multiplied by ``REFERENCE_S / unit_s``, where
``unit_s`` is the median of those four unit times, so it reads as the
time on a machine where one unit takes ``REFERENCE_S``.  A change to the
engine moves the scaled times exactly as much as the raw ones; only the
machine's speed is divided out.  The detailed result records the run's
median unit time.
"""

from __future__ import annotations

import gc
import statistics
import time

# About the median unit time on a 2-core x86-64 cloud VM (Python 3.11).
REFERENCE_S = 0.004


def _unit() -> int:
    table = {f"k{i}": (i, str(i)) for i in range(8000)}
    return len(sorted(table))


class Clock:
    """Unit times of one run."""

    def __init__(self):
        self.units_s: list[float] = []

    def tick(self, times: int = 2) -> None:
        """Time ``times`` units."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(times):
                start = time.perf_counter()
                _unit()
                self.units_s.append(time.perf_counter() - start)
        finally:
            if enabled:
                gc.enable()

    def factor(self, last: int = 4) -> float:
        """The factor that turns a time taken among the ``last`` units
        into a reference time."""
        return REFERENCE_S / statistics.median(self.units_s[-last:])

    def unit_s(self) -> float:
        return statistics.median(self.units_s)


class Stopwatch:
    """Reference time of an operation, in laps: each lap is scaled by the
    units just before and after it, which are not timed themselves."""

    def __init__(self, clock: Clock):
        self.clock, self.total_s = clock, 0.0
        clock.tick()
        self.start = time.perf_counter()

    def lap(self) -> None:
        took = time.perf_counter() - self.start
        self.clock.tick()
        self.total_s += took * self.clock.factor()
        self.start = time.perf_counter()
