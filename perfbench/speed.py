"""Host speed sampling, so timings survive the host's speed drifting.

On a shared host the same single-threaded op can take 1.5 times longer for
seconds to minutes at a time. A fixed pure-Python loop slows down with it.
SpeedMeter times that loop a few times before a block of code and then once
every INTERVAL_S while the block runs, from a SIGALRM handler on the same
thread. Multiplying the block's host seconds by the mean of REFERENCE_S /
loop time over those samples gives its time on a host whose loop takes
REFERENCE_S: a reference second. The loop shares no code with floodsim, so
no change to floodsim can move the scale.
"""
from __future__ import annotations

import signal
import statistics
import time

# one _loop() on the 2-core reference VM (Python 3.11.7), rounded
REFERENCE_S = 0.00135
INTERVAL_S = 0.2
BEFORE = 3


def _loop() -> int:
    s = 0
    for i in range(20_000):
        s += i * i
    return s


def _loop_s() -> float:
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


class SpeedMeter:
    """Context manager. After exit, scale() turns host seconds of the block,
    or of intervals in it, into reference seconds, and paused_s() gives the
    time the samples took inside an interval, to be subtracted from it."""

    def __init__(self):
        self.before: list[float] = []
        self.ticks: list[tuple[int, int, float]] = []   # (start ns, end ns, loop s)
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter_ns()
        loop = _loop_s()
        self.ticks.append((start, time.perf_counter_ns(), loop))

    def __enter__(self) -> "SpeedMeter":
        self.before = [_loop_s() for _ in range(BEFORE)]
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> bool:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def paused_s(self, start_ns: int, end_ns: int) -> float:
        """Seconds spent sampling between two perf_counter_ns() instants."""
        return sum(e - s for s, e, _ in self.ticks if start_ns <= s < end_ns) / 1e9

    def scale(self, intervals=None) -> float:
        """Mean of REFERENCE_S / loop time over the samples taken before the
        block and inside the given (start ns, end ns) intervals, or inside
        the whole block when intervals is None."""
        inside = [loop for s, _, loop in self.ticks
                  if intervals is None or any(a <= s < b for a, b in intervals)]
        return statistics.fmean(REFERENCE_S / loop for loop in self.before + inside)
