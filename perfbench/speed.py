"""A pure-Python speed probe, for timing at a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed moves with
the host's load: one `count_bound` job took anywhere from 0.19 to 0.38 s in
ten-second windows two minutes apart, and its CPU time moved with its wall
time, so the slow phases are a slower core, not time spent descheduled.  The
ratio of the job's time to this probe's time, measured next to it, stayed
within 3% over the same windows.

So every timing the benchmark reports is taken at the reference speed:

    reference seconds = wall seconds * PROBE_NOMINAL_S / probe seconds

A Meter cuts the timed work into segments of at most INTERVAL_S, probes
the speed between segments (from a timer signal while a job runs), and
scales each segment by the mean of the probes at its two ends; the probes
themselves are not timed.  The probe uses nothing from the program under
test, so a change to the program moves the timings and not the probe.
PROBE_NOMINAL_S is about the probe's time on an Intel Xeon vCPU at 2.1 GHz
at a quiet time, so reference seconds read close to the wall seconds of such a
core running alone.
"""

from __future__ import annotations

import signal
import time

PROBE_NOMINAL_S = 1.7e-3
PROBE_N = 8000
PROBE_REPEATS = 3
INTERVAL_S = 0.1


def _work(n: int) -> float:
    """Float arithmetic, calls, and list and dict traffic, as the program does."""
    acc, table, items = 0.0, {}, []
    for i in range(n):
        x = (i % 97) * 0.5 + 1.25
        acc += x * x / (x + 1.0) - abs(acc) * 1e-9
        table[i & 127] = acc
        items.append(x)
        if len(items) > 64:
            items.clear()
    return acc + len(table)



def probe() -> float:
    """Seconds one probe takes now: the mean of PROBE_REPEATS repeats.

    The mean, not the least: the host slices the core finer than a probe
    lasts, and the timed work runs through the slices as the mean does.
    """
    start = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        _work(PROBE_N)
    return (time.perf_counter() - start) / PROBE_REPEATS


def factor(before: float, after: float) -> float:
    """Multiplier from wall seconds to reference seconds for work timed between two probes."""
    return PROBE_NOMINAL_S / (0.5 * (before + after))


class Meter:
    """Reference seconds of the work between laps, probing every INTERVAL_S.

        with Meter() as meter:
            setup(); meter.lap()      # discard
            work(); seconds = meter.lap()

    The timer signal runs the probe between two bytecodes of the timed code,
    so the main thread must be the one timing.
    """

    def __enter__(self) -> "Meter":
        self._busy = True
        self._total = 0.0
        self._speed = probe()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._busy = False
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _segment(self) -> None:
        end = time.perf_counter()
        speed = probe()
        self._total += (end - self._mark) * factor(self._speed, speed)
        self._speed = speed
        self._mark = time.perf_counter()

    def _tick(self, signum, frame) -> None:
        if not self._busy:
            self._busy = True
            self._segment()
            self._busy = False

    def lap(self) -> float:
        """Reference seconds since the last lap (or since entering)."""
        self._busy = True
        self._segment()
        total, self._total = self._total, 0.0
        self._busy = False
        return total


class Stopwatch:
    """Wall seconds between laps, with the interface of Meter and no probes."""

    def __enter__(self) -> "Stopwatch":
        self._mark = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        pass

    def lap(self) -> float:
        now = time.perf_counter()
        seconds, self._mark = now - self._mark, now
        return seconds
