"""Host-speed probe: turns measured seconds into reference-host seconds.

The benchmark runs on a few virtual cores of a shared host, whose speed
changes by up to 2x within seconds as other tenants load it (a fixed
pure-Python loop swings between two speeds; no time is stolen, the core
simply runs slower).  No run length averages that out, so every timed
figure is also reported scaled to a fixed reference speed.

While the probe is on, an interval timer interrupts the main thread every
``INTERVAL_S`` and runs a fixed pure-Python kernel.  Each sample's speed
is ``REFERENCE_KERNEL_S / kernel duration``; a span's scaled time is its
measured time, less the probe's own time, times the mean speed of the
samples taken in it.  The mean of speeds (not of durations) is what
converts wall time into work done, and a sample stretched by a context
switch only adds a speed near 0 instead of an outlier.
"""

from __future__ import annotations

import signal
import statistics
import time

#: Seconds between samples.
INTERVAL_S = 0.02
#: Kernel iterations.
KERNEL_ITERATIONS = 1000
#: Kernel duration at the reference speed: about its fastest time on the
#: 2-core Xeon (Sapphire Rapids, KVM) host the benchmark was tuned on, so
#: a scaled figure reads close to that host's seconds when it is idle.
#: Fixed once; it sets the unit of every scaled figure.
REFERENCE_KERNEL_S = 0.00018


def _kernel(n: int = KERNEL_ITERATIONS) -> int:
    """Integer, dict and list work on a few cache lines.

    A kernel that also walked a few MB of objects tracked the program's
    speed worse: on repeats of the same unit, scaling by this kernel
    varied by 1-5% (coefficient of variation), by the two together 5-7%.
    """
    table: dict[int, int] = {}
    items: list[int] = []
    total = 0
    for i in range(n):
        total += (i * 7) % 13
        table[i & 63] = total
        items.append(total & 255)
        if len(items) > 32:
            items.pop(0)
    return total + len(table) + sum(items)


class SpeedProbe:
    """Samples host speed on ``SIGALRM`` while started."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.speeds: list[float] = []
        self.spent = 0.0
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous is not None:
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None

    def _tick(self, signum, frame) -> None:
        begin = time.perf_counter()
        _kernel()
        end = time.perf_counter()
        self.speeds.append(REFERENCE_KERNEL_S / (end - begin))
        self.spent += time.perf_counter() - begin

    def mark(self) -> tuple[float, int, float]:
        """A point to measure a span from: (time, samples, probe time)."""
        return time.perf_counter(), len(self.speeds), self.spent

    def span(self, since: tuple[float, int, float]) -> tuple[float, float, float]:
        """(measured seconds, probe seconds, mean speed) since ``since``.

        A span too short to hold a sample takes the mean of all samples.
        """
        start, first, spent = since
        seconds = time.perf_counter() - start
        speeds = self.speeds[first:] or self.speeds
        return seconds, self.spent - spent, (statistics.fmean(speeds) if speeds else 1.0)
