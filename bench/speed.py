"""Core speed sampled during a run, to express times at a fixed reference speed.

The benchmark shares a few cores of a host with other work, and the speed of
its core changes by up to 1.7x within a minute, often for a whole run.  A
timed region therefore reads in reference seconds: its wall time, scaled by
how long a fixed reference kernel took while the region ran, relative to
`REF_KERNEL_S`.  The kernel mixes interpreter work and small complex numpy
calls, as qeclab does, and never calls qeclab, so a change to qeclab moves
the reference times exactly as it moves the wall times.

`SpeedProbe` runs the kernel from a SIGALRM handler every `INTERVAL_S`
seconds in the main thread.  A window's reference time is its wall time less
the kernel time spent inside it, times `REF_KERNEL_S` over the mean kernel
time of the ticks inside the window (of the nearest ticks, for a window too
short to hold `MIN_TICKS`).  Ticks inside the window track its speed best: on
a 2.5 s region the interquartile spread of the scaled times was 4-7%,
against 22-32% for the wall times, where ticks from just before and after
gave 10%.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

import numpy as np

# Kernel time on the reference core: about the fastest reading on a 2-CPU
# x86_64 VM (Intel Xeon, Python 3.11, numpy 2.4).  Reference seconds are
# seconds on a core that runs the kernel in this time.
REF_KERNEL_S = 0.0025
INTERVAL_S = 0.1
# A window with fewer ticks inside it is scaled by its nearest ticks.
MIN_TICKS = 3

_RNG = np.random.default_rng(0)
_M = _RNG.normal(size=(8, 8)) + 1j * _RNG.normal(size=(8, 8))
_IDX = _RNG.integers(0, 64, size=64)


def kernel() -> float:
    """Fixed interpreter and small-matrix work; returns its duration in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(8000):
        acc = (acc * 31 + i) % 1000003
        table[i & 127] = acc
    m = _M
    for _ in range(130):
        m = m @ _M
        m = m / np.abs(m).max()
        _ = np.angle(m[_IDX % 8, _IDX // 8])
    dt = time.perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


class SpeedProbe:
    """Kernel ticks at a fixed interval, recorded as (start, duration)."""

    def __init__(self, on_tick=None):
        self.on_tick = on_tick               # called with each tick's duration
        self.ticks: list[tuple[float, float]] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        d = kernel()
        self.ticks.append((t0, d))
        if self.on_tick is not None:
            self.on_tick(d)

    def start(self) -> None:
        for _ in range(5):                   # warm the kernel before the first tick
            kernel()
        self._tick(None, None)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self._tick(None, None)               # so the last window has a tick after it
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *exc):
        self.stop()

    def reference_s(self, t0: float, t1: float) -> tuple[float, float]:
        """(wall time of [t0, t1] less the ticks inside it, in reference seconds; mean tick)."""
        inside = [d for s, d in self.ticks if t0 <= s < t1]
        if len(inside) < MIN_TICKS:
            # a short window: the ticks nearest to it
            nearest = sorted(self.ticks, key=lambda tick: max(t0 - tick[0], tick[0] - t1, 0.0))
            ticks = [d for _, d in nearest[:MIN_TICKS]]
        else:
            ticks = inside
        typical = statistics.fmean(ticks)
        return (t1 - t0 - sum(inside)) * REF_KERNEL_S / typical, typical

    def kernel_summary(self) -> dict:
        durations = [d for _, d in self.ticks]
        return {"ticks": len(durations), "median_s": statistics.median(durations),
                "min_s": min(durations), "max_s": max(durations),
                "interval_s": INTERVAL_S}
