"""Timing calibrated to a fixed machine speed.

The CPUs of a shared host change speed within seconds: a fixed piece of
work can take anywhere from 1x to 2x its fastest time, depending on what
other tenants run.  Raw wall time of a run then says as much about the
neighbours as about the program.

``SpeedTimer`` interrupts the timed code every ``INTERVAL`` seconds with
SIGALRM and runs a probe, a fixed piece of work, in the handler.  Each
stretch of wall time between two probes is multiplied by the mean, over
the probes at its two ends, of reference probe time / probe time, and
the stretches are summed.  The calibrated time estimates how
long the code would have taken at the speed where the probe takes its
reference time.  The probes' own time is left out of both the raw and
the calibrated time; they add about 0.5 % to the run.
"""
from __future__ import annotations

import signal
import time

INTERVAL = 0.05


def probe_numpy() -> float:
    """Time work shaped like ticklab's inner loop: a random stream, a
    small draw and a few small-array operations.  The better of two tries
    counts, so that a preemption inside one try does not."""
    import numpy as np
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        for i in range(4):
            x = np.random.default_rng([3, i]).uniform(0.0, 1.0, 64)
            np.any(np.diff(np.cumsum(x)) <= 0)
        best = min(best, time.perf_counter() - t0)
    return best


def probe_python() -> float:
    """Time pure interpreter work, for code that must not find numpy
    already imported."""
    best = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        acc, table = 0, {}
        for i in range(800):
            table[i & 7] = i
            acc += table[i & 7] * 3 // 2
        best = min(best, time.perf_counter() - t0)
    return best


# about the fastest time of each probe on the 2-vCPU machine (Python
# 3.11, numpy 2.4) where the benchmark was built; only the scale of the
# calibrated times depends on them
REFERENCE_S = {probe_numpy: 94e-6, probe_python: 95e-6}


class SpeedTimer:
    """Context manager: ``raw_s`` is the wall time of the block and
    ``calibrated_s`` the same time at the probe's reference speed."""

    def __init__(self, probe=probe_numpy):
        self._probe = probe
        self._reference_s = REFERENCE_S[probe]

    def __enter__(self):
        self._stretches = []        # (wall s, probe s at its end)
        self._probe_s = 0.0
        self._first = self._probe()
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._t0 = self._mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def _on_alarm(self, signum, frame):
        now = time.perf_counter()
        self._stretches.append((now - self._mark, self._probe()))
        self._mark = time.perf_counter()
        self._probe_s += self._mark - now

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        end = time.perf_counter()
        self._stretches.append((end - self._mark, self._probe()))
        self.raw_s = end - self._t0 - self._probe_s
        self.calibrated_s = 0.0
        before = self._first
        for stretch, after in self._stretches:
            self.calibrated_s += stretch * self._reference_s \
                * (1 / before + 1 / after) / 2
            before = after
        return False


class Stopwatch:
    """Context manager with the wall time of the block in ``raw_s``."""

    def __enter__(self):
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_s = time.perf_counter() - self._t0
        return False
