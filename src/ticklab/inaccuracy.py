"""Confidence-interval based inaccuracy of tick signals.

The central quantity is the relative inaccuracy of a clock's j-th tick:
the smallest ratio ``width / (center / j)`` over all intervals that contain
the tick time with probability at least ``1 - eps``.  It is dimensionless,
so it needs no external time unit.  This module provides the empirical
estimator of that quantity together with the classical tail bounds
(Hoeffding, Chebyshev) and the mean-squared-over-variance accuracy measure
used in earlier work on autonomous clocks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Tolerance guarding ceil() against float noise in (1 - eps) * n.
_CEIL_GUARD = 1e-9


class ZeroVarianceError(ValueError):
    """Raised when a sample has zero variance and R would be infinite."""


@dataclass(frozen=True)
class ConfidenceInterval:
    """Symmetrically parameterised interval [mu - sigma/2, mu + sigma/2]
    that misses its target with probability at most ``eps``."""

    mu: float
    sigma: float
    eps: float

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("interval width must be nonnegative")
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError("tail level must lie in [0, 1]")

    @property
    def left(self) -> float:
        return self.mu - self.sigma / 2

    @property
    def right(self) -> float:
        return self.mu + self.sigma / 2


@dataclass(frozen=True)
class InaccuracyEstimate:
    """Result of minimising j * sigma / mu over admissible intervals.

    ``sigma_ratio`` always equals ``tick_index * interval.sigma /
    interval.mu`` exactly.
    """

    sigma_ratio: float
    interval: ConfidenceInterval
    tick_index: int
    eps: float
    n_samples: int

    def __post_init__(self):
        expected = self.tick_index * self.interval.sigma / self.interval.mu
        if self.sigma_ratio != expected:
            raise ValueError("sigma_ratio inconsistent with stored interval")


def _validated_samples(samples) -> np.ndarray:
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least two samples")
    if np.any(x <= 0):
        raise ValueError("tick-time samples must be strictly positive")
    return x


def _coverage_count(n: int, eps: float) -> int:
    if not 0.0 <= eps < 1.0:
        raise ValueError("tail level must lie in [0, 1)")
    k = math.ceil((1.0 - eps) * n - _CEIL_GUARD)
    if k < 1:
        raise ValueError("coverage count vanished; eps too close to 1")
    return k


def empirical_inaccuracy(samples, j: int, eps: float) -> InaccuracyEstimate:
    """Exact minimiser of j * sigma / mu over empirical coverage intervals.

    Sorts the samples and scans every window of ``k = ceil((1 - eps) N)``
    consecutive order statistics.  Only windows whose endpoints sit on
    sample points can be optimal: shrinking either endpoint of a covering
    interval strictly decreases sigma / mu.  Ties are broken towards the
    smallest left endpoint so the result is deterministic.
    """
    if j < 1:
        raise ValueError("tick index must be a positive integer")
    x = np.sort(_validated_samples(samples))
    n = x.size
    k = _coverage_count(n, eps)
    lo = x[: n - k + 1]
    hi = x[k - 1:]
    center = (lo + hi) / 2
    ratio = (hi - lo) / center
    i = int(np.argmin(ratio))  # first occurrence: smallest left endpoint
    interval = ConfidenceInterval(float(center[i]), float(hi[i] - lo[i]), eps)
    return InaccuracyEstimate(
        sigma_ratio=j * interval.sigma / interval.mu,
        interval=interval,
        tick_index=j,
        eps=eps,
        n_samples=n,
    )


def bruteforce_inaccuracy(samples, j: int, eps: float) -> InaccuracyEstimate:
    """O(N^2) reference minimiser enumerating all sample-endpoint intervals.

    Kept deliberately independent of :func:`empirical_inaccuracy`; the test
    suite checks exact agreement between the two on randomised inputs.
    """
    if j < 1:
        raise ValueError("tick index must be a positive integer")
    x = np.sort(_validated_samples(samples))
    n = x.size
    k = _coverage_count(n, eps)
    best = None
    for a in range(n):
        for b in range(a + k - 1, n):
            center = (x[a] + x[b]) / 2
            r = (x[b] - x[a]) / center
            if best is None or r < best[0]:
                best = (r, float(center), float(x[b] - x[a]))
    assert best is not None
    interval = ConfidenceInterval(best[1], best[2], eps)
    return InaccuracyEstimate(
        sigma_ratio=j * interval.sigma / interval.mu,
        interval=interval,
        tick_index=j,
        eps=eps,
        n_samples=n,
    )


def hoeffding_tail(eps: float, j: int, n: float) -> float:
    """Tail level of the j-th tick of an i.i.d. clock for a width-n*sqrt(j)
    interval: 1 - (1 - eps)^j (1 - 2 exp(-n^2 / 2)), clamped to [0, 1]."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("tail level must lie in [0, 1]")
    if j < 1:
        raise ValueError("tick index must be a positive integer")
    if n <= 0:
        raise ValueError("n must be positive")
    value = 1.0 - (1.0 - eps) ** j * (1.0 - 2.0 * math.exp(-n * n / 2.0))
    return min(1.0, max(0.0, value))


def hoeffding_inaccuracy_bound(sigma_ratio_1: float, j: int, n: float) -> float:
    """Growth bound 2 n sqrt(j) * Sigma_1 for the j-th tick of an i.i.d.
    clock, valid together with the tail level from :func:`hoeffding_tail`.

    Requires Sigma_1 <= 1, the hypothesis under which the bound holds.
    """
    if sigma_ratio_1 < 0 or sigma_ratio_1 > 1:
        raise ValueError("first-tick inaccuracy must lie in [0, 1]")
    if j < 1:
        raise ValueError("tick index must be a positive integer")
    if n <= 0:
        raise ValueError("n must be positive")
    return 2.0 * n * math.sqrt(j) * sigma_ratio_1


def r_accuracy(samples) -> float:
    """mean^2 / variance of a tick-time sample (unbiased variance)."""
    x = _validated_samples(samples)
    var = float(np.var(x, ddof=1))
    if var == 0.0:
        raise ZeroVarianceError("zero sample variance: R is infinite")
    mean = float(np.mean(x))
    return mean * mean / var


def chebyshev_bound(r1: float, j: int, eps: float) -> float:
    """Inaccuracy bound sqrt(j / (eps * R_1)) for an i.i.d. clock with
    first-tick accuracy R_1 (uses R_j = j * R_1)."""
    if r1 <= 0:
        raise ValueError("R_1 must be positive")
    if j < 1:
        raise ValueError("tick index must be a positive integer")
    if not 0.0 < eps <= 1.0:
        raise ValueError("bound diverges at eps = 0")
    return math.sqrt(j / (eps * r1))
