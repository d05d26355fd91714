"""Confidence-interval based inaccuracy of tick signals.

The central quantity is the relative inaccuracy of a clock's j-th tick:
the smallest ratio ``width / (center / j)`` over all intervals that contain
the tick time with probability at least ``1 - eps``.  It is dimensionless,
so it needs no external time unit.  This module provides the empirical
estimator of that quantity together with the classical tail bounds
(Hoeffding, Chebyshev).
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

# Tolerance guarding ceil() against float noise in (1 - eps) * n.
_CEIL_GUARD = 1e-9
# arange(n + 1), the cumulative weights of n unit weights: kept, read-only
_unit_cum = functools.lru_cache(maxsize=1)(
    lambda n: np.broadcast_to(np.arange(n + 1), n + 1))


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
    """Result of minimising j * sigma / mu over admissible intervals."""

    interval: ConfidenceInterval
    tick_index: int
    n_samples: int

    @property
    def sigma_ratio(self) -> float:
        return self.tick_index * self.interval.sigma / self.interval.mu


def _check_tail(eps: float):
    """Reject a tail level outside [0, 1), nan included."""
    if not 0.0 <= eps < 1.0:
        raise ValueError("tail level must lie in [0, 1)")


def _is_count(n) -> bool:
    """n is an integer >= 1, a Python or a numpy one; a float, even 2.0,
    is not."""
    return isinstance(n, numbers.Integral) and n >= 1


def _check_tick(j: int):
    """Reject a tick index that is not an integer >= 1."""
    if not _is_count(j):
        raise ValueError("tick index must be a positive integer")


def _coverage_count(n: int, eps: float) -> int:
    """k = ceil((1 - eps) n), the fewest of n samples a window covers."""
    _check_tail(eps)
    k = math.ceil((1.0 - eps) * n - _CEIL_GUARD)
    if k < 1:
        raise ValueError("coverage count vanished; eps too close to 1")
    return k


def _sort_tails(x: np.ndarray, eps: float):
    """Sort in place what ``_scan_windows`` reads of each row of ``x``,
    shape (rows, n): the n - k + 1 smallest values, ascending, at the
    row's start and the n - k + 1 largest, ascending, at its end, for
    ``k = ceil((1 - eps) n)``.  Where the two tails leave a middle, two
    single-``kth`` partitions move them there and only they are sorted;
    otherwise, or where k is not defined (the scan raises then, after its
    own checks), the whole row is sorted.  Either way, as numpy orders
    NaN last, a row starts at its minimum and ends at its maximum or a
    NaN."""
    n = x.shape[1]
    try:
        tail = n - _coverage_count(n, eps) + 1
    except ValueError:
        tail = n
    if 2 * tail >= n:
        x.sort(axis=1)
        return
    x.partition(n - tail, axis=1)
    x[:, :n - tail].partition(tail - 1, axis=1)
    x[:, :tail].sort(axis=1)
    x[:, n - tail:].sort(axis=1)


def _scan_windows(x: np.ndarray, js, eps: float, weights=None,
                  need=None) -> list[InaccuracyEstimate]:
    """The minimal-ratio window of each row of ``x``, shape (len(js), n),
    every row sorted ascending, or its tails as ``_sort_tails`` sorts
    them; row r is the samples of tick ``js[r]``.

    A row is valid when its ends are: numpy orders NaN last, so
    ``x[:, -1]`` shows a NaN or +inf and ``x[:, 0]`` a -inf or a value
    <= 0.  The first invalid row names the error.  Left end a's window
    ends at the first b >= a where the ``weights`` of columns a to b, one
    each by default, reach ``need``, by default k = ceil((1 - eps) n):
    one ``searchsorted`` of the cumulative weights for the left ends that
    can reach it.  ``argmin`` keeps the first minimum, the smallest left
    endpoint.
    """
    n = x.shape[1]
    if weights is None and n < 2:
        raise ValueError("need at least two samples")
    valid = (x[:, 0] > 0) & (x[:, -1] < math.inf)
    if not valid.all():
        ends = x[valid.argmin(), [0, -1]]
        raise ValueError("tick-time samples must be finite"
                         if not np.isfinite(ends).all() else
                         "tick-time samples must be strictly positive")
    _check_tail(eps)
    need = _coverage_count(n, eps) if need is None else need
    cum = (_unit_cum(n) if weights is None
           else np.concatenate(([0.0], np.cumsum(weights))))
    m = cum[:-1].searchsorted(cum[-1] - need, "right")  # m left ends reach it
    if not m:
        raise ValueError("no interval reaches the requested coverage")
    # the last column takes a target past cum[n - 1], rounding's too
    right = cum[1:-1].searchsorted(cum[:m] + need)
    np.maximum(right, np.arange(m), out=right)  # b >= a at a need near 0
    lo, hi = x[:, :m], x[:, right]
    center = (lo + hi) / 2
    ratio = hi - lo
    ratio /= center
    i = np.argmin(ratio, axis=1)
    rows = np.arange(x.shape[0])
    return [InaccuracyEstimate(ConfidenceInterval(mu, sigma, eps), j, n)
            for j, mu, sigma in zip(js, center[rows, i].tolist(),
                                    (hi[rows, i] - lo[rows, i]).tolist())]


def empirical_inaccuracy(samples, j: int, eps: float) -> InaccuracyEstimate:
    """Exact minimiser of j * sigma / mu over empirical coverage intervals.

    Sorts the samples and scans every window of ``k = ceil((1 - eps) N)``
    consecutive order statistics.  Only windows whose endpoints sit on
    sample points can be optimal: shrinking either endpoint of a covering
    interval strictly decreases sigma / mu.  Ties are broken towards the
    smallest left endpoint so the result is deterministic.
    """
    _check_tick(j)
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError("need at least two samples")
    return _scan_windows(np.sort(x)[np.newaxis], [j], eps)[0]


def bruteforce_inaccuracy(samples, j: int, eps: float) -> InaccuracyEstimate:
    """O(N^2) reference minimiser enumerating all sample-endpoint intervals.

    Kept deliberately independent of :func:`empirical_inaccuracy`; the test
    suite checks exact agreement between the two on randomised inputs.
    """
    _check_tick(j)
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ValueError("need at least two samples")
    if not np.isfinite(x).all():
        raise ValueError("tick-time samples must be finite")
    if np.any(x <= 0):
        raise ValueError("tick-time samples must be strictly positive")
    x = np.sort(x)
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
    return InaccuracyEstimate(
        interval=ConfidenceInterval(best[1], best[2], eps), tick_index=j,
        n_samples=n)


def hoeffding_tail(eps: float, j: int, n: float) -> float:
    """Tail level of the j-th tick of an i.i.d. clock for a width-n*sqrt(j)
    interval: 1 - (1 - eps)^j (1 - 2 exp(-n^2 / 2)), clamped to [0, 1]."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError("tail level must lie in [0, 1]")
    _check_tick(j)
    if not n > 0:
        raise ValueError("n must be positive")
    value = 1.0 - (1.0 - eps) ** j * (1.0 - 2.0 * math.exp(-n * n / 2.0))
    return min(1.0, max(0.0, value))


def hoeffding_inaccuracy_bound(sigma_ratio_1: float, j: int, n: float) -> float:
    """Growth bound 2 n sqrt(j) * Sigma_1 for the j-th tick of an i.i.d.
    clock, valid together with the tail level from :func:`hoeffding_tail`.

    Requires Sigma_1 <= 1, the hypothesis under which the bound holds.
    """
    if not 0 <= sigma_ratio_1 <= 1:
        raise ValueError("first-tick inaccuracy must lie in [0, 1]")
    _check_tick(j)
    if not n > 0:
        raise ValueError("n must be positive")
    return 2.0 * n * math.sqrt(j) * sigma_ratio_1


def chebyshev_bound(r1: float, j: int, eps: float) -> float:
    """Inaccuracy bound sqrt(j / (eps * R_1)) for an i.i.d. clock with
    first-tick accuracy R_1 = mean^2 / variance (uses R_j = j * R_1)."""
    if not r1 > 0:
        raise ValueError("R_1 must be positive")
    _check_tick(j)
    if not 0.0 < eps <= 1.0:
        raise ValueError("bound diverges at eps = 0")
    return math.sqrt(j / (eps * r1))
