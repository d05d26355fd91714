"""Waiting-time distributions for renewal (i.i.d.) tick processes.

Each distribution describes the law of the strictly positive waiting time
between consecutive ticks.  Besides sampling, every variant knows its
minimal-ratio confidence interval: the interval that contains one waiting
time with probability at least ``1 - eps`` while minimising width over
center.
"""
from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .inaccuracy import ConfidenceInterval, _check_tail, _scan_windows

_MASS_TOL = 1e-12
_STD_NORMAL = NormalDist()
_BIT_PLANES = 64     # bunch size from which a Box sums its cells by bit plane
_ALIAS_MAX = 4096    # largest bunch whose planes come from an alias table
_CHUNK = 1 << 16     # waits a per-wait bunch sum draws at once
_ALIAS_CHUNK = 1 << 14  # words or counts a bit-plane bunch sum draws at once
_PLANE_WEIGHTS = 2.0 ** np.arange(32)  # plane b's count is worth 2^b cells
_PAIR_WEIGHTS = 4.0 ** np.arange(16)  # planes 2p and 2p + 1's count: 4^p
_STEP_SCAN = 1024    # steps of a + 1.0 up to which a Gaussian window scans
# steps of a + 1.0 up to which a Gaussian window searches the step ends
# (about eps 7.5e-9, below 1e-8), and the ends it scans on either side
_STEP_SEARCH = 1 << 25
_STEP_WINDOW = 8


class WaitingTimeDistribution(ABC):
    """Law of the i.i.d. waiting time between ticks.

    ``bunch_sums`` draws sums of d waits in row-major order, bunch after
    bunch.  By default it sums ``sample``; ``Box`` sums its waits exactly as
    integers on a 2^-32 lattice, ``Gaussian`` as one normal where it may,
    ``DeltaMixture`` from multinomial counts.
    """

    @abstractmethod
    def sample(self, rng: np.random.Generator, size) -> np.ndarray:
        """Draw an array of waiting times of shape ``size``."""

    def bunch_sums(self, rng: np.random.Generator, size, d) -> np.ndarray:
        """Draw an array of shape ``size`` (a tuple) of sums of d waits."""
        return _in_chunks(
            lambda shape: self.sample(rng, (*shape, d)).sum(axis=-1),
            size, d)

    @property
    @abstractmethod
    def mean(self) -> float:
        ...

    @abstractmethod
    def confidence(self, eps: float) -> ConfidenceInterval:
        """Minimal width/center interval with coverage >= 1 - eps."""

    def support(self):
        """(lo, hi) of the support, or None when unbounded."""
        return None


def _in_chunks(sums, size, draws, chunk=_CHUNK) -> np.ndarray:
    """Bunch sums, shape ``size``, from ``sums(shape)`` called on as many
    rows of ``size`` at a time, in order, as hold at most ``chunk`` draws
    at ``draws`` per bunch (at least one row): waits, or the random words
    or binomial counts of bit planes, so that the draws held at once stay
    few.  An empty ``size`` takes one empty call."""
    rows = max(1, chunk // max(1, math.prod(size[1:]) * draws))
    return np.concatenate([sums((min(rows, size[0] - r), *size[1:]))
                           for r in range(0, max(1, size[0]), rows)])


@dataclass(frozen=True)
class Delta(WaitingTimeDistribution):
    """Point mass: a perfectly regular tick signal."""

    time: float

    def __post_init__(self):
        if not math.isfinite(self.time):
            raise ValueError("waiting time must be finite")
        if self.time <= 0:
            raise ValueError("waiting time must be positive")

    def sample(self, rng, size):
        return np.full(size, self.time, dtype=float)

    @property
    def mean(self):
        return self.time

    def confidence(self, eps):
        _check_tail(eps)
        return ConfidenceInterval(self.time, 0.0, eps)

    def support(self):
        return (self.time, self.time)


@dataclass(frozen=True)
class Box(WaitingTimeDistribution):
    """Uniform distribution on (center - width/2, center + width/2)."""

    center: float
    width: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.width)):
            raise ValueError("center and width must be finite")
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.width >= 2 * self.center:
            raise ValueError("box support must be strictly positive")

    def sample(self, rng, size):
        lo, hi = self.support()
        # rng.uniform(lo, hi, size)'s own arithmetic, in place
        u = rng.random(size)
        u *= hi - lo
        u += lo
        return u

    def bunch_sums(self, rng, size, d):
        # each wait is the midpoint of one of 2^32 cells of the support, so
        # a bunch sums exactly as integers: two cell indices per random
        # word, or from _BIT_PLANES on by bit plane b, where the d indices'
        # bit b sums to N_b ~ Bin(d, 1/2) and the cells to sum_b 2^b N_b;
        # up to _ALIAS_MAX one random word draws the pair of planes 2p and
        # 2p + 1 as M_p = N_2p + 2 N_2p+1, and the cells sum to
        # sum_p 4^p M_p
        if d > _ALIAS_MAX:
            cells = _in_chunks(
                lambda shape: rng.binomial(d, 0.5, (*shape, 32))
                @ _PLANE_WEIGHTS, size, 32, _ALIAS_CHUNK)
        elif d >= _BIT_PLANES:
            cells = _in_chunks(
                lambda shape: _alias_pairs(rng, shape, d) @ _PAIR_WEIGHTS,
                size, 16, _ALIAS_CHUNK)
        else:
            def cell_sums(shape):
                n = math.prod(shape) * d
                u = rng.bit_generator.random_raw(-(-n // 2)).view(
                    np.uint32)[:n]
                return u.reshape(*shape, d).sum(axis=-1, dtype=np.uint64)
            cells = _in_chunks(cell_sums, size, d)
        lo = self.support()[0]
        return d * lo + self.width * 2.0 ** -32 * (cells + d / 2)

    @property
    def mean(self):
        return self.center

    def confidence(self, eps):
        # Any sub-interval of length (1 - eps) * width carries the required
        # mass and has the same sigma, so the minimal ratio keeps the right
        # end of the interval at the right edge of the support.
        _check_tail(eps)
        sigma = (1.0 - eps) * self.width
        mu = self.center + self.width / 2 - sigma / 2
        return ConfidenceInterval(mu, sigma, eps)

    def support(self):
        return (self.center - self.width / 2, self.center + self.width / 2)


def _alias_pairs(rng, shape, d) -> np.ndarray:
    """Counts of pairs of bit planes, shape (*shape, 16), as floats: each
    is M = N_0 + 2 N_1 of two Bin(d, 1/2) plane counts (within total
    variation 2^-53), from one random 64-bit word through
    ``_pair_alias(d)``."""
    shift, bound, pair = _pair_alias(d)
    u = rng.bit_generator.random_raw((*shape, 16))
    col = (u >> shift).view(np.intp)
    # 2 col + 1 above the column's threshold, where its alias lies
    idx = col << 1
    idx += u >= bound[col]
    return pair[idx]


@functools.lru_cache(maxsize=32)  # at most 48 kB a table (d = 4096)
def _pair_alias(d) -> tuple:
    """Exact integer alias table over 64-bit words of M = N_0 + 2 N_1, for
    i.i.d. N_0, N_1 ~ Bin(d, 1/2), built on first use and kept:
    ``(shift, bound, pair)``, read-only.

    M is a sum of d digits uniform on {0, 1, 2, 3}, so 4^d P(M = m) is
    C_m, the coefficient of x^m in (1 + x + x^2 + x^3)^d.  P = that power
    has (1 + x + x^2 + x^3) P' = d (1 + 2x + 3x^2) P, which gives C_m up
    to the middle by an exact integer recurrence, and C_m = C_(3d-m) the
    rest.  Outcome m has C_m 2^64 / 4^d of the 2^64 words, rounded once,
    and the mode takes the rounding residual, so the counts sum to 2^64
    exactly and every other count lies within half a word of the exact
    law's; up to d = 32 they are the exact law.  The table's law is
    within total variation 2^-59.6 of M's at d = 64, 2^-57.6 at
    d = 1024 and 2^-56.6 at d = 4096, inside the 2^-53 a Gaussian's
    one-normal bunch sum allows.

    Vose's method, in Python ints, deals the counts of the outcomes from
    ``first``, the first with a count, to 3d - first into K = 2^L
    columns of 2^shift words, shift = 64 - L.  Word u lies in column
    c = u >> shift and draws ``pair[2 c + (u >= bound[c])]``: first + c
    below the column's threshold, ``bound[c]``, and the column's alias
    from there on.  A full column is its own alias, with bound 2^64 - 1.
    """
    d = int(d)  # a numpy integer would overflow the exact arithmetic
    mass, c0, c1, c2 = [], 0, 0, 1  # C_(m-2), C_(m-1) and C_m at m = 0
    for m in range(3 * d // 2 + 1):
        mass.append(((c2 << 64) + (1 << (2 * d - 1))) >> (2 * d))
        c0, c1, c2 = c1, c2, ((d - m) * c2 + (2 * d - m + 1) * c1
                              + (3 * d - m + 2) * c0) // (m + 1)
    mass += mass[3 * d - len(mass)::-1]  # C_m = C_(3d-m)
    first = next(m for m, c in enumerate(mass) if c)
    mass = mass[first:len(mass) - first]
    mass[mass.index(max(mass))] += (1 << 64) - sum(mass)
    bits = len(mass).bit_length()
    shift, cap = 64 - bits, 1 << (64 - bits)
    mass += [0] * ((1 << bits) - len(mass))
    bound = [(1 << 64) - 1] * len(mass)
    alias = list(range(len(mass)))
    small = [k for k, m in enumerate(mass) if m < cap]
    large = [k for k, m in enumerate(mass) if m > cap]
    while small:  # the masses left always sum to cap per column left
        s, big = small.pop(), large.pop()
        bound[s], alias[s] = (s << shift) + mass[s], big
        mass[big] -= cap - mass[s]
        if mass[big] < cap:
            small.append(big)
        elif mass[big] > cap:
            large.append(big)
    bound = np.array(bound, dtype=np.uint64)
    pair = np.column_stack((range(len(alias)), alias)).ravel() + float(first)
    bound.flags.writeable = pair.flags.writeable = False
    return np.uint64(shift), bound, pair


@dataclass(frozen=True)
class Gaussian(WaitingTimeDistribution):
    """Normal waiting time truncated to positive values by rejection."""

    mu: float
    sd: float

    def __post_init__(self):
        if not (math.isfinite(self.mu) and math.isfinite(self.sd)):
            raise ValueError("mean and standard deviation must be finite")
        if self.mu <= 0:
            raise ValueError("mean must be positive")
        if self.sd <= 0:
            raise ValueError("standard deviation must be positive")

    def _quantile(self, q: float) -> float:
        """Quantile at level ``q`` of the law truncated to (0, inf)."""
        # inv_cdf raises at 0 and 1, so the ends are handled here; p0
        # underflows to 0 only once mu / sd is about 38
        if q <= 0.0:
            return 0.0
        p0 = _normal_tail(self.mu / self.sd)
        p = p0 + q * (1.0 - p0)
        if p >= 1.0:
            return math.inf
        return self.mu + self.sd * _STD_NORMAL.inv_cdf(p)

    def sample(self, rng, size):
        out = rng.normal(self.mu, self.sd, size)
        bad = out <= 0
        while bad.any():
            out[bad] = rng.normal(self.mu, self.sd, int(bad.sum()))
            bad = out <= 0
        return out

    def bunch_sums(self, rng, size, d):
        # d untruncated normals sum to one normal, within total variation
        # d Phi(-mu / sd) of the truncated sum; at most 2^-53 is no loss
        if d * _normal_tail(self.mu / self.sd) <= 2.0 ** -53:
            return rng.normal(d * self.mu, math.sqrt(d) * self.sd, size)
        return super().bunch_sums(rng, size, d)

    @property
    def mean(self):
        # mu + sd phi(a) / (1 - Phi(a)) at the truncation point a = -mu/sd
        a = -self.mu / self.sd
        return self.mu + self.sd * _STD_NORMAL.pdf(a) / _STD_NORMAL.cdf(-a)

    def confidence(self, eps):
        _check_tail(eps)
        if eps == 0.0:
            raise ValueError("no finite interval covers a Gaussian at eps=0")

        def ratio(a):
            lo = self._quantile(a)
            hi = self._quantile(a + 1.0 - eps)
            if not math.isfinite(hi):  # upper quantile hit the open tail
                return math.inf
            return (hi - lo) / ((hi + lo) / 2)

        # a tolerance relative to eps searches a small bracket as finely
        # as a large one; where a + 1 - eps rounds to one of a few
        # doubles, an end of the bracket can still win.  The tolerance is
        # at least one subnormal step: 1e-4 eps rounds to 0 below about
        # 2.5e-320, and at a zero tolerance a bracket one step wide can
        # stop shrinking
        xatol = min(1e-12, max(1e-4 * eps, math.ulp(0.0)))
        a = _golden_section_min(ratio, 0.0, eps, xatol)
        a = min((a, 0.0, eps, *_step_ends(eps, ratio)), key=ratio)
        lo = self._quantile(a)
        hi = self._quantile(a + 1.0 - eps)
        return ConfidenceInterval((lo + hi) / 2, hi - lo, eps)


def _step_ends(eps: float, ratio) -> list[float]:
    """The last a of the steps of a + 1.0 that end below ``eps`` and on
    which ``ratio`` may be lowest: every step where a in [0, eps] takes
    at most ``_STEP_SCAN`` steps, the ``_STEP_WINDOW`` steps either side
    of the lowest step end a golden-section search finds where it takes
    at most ``_STEP_SEARCH``, else none.

    a + 1.0 rounds to 1 + k u, u = ulp(1), for a from (k - 1/2) u to
    (k + 1/2) u, the tie going to even k.  On a step, the upper quantile
    at a + 1 - eps is fixed and the lower one rises with a, so the ratio
    of a window falls: its lowest value on the step is at the step's end,
    and at eps for the last step.  So the ratio is a sawtooth in a, on
    which a search over a can stop on a step above the lowest, while
    its values at the step ends vary smoothly with k."""
    u = math.ulp(1.0)
    if eps > _STEP_SEARCH * u:
        return []

    def end(k):  # the last a of step k
        if k % 2 == 0:
            return (k + 0.5) * u
        return math.nextafter((k + 0.5) * u, 0)

    n = int(eps / u)
    steps = range(n + 1)
    if eps > _STEP_SCAN * u:
        k = int(_golden_section_min(lambda x: ratio(min(end(int(x)), eps)),
                                    0.0, n + 1.0, _STEP_WINDOW))
        steps = range(max(0, k - _STEP_WINDOW),
                      min(n, k + _STEP_WINDOW) + 1)
    return [a for a in map(end, steps) if a < eps]


def _normal_tail(z: float) -> float:
    """The standard normal's mass above z, Phi(-z), also far out, where
    ``NormalDist().cdf(-z)``, 0.5 (1 + erf), is 0.0 from z = 8.5 on."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _golden_section_min(f, lo: float, hi: float, xatol: float) -> float:
    """Minimiser of a unimodal ``f`` on [lo, hi], to within ``xatol``."""
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > xatol:
        if fc <= fd:
            hi, d, fd = d, c, fc
            c = hi - shrink * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + shrink * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2


@dataclass(frozen=True)
class DeltaMixture(WaitingTimeDistribution):
    """Mixture of perfect tick signals: atoms (time, probability)."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(t), float(p)) for t, p in self.atoms)
        if not atoms:
            raise ValueError("mixture needs at least one atom")
        if not all(math.isfinite(t) and math.isfinite(p) for t, p in atoms):
            raise ValueError("atom times and probabilities must be finite")
        if any(t <= 0 for t, _ in atoms):
            raise ValueError("atom times must be positive")
        if any(p < 0 for _, p in atoms):
            raise ValueError("atom probabilities must be nonnegative")
        if abs(sum(p for _, p in atoms) - 1.0) > _MASS_TOL:
            raise ValueError("atom probabilities must sum to 1")
        object.__setattr__(self, "atoms", tuple(sorted(atoms)))

    def sample(self, rng, size):
        times, probs = np.array(self.atoms).T
        return times[rng.choice(times.size, size=size, p=probs)]

    def bunch_sums(self, rng, size, d):
        # a bunch sum is the atom times weighted by their counts in it
        times, probs = np.array(self.atoms).T
        return rng.multinomial(d, probs, size) @ times

    @property
    def mean(self):
        return sum(t * p for t, p in self.atoms)

    def confidence(self, eps):
        times, probs = np.array(self.atoms).T
        return _scan_windows(times[np.newaxis], [1], eps, probs,
                             1.0 - eps - _MASS_TOL)[0].interval

    def support(self):
        times = [t for t, p in self.atoms if p > 0]
        return (times[0], times[-1])

