"""Waiting-time distributions for renewal (i.i.d.) tick processes.

Each distribution describes the law of the strictly positive waiting time
between consecutive ticks.  Besides sampling, every variant knows its
minimal-ratio confidence interval: the interval that contains one waiting
time with probability at least ``1 - eps`` while minimising width over
center.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .inaccuracy import ConfidenceInterval, _check_tail

_MASS_TOL = 1e-12
_STD_NORMAL = NormalDist()
_BIT_PLANES = 1024  # bunch size from which a Box sums its cells by bit plane
_CHUNK = 1 << 16    # waits a per-wait bunch sum draws at once


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


def _in_chunks(sums, size, d) -> np.ndarray:
    """Sums of d waits, shape ``size``, from ``sums(shape)`` called on as
    many rows of ``size`` at a time, in order, as hold at most ``_CHUNK``
    waits (at least one row), so that few waits drawn one by one are ever
    held at once."""
    rows = max(1, _CHUNK // (math.prod(size[1:]) * d))
    return np.concatenate([sums((min(rows, size[0] - r), *size[1:]))
                           for r in range(0, size[0], rows)])


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
        lo = self.center - self.width / 2
        hi = self.center + self.width / 2
        return rng.uniform(lo, hi, size)

    def bunch_sums(self, rng, size, d):
        # each wait is the midpoint of one of 2^32 cells of the support, so
        # a bunch sums exactly as integers: two cell indices per random word,
        # or from _BIT_PLANES on by bit plane b, 2^b Bin(d, 1/2) of them
        if d >= _BIT_PLANES:
            planes = rng.binomial(d, 0.5, (*size, 32))
            cells = planes @ (1 << np.arange(32, dtype=np.int64))
        else:
            def cell_sums(shape):
                n = math.prod(shape) * d
                u = rng.bit_generator.random_raw(-(-n // 2)).view(
                    np.uint32)[:n]
                return u.reshape(*shape, d).sum(axis=-1, dtype=np.uint64)
            cells = _in_chunks(cell_sums, size, d)
        lo = self.center - self.width / 2
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

        a = _golden_section_min(ratio, 0.0, eps, xatol=1e-12)
        for edge in (0.0, eps):  # the search never evaluates the ends
            if ratio(edge) < ratio(a):
                a = edge
        lo = self._quantile(a)
        hi = self._quantile(a + 1.0 - eps)
        return ConfidenceInterval((lo + hi) / 2, hi - lo, eps)


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
        _check_tail(eps)
        times = [t for t, _ in self.atoms]
        probs = [p for _, p in self.atoms]
        n = len(times)
        best = None
        for a in range(n):
            mass = 0.0
            for b in range(a, n):
                mass += probs[b]
                if mass >= 1.0 - eps - _MASS_TOL:
                    sigma = times[b] - times[a]
                    mu = (times[a] + times[b]) / 2
                    r = sigma / mu
                    if best is None or r < best[0]:
                        best = (r, mu, sigma)
                    break
        if best is None:
            raise ValueError("no interval reaches the requested coverage")
        return ConfidenceInterval(best[1], best[2], eps)

    def support(self):
        times = [t for t, p in self.atoms if p > 0]
        return (times[0], times[-1])

