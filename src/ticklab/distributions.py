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

import numpy as np

from .inaccuracy import ConfidenceInterval

_MASS_TOL = 1e-12


class WaitingTimeDistribution(ABC):
    """Law of the i.i.d. waiting time between ticks."""

    @abstractmethod
    def sample(self, rng: np.random.Generator, size=None):
        """Draw waiting times; scalar when ``size`` is None."""

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


def _check_eps(eps: float):
    if not 0.0 <= eps < 1.0:
        raise ValueError("tail level must lie in [0, 1)")


@dataclass(frozen=True)
class Delta(WaitingTimeDistribution):
    """Point mass: a perfectly regular tick signal."""

    time: float

    def __post_init__(self):
        if self.time <= 0:
            raise ValueError("waiting time must be positive")

    def sample(self, rng, size=None):
        if size is None:
            return self.time
        return np.full(size, self.time, dtype=float)

    @property
    def mean(self):
        return self.time

    def confidence(self, eps):
        _check_eps(eps)
        return ConfidenceInterval(self.time, 0.0, eps)

    def support(self):
        return (self.time, self.time)


@dataclass(frozen=True)
class Box(WaitingTimeDistribution):
    """Uniform distribution on (center - width/2, center + width/2)."""

    center: float
    width: float

    def __post_init__(self):
        if self.width <= 0:
            raise ValueError("width must be positive")
        if self.width >= 2 * self.center:
            raise ValueError("box support must be strictly positive")

    def sample(self, rng, size=None):
        lo = self.center - self.width / 2
        hi = self.center + self.width / 2
        return rng.uniform(lo, hi, size)

    @property
    def mean(self):
        return self.center

    def confidence(self, eps):
        # Any sub-interval of length (1 - eps) * width carries the required
        # mass and has the same sigma, so the minimal ratio keeps the right
        # end of the interval at the right edge of the support.
        _check_eps(eps)
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
        if self.mu <= 0:
            raise ValueError("mean must be positive")
        if self.sd <= 0:
            raise ValueError("standard deviation must be positive")

    def _law(self):
        from scipy import stats  # deferred: scipy dominates import time
        a = (0.0 - self.mu) / self.sd
        return stats.truncnorm(a, np.inf, loc=self.mu, scale=self.sd)

    def sample(self, rng, size=None):
        n = 1 if size is None else int(np.prod(size))
        out = rng.normal(self.mu, self.sd, n)
        bad = out <= 0
        while bad.any():
            out[bad] = rng.normal(self.mu, self.sd, int(bad.sum()))
            bad = out <= 0
        if size is None:
            return float(out[0])
        return out.reshape(size)

    @property
    def mean(self):
        return float(self._law().mean())

    def confidence(self, eps):
        _check_eps(eps)
        if eps == 0.0:
            raise ValueError("no finite interval covers a Gaussian at eps=0")
        from scipy import optimize
        law = self._law()

        def ratio(a):
            lo = law.ppf(a)
            hi = law.ppf(a + 1.0 - eps)
            if not math.isfinite(hi):  # upper quantile hit the open tail
                return math.inf
            return (hi - lo) / ((hi + lo) / 2)

        res = optimize.minimize_scalar(
            ratio, bounds=(0.0, eps), method="bounded",
            options={"xatol": 1e-12},
        )
        a = float(res.x)
        for edge in (0.0, eps):  # bounded search can miss the boundary
            if ratio(edge) < ratio(a):
                a = edge
        lo = float(law.ppf(a))
        hi = float(law.ppf(a + 1.0 - eps))
        return ConfidenceInterval((lo + hi) / 2, hi - lo, eps)


@dataclass(frozen=True)
class DeltaMixture(WaitingTimeDistribution):
    """Mixture of perfect tick signals: atoms (time, probability)."""

    atoms: tuple

    def __post_init__(self):
        atoms = tuple((float(t), float(p)) for t, p in self.atoms)
        if not atoms:
            raise ValueError("mixture needs at least one atom")
        if any(t <= 0 for t, _ in atoms):
            raise ValueError("atom times must be positive")
        if any(p < 0 for _, p in atoms):
            raise ValueError("atom probabilities must be nonnegative")
        if abs(sum(p for _, p in atoms) - 1.0) > _MASS_TOL:
            raise ValueError("atom probabilities must sum to 1")
        object.__setattr__(self, "atoms", tuple(sorted(atoms)))

    def sample(self, rng, size=None):
        times = np.array([t for t, _ in self.atoms])
        probs = np.array([p for _, p in self.atoms])
        idx = rng.choice(times.size, size=size, p=probs)
        out = times[idx]
        return float(out) if size is None else out

    @property
    def mean(self):
        return sum(t * p for t, p in self.atoms)

    def confidence(self, eps):
        _check_eps(eps)
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
        return (self.atoms[0][0], self.atoms[-1][0])


def sample_waiting_time(dist: WaitingTimeDistribution, rng, size=None):
    return dist.sample(rng, size)


def analytic_confidence(dist, eps: float) -> ConfidenceInterval:
    if not isinstance(dist, WaitingTimeDistribution):
        raise NotImplementedError(
            f"no analytic confidence interval for {type(dist).__name__}")
    return dist.confidence(eps)
