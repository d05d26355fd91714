"""Clock models.

Two clock models live here (the i.i.d. input clock is just its
waiting-time law, see ``ticklab.distributions``):

* the switchable enhancing clock (EC), which evolves losslessly and
  periodically while its detector is off and emits a tick whose phase on
  the dial concentrates in a narrow window once the detector is on,
  independently of when the detector was switched on;
* a two-state continuous-time Markov chain used to show that a classical
  clock cannot be periodic without being stationary.

The EC is phenomenological: only the period, the window width, the tail
level and the switch-on phase enter.  Inside the window the tick phase is
uniform; the tail is uniform over the whole period.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np


def wrap_phase(x, tau: float) -> np.ndarray:
    """Map x into the phase domain (-tau/2, tau/2], elementwise; a scalar
    x gives a 0-d array."""
    s = (x + tau / 2) % tau - tau / 2
    return np.where(s <= -tau / 2, tau / 2, s)


def sample_tick_phase(tau, sigma, eps_tail, rng, size=None):
    """Draw the dial phase at which the detector fires.

    With probability 1 - eps_tail the phase is uniform on the detector
    window ((tau - sigma)/2, (tau + sigma)/2); otherwise it is uniform over
    the whole period.  The law does not depend on the switch-on phase.
    """
    lo = (tau - sigma) / 2
    hi = (tau + sigma) / 2
    if size is None:
        if rng.random() < 1.0 - eps_tail:
            return rng.uniform(lo, hi)
        return rng.uniform(-tau / 2, tau / 2)
    u = rng.random(size)
    win = rng.uniform(lo, hi, size)
    tail = rng.uniform(-tau / 2, tau / 2, size)
    return np.where(u < 1.0 - eps_tail, win, tail)


def fire_delay(s: np.ndarray, tau, sigma, eps_tail, rng) -> np.ndarray:
    """Times until the detector fires for ECs switched on at the dial
    phases ``s``, one independent draw per phase.

    The hand must reach the drawn tick phase forwards, so a phase at or
    behind ``s`` costs one more period.  From the reset state (s = 0)
    this is the tick gap of a free-running EC.
    """
    phi = sample_tick_phase(tau, sigma, eps_tail, rng, np.shape(s))
    return delay_to_phase(s, phi, tau)


def delay_to_phase(s: np.ndarray, phi: np.ndarray, tau) -> np.ndarray:
    """Time for the hand to turn from dial phase ``s`` to the tick phase
    ``phi``, elementwise; the hand only turns forwards."""
    return np.where(phi <= s, phi - s + tau, phi - s)


class Mode(Enum):
    NO_TICK = "no-tick"
    TICK = "tick"


@dataclass(frozen=True)
class EnhancingClock:
    """Switchable clock with period ``tau``, detector-window width
    ``sigma``, tail level ``eps_tail`` and dial phase ``phase``.

    Phase 0 is the reset state; the detector sits at phase tau/2.
    """

    tau: float
    sigma: float
    eps_tail: float
    phase: float = 0.0
    mode: Mode = Mode.NO_TICK

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("period must be positive")
        if not 0.0 <= self.sigma < self.tau:
            raise ValueError("window width must lie in [0, tau)")
        if not 0.0 <= self.eps_tail < 1.0:
            raise ValueError("tail level must lie in [0, 1)")
        if not -self.tau / 2 < self.phase <= self.tau / 2:
            raise ValueError("phase must lie in (-tau/2, tau/2]")

    def advance(self, dt: float) -> "EnhancingClock":
        """Unitary, dissipation-free evolution with the detector off."""
        if self.mode is not Mode.NO_TICK:
            raise ValueError("advance only applies with the detector off")
        if dt < 0:
            raise ValueError("cannot advance backwards")
        return replace(self,
                       phase=float(wrap_phase(self.phase + dt, self.tau)))

    def switched(self, mode: Mode) -> "EnhancingClock":
        return replace(self, mode=mode)

    def tick(self, rng) -> tuple[float, "EnhancingClock"]:
        """Sample the time until the detector fires, from the current
        switch-on phase.  Returns the duration and the reset clock."""
        if self.mode is not Mode.TICK:
            raise ValueError("tick requires the detector to be on")
        phi = sample_tick_phase(self.tau, self.sigma, self.eps_tail, rng)
        duration = phi - self.phase
        if phi <= self.phase:  # the hand must reach the detector forwards
            duration += self.tau
        return duration, replace(self, phase=0.0, mode=Mode.NO_TICK)


@dataclass(frozen=True)
class QuasiIdealParams:
    """Phenomenological window parameters of a d-dimensional Quasi-Ideal
    Clock: gamma = d^(eta-1), x_vr = d^(3 eta/4 - 1) / pi and
    sigma = (gamma + x_vr / pi) * tau."""

    d: int
    eta: float
    tau: float
    eps_tail: float
    gamma: float
    x_vr: float
    sigma: float


def _quasi_ideal_window(d: int, eta: float) -> tuple[float, float, float]:
    """gamma, x_vr and sigma / tau of the d-dimensional Quasi-Ideal Clock."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")
    gamma = d ** (eta - 1.0)
    x_vr = d ** (0.75 * eta - 1.0) / math.pi
    return gamma, x_vr, gamma + x_vr / math.pi


def quasi_ideal_ratio(d: int, eta: float) -> float:
    """sigma / tau of the d-dimensional Quasi-Ideal Clock."""
    return _quasi_ideal_window(d, eta)[2]


def quasi_ideal_params(d: int, eta: float, tau: float = 1.0,
                       eps_tail: float = 0.001) -> QuasiIdealParams:
    if tau <= 0:
        raise ValueError("period must be positive")
    gamma, x_vr, ratio = _quasi_ideal_window(d, eta)
    sigma = ratio * tau
    if sigma >= tau:
        raise ValueError(
            f"window width {sigma:g} reaches the period; d={d} too small "
            f"for eta={eta}")
    return QuasiIdealParams(d=d, eta=eta, tau=tau, eps_tail=eps_tail,
                            gamma=gamma, x_vr=x_vr, sigma=sigma)


@dataclass(frozen=True)
class PeriodicityCheck:
    is_fixed_point: bool


@dataclass(frozen=True)
class MarkovTwoState:
    """Two-state continuous-time Markov chain with rates alpha (out of the
    reference state A) and beta (back into A)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("rates must be nonnegative")

    def transition(self, t: float) -> np.ndarray:
        """Row-stochastic transition matrix P(t)."""
        if t < 0:
            raise ValueError("time must be nonnegative")
        a, b = self.alpha, self.beta
        if a + b == 0:
            return np.eye(2)
        e = math.exp(-t * (a + b))
        s = a + b
        return np.array([
            [b / s + a / s * e, a / s - a / s * e],
            [b / s - b / s * e, a / s + b / s * e],
        ])

    def periodicity_check(self, period: float,
                          tol: float = 1e-12) -> PeriodicityCheck:
        """Certify that a fixed point of the A-row at any period > 0 forces
        stationarity: A P(T) = A holds iff alpha (1 - e^{-T(a+b)}) = 0."""
        if period <= 0:
            raise ValueError("period must be positive")
        row = np.array([1.0, 0.0]) @ self.transition(period)
        fixed = abs(row[0] - 1.0) <= tol and abs(row[1]) <= tol
        return PeriodicityCheck(is_fixed_point=fixed)
