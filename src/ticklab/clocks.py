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
level and the idle time since the EC's last reset enter; the EC holds
its dial phase while idle.  Inside the window the tick phase is uniform;
the tail is uniform over the whole period; a vector of fires takes one
uniform per fire.  The hand sits at the wrapped idle time s in
(-tau/2, tau/2]; the tick phase is not wrapped, and one at or behind s
costs one more period.  So an EC switched on in the lower half
of its window waits for the next turn: every delay lies in (0, tau + sigma/2].
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .inaccuracy import _is_count


def wrap_phase(x, tau: float) -> np.ndarray:
    """Map x into the phase domain (-tau/2, tau/2], elementwise.  The ceil
    form needs no float ``%``; rounding can put s an ulp outside the
    domain, at or below -tau/2 (mapped to tau/2) or above tau/2 (clamped to
    it).  A float x, the scalar oracle's case, gives a float by the same
    arithmetic, at a fraction of the cost of 0-d arrays.  An array runs
    the guards only if its min or max is outside the domain or NaN."""
    if isinstance(x, float):
        s = x - tau * math.ceil(x / tau - 0.5)
        return tau / 2 if s <= -tau / 2 else min(s, tau / 2)
    s = np.asarray(x / tau)  # a 0-d array where x / tau is a scalar
    s -= 0.5
    np.ceil(s, out=s)
    s *= tau
    np.subtract(x, s, out=s)
    if not (s.size and s.min() > -tau / 2 and s.max() <= tau / 2):
        np.minimum(s, tau / 2, out=s)
        np.copyto(s, tau / 2, where=s <= -tau / 2)
    return s


def _check_ec_tail(eps_tail: float):
    """Reject an EC tail level outside [0, 1), nan included."""
    if not 0.0 <= eps_tail < 1.0:
        raise ValueError(
            f"EC tail level must lie in [0, 1), got {eps_tail!r}")


def _check_eta(eta: float):
    """Reject a Quasi-Ideal Clock eta outside (0, 1), nan included."""
    if not 0.0 < eta < 1.0:
        raise ValueError("eta must lie in (0, 1)")


@dataclass(frozen=True)
class ExplicitEC:
    """EC with period ``tau``, detector-window width ``sigma`` and tail
    level ``eps_tail``.  Under EC bunching it free-runs, so its mean tick
    gap is tau / 2."""

    tau: float
    sigma: float
    eps_tail: float

    def __post_init__(self):
        if not 0.0 < self.tau < math.inf:
            raise ValueError(
                f"EC period must lie in (0, inf), got {self.tau!r}")
        if not 0.0 <= self.sigma < self.tau:
            raise ValueError(
                f"EC window width {self.sigma!r} must lie in [0, tau) "
                f"for tau = {self.tau!r}")
        _check_ec_tail(self.eps_tail)


def sample_tick_phase(ec: ExplicitEC, rng, size=None):
    """Draw the dial phase at which the detector of ``ec`` fires.

    With probability 1 - eps_tail the phase is uniform on the detector
    window ((tau - sigma)/2, (tau + sigma)/2); otherwise it is uniform over
    the whole period.  The law does not depend on the switch-on phase.
    A draw of ``size`` takes one uniform u per entry, split at
    keep = 1 - eps_tail: u < keep maps onto the window, u >= keep onto
    the period.  The scalar draw is the oracle, ``rng.uniform``'s own
    arithmetic after a branch draw.
    """
    tau = ec.tau
    lo = (tau - ec.sigma) / 2
    hi = (tau + ec.sigma) / 2
    if size is None:
        if rng.random() >= 1.0 - ec.eps_tail:
            lo, hi = -tau / 2, tau / 2
        # rng.uniform(lo, hi)'s own arithmetic, at half its scalar cost
        return lo + (hi - lo) * rng.random()
    keep = 1.0 - ec.eps_tail
    phi = rng.random(size)  # u, mapped in place
    flat = phi.reshape(-1)  # a view: phi is contiguous
    tail = (flat >= keep).nonzero()[0]  # empty at eps_tail 0, as u < 1
    phi_tail = -tau / 2 + tau * (flat[tail] - keep) / ec.eps_tail
    phi *= (hi - lo) / keep
    phi += lo
    flat[tail] = phi_tail
    return phi


def fire_delay(idle, ec: ExplicitEC, rng, size=None) -> np.ndarray:
    """Times until the detector of ``ec`` fires when switched on after
    idling ``idle`` since its last reset, one draw per entry of ``size``
    (default ``idle``'s shape), ``idle`` broadcast over them; from a
    fresh reset (idle 0), the tick gap of a free-running EC."""
    phi = sample_tick_phase(ec, rng, np.shape(idle) if size is None else size)
    return delay_to_phase(idle, phi, ec.tau)


def delay_to_phase(idle: np.ndarray, phi: np.ndarray, tau) -> np.ndarray:
    """Time for the hand of an EC idle ``idle`` since its reset to turn to
    the tick phase ``phi`` by the module's rule, elementwise; scalars give
    a float.  An array result is built in place, in wrap_phase's buffer
    if it has ``phi``'s shape; ``idle`` and ``phi`` stay as they are."""
    s = wrap_phase(idle, tau)
    # with gradual underflow, d = phi - s <= 0 exactly when phi <= s
    d = (np.subtract(phi, s, out=s) if isinstance(s, np.ndarray)
         and s.shape == np.shape(phi) else phi - s)
    if isinstance(d, float):
        return d + tau * (d <= 0)
    np.add(d, tau, out=d, where=d <= 0)
    return d


class Mode(Enum):
    NO_TICK = "no-tick"
    TICK = "tick"


@dataclass(frozen=True)
class EnhancingClock(ExplicitEC):
    """Switchable EC at dial phase ``phase`` with its detector in
    ``mode``.

    Phase 0 is the reset state; the detector sits at phase tau/2.
    """

    phase: float = 0.0
    mode: Mode = Mode.NO_TICK

    def __post_init__(self):
        super().__post_init__()
        if not -self.tau / 2 < self.phase <= self.tau / 2:
            raise ValueError("phase must lie in (-tau/2, tau/2]")

    def advance(self, dt: float) -> "EnhancingClock":
        """Unitary, dissipation-free evolution with the detector off."""
        if self.mode is not Mode.NO_TICK:
            raise ValueError("advance only applies with the detector off")
        if dt < 0:
            raise ValueError("cannot advance backwards")
        if not math.isfinite(dt):
            raise ValueError(f"advance time dt must be finite, got {dt!r}")
        return replace(self, phase=wrap_phase(self.phase + dt, self.tau))

    def switched(self, mode: Mode) -> "EnhancingClock":
        return replace(self, mode=mode)

    def tick(self, rng) -> tuple[float, "EnhancingClock"]:
        """Sample the time until the detector fires, from the current
        switch-on phase.  Returns the duration and the reset clock."""
        if self.mode is not Mode.TICK:
            raise ValueError("tick requires the detector to be on")
        duration = delay_to_phase(self.phase, sample_tick_phase(self, rng),
                                  self.tau)
        return duration, self._reset

    @cached_property
    def _reset(self) -> "EnhancingClock":
        """This EC in its reset state: phase 0, detector off."""
        return EnhancingClock(self.tau, self.sigma, self.eps_tail)


def _check_dimension(d):
    """Reject an EC dimension that is not an integer >= 2."""
    if not (_is_count(d) and d >= 2):
        raise ValueError("the EC dimension d must be an integer of at "
                         f"least 2, got {d!r}")


def quasi_ideal_ratio(d: int, eta: float) -> float:
    """sigma / tau = d^(eta-1) + d^(3 eta/4 - 1) / pi^2 of the
    d-dimensional Quasi-Ideal Clock."""
    _check_dimension(d)
    _check_eta(eta)
    return d ** (eta - 1.0) + d ** (0.75 * eta - 1.0) / math.pi / math.pi


def quasi_ideal_params(d: int, eta: float, tau: float = 1.0,
                       eps_tail: float = 0.001) -> ExplicitEC:
    """The EC of period ``tau`` whose window is that of the
    d-dimensional Quasi-Ideal Clock."""
    return ExplicitEC(tau, quasi_ideal_ratio(d, eta) * tau, eps_tail)


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
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ValueError("rates must be finite and nonnegative")

    def transition(self, t: float) -> np.ndarray:
        """Row-stochastic transition matrix P(t)."""
        if not 0 <= t < math.inf:
            raise ValueError("time must be finite and nonnegative")
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
        if not 0 < period < math.inf:
            raise ValueError("period must be finite and positive")
        row = np.array([1.0, 0.0]) @ self.transition(period)
        fixed = abs(row[0] - 1.0) <= tol and abs(row[1]) <= tol
        return PeriodicityCheck(is_fixed_point=fixed)
