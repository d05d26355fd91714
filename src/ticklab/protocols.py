"""Accuracy enhancing protocols and their analytic bounds.

Four protocols turn the ticks of a noisy i.i.d. input clock into a more
accurate output tick signal:

1. dynamics switching: each input tick switches a local enhancing clock
   (EC) into tick mode; the EC tick is the output and resets the EC;
2. dynamics switching with feedback: as 1, but the input clock is also
   reset at every output tick, making the output gaps i.i.d.;
3. input bunching: every d-th input tick is an output tick;
4. EC bunching: the EC free-runs and the first EC tick at or after each
   input tick is the output tick.

The module also houses the period-selection rules for protocols 1 and 2,
the closed-form inaccuracy bounds for the first two protocols, and the
Monte-Carlo engine, which runs a block of trials in lockstep as arrays.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .clocks import fire_delay, quasi_ideal_ratio, wrap_phase
from .distributions import WaitingTimeDistribution
from .inaccuracy import InaccuracyEstimate, empirical_inaccuracy

_M_CAP = 10 ** 6
_BLOCK = 4096        # trials per random stream
_CHUNK = 1 << 16     # waits per input-bunching cumsum chunk


def choose_period_no_feedback(mu_in: float, sigma_in: float,
                              j: int = 1) -> tuple[int, float]:
    """Pick the EC period for dynamics switching without feedback.

    Solves mu_in = (m + 1/2) tau for the largest integer m such that
    j * sigma_in lies in [mu_in / (m + 3/2), mu_in / (m + 1/2)); then the
    input confidence interval up to tick j still fits inside one EC period.
    """
    if mu_in <= 0 or sigma_in < 0:
        raise ValueError("need mu_in > 0 and sigma_in >= 0")
    if j < 1:
        raise ValueError("tick index must be a positive integer")
    if sigma_in >= 2.0 * mu_in / 3.0:
        raise ValueError("input inaccuracy must be below 2/3")
    if sigma_in > 0 and j >= 2.0 * mu_in / (3.0 * sigma_in):
        raise ValueError("tick index too large for this input inaccuracy")
    if sigma_in == 0:
        m = _M_CAP
    else:
        x = mu_in / (j * sigma_in)
        m = max(1, math.ceil(x - 1.5))
        if m > 1 and j * sigma_in >= mu_in / (m + 0.5):
            m -= 1  # x rounded up across the open edge of the cell
        if m > _M_CAP:
            m = _M_CAP
        elif not (mu_in / (m + 1.5) <= j * sigma_in * (1 + 1e-12)
                  and j * sigma_in < mu_in / (m + 0.5)):
            # bracket check, with a little float slack on the closed end
            raise ValueError(
                f"period m={m} does not bracket j sigma_in={j * sigma_in!r}")
    return m, mu_in / (m + 0.5)


def choose_period_feedback(mu_in: float,
                           sigma_in: float) -> tuple[int, float]:
    """Pick the EC period for dynamics switching with feedback.

    Solves mu_in = m tau for the integer m with sigma_in in
    [mu_in / (m + 1), mu_in / m).
    """
    if mu_in <= 0 or sigma_in < 0:
        raise ValueError("need mu_in > 0 and sigma_in >= 0")
    if sigma_in >= mu_in:
        raise ValueError("input inaccuracy must be below 1")
    if sigma_in == 0:
        m = _M_CAP
    else:
        m = max(1, math.ceil(mu_in / sigma_in) - 1)
        if m > _M_CAP:
            m = _M_CAP
        elif not (mu_in / (m + 1) <= sigma_in * (1 + 1e-12)
                  and sigma_in < mu_in / m * (1 + 1e-12)):
            raise ValueError(
                f"period m={m} does not bracket sigma_in={sigma_in!r}")
    return m, mu_in / m


def ec_bar_sigma(sigma_ec: float, tau: float) -> float:
    """Inaccuracy upper bound 2 sigma / tau of an enhancing clock."""
    if not 0.0 < sigma_ec < tau:
        raise ValueError("need 0 < sigma_ec < tau")
    return 2.0 * sigma_ec / tau


def theorem1_bound(sigma_in: float, bar_sigma_ec: float, j: int) -> float:
    """Inaccuracy bound (5 j^2 / 6) Sigma_in bar_Sigma_EC for the j-th
    output of dynamics switching without feedback, at tail level j eps0."""
    if not 0.0 <= sigma_in < 2.0 / 3.0:
        raise ValueError("input inaccuracy must be below 2/3")
    if j < 1:
        raise ValueError("tick index must be a positive integer")
    if sigma_in > 0 and j >= 2.0 / (3.0 * sigma_in):
        raise ValueError("tick index too large for this input inaccuracy")
    return 5.0 * j * j / 6.0 * sigma_in * bar_sigma_ec


def theorem2_bound(sigma_in: float, bar_sigma_ec: float) -> float:
    """Per-tick inaccuracy bound Sigma_in bar_Sigma_EC for the i.i.d.
    output of dynamics switching with feedback."""
    if not 0.0 <= sigma_in < 1.0:
        raise ValueError("input inaccuracy must be below 1")
    return sigma_in * bar_sigma_ec


def theorem_bound(protocol: Protocol, sigma_in: float,
                  bar_sigma_ec: float | None, j: int) -> float | None:
    """The paper's bound on the j-th output inaccuracy of ``protocol``:
    theorem 1 for dynamics switching, theorem 2 for the single i.i.d. gap
    (j = 1) of dynamics switching with feedback.  None when no theorem
    covers the protocol and tick, or when its hypotheses fail."""
    if not sigma_in >= 0.0:
        raise ValueError("input inaccuracy must be nonnegative")
    if j < 1:
        raise ValueError("tick index must be a positive integer")
    try:
        if protocol is Protocol.DYN_SWITCH:
            return theorem1_bound(sigma_in, bar_sigma_ec, j)
        if protocol is Protocol.DYN_SWITCH_FEEDBACK and j == 1:
            return theorem2_bound(sigma_in, bar_sigma_ec)
    except ValueError:  # a hypothesis of the theorem fails
        pass
    return None


def corollary_bounds(sigma_in: float, d: int, nu: float,
                     j: int) -> tuple[float | None, float | None]:
    """The theorem bounds for dynamics switching without and with
    feedback at the d-dimensional EC inaccuracy bar_Sigma_EC = 2 / d^(1-nu):
    ((5 j^2 / 3) Sigma_in / d^(1-nu), 2 Sigma_in / d^(1-nu)), each None
    where its theorem does not apply."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 < nu < 1.0:
        raise ValueError("nu must lie in (0, 1)")
    bar_ec = 2.0 / d ** (1.0 - nu)
    return (theorem_bound(Protocol.DYN_SWITCH, sigma_in, bar_ec, j),
            theorem_bound(Protocol.DYN_SWITCH_FEEDBACK, sigma_in, bar_ec, j))


def output_epsilon_budget(eps: float, eps_ec: float, j: int) -> float:
    """Tail level j eps + (j + 1) eps_ec of the j-th output confidence
    interval, capped at 1."""
    if not 0.0 <= eps <= 1.0 or not 0.0 <= eps_ec <= 1.0:
        raise ValueError("tail levels must lie in [0, 1]")
    if j < 1:
        raise ValueError("tick index must be a positive integer")
    return min(1.0, j * eps + (j + 1) * eps_ec)


class Protocol(Enum):
    DYN_SWITCH = "dyn-switch"
    DYN_SWITCH_FEEDBACK = "dyn-switch-feedback"
    INPUT_BUNCH = "input-bunch"
    EC_BUNCH = "ec-bunch"


def _check_ec_tail(eps_tail: float):
    """Reject an EC tail level outside [0, 1), nan included."""
    if not 0.0 <= eps_tail < 1.0:
        raise ValueError(
            f"EC tail level must lie in [0, 1), got {eps_tail!r}")


@dataclass(frozen=True)
class QuasiIdealSpec:
    """EC given by its dimension; the period is chosen by the protocol."""

    d: int
    eta: float = 0.1
    eps_tail: float = 0.001

    def __post_init__(self):
        _check_ec_tail(self.eps_tail)


@dataclass(frozen=True)
class ExplicitEC:
    """EC with a caller-fixed period and window width.  Under EC bunching
    it free-runs, so its mean tick gap is tau / 2."""

    tau: float
    sigma: float
    eps_tail: float

    def __post_init__(self):
        _check_ec_tail(self.eps_tail)


@dataclass(frozen=True)
class ProtocolConfig:
    protocol: Protocol
    input_dist: WaitingTimeDistribution
    eps: float
    n_ticks: int
    ec: QuasiIdealSpec | ExplicitEC | None = None
    bunch: int | None = None          # counter capacity of input bunching
    period_tick: int = 1              # j targeted by the period chooser
    horizon: float | None = None

    def __post_init__(self):
        if self.n_ticks < 1:
            raise ValueError("need at least one output tick")
        if not 0.0 <= self.eps < 1.0:
            raise ValueError("tail level must lie in [0, 1)")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.protocol is Protocol.INPUT_BUNCH:
            if self.bunch is None or self.bunch < 1:
                raise ValueError("input bunching needs a counter capacity")
        elif self.ec is None:
            raise ValueError(f"{self.protocol.value} needs an EC spec")


@dataclass(frozen=True)
class PreparedRun:
    """Resolved parameters of one protocol configuration."""

    cfg: ProtocolConfig
    mu_in: float
    sigma_in: float
    tau: float | None
    m: int | None
    sigma_ec: float | None
    eps_ec: float | None
    mu_ec: float | None
    horizon: float
    # j up to which each theorem hypothesis admits the run
    theorem_j_limit: float | None = None
    cond_j_limit: float | None = None

    @property
    def bar_sigma_ec(self) -> float | None:
        """Inaccuracy bound of the switchable EC; None for the bunching
        protocols, which have none."""
        if self.tau is None:
            return None
        return ec_bar_sigma(self.sigma_ec, self.tau)


def _ec_bunch_mean(mu_in: float, sigma_in: float, ratio: float) -> float:
    """Mean EC tick gap for EC bunching with a d-dimensional EC.

    Uses mu_ec = mu_in / (m + 1/2) so the input confidence interval sits
    mid-gap on the EC tick grid, with the largest m whose accumulated EC
    jitter over a cycle stays well clear of the grid spacing.
    """
    best = 1
    for m in range(1, 64):
        mu_ec = mu_in / (m + 0.5)
        sigma_tick = 2.0 * ratio * mu_ec
        if mu_ec > sigma_in and \
                (m + 1) * sigma_tick <= 0.9 * (mu_ec - sigma_in):
            best = m
    return mu_in / (best + 0.5)


def prepare(cfg: ProtocolConfig) -> PreparedRun:
    """Resolve periods, widths and diagnostics before running trials."""
    interval = cfg.input_dist.confidence(cfg.eps)
    mu_in, sigma_in = interval.mu, interval.sigma
    tau = m = sigma_ec = eps_ec = mu_ec = None
    theorem_j = cond_j = None

    if cfg.protocol in (Protocol.DYN_SWITCH, Protocol.DYN_SWITCH_FEEDBACK):
        if isinstance(cfg.ec, QuasiIdealSpec):
            if cfg.protocol is Protocol.DYN_SWITCH:
                m, tau = choose_period_no_feedback(mu_in, sigma_in,
                                                   cfg.period_tick)
            else:
                m, tau = choose_period_feedback(mu_in, sigma_in)
            sigma_ec = quasi_ideal_ratio(cfg.ec.d, cfg.ec.eta) * tau
            eps_ec = cfg.ec.eps_tail
        else:
            tau, sigma_ec, eps_ec = cfg.ec.tau, cfg.ec.sigma, cfg.ec.eps_tail
        if sigma_ec >= tau:
            raise ValueError("EC window width reaches the chosen period")
        if cfg.protocol is Protocol.DYN_SWITCH_FEEDBACK \
                and sigma_in >= tau - sigma_ec:
            raise ValueError(
                "input confidence width must stay below tau - sigma_ec")
        if sigma_in > 0:
            theorem_j = 2.0 * mu_in / (3.0 * sigma_in)
        if sigma_ec + sigma_in > 0:
            cond_j = (tau - sigma_ec) / (sigma_ec + sigma_in)
        horizon = cfg.horizon or 4.0 * (mu_in + tau) * (cfg.n_ticks + 2)

    elif cfg.protocol is Protocol.INPUT_BUNCH:
        horizon = cfg.horizon or 4.0 * mu_in * cfg.bunch * (cfg.n_ticks + 1)

    else:  # EC_BUNCH
        if isinstance(cfg.ec, QuasiIdealSpec):
            ratio = quasi_ideal_ratio(cfg.ec.d, cfg.ec.eta)
            lo, hi = cfg.input_dist.support() or (mu_in - sigma_in / 2,
                                                  mu_in + sigma_in / 2)
            mu_ec = _ec_bunch_mean(mu_in, hi - lo, ratio)
            sigma_ec = 2.0 * ratio * mu_ec
            eps_ec = cfg.ec.eps_tail
        else:
            mu_ec = cfg.ec.tau / 2
            sigma_ec, eps_ec = cfg.ec.sigma, cfg.ec.eps_tail
        if sigma_in >= mu_ec:
            raise ValueError(
                "input confidence width must stay below the EC tick gap")
        horizon = cfg.horizon or 4.0 * (mu_in + mu_ec) * (cfg.n_ticks + 2)

    return PreparedRun(cfg=cfg, mu_in=mu_in, sigma_in=sigma_in, tau=tau,
                       m=m, sigma_ec=sigma_ec, eps_ec=eps_ec, mu_ec=mu_ec,
                       horizon=horizon, theorem_j_limit=theorem_j,
                       cond_j_limit=cond_j)


def check_rows(times: np.ndarray):
    """The tick-time invariant for a block of nonempty tick traces, one
    per row: raise ``ValueError`` unless every row is nonnegative and
    strictly increasing."""
    if (times[:, 0] < 0).any() or (np.diff(times, axis=1) <= 0).any():
        raise ValueError(
            "tick times must be nonnegative and strictly increasing")


def _next_after(t_in, t, dist, rng, n_ignored):
    """Advance each trial's input clock to its first tick strictly after
    ``t``; ticks passed over are counted in ``n_ignored``.  Only the trials
    whose input still lags are redrawn."""
    t_in = t_in + dist.sample(rng, t_in.size)
    lag = np.flatnonzero(t_in <= t)
    while lag.size:
        n_ignored[lag] += 1
        t_in[lag] += dist.sample(rng, lag.size)
        lag = lag[t_in[lag] <= t[lag]]
    return t_in


def _simulate(prep: PreparedRun, rng, size: int):
    """Run ``size`` trials in lockstep on one random stream.

    Returns the absolute output ticks, shape (size, n_ticks), and the
    per-trial count of ignored input ticks.  Horizon truncation is left
    to the caller.
    """
    cfg = prep.cfg
    dist, n_out = cfg.input_dist, cfg.n_ticks
    out = np.empty((size, n_out))
    n_ignored = np.zeros(size, dtype=int)
    if cfg.protocol is Protocol.INPUT_BUNCH:
        d = cfg.bunch
        rows = max(1, _CHUNK // (n_out * d))
        for r in range(0, size, rows):
            n = min(rows, size - r)
            waits = dist.sample(rng, (n, n_out * d))
            out[r:r + n] = np.cumsum(waits, axis=1)[:, d - 1::d]
    elif cfg.protocol is Protocol.EC_BUNCH:
        # the EC free-runs from its reset state at time 0
        tau = 2.0 * prep.mu_ec
        ec = np.zeros(size)
        t_in = np.zeros(size)
        for k in range(n_out):
            t_in = _next_after(t_in, ec, dist, rng, n_ignored)
            behind = np.flatnonzero(ec < t_in)
            while behind.size:
                ec[behind] += fire_delay(np.zeros(behind.size), tau,
                                         prep.sigma_ec, prep.eps_ec, rng)
                behind = behind[ec[behind] < t_in[behind]]
            out[:, k] = ec
    else:
        feedback = cfg.protocol is Protocol.DYN_SWITCH_FEEDBACK
        t_in = dist.sample(rng, size)
        s = np.zeros(size)  # EC reset when the first input tick arrives
        for k in range(n_out):
            t_out = t_in + fire_delay(s, prep.tau, prep.sigma_ec,
                                      prep.eps_ec, rng)
            out[:, k] = t_out
            if k + 1 == n_out:
                break
            if feedback:
                t_in = t_out + dist.sample(rng, size)
            else:
                t_in = _next_after(t_in, t_out, dist, rng, n_ignored)
            # the EC idles from its reset at t_out until the next input tick
            s = wrap_phase(t_in - t_out, prep.tau)
    check_rows(out)
    return out, n_ignored


@dataclass(frozen=True)
class TrialMatrix:
    """Per-trial output tick times, referenced to the trial origin.

    For the switching protocols the entry at column j (1-based) is
    t_out_j - t_out_0, so tick j spans j protocol cycles; each trial runs
    one extra output to anchor t_out_0.  For the bunching protocols the
    entry is the j-th output time itself.  Truncated trials hold NaN rows
    and are excluded from estimates.
    """

    prep: PreparedRun
    data: np.ndarray
    truncated: np.ndarray
    n_ignored: np.ndarray

    @property
    def n_truncated(self) -> int:
        return int(self.truncated.sum())

    def tick_samples(self, j: int) -> np.ndarray:
        if not 1 <= j <= self.data.shape[1]:
            raise ValueError("tick index out of range")
        return self.data[~self.truncated, j - 1]

    def estimate(self, j: int, eps: float) -> InaccuracyEstimate:
        return empirical_inaccuracy(self.tick_samples(j), j, eps)


def monte_carlo(cfg: ProtocolConfig, trials: int,
                seed: int) -> TrialMatrix:
    """Run independent trials in blocks of ``_BLOCK`` trials.

    Block b draws from its own stream,
    ``default_rng(SeedSequence(seed).spawn(n_blocks)[b])``, and runs its
    trials in lockstep.  The result is bit-identical for a fixed
    (seed, trials); blocks are independent, so the rows of every full
    block do not depend on the total trial count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    prep = prepare(cfg)
    switching = cfg.protocol in (Protocol.DYN_SWITCH,
                                 Protocol.DYN_SWITCH_FEEDBACK)
    n_out = cfg.n_ticks + 1 if switching else cfg.n_ticks
    run_prep = replace(prep, cfg=replace(cfg, n_ticks=n_out))
    out = np.empty((trials, n_out))
    n_ignored = np.empty(trials, dtype=int)
    streams = np.random.SeedSequence(seed).spawn(-(-trials // _BLOCK))
    for b, stream in enumerate(streams):
        rows = slice(b * _BLOCK, min((b + 1) * _BLOCK, trials))
        out[rows], n_ignored[rows] = _simulate(
            run_prep, np.random.default_rng(stream), rows.stop - rows.start)
    truncated = (out > prep.horizon).any(axis=1)
    data = out[:, 1:] - out[:, :1] if switching else out
    data[truncated] = np.nan
    return TrialMatrix(prep=prep, data=data, truncated=truncated,
                       n_ignored=n_ignored)
