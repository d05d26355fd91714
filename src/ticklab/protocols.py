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

The module also houses the period chooser ``largest_period``, each EC
protocol's contract ``_contract``, the closed-form inaccuracy bounds for
the first two protocols, and the Monte-Carlo engine, which runs a block
of trials in lockstep as arrays.
"""
from __future__ import annotations

import _thread
import math
import os
import threading
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .clocks import (ExplicitEC, _check_ec_tail, _check_eta, fire_delay,
                     quasi_ideal_params, wrap_phase)
from .distributions import WaitingTimeDistribution
from .inaccuracy import InaccuracyEstimate, empirical_inaccuracy

_M_CAP = 10 ** 6
_BLOCK = 4096        # trials per random stream
_CHUNK = 1 << 16     # waits per input-bunching chunk
_THREAD_WAITS = 1024  # waits per trial from which input bunching uses threads


def largest_period(mu: float, offset: float, fits,
                   m_max: int) -> tuple[int, float] | None:
    """The EC period cell (m, mu / (m + offset)) for the largest m in
    [1, m_max] with ``fits(m, tau)``, found by bisection; None when m = 1
    does not fit.

    Precondition: ``fits`` holds for every m below one it holds for.
    """
    if not fits(1, mu / (1 + offset)):
        return None
    lo, hi = 1, m_max + 1  # fits at lo; hi is past the cap or does not fit
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid, mu / (mid + offset)) else (lo, mid)
    return lo, mu / (lo + offset)


def _no_feedback_fits(j: int, sigma_in: float, tau: float) -> bool:
    """Theorem 1's hypothesis: j sigma_in < tau, the input confidence
    interval up to tick j fits inside one EC period."""
    return j * sigma_in < tau


def _feedback_fits(sigma_in: float, ec: ExplicitEC) -> bool:
    """The feedback contract: sigma_in < tau - sigma_ec."""
    return sigma_in < ec.tau - ec.sigma


def _ec_bunch_fits(mu_in: float, width: float, ec: ExplicitEC) -> bool:
    """EC bunching's contract: the free-running EC's mean tick gap
    mu_ec = tau / 2 exceeds the input width, and its jitter over a cycle
    of mu_in / mu_ec + 1/2 gaps, each sigma_ec wide, stays within
    0.9 (mu_ec - width)."""
    mu_ec = ec.tau / 2
    return mu_ec > width and \
        (mu_in / mu_ec + 0.5) * ec.sigma <= 0.9 * (mu_ec - width)


def ec_bar_sigma(ec: ExplicitEC) -> float:
    """Inaccuracy upper bound 2 sigma / tau of an enhancing clock."""
    return 2.0 * ec.sigma / ec.tau


def _bound(protocol: Protocol, sigma_in: float, bar_sigma_ec: float | None,
           j: int, mu_in: float = 1.0, tau: float = 1.0 / 1.5) -> float | None:
    """The paper's bound on output j of ``protocol`` for an input of mean
    mu_in and width sigma_in, Sigma_in = sigma_in / mu_in, and an EC of
    period tau: theorem 1, (5 j^2 / 6) Sigma_in bar_Sigma_EC, for dynamics
    switching while ``_no_feedback_fits``; theorem 2, Sigma_in
    bar_Sigma_EC, for the one i.i.d. gap of feedback while Sigma_in < 1.
    The default is a unit-mean input in the widest period cell (m = 1).
    This is the one place a failed hypothesis becomes None."""
    if not (0.0 <= sigma_in < math.inf and j >= 1):
        raise ValueError("need a finite sigma_in >= 0 and a tick index >= 1")
    if protocol is Protocol.DYN_SWITCH and _no_feedback_fits(j, sigma_in, tau):
        return 5.0 * j * j / 6.0 * (sigma_in / mu_in) * bar_sigma_ec
    if protocol is Protocol.DYN_SWITCH_FEEDBACK and j == 1 \
            and sigma_in < mu_in:
        return sigma_in / mu_in * bar_sigma_ec
    return None


def theorem1_bound(sigma_in: float, bar_sigma_ec: float, j: int) -> float:
    """Theorem 1's bound on output j of dynamics switching without
    feedback, at tail level j eps0, for a unit-mean input in the widest
    period cell, tau = 1 / 1.5."""
    bound = _bound(Protocol.DYN_SWITCH, sigma_in, bar_sigma_ec, j)
    if bound is None:
        raise ValueError("tick index times input inaccuracy must be below 2/3")
    return bound


def theorem2_bound(sigma_in: float, bar_sigma_ec: float) -> float:
    """Theorem 2's per-tick bound for the i.i.d. output of dynamics
    switching with feedback, for a unit-mean input."""
    bound = _bound(Protocol.DYN_SWITCH_FEEDBACK, sigma_in, bar_sigma_ec, 1)
    if bound is None:
        raise ValueError("input inaccuracy must be below 1")
    return bound


def theorem_bound(prep: PreparedRun, j: int) -> float | None:
    """The paper's bound on tick j of the run ``prep``, None where no
    theorem covers it.  Theorem 1's hypothesis is tested on the run's own
    input width and EC period, as its period chooser tested it."""
    return _bound(prep.cfg.protocol, prep.sigma_in, prep.bar_sigma_ec, j,
                  prep.mu_in, prep.ec and prep.ec.tau)


def corollary_bounds(sigma_in: float, d: int, nu: float,
                     j: int) -> tuple[float | None, float | None]:
    """The theorem bounds for dynamics switching without and with
    feedback at the d-dimensional EC inaccuracy bar_Sigma_EC = 2 / d^(1-nu):
    ((5 j^2 / 3) Sigma_in / d^(1-nu), 2 Sigma_in / d^(1-nu)), each None
    where its theorem does not apply, as ``theorem1_bound`` and
    ``theorem2_bound`` state them."""
    if d < 2:
        raise ValueError("dimension must be at least 2")
    if not 0.0 < nu < 1.0:
        raise ValueError("nu must lie in (0, 1)")
    bar_ec = 2.0 / d ** (1.0 - nu)
    return tuple(_bound(p, sigma_in, bar_ec, j) for p in _SWITCHING)


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


_SWITCHING = (Protocol.DYN_SWITCH, Protocol.DYN_SWITCH_FEEDBACK)


@dataclass(frozen=True)
class QuasiIdealSpec:
    """EC given by its dimension; the period is chosen by the protocol."""

    d: int
    eta: float = 0.1
    eps_tail: float = 0.001

    def __post_init__(self):
        _check_eta(self.eta)
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
        if self.period_tick < 1:
            raise ValueError("tick index must be a positive integer")
        if self.horizon is not None and self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.protocol is Protocol.INPUT_BUNCH:
            if self.bunch is None or self.bunch < 1:
                raise ValueError("input bunching needs a counter capacity")
        elif self.ec is None:
            raise ValueError(f"{self.protocol.value} needs an EC spec")


@dataclass(frozen=True)
class PreparedRun:
    """Resolved parameters of one protocol configuration; ``ec`` is the
    EC the protocol runs, None for input bunching, and ``m`` the period
    cell a ``QuasiIdealSpec`` resolved to, else None."""

    cfg: ProtocolConfig
    mu_in: float
    sigma_in: float
    ec: ExplicitEC | None
    m: int | None
    horizon: float

    @property
    def bar_sigma_ec(self) -> float | None:
        """Inaccuracy bound of the switchable EC; None for the bunching
        protocols, which have none."""
        if self.cfg.protocol not in _SWITCHING:
            return None
        return ec_bar_sigma(self.ec)


def _contract(cfg: ProtocolConfig, mu_in: float, sigma_in: float):
    """The EC contract of ``cfg``'s protocol for an input of mean mu_in
    and confidence width sigma_in: its period lattice (mu, offset, cap),
    tau = mu / (m + offset) for m <= cap; its rule, a predicate on an
    ``ExplicitEC``; and the message of an EC that breaks the rule."""
    if not (0.0 < mu_in < math.inf and 0.0 <= sigma_in < math.inf):
        raise ValueError("need 0 < mu_in < inf and 0 <= sigma_in < inf")
    if cfg.protocol is Protocol.DYN_SWITCH:
        j = cfg.period_tick
        return ((mu_in, 0.5, _M_CAP),
                lambda ec: _no_feedback_fits(j, sigma_in, ec.tau),
                "input confidence width times the targeted tick must stay "
                "below tau")
    if cfg.protocol is Protocol.DYN_SWITCH_FEEDBACK:
        return ((mu_in, 0.0, _M_CAP), lambda ec: _feedback_fits(sigma_in, ec),
                "input confidence width must stay below tau - sigma_ec")
    # EC bunching: the mean gap tau / 2 = mu_in / (m + 1/2) puts the input
    # interval mid-gap on the EC tick grid
    lo, hi = cfg.input_dist.support() or (mu_in - sigma_in / 2,
                                          mu_in + sigma_in / 2)
    width = hi - lo
    return ((2 * mu_in, 0.5, 63),
            lambda ec: _ec_bunch_fits(mu_in, width, ec),
            "input width must stay below the EC tick gap tau / 2, with the "
            "EC jitter over a cycle within 0.9 of the difference")


def prepare(cfg: ProtocolConfig) -> PreparedRun:
    """Resolve periods, widths and diagnostics before running trials.

    An EC protocol's period search and its check of an explicit EC both
    use the one rule ``_contract`` gives."""
    interval = cfg.input_dist.confidence(cfg.eps)
    mu_in, sigma_in = interval.mu, interval.sigma
    if cfg.protocol is Protocol.INPUT_BUNCH:
        horizon = cfg.horizon or 4.0 * mu_in * cfg.bunch * (cfg.n_ticks + 1)
        return PreparedRun(cfg=cfg, mu_in=mu_in, sigma_in=sigma_in, ec=None,
                           m=None, horizon=horizon)

    (mu, offset, cap), fits, message = _contract(cfg, mu_in, sigma_in)
    ec, m = cfg.ec, None
    if isinstance(ec, QuasiIdealSpec):
        spec = ec
        cell = largest_period(mu, offset, lambda _, tau: fits(
            quasi_ideal_params(spec.d, spec.eta, tau, spec.eps_tail)), cap)
        if cell is None:
            raise ValueError(message)
        m, tau = cell
        ec = quasi_ideal_params(spec.d, spec.eta, tau, spec.eps_tail)
    elif not fits(ec):
        raise ValueError(message)
    # the EC bunching output waits for a free-running gap of mean tau / 2
    gap = ec.tau / 2 if cfg.protocol is Protocol.EC_BUNCH else ec.tau
    horizon = cfg.horizon or 4.0 * (mu_in + gap) * (cfg.n_ticks + 2)
    return PreparedRun(cfg=cfg, mu_in=mu_in, sigma_in=sigma_in, ec=ec, m=m,
                       horizon=horizon)


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


def _simulate(prep: PreparedRun, rng, out: np.ndarray,
              n_ignored: np.ndarray):
    """Run ``len(out)`` trials in lockstep on one random stream.

    Fills ``out``, shape (trials, n_ticks), with the absolute output
    ticks and adds each trial's count of ignored input ticks to the
    zeroed ``n_ignored``, both in place.  Horizon truncation is left to
    the caller.
    """
    cfg = prep.cfg
    dist, n_out = cfg.input_dist, cfg.n_ticks
    size = len(out)
    if cfg.protocol is Protocol.INPUT_BUNCH:
        d = cfg.bunch
        rows = max(1, _CHUNK // (n_out * d))
        for r in range(0, size, rows):
            n = min(rows, size - r)
            # row-major, so each trial draws its n_out * d waits in order
            bunches = dist.sample(rng, (n, n_out, d)).sum(axis=2)
            np.cumsum(bunches, axis=1, out=out[r:r + n])
    elif cfg.protocol is Protocol.EC_BUNCH:
        # the EC free-runs from its reset state at time 0
        ec = np.zeros(size)
        t_in = np.zeros(size)
        for k in range(n_out):
            t_in = _next_after(t_in, ec, dist, rng, n_ignored)
            behind = np.flatnonzero(ec < t_in)
            while behind.size:
                ec[behind] += fire_delay(np.zeros(behind.size), prep.ec,
                                         rng)
                behind = behind[ec[behind] < t_in[behind]]
            out[:, k] = ec
    else:
        feedback = cfg.protocol is Protocol.DYN_SWITCH_FEEDBACK
        t_in = dist.sample(rng, size)
        s = np.zeros(size)  # EC reset when the first input tick arrives
        for k in range(n_out):
            t_out = t_in + fire_delay(s, prep.ec, rng)
            out[:, k] = t_out
            if k + 1 == n_out:
                break
            if feedback:
                t_in = t_out + dist.sample(rng, size)
            else:
                t_in = _next_after(t_in, t_out, dist, rng, n_ignored)
            # the EC idles from its reset at t_out until the next input tick
            s = wrap_phase(t_in - t_out, prep.ec.tau)
    check_rows(out)


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


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


def _run_blocks(n_blocks: int, run_block, workers: int):
    """Call ``run_block(b)`` for every block b on the calling thread and up
    to ``workers - 1`` helper threads, so that a helper slowed by a busy
    CPU holds the calling thread up by at most the block it is running.

    Each thread takes the lowest block not yet taken, but a helper never
    takes the last one: the calling thread runs it, and then waits only
    for the helper blocks in flight.  Nor does it wait for a helper to
    start (``threading.Thread.start`` blocks until the new thread runs,
    so helpers start through ``_thread``); a helper that starts late finds
    fewer blocks or none.  After a failure no thread takes another block;
    the lowest failed block's exception is raised here once no helper
    block is in flight."""
    state = threading.Condition(threading.Lock())
    taken = running = 0  # blocks taken so far; helper blocks in flight
    failed = []          # (block, exception)

    def run(b):
        try:
            run_block(b)
        except BaseException as exc:  # re-raised on the calling thread
            failed.append((b, exc))

    def helper():
        nonlocal taken, running
        while True:
            with state:
                if failed or n_blocks - taken < 2:
                    return
                b, taken, running = taken, taken + 1, running + 1
            run(b)
            with state:
                running -= 1
                state.notify()

    for _ in range(1, workers):
        _thread.start_new_thread(helper, ())
    while True:
        with state:
            if failed or taken == n_blocks:
                break
            b, taken = taken, taken + 1
        run(b)
    with state:
        state.wait_for(lambda: running == 0)
    if failed:
        raise min(failed, key=lambda f: f[0])[1]


def monte_carlo(cfg: ProtocolConfig, trials: int,
                seed: int) -> TrialMatrix:
    """Run independent trials in blocks of ``_BLOCK`` trials.

    Block b draws from its own stream,
    ``default_rng(SeedSequence(seed).spawn(n_blocks)[b])``, and runs its
    trials in lockstep.  The result is bit-identical for a fixed
    (seed, trials); blocks are independent, so the rows of every full
    block do not depend on the total trial count.  Input bunching with at
    least ``_THREAD_WAITS`` waits per trial runs its blocks on every CPU
    the process may use, each filling its own rows, so the result does
    not depend on the number of CPUs either.  Its large draws and sums
    release the GIL, and at that size a block runs for tens of ms, long
    beside the milliseconds a helper thread can cost to start and to
    wait for on a busy shared host.  Smaller runs, and the other
    protocols, which step small arrays tick by tick under the GIL and
    would only trade it between threads, stay on the calling thread.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    prep = prepare(cfg)
    switching = cfg.protocol in _SWITCHING
    n_out = cfg.n_ticks + 1 if switching else cfg.n_ticks
    run_prep = replace(prep, cfg=replace(cfg, n_ticks=n_out))
    out = np.empty((trials, n_out))
    n_ignored = np.zeros(trials, dtype=int)
    streams = np.random.SeedSequence(seed).spawn(-(-trials // _BLOCK))

    def run_block(b):
        rows = slice(b * _BLOCK, (b + 1) * _BLOCK)
        _simulate(run_prep, np.random.default_rng(streams[b]), out[rows],
                  n_ignored[rows])

    threaded = (cfg.protocol is Protocol.INPUT_BUNCH
                and n_out * cfg.bunch >= _THREAD_WAITS)
    _run_blocks(len(streams), run_block,
                min(len(streams), _cpus()) if threaded else 1)
    truncated = (out > prep.horizon).any(axis=1)
    data = out
    if switching:  # each tick relative to the anchoring first output
        data = out[:, 1:]
        data -= out[:, :1]
    data[truncated] = np.nan
    return TrialMatrix(prep=prep, data=data, truncated=truncated,
                       n_ignored=n_ignored)
