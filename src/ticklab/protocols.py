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
the first two protocols, the one dynamics-switching loop ``switching``
and the Monte-Carlo engine, which runs the trials of a group of blocks
in lockstep, each block drawing from its own random stream.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .clocks import (ExplicitEC, _check_dimension, _check_ec_tail,
                     _check_eta, fire_delay, quasi_ideal_params)
from .distributions import WaitingTimeDistribution
from .inaccuracy import (InaccuracyEstimate, _check_tail, _check_tick,
                         _is_count, _scan_windows, _sort_tails)

_M_CAP = 10 ** 6
_BLOCK = 4096        # trials per random stream
# blocks per lockstep group.  A group makes each engine step's numpy calls
# once for all its rows, where blocks run one at a time make them once a
# block, while its temporaries grow with it.  ``monte_carlo`` on a
# Gaussian(1, 0.1) input at d = 256, in-process interleaved rounds (2-vCPU
# shared host, raw time as the median share of one block at a time): at
# 10^4 trials x 20 ticks (three blocks) a group of 3 or more took 0.85-0.91
# of it; at 10^5 x 20, groups of 4 / 8 / 16 / 32 took 0.91 / 0.88 / 0.87 /
# 0.87 (dyn-switch) and 0.86 / 0.83 / 0.81 / 0.75 (ec-bunch), with
# tracemalloc peaks 17.3 / 17.8 / 18.9 / 20.0 MB against 16.9; at 10^6 x 5,
# 4 / 8 / 16 / 32 / 64 took 0.93 / 0.90 / 0.83 / 0.90 / 0.94 and 0.85 /
# 0.76 / 0.76 / 0.75 / 0.77.  Past 8 the gain is within the host's noise
# while the peak keeps growing; 8 blocks are 32768 trials, 256 kB a column.
_GROUP = 8


def largest_period(mu: float, offset: float, fits,
                   m_max: int) -> tuple[int, float] | None:
    """The EC period cell (m, mu / (m + offset)) for the largest m in
    [1, m_max] with ``fits(m, tau)``; None when m = 1 does not fit.  m
    doubles from 2 until it fails or passes the cap, then bisection
    finds the cell, in at most 2 ceil(log2 m) + 3 calls of ``fits``.

    Precondition: ``fits`` holds for every m below one it holds for.
    """
    if not fits(1, mu / (1 + offset)):
        return None
    # fits at lo; hi is past the cap or does not fit
    lo, hi = 1, min(2, m_max + 1)
    while hi <= m_max and fits(hi, mu / (hi + offset)):
        lo, hi = hi, min(2 * hi, m_max + 1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if fits(mid, mu / (mid + offset)) else (lo, mid)
    return lo, mu / (lo + offset)


def _room_fits(j: int, sigma_in: float, room: float) -> bool:
    """Theorem 1's hypothesis and the switching protocols' contract:
    j sigma_in < room, the input confidence interval up to tick j fits in
    one EC period's room tau - sigma_ec."""
    return j * sigma_in < room


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
           j: int, mu_in: float = 1.0,
           room: float | None = None) -> float | None:
    """The paper's bound on output j of ``protocol`` for an input of mean
    mu_in and width sigma_in, Sigma_in = sigma_in / mu_in, and an EC whose
    period leaves ``room`` = tau - sigma_ec: theorem 1, (5 j^2 / 6)
    Sigma_in bar_Sigma_EC, for dynamics switching while ``_room_fits``;
    theorem 2, Sigma_in bar_Sigma_EC, for the one i.i.d. gap of feedback
    while Sigma_in < 1.  bar_Sigma_EC is None for the bunching protocols,
    which have no bound.  The default is a unit-mean input in the widest
    period cell, tau = 1 / 1.5 and room tau (1 - bar_Sigma_EC / 2).
    This is the one place a failed hypothesis becomes None."""
    if not (0.0 <= sigma_in < math.inf and _is_count(j)):
        raise ValueError("need a finite sigma_in >= 0 and a tick index >= 1")
    if bar_sigma_ec is not None and not 0.0 <= bar_sigma_ec < math.inf:
        raise ValueError("need a finite bar_sigma_ec >= 0, got "
                         f"{bar_sigma_ec!r}")
    if protocol is Protocol.DYN_SWITCH and _room_fits(
            j, sigma_in, (1.0 / 1.5) * (1.0 - bar_sigma_ec / 2)
            if room is None else room):
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
        raise ValueError("need j sigma_in < (2/3) (1 - bar_sigma_ec / 2)")
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
    input width and room tau - sigma_ec, as ``prepare`` tested it, and a
    tick before ``period_tick``, whose period was chosen for a later tick,
    has none."""
    bound = _bound(prep.cfg.protocol, prep.sigma_in, prep.bar_sigma_ec, j,
                   prep.mu_in, prep.ec and prep.ec.tau - prep.ec.sigma)
    if prep.cfg.protocol is Protocol.DYN_SWITCH and j < prep.cfg.period_tick:
        return None
    return bound


def corollary_bounds(sigma_in: float, d: int, nu: float,
                     j: int) -> tuple[float | None, float | None]:
    """The theorem bounds for dynamics switching without and with
    feedback at the d-dimensional EC inaccuracy bar_Sigma_EC = 2 / d^(1-nu):
    ((5 j^2 / 3) Sigma_in / d^(1-nu), 2 Sigma_in / d^(1-nu)), each None
    where its theorem does not apply, as ``theorem1_bound`` and
    ``theorem2_bound`` state them."""
    _check_dimension(d)
    if not 0.0 < nu < 1.0:
        raise ValueError("nu must lie in (0, 1)")
    bar_ec = 2.0 / d ** (1.0 - nu)
    return tuple(_bound(p, sigma_in, bar_ec, j) for p in _SWITCHING)


def output_epsilon_budget(eps: float, eps_ec: float, j: int) -> float:
    """Tail level j eps + (j + 1) eps_ec of the j-th output confidence
    interval, capped at 1."""
    if not 0.0 <= eps <= 1.0 or not 0.0 <= eps_ec <= 1.0:
        raise ValueError("tail levels must lie in [0, 1]")
    _check_tick(j)
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
        _check_dimension(self.d)
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

    def __post_init__(self):
        if not _is_count(self.n_ticks):
            raise ValueError("the output tick count n_ticks must be a "
                             f"positive integer, got {self.n_ticks!r}")
        _check_tail(self.eps)
        _check_tick(self.period_tick)
        if self.protocol is Protocol.INPUT_BUNCH:
            if self.bunch is None or not _is_count(self.bunch):
                raise ValueError("input bunching needs a counter capacity "
                                 "bunch, a positive integer, got "
                                 f"{self.bunch!r}")
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
    if cfg.protocol in _SWITCHING:
        # feedback restarts the input at every output: tick 1's rule, on
        # the lattice tau = mu_in / m
        fb = cfg.protocol is Protocol.DYN_SWITCH_FEEDBACK
        j = 1 if fb else cfg.period_tick
        return ((mu_in, 0.0 if fb else 0.5, _M_CAP),
                lambda ec: _room_fits(j, sigma_in, ec.tau - ec.sigma),
                "input confidence width must stay below tau - sigma_ec" if fb
                else "input confidence width times the targeted tick must "
                "stay below tau - sigma_ec")
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
        return PreparedRun(cfg=cfg, mu_in=mu_in, sigma_in=sigma_in, ec=None,
                           m=None)

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
    return PreparedRun(cfg=cfg, mu_in=mu_in, sigma_in=sigma_in, ec=ec, m=m)


def prefix_sums(x: np.ndarray) -> np.ndarray:
    """``np.cumsum(x, axis=0)`` in place and returned, as row adds
    x[k] = x[k - 1] + x[k]: cumsum's order, at a fraction of its cost."""
    for k in range(1, len(x)):
        np.add(x[k - 1], x[k], out=x[k])
    return x


def check_rows(times: np.ndarray):
    """The tick-time invariant for a block of nonempty tick traces, one
    per row: raise ``ValueError`` unless every row is nonnegative and
    strictly increasing.  A NaN compares false, so it fails both."""
    if not ((times[:, 0] >= 0).all()
            and (times[:, 1:] > times[:, :-1]).all()):
        raise ValueError(
            "tick times must be nonnegative and strictly increasing")


def _next_after(t_in, t, dist, streams, n_ignored):
    """Advance each trial's input clock to its first tick strictly after
    ``t``; ticks passed over are counted in ``n_ignored``.  Only the trials
    whose input still lags are redrawn, each from its block's stream."""
    t_in = t_in + streams.sample(dist)
    lag = (t_in <= t).nonzero()[0]
    while lag.size:
        n_ignored[lag] += 1
        t_in[lag] += streams.rows(lag).sample(dist)
        lag = lag[t_in[lag] <= t[lag]]
    return t_in


def switching(out, t_in, idle, ec: ExplicitEC, rng, next_input):
    """Dynamics switching, the one loop of both engines.  An input tick
    ``t_in`` switches on the EC, idle ``idle`` since its reset; its tick,
    output k, fills ``out[..., k]`` in place and resets it, and the EC
    idles until the input tick ``next_input(t_in, t_out)``."""
    n_out = out.shape[-1]
    for k in range(n_out):
        t_out = np.add(t_in, fire_delay(idle, ec, rng, t_in.shape),
                       out=out[..., k])
        if k + 1 == n_out:
            break
        t_in = next_input(t_in, t_out)
        idle = t_in - t_out


class _Streams:
    """The random streams of consecutive row blocks run in lockstep:
    ``parts`` holds (generator, rows) of each block, in row order, and a
    block's rows draw from its generator alone.  A draw over rows of
    several blocks takes each block's share from that block's generator,
    in row order, so every generator makes the calls, of the sizes, that
    its block would make run on its own.  It stands in for the generator
    of ``fire_delay``, which draws through ``random``."""

    def __init__(self, parts):
        self.parts = parts

    @cached_property
    def _stops(self) -> np.ndarray:
        """The row after each block's last."""
        return np.cumsum([n for _, n in self.parts])

    def random(self, size) -> np.ndarray:
        """One uniform on [0, 1) a row, as ``Generator.random`` draws
        them, shaped ``size``: the draw of ``sample_tick_phase``."""
        if len(self.parts) == 1:
            return self.parts[0][0].random(size)
        u, start = np.empty(sum(n for _, n in self.parts)), 0
        for rng, n in self.parts:
            rng.random(out=u[start:start + n])
            start += n
        return u.reshape(size)

    def sample(self, dist: WaitingTimeDistribution) -> np.ndarray:
        """One wait of ``dist`` a row."""
        if len(self.parts) == 1:
            return dist.sample(*self.parts[0])
        return np.concatenate([dist.sample(rng, n) for rng, n in self.parts])

    def rows(self, idx: np.ndarray) -> _Streams:
        """The streams of the rows ``idx``, ascending: each block's rows
        among them, in the order of ``idx``."""
        if len(self.parts) == 1:
            return _Streams([(self.parts[0][0], idx.size)])
        parts, start = [], 0
        for (rng, _), stop in zip(self.parts,
                                  idx.searchsorted(self._stops).tolist()):
            if stop > start:
                parts.append((rng, stop - start))
            start = stop
        return _Streams(parts)


def _simulate(prep: PreparedRun, streams: _Streams, out: np.ndarray,
              n_ignored: np.ndarray):
    """Run ``len(out)`` trials in lockstep, their blocks on ``streams``.

    Fills ``out``, shape (trials, ticks), with the absolute output ticks
    and adds each trial's count of ignored input ticks to the zeroed
    ``n_ignored``, both in place.  ``out`` may have either memory order;
    it is filled one tick's column at a time, so a tick-major
    (Fortran-order) ``out`` is written contiguously.
    """
    cfg = prep.cfg
    dist = cfg.input_dist
    size, n_out = out.shape
    if cfg.protocol is Protocol.INPUT_BUNCH:
        # each trial draws its n_out bunches in order, block by block,
        # into its row; the prefix sum runs column by column
        start = 0
        for rng, n in streams.parts:
            out[start:start + n] = dist.bunch_sums(rng, (n, n_out),
                                                   cfg.bunch)
            start += n
        prefix_sums(out.T)
    elif cfg.protocol is Protocol.EC_BUNCH:
        # the EC free-runs from its reset state at time 0
        ec = t_in = np.zeros(size)
        for k in range(n_out):
            # the input tick lies strictly after the EC's last tick, so
            # every trial fires at least once
            t_in = _next_after(t_in, ec, dist, streams, n_ignored)
            ec = np.add(ec, fire_delay(0.0, prep.ec, streams, size),
                        out=out[:, k])
            behind = (ec < t_in).nonzero()[0]
            while behind.size:
                ec[behind] += fire_delay(0.0, prep.ec, streams.rows(behind),
                                         behind.size)
                behind = behind[ec[behind] < t_in[behind]]
    else:  # the EC is reset when the first input tick arrives
        fb = cfg.protocol is Protocol.DYN_SWITCH_FEEDBACK
        switching(out, streams.sample(dist), 0.0, prep.ec, streams,
                  lambda t_in, t_out: t_out + streams.sample(dist) if fb
                  else _next_after(t_in, t_out, dist, streams, n_ignored))
    check_rows(out)


@dataclass(frozen=True)
class TrialMatrix:
    """Per-trial output tick times, referenced to the trial origin.

    For the switching protocols the entry at column j (1-based) is
    t_out_j - t_out_0, so tick j spans j protocol cycles; each trial runs
    one extra output to anchor t_out_0.  For the bunching protocols the
    entry is the j-th output time itself.  Every trial is kept.
    """

    prep: PreparedRun
    data: np.ndarray
    n_ignored: np.ndarray
    # no trial is ever dropped; kept for the ``truncated_trials`` column
    n_truncated = 0

    def _column(self, j: int) -> int:
        """The 0-based column of tick j, an integer in [1, ticks]."""
        _check_tick(j)
        if j > self.data.shape[1]:
            raise ValueError("tick index out of range")
        return j - 1

    def tick_samples(self, j: int) -> np.ndarray:
        return self.data[:, self._column(j)]

    def estimates(self, js, eps: float) -> list[InaccuracyEstimate]:
        """The estimate of each tick in ``js``, in its order, as
        ``empirical_inaccuracy`` gives it: the requested columns are
        copied once as rows, their tails sorted in place and scanned
        together."""
        js = list(js)
        x = self.data.T[[self._column(j) for j in js]]
        _sort_tails(x, eps)
        return _scan_windows(x, js, eps)

    def estimate(self, j: int, eps: float) -> InaccuracyEstimate:
        return self.estimates([j], eps)[0]


def _blocks(trials: int, seed: int, block: int):
    """Iterate over ``trials`` trials, ``block`` at a time, as (rows, seq):
    the slice of block b's rows and its stream, child b of the seed's
    ``SeedSequence`` as ``spawn(n_blocks)`` makes it.  The trial count is
    checked at once; a child is made when its block is reached, so a bad
    seed raises only once the caller has checked its run."""
    if not _is_count(trials):
        raise ValueError("the trial count must be a positive integer, got "
                         f"{trials!r}")
    return ((slice(start, min(start + block, trials)),
             np.random.SeedSequence(seed, spawn_key=(start // block,)))
            for start in range(0, trials, block))


def monte_carlo(cfg: ProtocolConfig, trials: int,
                seed: int) -> TrialMatrix:
    """Run independent trials in blocks of ``_BLOCK`` trials.

    Block b draws from its own stream (see ``_blocks``).  The blocks run
    in groups of up to ``_GROUP``, the trials of a group in lockstep, on
    the calling thread, each group filling its own rows.  The result is
    bit-identical for a fixed (seed, trials) and does not depend on how
    the blocks are grouped; blocks are independent, so the rows of every
    full block do not depend on the total trial count.
    """
    blocks = _blocks(trials, seed, _BLOCK)
    prep = prepare(cfg)
    switching = cfg.protocol in _SWITCHING
    n_out = cfg.n_ticks + 1 if switching else cfg.n_ticks
    # tick-major, as the engine and the estimator walk it: each tick's
    # column is contiguous
    out = np.empty((trials, n_out), order="F")
    n_ignored = np.zeros(trials, dtype=int)
    while group := list(itertools.islice(blocks, _GROUP)):
        rows = slice(group[0][0].start, group[-1][0].stop)
        streams = _Streams([(np.random.default_rng(seq), r.stop - r.start)
                            for r, seq in group])
        _simulate(prep, streams, out[rows], n_ignored[rows])
    data = out
    if switching:  # each tick relative to the anchoring first output
        data = out[:, 1:]
        data -= out[:, :1]
    return TrialMatrix(prep=prep, data=data, n_ignored=n_ignored)
