"""Shared-signal network scenario.

A central i.i.d. clock broadcasts its ticks to several nodes over links
with heterogeneous propagation delay and per-tick jitter.  Each node runs
the dynamics-switching protocol against its local enhancing clock.  All
local ECs are pre-synchronized: identical period, phase 0 at time 0.  The
figure of merit is the spread of the k-th output tick across nodes,
compared with the spread of the raw arrivals.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clocks import (delay_to_phase, quasi_ideal_ratio, sample_tick_phase,
                     wrap_phase)
from .distributions import Box, WaitingTimeDistribution
from .protocols import ExplicitEC, check_rows

_PHASE_MARGIN = 0.75  # fraction of the safe phase band a node may use
_BLOCK = 128          # trials per block; peak memory grows with it


@dataclass(frozen=True)
class NodeConfig:
    """One receiving node: mean link delay, optional per-tick jitter law
    (applied centered, i.e. shifted to mean 0), and the local EC."""

    delay: float
    ec: ExplicitEC
    jitter: WaitingTimeDistribution | None = None
    name: str = ""

    def __post_init__(self):
        if self.delay < 0:
            raise ValueError("link delay must be nonnegative")
        if self.jitter is not None:
            lo, _ = self.jitter.support() or (None, None)
            if lo is not None and self.delay + lo - self.jitter.mean < 0:
                raise ValueError("jitter can make the link delay negative")


@dataclass(frozen=True)
class NetworkScenario:
    central: WaitingTimeDistribution
    nodes: tuple
    n_outputs: int
    eps: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(self.nodes) < 2:
            raise ValueError("a network needs at least 2 nodes")
        if self.n_outputs < 1:
            raise ValueError("need at least one output tick")
        taus = {node.ec.tau for node in self.nodes}
        if len(taus) > 1:
            raise ValueError(
                "pre-synchronized nodes need a common EC period")


def _node_label(node: NodeConfig, i: int) -> str:
    return node.name or f"node {i}"


def _check_node(scenario: NetworkScenario, node: NodeConfig, i: int):
    """Validate that the node's arrivals land inside the safe phase band
    of its EC, so the switching protocol operates in contract."""
    ec = node.ec
    central = scenario.central.confidence(scenario.eps)
    jitter_half = 0.0
    if node.jitter is not None:
        lo, hi = node.jitter.support() or (None, None)
        if lo is None:
            raise ValueError(
                f"{_node_label(node, i)}: jitter must have bounded support")
        jitter_half = (hi - lo) / 2
    band = (ec.tau - ec.sigma) / 2
    # expected arrival phase relative to the pre-synchronized EC grid
    s0 = float(wrap_phase(central.mu + node.delay, ec.tau))
    slack = central.sigma / 2 + jitter_half
    if abs(s0) + slack > _PHASE_MARGIN * band:
        raise ValueError(
            f"{_node_label(node, i)}: arrivals (phase {s0:.4g} +- "
            f"{slack:.4g}) reach the detector band of width {band:.4g}")


def _arrivals(broadcast: np.ndarray, scenario: NetworkScenario,
              rngs) -> np.ndarray:
    """Broadcast ticks (trials, ticks) as received at every node, shape
    (trials, nodes, ticks); node i draws its jitter from ``rngs[i]``."""
    t = np.empty((broadcast.shape[0], len(scenario.nodes),
                  broadcast.shape[1]))
    for i, (node, rng) in enumerate(zip(scenario.nodes, rngs)):
        t[:, i] = broadcast + node.delay
        if node.jitter is not None:
            t[:, i] += node.jitter.sample(rng, broadcast.shape) \
                - node.jitter.mean
    return t


def _simulate(scenario: NetworkScenario, seq: np.random.SeedSequence,
              size: int):
    """Run ``size`` trials of ``scenario`` in lockstep.

    ``seq`` spawns one stream for the central clock and then one per
    node.  A node draws its EC tick phases for all outputs first, then its
    link jitter, from its own stream only.  Returns the output ticks and
    the arrival ticks, shapes (size, nodes, n_outputs) and (size, nodes,
    n), n > n_outputs.

    Each node runs dynamics switching over its arrivals.  Its EC is not
    reset at the first arrival: it free-evolved from phase 0 at time 0,
    which is what keeps the nodes mutually synchronized.  After each
    output the EC is reset as usual.  When a node has no arrival left
    after an output, every node receives another chunk of broadcast
    ticks.
    """
    rng_c, *rngs = [np.random.default_rng(s) for s in
                    seq.spawn(1 + len(scenario.nodes))]
    n_out = scenario.n_outputs
    tau = scenario.nodes[0].ec.tau  # common to all nodes
    phi = np.stack([sample_tick_phase(tau, node.ec.sigma, node.ec.eps_tail,
                                      rng, (size, n_out))
                    for node, rng in zip(scenario.nodes, rngs)], axis=1)
    width = n_out + 2  # each output uses up at least one arrival
    broadcast = np.cumsum(scenario.central.sample(rng_c, (size, width)),
                          axis=1)
    arr = _arrivals(broadcast, scenario, rngs)
    out = np.empty_like(phi)
    t_in = arr[:, :, 0]
    s = wrap_phase(t_in, tau)
    for k in range(n_out):
        t_out = t_in + delay_to_phase(s, phi[:, :, k], tau)
        out[:, :, k] = t_out
        if k + 1 == n_out:
            break
        # the arrivals are sorted, so the count is the next one's index
        nxt = (arr <= t_out[:, :, None]).sum(axis=2)
        while nxt.max() == arr.shape[2]:
            waits = scenario.central.sample(rng_c, (size, width))
            broadcast = broadcast[:, -1:] + np.cumsum(waits, axis=1)
            more = _arrivals(broadcast, scenario, rngs)
            arr = np.concatenate([arr, more], axis=2)
            nxt += (more <= t_out[:, :, None]).sum(axis=2)
        t_in = np.take_along_axis(arr, nxt[:, :, None], axis=2)[:, :, 0]
        s = wrap_phase(t_in - t_out, tau)
    if (arr[:, :, 1:] <= arr[:, :, :-1]).any():
        raise ValueError("link jitter reordered the broadcast ticks")
    check_rows(out.reshape(-1, n_out))
    return out, arr


def _blocks(scenario: NetworkScenario, trials: int, seed: int):
    """Yield ``_simulate`` results for ``trials`` trials in blocks of
    ``_BLOCK``; block b runs on ``SeedSequence(seed).spawn(n_blocks)[b]``."""
    for i, node in enumerate(scenario.nodes):
        _check_node(scenario, node, i)
    streams = np.random.SeedSequence(seed).spawn(-(-trials // _BLOCK))
    for b, seq in enumerate(streams):
        yield _simulate(scenario, seq, min(_BLOCK, trials - b * _BLOCK))


@dataclass(frozen=True)
class NetworkResult:
    outputs: np.ndarray     # enhanced ticks, one row per node
    arrivals: np.ndarray    # raw arrival ticks, one row per node


def run_network(scenario: NetworkScenario, seed: int) -> NetworkResult:
    """Simulate one scenario trial, the single trial of
    ``network_spreads(scenario, 1, seed, k)``.  Nodes only see their own
    arrivals, never each other's state.  The result holds arrays of shape
    (nodes, n_outputs) and (nodes, n), n > n_outputs."""
    out, arr = next(_blocks(scenario, 1, seed))
    check_rows(arr[0])
    return NetworkResult(outputs=out[0], arrivals=arr[0])


def network_spreads(scenario: NetworkScenario, trials: int, seed: int,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """Spread (max - min) of tick ``k`` (0-based) across the nodes, in
    each of ``trials`` independent trials.

    Returns the spreads of the enhanced outputs and of the raw arrivals,
    each of shape (trials,).  Trials run in blocks of ``_BLOCK`` on the
    streams of ``_blocks``, so the result is bit-identical for a fixed
    (seed, trials) and every full block's rows do not depend on the trial
    count.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0 <= k < scenario.n_outputs:
        raise ValueError(
            f"tick index {k} outside [0, {scenario.n_outputs})")
    enhanced = np.empty(trials)
    raw = np.empty(trials)
    start = 0
    for out, arr in _blocks(scenario, trials, seed):
        rows = slice(start, start + out.shape[0])
        enhanced[rows] = np.ptp(out[:, :, k], axis=1)
        raw[rows] = np.ptp(arr[:, :, k], axis=1)
        start = rows.stop
    return enhanced, raw


def plan_scenario(central: WaitingTimeDistribution, n_nodes: int,
                  jitter_width: float, d: int, eta: float = 0.1,
                  eps: float = 0.01, eps_ec: float = 0.001,
                  n_outputs: int = 5,
                  sigma_scale: float = 1.0) -> NetworkScenario:
    """Build a symmetric scenario around a central clock.

    All nodes get the same EC (dimension d, common period) and link delays
    near half an EC period, staggered slightly, so the expected first
    arrival sits at phase 0 of the pre-synchronized EC grid.  The period
    is the largest admissible one (smallest half-integer divisor of the
    central mean) whose safe phase band comfortably absorbs the central
    spread plus the link jitter.  ``sigma_scale`` shrinks the EC window
    width without touching anything else.
    """
    if n_nodes < 2:
        raise ValueError("a network needs at least 2 nodes")
    if jitter_width < 0:
        raise ValueError("jitter width must be nonnegative")
    if not 0.0 < sigma_scale <= 1.0:
        raise ValueError("sigma_scale must lie in (0, 1]")
    conf = central.confidence(eps)
    # the period is planned with the unscaled window so that shrinking
    # the window afterwards never changes the tick grid
    ratio = quasi_ideal_ratio(d, eta)
    chosen = None
    for m in range(64, 0, -1):
        tau = conf.mu / (m + 0.5)
        band = (tau - ratio * tau) / 2
        off_span = 0.1 * band
        if conf.sigma / 2 + jitter_width / 2 + off_span / 2 \
                <= _PHASE_MARGIN * band:
            chosen = (m, tau, band, off_span)
            break
    if chosen is None:
        raise ValueError(
            "no EC period accommodates this central spread and jitter")
    m, tau, band, off_span = chosen
    ec = ExplicitEC(tau=tau, sigma=ratio * sigma_scale * tau,
                    eps_tail=eps_ec)
    jitter = None
    if jitter_width > 0:
        jitter = Box(center=jitter_width, width=jitter_width)
    nodes = []
    for i in range(n_nodes):
        offset = off_span * (i / (n_nodes - 1) - 0.5)
        nodes.append(NodeConfig(delay=tau / 2 + offset, ec=ec,
                                jitter=jitter, name=f"node-{i}"))
    return NetworkScenario(central=central, nodes=tuple(nodes),
                           n_outputs=n_outputs, eps=eps)


def cross_node_spread(traces, k: int, eps: float = 0.0):
    """Spread of the k-th tick (0-based) across nodes; ``traces`` holds
    one sequence of tick times per node.

    Returns (range, trimmed width), where the trimmed width is that of the
    narrowest interval containing at least ceil((1 - eps) n) of the n
    node values.
    """
    values = []
    for trace in traces:
        if len(trace) <= k:
            raise ValueError("a trace has too few ticks for this index")
        values.append(trace[k])
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    if not 0.0 <= eps < 1.0:
        raise ValueError("tail level must lie in [0, 1)")
    m = max(1, math.ceil((1.0 - eps) * n - 1e-9))
    widths = x[m - 1:] - x[: n - m + 1]
    return float(x[-1] - x[0]), float(widths.min())
