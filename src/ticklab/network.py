"""Shared-signal network scenario.

A central i.i.d. clock broadcasts its ticks to several nodes over links
with heterogeneous propagation delay and per-tick jitter.  Each node runs
dynamics switching (``protocols.switching``) on its own copy of the
scenario's one enhancing clock; all copies were reset at time 0.  The
figure of merit is the spread of the k-th output tick across nodes,
compared with the spread of the raw arrivals.

``network_spreads`` runs its trials in blocks of ``_BLOCK``.  Each block
fills its first chunk of arrivals and its outputs in two flat buffers
that belong to the calling thread and are kept between calls, so the
blocks of a run, and the next run, reuse the same pages rather than
allocating and faulting in fresh ones.  Only the most recent call's
block-sized pair is kept.  A block builds a run of jittered nodes'
arrivals in the jitter draw's layout and copies it once into its
tick-major arrivals, takes the broadcast's prefix sums as row adds, and
reads each input tick as one plane of the arrivals until some row lags.
"""
from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from itertools import groupby
from operator import attrgetter

import numpy as np

from .clocks import (ExplicitEC, quasi_ideal_params, quasi_ideal_ratio,
                     wrap_phase)
from .distributions import Box, WaitingTimeDistribution
from .inaccuracy import ConfidenceInterval, _coverage_count, _is_count
from .protocols import (_blocks, check_rows, largest_period,
                        prefix_sums, switching)

_PHASE_MARGIN = 0.75  # fraction of the safe phase band a node may use
# trials per block.  The per-block cost (three streams, the jitter draws
# of ``_arrivals``, the small calls of each output step) is paid once per
# block, while memory grows with the block.  ``network_spreads`` on the
# default ``network`` scenario at 5000 trials, with this thread's block
# buffers warm, 101 in-process interleaved rounds (2-vCPU shared host,
# raw time, tracemalloc peak within a call plus the buffers kept between
# calls): 512 trials 7.86 ms, 0.40 + 0.33 MB; 1024 trials 6.12 ms,
# 0.59 + 0.66 MB, at 0.764 of 512's time in the median round (faster in
# 92 of 101); 2048 trials 5.33 ms, 0.96 + 1.31 MB, at 0.918 of 1024's
# (faster in 78 of 101).  The peak RSS of a process that runs one size
# is 35.7, 36.2 and 37.1 MB, set mostly by the imports.  2048 is the
# fastest, but any size other than 1024 moves the streams of every run
# of more than 1024 trials.  These timings predate the plane reads,
# draw-layout arrivals and row prefix sums, which cut every size's
# per-block cost; they were not measured again.
_BLOCK = 1024
# each thread's block buffers (``_buffers``)
_workspace = threading.local()


@dataclass(frozen=True)
class NodeConfig:
    """One receiving node: mean link delay and optional per-tick jitter
    law (applied centered, i.e. shifted to mean 0)."""

    delay: float
    jitter: WaitingTimeDistribution | None = None

    def __post_init__(self):
        if not 0.0 <= self.delay < math.inf:
            raise ValueError("link delay must be finite and nonnegative, "
                             f"got {self.delay!r}")
        if self.jitter is not None:
            support = self.jitter.support()
            if support is None:
                raise ValueError("link jitter must have bounded support")
            if self.delay + support[0] - self.jitter.mean < 0:
                raise ValueError("jitter can make the link delay negative")


@dataclass(frozen=True)
class NetworkScenario:
    """A central clock, the EC every node runs a copy of, and the nodes.
    Every node must meet the band rule ``_arrivals_safe``."""

    central: WaitingTimeDistribution
    ec: ExplicitEC
    nodes: tuple
    n_outputs: int
    eps: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        if len(self.nodes) < 2:
            raise ValueError("a network needs at least 2 nodes")
        if not _is_count(self.n_outputs):
            raise ValueError("the output count n_outputs must be a positive "
                             f"integer, got {self.n_outputs!r}")
        central = self.central.confidence(self.eps)
        for i, node in enumerate(self.nodes):
            if not _arrivals_safe(central, self.ec, node.delay, node.jitter):
                raise ValueError(f"node {i}: arrivals over delay "
                                 f"{node.delay:.4g} reach its EC's detector "
                                 "band")


def _arrivals_safe(central: ConfidenceInterval, ec: ExplicitEC,
                   delay: float,
                   jitter: WaitingTimeDistribution | None) -> bool:
    """The band rule: arrivals over a link of mean ``delay``, at phase s0
    of the pre-synchronized EC grid give or take half the central and
    jitter widths, keep within ``_PHASE_MARGIN`` of the detector band."""
    lo, hi = jitter.support() if jitter is not None else (0.0, 0.0)
    s0 = wrap_phase(central.mu + delay, ec.tau)
    slack = central.sigma / 2 + (hi - lo) / 2
    return abs(s0) + slack <= _PHASE_MARGIN * ((ec.tau - ec.sigma) / 2)


def _arrivals(broadcast: np.ndarray, scenario: NetworkScenario,
              rng, buf: np.ndarray | None = None) -> np.ndarray:
    """Broadcast ticks (ticks, trials) as received at every node, shape
    (ticks, nodes, trials): each node's plane is the broadcast plus its
    delay, or plus its jitter draw offset by delay - mean.  Each run of
    nodes that share a jitter law takes one draw from ``rng``, the values
    of drawing node by node in node order.  A node without jitter draws
    nothing, so its arrivals come from the broadcast alone; a jittered
    node's draws depend on the jitter laws of the nodes before it.  The
    arrivals fill the head of the flat ``buf`` if one is given (see
    ``_blank``)."""
    t = _blank((broadcast.shape[0], len(scenario.nodes),
                broadcast.shape[1]), buf)
    i = 0
    for jitter, run in groupby(scenario.nodes, attrgetter("jitter")):
        delays = np.array([node.delay for node in run])
        plane, i = t[:, i:i + delays.size], i + delays.size
        if jitter is None:
            np.add(broadcast[:, None], delays[:, None], out=plane)
        else:  # (jitter + off) + broadcast in the draw's layout, copied
            lag = jitter.sample(rng, (delays.size, *broadcast.shape))
            lag += (delays - jitter.mean)[:, None, None]
            lag += broadcast
            plane[...] = lag.transpose(1, 0, 2)
    return t


def _blank(shape: tuple, buf: np.ndarray | None) -> np.ndarray:
    """An uninitialized C-order float array of ``shape``: a fresh one, or
    the head of the flat ``buf`` reshaped, a contiguous view."""
    if buf is None:
        return np.empty(shape)
    return buf[:math.prod(shape)].reshape(shape)


def _simulate(scenario: NetworkScenario, seq: np.random.SeedSequence,
              size: int, bufs: tuple | None = None):
    """Run ``size`` trials of ``scenario`` in lockstep.

    ``seq`` spawns three streams, one per role: the central clock's
    waits, the link jitter of every node (see ``_arrivals``), and the EC
    fires of every node.  So a node without jitter gets its arrivals
    from the central stream only, a jittered node's draws depend on the
    jitter laws of the nodes before it, and every node's fires depend on
    the node count.  The arrivals are laid out tick-major, (ticks, nodes,
    size), like the outputs.  Returns the output ticks and the arrival
    ticks, shapes (size, nodes, n_outputs) and (size, nodes, n),
    n >= n_outputs; the arrivals are a transposed view, so one tick of
    every node and trial is contiguous.

    Each node runs ``switching`` over its arrivals.  Every EC was reset
    at time 0, which is what keeps the nodes mutually synchronized, so at
    the first arrival it has idled since time 0; after each output,
    since that output.  Each (node, trial) keeps the index of its input
    tick, which only moves forward: the arrivals are sorted and an output
    comes after its input, so the next input lies one or more arrivals
    on.  When an index reaches the end of the arrivals, every node
    receives another chunk of broadcast ticks.

    ``bufs``, two flat float arrays of at least n_outputs * nodes * size
    values, hold the first chunk of arrivals and the outputs in place of
    fresh arrays; the results are then views of them, valid until the
    buffers are written again.  Later chunks are always fresh arrays.
    """
    buf_arr, buf_out = bufs if bufs is not None else (None, None)
    rng_c, rng_jit, rng_ec = [np.random.default_rng(s)
                              for s in seq.spawn(3)]
    n_out = scenario.n_outputs
    # output k uses arrival k or a later one, so a chunk of n_out ticks
    # serves every output of a row that never lags
    broadcast = prefix_sums(scenario.central.sample(rng_c, (n_out, size)))
    arr = _arrivals(broadcast, scenario, rng_jit, buf_arr)
    stride = arr.shape[1] * size  # one tick of the flat arr
    # the largest tick of any row and, once some row has lagged past it,
    # each (node, trial) row's input tick as a flat index into arr,
    # tick * stride + row; until then every row is at tick top
    pos = None
    top = 0

    def gather(at):
        """The arrivals at flat indices ``at``, or the plane of tick
        ``top`` if None, extending the broadcast first if the largest
        tick has reached the end."""
        nonlocal arr, broadcast
        if top == arr.shape[0]:
            waits = prefix_sums(scenario.central.sample(rng_c, (n_out, size)))
            broadcast = np.add(broadcast[-1], waits, out=waits)
            arr = np.concatenate(
                [arr, _arrivals(broadcast, scenario, rng_jit)])
        return arr[top].reshape(-1) if at is None else np.take(arr, at)

    def next_input(t_in, t_out):
        nonlocal top, pos
        t_out = t_out.ravel()
        if pos is not None:
            pos += stride
        top += 1
        nxt = gather(pos)
        step = (nxt <= t_out).nonzero()[0]
        if step.size and pos is None:  # rows lag: index each from here
            pos = np.arange(top * stride, (top + 1) * stride)
            nxt = nxt.copy()  # not a view of arr, which it would write
        while step.size:
            at = pos[step] + stride
            pos[step] = at
            top = max(top, int(at.max()) // stride)
            nxt[step] = gather(at)
            step = step[nxt[step] <= t_out[step]]
        return nxt.reshape(t_in.shape)

    # (size, nodes, n_out) in F order
    out = _blank((n_out, len(scenario.nodes), size), buf_out).T
    # switching runs on (nodes, size) planes, one contiguous plane a tick
    # of either array, in the same row order
    t_in = arr[0]  # every EC was reset at time 0
    switching(out.transpose(1, 0, 2), t_in, t_in, scenario.ec, rng_ec,
              next_input)
    if (arr[1:] <= arr[:-1]).any():
        raise ValueError("link jitter reordered the broadcast ticks")
    check_rows(out.reshape(-1, n_out, order="F"))  # a view: no copy
    return out, arr.transpose(2, 1, 0)


@dataclass(frozen=True)
class NetworkResult:
    outputs: np.ndarray     # enhanced ticks, one row per node
    arrivals: np.ndarray    # raw arrival ticks, one row per node


def run_network(scenario: NetworkScenario, seed: int) -> NetworkResult:
    """Simulate one scenario trial, the single trial of
    ``network_spreads(scenario, 1, seed, k)``.  Nodes only see their own
    arrivals, never each other's state.  The result holds arrays of shape
    (nodes, n_outputs) and (nodes, n), n >= n_outputs."""
    (_, seq), = _blocks(1, seed, 1)
    out, arr = _simulate(scenario, seq, 1)
    check_rows(arr[0])
    return NetworkResult(outputs=out[0], arrivals=arr[0])


def network_spreads(scenario: NetworkScenario, trials: int, seed: int,
                    k: int) -> tuple[np.ndarray, np.ndarray]:
    """Spread (max - min) of tick ``k`` (0-based) across the nodes, in
    each of ``trials`` independent trials.

    Returns the spreads of the enhanced outputs and of the raw arrivals,
    each of shape (trials,).  Trials run in blocks of ``_BLOCK``, each on
    its own stream (see ``protocols._blocks``), so the result is
    bit-identical for a fixed (seed, trials) and every full block's rows
    do not depend on the trial count.
    """
    blocks = _blocks(trials, seed, _BLOCK)
    _check_index(k)
    if k >= scenario.n_outputs:
        raise ValueError(
            f"tick index {k} outside [0, {scenario.n_outputs})")
    enhanced = np.empty(trials)
    raw = np.empty(trials)
    # room for the first block, the largest
    bufs = _buffers(scenario.n_outputs * len(scenario.nodes)
                    * min(trials, _BLOCK))
    for rows, seq in blocks:
        out, arr = _simulate(scenario, seq, rows.stop - rows.start, bufs)
        enhanced[rows] = np.ptp(out[:, :, k], axis=1)
        raw[rows] = np.ptp(arr[:, :, k], axis=1)
    return enhanced, raw


def _buffers(n: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two flat float buffers of ``n`` values, kept between
    calls so that a run's blocks and the next run's reuse the same pages.
    A call that needs another size replaces them, so only the most recent
    size is retained."""
    if getattr(_workspace, "size", None) != n:
        _workspace.bufs = None  # free the old pair before the new one
        _workspace.bufs = np.empty(n), np.empty(n)
        _workspace.size = n
    return _workspace.bufs


def plan_scenario(central: WaitingTimeDistribution, n_nodes: int,
                  jitter_width: float, d: int, eta: float = 0.1,
                  eps: float = 0.01, eps_ec: float = 0.001,
                  n_outputs: int = 5,
                  sigma_scale: float = 1.0) -> NetworkScenario:
    """Build a symmetric scenario around a central clock.

    The scenario's one EC has dimension d; the nodes have link delays
    near half an EC period, staggered slightly, so the expected first
    arrival sits at phase 0 of the pre-synchronized EC grid.  The period
    is tau = mu / (m + 1/2) for the largest m (at most 64) at which every
    node, with the unscaled window, meets the band rule ``_arrivals_safe``
    that its run is checked against.  ``sigma_scale`` shrinks the EC
    window width without touching anything else.
    """
    if not (_is_count(n_nodes) and n_nodes >= 2):
        raise ValueError("a network needs an integer count of at least 2 "
                         f"nodes, got {n_nodes!r}")
    if not 0.0 <= jitter_width < math.inf:
        raise ValueError("jitter width must be finite and nonnegative")
    if not 0.0 < sigma_scale <= 1.0:
        raise ValueError("sigma_scale must lie in (0, 1]")
    conf = central.confidence(eps)
    jitter = Box(jitter_width, jitter_width) if jitter_width > 0 else None

    def candidate(tau):
        # the unscaled window, so that shrinking the window afterwards
        # never changes the tick grid, and delays staggered over a tenth
        # of its band
        ec = quasi_ideal_params(d, eta, tau, eps_ec)
        off_span = 0.1 * ((tau - ec.sigma) / 2)
        return ec, [tau / 2 + off_span * (i / (n_nodes - 1) - 0.5)
                    for i in range(n_nodes)]

    def all_safe(m, tau):
        ec, delays = candidate(tau)
        return all(_arrivals_safe(conf, ec, delay, jitter)
                   for delay in delays)

    cell = largest_period(conf.mu, 0.5, all_safe, 64)
    if cell is None:
        raise ValueError(
            "no EC period accommodates this central spread and jitter")
    tau = cell[1]
    ec = ExplicitEC(tau, quasi_ideal_ratio(d, eta) * sigma_scale * tau,
                    eps_ec)
    nodes = [NodeConfig(delay=delay, jitter=jitter)
             for delay in candidate(tau)[1]]
    return NetworkScenario(central=central, ec=ec, nodes=tuple(nodes),
                           n_outputs=n_outputs, eps=eps)


def _check_index(k: int):
    """Reject a 0-based tick index that is not an integer >= 0."""
    if not _is_count(k + 1):
        raise ValueError(f"tick index {k!r} must be a nonnegative integer")


def cross_node_spread(traces, k: int, eps: float = 0.0):
    """Spread of the k-th tick (0-based) across nodes; ``traces`` holds
    one sequence of tick times per node.

    Returns (range, trimmed width), where the trimmed width is that of the
    narrowest interval containing at least ceil((1 - eps) n) of the n
    node values.
    """
    _check_index(k)
    if len(traces) == 0:
        raise ValueError("need at least one node trace")
    values = []
    for trace in traces:
        if len(trace) <= k:
            raise ValueError("a trace has too few ticks for this index")
        values.append(trace[k])
    x = np.sort(np.asarray(values, dtype=float))
    m = _coverage_count(x.size, eps)
    widths = x[m - 1:] - x[: x.size - m + 1]
    return float(x[-1] - x[0]), float(widths.min())
