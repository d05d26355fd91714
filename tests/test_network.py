from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ticklab import (Box, Delta, DeltaMixture, ExplicitEC, Gaussian,
                     NetworkScenario, NodeConfig, cross_node_spread,
                     network_spreads, plan_scenario, quasi_ideal_ratio,
                     run_network, sample_tick_phase, wrap_phase)
from ticklab import network
from ticklab.network import (_BLOCK, _PHASE_MARGIN, _arrivals_safe,
                             _simulate)
from ticklab.protocols import _blocks


def oracle_node(arrivals, ec, n_outputs, rng):
    """Dynamics switching over a fixed arrival trace, one fire at a time.

    The EC is not reset at the first arrival: it free-evolved from phase 0
    at time 0.  After each output the EC is reset as usual.
    """
    tau = ec.tau
    out = []
    idx = 0
    t_in = arrivals[idx]
    s = wrap_phase(t_in, tau)
    while len(out) < n_outputs:
        phi = sample_tick_phase(ec, rng)
        duration = phi - s
        if phi <= s:
            duration += tau
        t_out = t_in + duration
        out.append(t_out)
        while idx < arrivals.size and arrivals[idx] <= t_out:
            idx += 1
        if idx >= arrivals.size:
            if len(out) < n_outputs:
                raise ValueError("broadcast trace exhausted early")
            break
        t_in = arrivals[idx]
        s = wrap_phase(t_in - t_out, tau)
    return np.asarray(out)


def oracle_trial(scenario, rng):
    """Output ticks (nodes, n_outputs) and arrivals (nodes, n) of one
    trial over a broadcast of n = 4 (n_outputs + 2) central ticks, all
    drawn from ``rng``."""
    waits = scenario.central.sample(rng, 4 * (scenario.n_outputs + 2))
    broadcast = np.cumsum(waits)
    out, arrivals = [], []
    for node in scenario.nodes:
        arr = broadcast + node.delay
        if node.jitter is not None:
            arr = arr + node.jitter.sample(rng, arr.size) - node.jitter.mean
        out.append(oracle_node(arr, scenario.ec, scenario.n_outputs, rng))
        arrivals.append(arr)
    return np.array(out), np.array(arrivals)


# trials per engine block in ``_assert_matches_oracle``: fixed here, so
# that its seeded KS families draw the same values whatever the engine's
# own block size ``network._BLOCK`` is
_ORACLE_BLOCK = 512


def _assert_matches_oracle(scenario, trials, seed):
    """Run ``trials`` trials of ``scenario`` in blocks of
    ``_ORACLE_BLOCK`` from ``seed`` and compare every node's outputs, and
    its arrivals at as many ticks, with as many ``oracle_trial`` draws by
    KS.  The outputs and the arrivals are two families; within each,
    Bonferroni keeps the family-wise error rate at 5 percent, so adding
    the arrivals leaves the outputs' threshold as it was.  Returns the
    arrivals of the first block."""
    streams = np.random.SeedSequence(seed).spawn(-(-trials // _ORACLE_BLOCK))
    runs = [_simulate(scenario, seq,
                      min(_ORACLE_BLOCK, trials - b * _ORACLE_BLOCK))
            for b, seq in enumerate(streams)]
    n_out = scenario.n_outputs
    engine = {"output": np.concatenate([out for out, _ in runs]),
              "arrival": np.concatenate([arr[:, :, :n_out]
                                         for _, arr in runs])}
    rng = np.random.default_rng(seed + 1)
    oracle = [oracle_trial(scenario, rng) for _ in range(trials)]
    oracle = {"output": np.array([out for out, _ in oracle]),
              "arrival": np.array([arr[:, :n_out] for _, arr in oracle])}
    alpha = 0.05 / (len(scenario.nodes) * n_out)
    for name, ticks in engine.items():
        for i in range(len(scenario.nodes)):
            for k in range(n_out):
                p = stats.ks_2samp(ticks[:, i, k],
                                   oracle[name][:, i, k]).pvalue
                assert p > alpha, \
                    f"node {i} {name} {k}: KS p-value {p:.2e}"
    return runs[0][1]


def _ideal_ec():
    return ExplicitEC(tau=1.0, sigma=0.0, eps_tail=0.0)


class TestScenarios:
    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            NetworkScenario(central=Delta(3.3), ec=_ideal_ec(),
                            nodes=(NodeConfig(delay=0.0),), n_outputs=1)

    @pytest.mark.parametrize("delay", [-0.1, np.nan, np.inf])
    def test_bad_delay_rejected(self, delay):
        with pytest.raises(ValueError, match="link delay must be finite "
                                             "and nonnegative"):
            NodeConfig(delay=delay)

    def test_jitter_needs_bounded_support(self):
        with pytest.raises(ValueError, match="bounded support"):
            NodeConfig(delay=1.0, jitter=Gaussian(0.1, 0.01))

    def test_jitter_cannot_make_the_delay_negative(self):
        # a jitter of width 0.1, centered, reaches 0.05 below the delay
        NodeConfig(delay=0.06, jitter=Box(0.1, 0.1))
        with pytest.raises(ValueError, match="delay negative"):
            NodeConfig(delay=0.04, jitter=Box(0.1, 0.1))

    def test_detector_band_violation_names_node(self):
        # an arrival at phase tau/2 lands on the detector
        nodes = (NodeConfig(delay=0.0), NodeConfig(delay=0.2))
        with pytest.raises(ValueError, match="node 1: arrivals"):
            NetworkScenario(central=Delta(3.3), ec=_ideal_ec(), nodes=nodes,
                            n_outputs=1, eps=0.0)

    def test_band_rule_checked_once_when_built(self, monkeypatch):
        planned = plan_scenario(Box(1.0, 0.1), 4, 0.1, 256)
        calls = []

        def counting(*args):
            calls.append(args)
            return _arrivals_safe(*args)

        monkeypatch.setattr("ticklab.network._arrivals_safe", counting)
        scenario = NetworkScenario(central=planned.central, ec=planned.ec,
                                   nodes=planned.nodes,
                                   n_outputs=planned.n_outputs)
        assert len(calls) == len(scenario.nodes)
        run_network(scenario, seed=0)
        network_spreads(scenario, _BLOCK + 1, 0, 2)
        assert len(calls) == len(scenario.nodes)


class TestRunNetwork:
    def test_symmetric_deterministic_nodes_coincide(self):
        nodes = (NodeConfig(delay=0.0), NodeConfig(delay=0.0))
        scenario = NetworkScenario(central=Delta(3.3), ec=_ideal_ec(),
                                   nodes=nodes, n_outputs=4, eps=0.0)
        result = run_network(scenario, seed=0)
        assert result.outputs[0] == pytest.approx(result.outputs[1])

    def test_delay_offset_absorbed_by_enhancement(self):
        # raw arrivals differ by exactly the delay offset, but both nodes
        # fire at their (pre-synchronized) detector phase
        delta = 0.05
        nodes = (NodeConfig(delay=0.0), NodeConfig(delay=delta))
        scenario = NetworkScenario(central=Delta(3.3), ec=_ideal_ec(),
                                   nodes=nodes, n_outputs=3, eps=0.0)
        result = run_network(scenario, seed=0)
        raw0, raw1 = result.arrivals
        assert np.allclose(raw1 - raw0, delta)
        out0, out1 = result.outputs
        assert out0 == pytest.approx(out1, abs=1e-12)

    def test_nodes_only_see_their_arrivals(self):
        # adding jitter at one node leaves the other node's whole arrival
        # row unchanged, with the quiet node first or last, the chunks
        # that extend the broadcast included: central waits near 0.3
        # against an EC of period 1 use up more than the first chunk of
        # n_outputs ticks
        jitter = Box(center=0.05, width=0.05)
        quiet = NodeConfig(delay=0.7)
        central = Box(0.3, 0.05)
        for quiet_at in (0, 1):
            rows = []
            for other in (NodeConfig(delay=0.7),
                          NodeConfig(delay=0.7, jitter=jitter)):
                nodes = [other]
                nodes.insert(quiet_at, quiet)
                result = run_network(NetworkScenario(
                    central=central, ec=_ideal_ec(), nodes=nodes,
                    n_outputs=5), seed=4)
                rows.append(result.arrivals[quiet_at])
            assert rows[0].size > 5 + 2
            assert np.array_equal(rows[0], rows[1])


def _plan_scan(mu, sigma, jitter_width, ratio):
    """Slow reference for the period of ``plan_scenario``: the downward
    scan over m = 64..1 that the bisection replaced.  Returns (tau,
    off_span) for the first m whose band fits, or None."""
    for m in range(64, 0, -1):
        tau = mu / (m + 0.5)
        band = (tau - ratio * tau) / 2
        off_span = 0.1 * band
        if sigma / 2 + jitter_width / 2 + off_span / 2 \
                <= _PHASE_MARGIN * band:
            return tau, off_span
    return None


class TestPlanScenario:
    def test_period_matches_scan(self):
        taus = set()
        for mu in (0.3, 1.0, 2.7, 10.0):
            for width in np.linspace(0.01, 0.6, 12) * mu:
                central = Box(mu, width)
                conf = central.confidence(0.01)
                for jitter in np.array([0.0, 0.001, 0.01, 0.05, 0.1]) * mu:
                    for d in (2, 16, 256, 4096):
                        expected = _plan_scan(conf.mu, conf.sigma, jitter,
                                              quasi_ideal_ratio(d, 0.1))
                        if expected is None:
                            with pytest.raises(ValueError,
                                               match="no EC period"):
                                plan_scenario(central, 3, jitter, d)
                            taus.add(None)
                            continue
                        tau, off_span = expected
                        scenario = plan_scenario(central, 3, jitter, d)
                        assert scenario.ec.tau == tau
                        assert [n.delay for n in scenario.nodes] == [
                            tau / 2 - off_span / 2, tau / 2,
                            tau / 2 + off_span / 2]
                        taus.add(round(mu / tau - 0.5))
        # the grid reaches the cap and the empty plan
        assert {64, None} <= taus

    @pytest.mark.parametrize("jitter_width", [-0.1, np.nan, np.inf])
    def test_bad_jitter_width_rejected(self, jitter_width):
        with pytest.raises(ValueError, match="jitter width"):
            plan_scenario(Box(1.0, 0.1), 3, jitter_width, 256)

    @pytest.mark.parametrize("sigma_scale", [0.0, -0.5, 1.5, np.nan])
    def test_bad_sigma_scale_rejected(self, sigma_scale):
        with pytest.raises(ValueError,
                           match=r"sigma_scale must lie in \(0, 1\]"):
            plan_scenario(Box(1.0, 0.1), 3, 0.1, 256,
                          sigma_scale=sigma_scale)

    def test_structure(self):
        scenario = plan_scenario(Box(1.0, 0.1), n_nodes=8, jitter_width=0.1,
                                 d=256)
        assert len(scenario.nodes) == 8
        run_network(scenario, seed=0)  # passes the per-node checks

    def test_sigma_scale_only_shrinks_window(self):
        base = plan_scenario(Box(1.0, 0.1), 4, 0.1, 256)
        half = plan_scenario(Box(1.0, 0.1), 4, 0.1, 256, sigma_scale=0.5)
        assert half.ec.tau == base.ec.tau
        assert half.ec.sigma == pytest.approx(base.ec.sigma / 2)

    def test_enhancement_beats_raw_spread(self):
        scenario = plan_scenario(Box(1.0, 0.1), 8, 0.1, 256, n_outputs=5)
        enhanced, raw = [], []
        for seed in range(40):
            result = run_network(scenario, seed)
            enhanced.append(cross_node_spread(result.outputs, 4)[0])
            raw.append(cross_node_spread(result.arrivals, 4)[0])
        assert np.median(enhanced) < np.median(raw)


class TestCrossNodeSpread:
    def test_identical_traces(self):
        t = [1.0, 2.0, 3.0]
        assert cross_node_spread(np.array([t, t, t]), 1) == (0.0, 0.0)

    def test_constant_offset(self):
        rng, trimmed = cross_node_spread(np.array([[1.0, 2.0],
                                                   [1.3, 2.3]]), 1)
        assert rng == pytest.approx(0.3)
        assert trimmed == pytest.approx(0.3)

    def test_permutation_invariant(self):
        traces = [[1.0 + 0.01 * i] for i in range(5)]
        fwd = cross_node_spread(traces, 0, eps=0.2)
        rev = cross_node_spread(traces[::-1], 0, eps=0.2)
        assert fwd == rev

    def test_trim_drops_outlier(self):
        traces = [[1.0 + 0.01 * i] for i in range(4)] + [[9.0]]
        rng, trimmed = cross_node_spread(traces, 0, eps=0.2)
        assert rng == pytest.approx(8.0)
        assert trimmed == pytest.approx(0.03)

    def test_insufficient_ticks(self):
        with pytest.raises(ValueError):
            cross_node_spread(np.array([[1.0], [1.0]]), 1)

    def test_negative_tick_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            cross_node_spread(np.array([[1.0, 2.0], [1.1, 2.5]]), -1)

    @pytest.mark.parametrize("traces", [[], np.empty((0, 3))],
                             ids=["list", "array"])
    def test_no_trace_rejected(self, traces):
        with pytest.raises(ValueError, match="at least one node trace"):
            cross_node_spread(traces, 0)


class TestEngineAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.05, max_value=5.0),
           st.lists(st.floats(min_value=-0.3, max_value=0.3), min_size=2,
                    max_size=4),
           st.integers(min_value=1, max_value=30))
    def test_delta_central_zero_width_ec(self, mu, phases, n_outputs):
        # node i's first arrival sits at EC phase phases[i]
        delays = [(p - mu) % 1.0 for p in phases]
        nodes = tuple(NodeConfig(delay=d) for d in delays)
        scenario = NetworkScenario(central=Delta(mu), ec=_ideal_ec(),
                                   nodes=nodes, n_outputs=n_outputs, eps=0.0)
        result = run_network(scenario, seed=0)
        rng = np.random.default_rng(1)
        for node, out, arr in zip(nodes, result.outputs, result.arrivals):
            expected = mu * np.arange(1, len(arr) + 1) + node.delay
            assert arr == pytest.approx(expected, rel=1e-12)
            assert out == pytest.approx(
                oracle_node(arr, scenario.ec, n_outputs, rng), rel=1e-12)

    def test_in_distribution_box_central_with_jitter(self):
        scenario = plan_scenario(Box(1.0, 0.1), 3, 0.1, 256, n_outputs=4)
        _assert_matches_oracle(scenario, 1500, 2024)

    def test_in_distribution_mixed_jitter(self):
        # one node without jitter and two with different Box laws; central
        # waits near 0.3 against an EC of period 1, so the outputs use up
        # more than the first chunk of broadcast ticks
        ec = ExplicitEC(tau=1.0, sigma=0.1, eps_tail=0.001)
        nodes = (NodeConfig(delay=0.7),
                 NodeConfig(delay=0.68, jitter=Box(0.05, 0.04)),
                 NodeConfig(delay=0.72, jitter=Box(0.2, 0.1)))
        scenario = NetworkScenario(central=Box(0.3, 0.05), ec=ec,
                                   nodes=nodes, n_outputs=5)
        arr = _assert_matches_oracle(scenario, 1500, 7)
        assert arr.shape[2] > scenario.n_outputs + 2

    def test_steps_past_one_or_several_arrivals(self):
        # central waits of 0.2 to 0.4 against an EC of period 1: the
        # first output steps some nodes past one arrival and others past
        # several, and six outputs outrun the first chunk of broadcast
        # ticks; a zero-width EC without tail makes every fire exact
        ec = _ideal_ec()
        nodes = tuple(NodeConfig(delay=0.7 + off) for off in (-0.2, 0, 0.2))
        scenario = NetworkScenario(central=Box(0.3, 0.2), ec=ec, nodes=nodes,
                                   n_outputs=6, eps=0.0)
        out, arr = _simulate(scenario, np.random.SeedSequence(3).spawn(1)[0],
                             40)
        steps = (arr <= out[:, :, :1]).sum(axis=2)
        assert steps.min() == 1 and steps.max() >= 3
        assert arr.shape[2] > scenario.n_outputs + 2
        rng, n_out = np.random.default_rng(0), scenario.n_outputs
        for trial_out, trial_arr in zip(out, arr):
            for node_out, node_arr in zip(trial_out, trial_arr):
                assert np.array_equal(
                    node_out, oracle_node(node_arr, ec, n_out, rng))

    def test_repeats_are_bit_identical(self):
        scenario = plan_scenario(Box(1.0, 0.1), 4, 0.1, 256)
        first = network_spreads(scenario, _BLOCK + 5, 11, 4)
        again = network_spreads(scenario, _BLOCK + 5, 11, 4)
        longer = network_spreads(scenario, 2 * _BLOCK + 3, 11, 4)
        for a, b, c in zip(first, again, longer):
            assert np.array_equal(a, b)
            # full blocks do not depend on the trial count
            assert np.array_equal(a[:_BLOCK], c[:_BLOCK])
        one = run_network(scenario, 11)
        assert np.array_equal(one.outputs[2],
                              run_network(scenario, 11).outputs[2])

    def test_spreads_do_not_depend_on_the_block_size(self, monkeypatch):
        # the default CLI scenario at 128- and at 512-trial blocks; the
        # seeds differ, since the first block of either size starts from
        # the same streams.  Two KS tests at family-wise 5 percent
        scenario = plan_scenario(Box(1.0, 0.1), 8, 0.1, 256)
        runs = []
        for block, seed in ((128, 1), (512, 2)):
            monkeypatch.setattr(network, "_BLOCK", block)
            runs.append(network_spreads(scenario, 2048, seed, 4))
        for name, small, large in zip(("enhanced", "raw"), *runs):
            p = stats.ks_2samp(small, large).pvalue
            assert p > 0.05 / 2, f"{name} spread: KS p-value {p:.2e}"

    def test_run_network_is_a_one_trial_block(self):
        scenario = plan_scenario(Box(1.0, 0.1), 4, 0.1, 256)
        result = run_network(scenario, 6)
        enhanced, raw = network_spreads(scenario, 1, 6, 3)
        assert enhanced[0] == cross_node_spread(result.outputs, 3)[0]
        assert raw[0] == cross_node_spread(result.arrivals, 3)[0]


def _mixed_lag_scenario(n_outputs):
    # central waits of 0.55 to 0.65 against a zero-width EC of period 1
    # without tail, so every fire is exact.  First arrivals near phases
    # 0.2, -0.05 and -0.3: node 0's first output comes before its second
    # arrival, node 2's after it, node 1's either side
    nodes = tuple(NodeConfig(delay=d) for d in (0.6, 0.35, 0.1))
    return NetworkScenario(central=Box(0.6, 0.1), ec=_ideal_ec(),
                           nodes=nodes, n_outputs=n_outputs, eps=0.0)


def _assert_rows_match_oracle(out, arr, scenario):
    rng = np.random.default_rng(0)  # the fires draw nothing that counts
    for trial_out, trial_arr in zip(out, arr):
        for node_out, node_arr in zip(trial_out, trial_arr):
            assert np.array_equal(node_out, oracle_node(
                node_arr, scenario.ec, scenario.n_outputs, rng))


class TestLagPaths:
    """A block reads each input tick as one plane of the arrivals until
    some row lags past it, and from then on row by row; both paths, and
    the chunks added to the arrivals, must agree with the scalar oracle
    bit for bit."""

    @pytest.mark.parametrize("n_outputs", [2, 12],
                             ids=["one-step", "twelve-outputs"])
    def test_block_rows_match_oracle(self, n_outputs):
        scenario = _mixed_lag_scenario(n_outputs)
        out, arr = _simulate(scenario, next(_blocks(1, 21, _BLOCK))[1], 300)
        # the input of output 1 is arrival 1 of every node-0 row and a
        # later one of every node-2 row
        steps = (arr <= out[:, :, :1]).sum(axis=2)
        assert (steps[:, 0] == 1).all() and (steps[:, 2] >= 2).all()
        assert set(steps[:, 1].tolist()) == {1, 2}
        # a lagging row's last input lies past the first chunk
        assert arr.shape[2] > n_outputs
        _assert_rows_match_oracle(out, arr, scenario)

    @pytest.mark.parametrize("n_outputs", [2, 12],
                             ids=["one-step", "twelve-outputs"])
    def test_one_trial_runs_match_oracle(self, n_outputs):
        # trial by trial: each seed's one-trial block, whose nodes lag
        # at output 1 or not, against the oracle and network_spreads
        scenario = _mixed_lag_scenario(n_outputs)
        for seed in range(12):
            result = run_network(scenario, seed)
            _assert_rows_match_oracle(result.outputs[None],
                                      result.arrivals[None], scenario)
            for k in (0, n_outputs - 1):
                enhanced, raw = network_spreads(scenario, 1, seed, k)
                assert enhanced[0] == np.ptp(result.outputs[:, k])
                assert raw[0] == np.ptp(result.arrivals[:, k])


def _fresh_spreads(scenario, trials, seed, k):
    """``network_spreads`` from one fresh ``_simulate`` call per block of
    ``_blocks``' streams, none of which shares a buffer."""
    enhanced, raw = np.empty(trials), np.empty(trials)
    for rows, seq in _blocks(trials, seed, _BLOCK):
        out, arr = _simulate(scenario, seq, rows.stop - rows.start)
        enhanced[rows] = np.ptp(out[:, :, k], axis=1)
        raw[rows] = np.ptp(arr[:, :, k], axis=1)
    return enhanced, raw


def _assert_spreads_equal(got, expected):
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def _lagging_scenario():
    # central ticks every 0.1 against an EC of period 1: every output
    # steps over several arrivals, so the arrivals grow by chunks
    ec = ExplicitEC(tau=1.0, sigma=0.1, eps_tail=0.001)
    nodes = (NodeConfig(delay=0.05, jitter=Box(0.02, 0.02)),
             NodeConfig(delay=0.1),
             NodeConfig(delay=0.15, jitter=Box(0.02, 0.02)))
    return NetworkScenario(central=Delta(0.1), ec=ec, nodes=nodes,
                           n_outputs=20)


class TestReusedBuffers:
    """``network_spreads`` runs its blocks in this thread's buffers, kept
    between calls; it must give the spreads of fresh arrays bit for bit."""

    def test_full_blocks_and_a_partial_one(self):
        scenario = plan_scenario(Box(1.0, 0.1), 8, 0.1, 256)
        trials = 2 * _BLOCK + 300
        _assert_spreads_equal(network_spreads(scenario, trials, 3, 4),
                              _fresh_spreads(scenario, trials, 3, 4))

    @pytest.mark.parametrize("k", [0, 19])
    def test_arrivals_extended_by_chunks(self, k):
        scenario = _lagging_scenario()
        _, arr = _simulate(scenario, next(_blocks(1, 5, _BLOCK))[1], _BLOCK)
        assert arr.shape[2] > 2 * scenario.n_outputs
        trials = _BLOCK + 77
        _assert_spreads_equal(network_spreads(scenario, trials, 5, k),
                              _fresh_spreads(scenario, trials, 5, k))

    @pytest.mark.parametrize("large", [
        lambda: plan_scenario(Box(1.0, 0.1), 3, 0.1, 256, n_outputs=30),
        lambda: plan_scenario(Box(1.0, 0.1), 12, 0.1, 256),
    ], ids=["more-outputs", "more-nodes"])
    def test_a_larger_call_between_two_small_ones(self, large):
        small = plan_scenario(Box(1.0, 0.1), 3, 0.1, 256)
        large = large()
        trials = _BLOCK + 40
        first = network_spreads(small, trials, 8, 2)
        kept = [a.copy() for a in first]
        between = network_spreads(large, trials, 9, 4)
        again = network_spreads(small, trials, 8, 2)
        _assert_spreads_equal(first, kept)  # results own their memory
        _assert_spreads_equal(again, kept)
        _assert_spreads_equal(kept, _fresh_spreads(small, trials, 8, 2))
        _assert_spreads_equal(between, _fresh_spreads(large, trials, 9, 4))
        # only the most recent call's block-sized buffers are kept
        size = small.n_outputs * len(small.nodes) * _BLOCK
        assert [b.size for b in network._workspace.bufs] == [size, size]

    def test_run_network_result_unchanged_by_a_later_call(self):
        scenario = plan_scenario(Box(1.0, 0.1), 4, 0.1, 256)
        result = run_network(scenario, 6)
        outputs, arrivals = result.outputs.copy(), result.arrivals.copy()
        network_spreads(scenario, _BLOCK + 1, 6, 3)
        assert np.array_equal(result.outputs, outputs)
        assert np.array_equal(result.arrivals, arrivals)

    def test_each_thread_has_its_own_buffers(self):
        # two threads run both scenarios at once, in opposite orders
        cases = [(plan_scenario(Box(1.0, 0.1), 8, 0.1, 256), 4),
                 (_lagging_scenario(), 19)]
        expected = [_fresh_spreads(s, _BLOCK + 9, 2, k) for s, k in cases]

        def run(order):
            return [network_spreads(cases[i][0], _BLOCK + 9, 2, cases[i][1])
                    for i in order]

        orders = ([0, 1, 0, 1], [1, 0, 1, 0])
        with ThreadPoolExecutor(2) as pool:
            runs = list(pool.map(run, orders))
        for order, got in zip(orders, runs):
            for i, spreads in zip(order, got):
                _assert_spreads_equal(spreads, expected[i])


class TestExactRelations:
    @pytest.mark.parametrize("c", [2.0, 0.5])
    def test_time_unit_scales_both_spreads(self, c):
        # every time in the scenario times a power of two: every spread
        # scales by exactly c
        def scenario(c):
            return plan_scenario(Box(c, 0.1 * c), 8, 0.1 * c, 256,
                                 n_outputs=20)

        unit, scaled = scenario(1.0), scenario(c)
        for k in (0, 4, 19):
            for a, b in zip(network_spreads(unit, 3000, 7, k),
                            network_spreads(scaled, 3000, 7, k)):
                assert np.array_equal(c * a, b)

    def test_shared_delay_without_jitter_has_no_raw_spread(self):
        planned = plan_scenario(Box(1.0, 0.1), 4, 0.0, 256, n_outputs=20)
        nodes = (NodeConfig(delay=planned.nodes[0].delay),) * 4
        scenario = NetworkScenario(central=planned.central, ec=planned.ec,
                                   nodes=nodes, n_outputs=20)
        for k in range(scenario.n_outputs):
            enhanced, raw = network_spreads(scenario, _BLOCK + 50, 4, k)
            assert (raw == 0.0).all()
            assert (enhanced > 0.0).any()  # the ECs fire independently


class TestBroadcast:
    def test_extended_when_outputs_use_several_arrivals(self):
        # five central ticks per EC period: 20 outputs need about 100
        # arrivals, more than the first chunk of broadcast ticks
        nodes = (NodeConfig(delay=0.0), NodeConfig(delay=0.0))
        scenario = NetworkScenario(central=Delta(0.1), ec=_ideal_ec(),
                                   nodes=nodes, n_outputs=20)
        result = run_network(scenario, seed=0)
        for out in result.outputs:
            assert len(out) == 20
            assert np.diff(out) == pytest.approx(np.full(19, 0.5), abs=1e-9)

    def test_extended_on_a_full_block(self):
        # the scenario above on every trial of one full block, each of
        # which needs several chunks of broadcast ticks
        nodes = (NodeConfig(delay=0.0), NodeConfig(delay=0.0))
        scenario = NetworkScenario(central=Delta(0.1), ec=_ideal_ec(),
                                   nodes=nodes, n_outputs=20)
        out, arr = _simulate(scenario, np.random.SeedSequence(0).spawn(1)[0],
                             _BLOCK)
        assert out.shape == (_BLOCK, 2, 20)
        assert arr.shape[2] > 4 * (scenario.n_outputs + 2)
        np.testing.assert_allclose(np.diff(out, axis=2), 0.5, rtol=0,
                                   atol=1e-9)

    @pytest.mark.parametrize("n_outputs", [1, 5])
    def test_block_without_lag_draws_one_chunk(self, n_outputs):
        # central waits near 1 against an EC period below 1: each output
        # comes before the next arrival, so output k's input is arrival k
        scenario = plan_scenario(Box(1.0, 0.1), 8, 0.1, 256,
                                 n_outputs=n_outputs)
        out, arr = _simulate(scenario, np.random.SeedSequence(5).spawn(1)[0],
                             _BLOCK)
        assert arr.shape == (_BLOCK, 8, n_outputs)
        assert (arr[:, :, 1:] > out[:, :, :-1]).all()

    @pytest.mark.parametrize("central,delays,n_outputs", [
        (Delta(0.1), (0.0, 0.0), 20),
        (Box(0.3, 0.2), (0.5, 0.7, 0.9), 6),
    ], ids=["delta", "box"])
    def test_lagging_block_grows_by_chunks_of_n_outputs(self, central,
                                                        delays, n_outputs):
        # the last output's input is the first arrival after the output
        # before it; the broadcast grows a chunk of n_outputs ticks at a
        # time until it holds that arrival
        nodes = tuple(NodeConfig(delay=d) for d in delays)
        scenario = NetworkScenario(central=central, ec=_ideal_ec(),
                                   nodes=nodes, n_outputs=n_outputs, eps=0.0)
        out, arr = _simulate(scenario, np.random.SeedSequence(3).spawn(1)[0],
                             _BLOCK)
        last_input = (arr <= out[:, :, -2:-1]).sum(axis=2).max()
        assert last_input >= n_outputs  # some node lags
        assert arr.shape[2] == n_outputs * (last_input // n_outputs + 1)

    def test_arrivals_are_broadcast_plus_delay_plus_centred_jitter(self):
        # each plane is one add, so a jittered node's sum is rounded in
        # another order than the reference's: a few ulps apart
        nodes = (NodeConfig(delay=0.68, jitter=Box(0.05, 0.04)),
                 NodeConfig(delay=0.7),
                 NodeConfig(delay=0.72, jitter=Box(0.2, 0.1)))
        scenario = NetworkScenario(central=Box(0.3, 0.05),
                                   ec=ExplicitEC(1.0, 0.1, 0.001),
                                   nodes=nodes, n_outputs=5)
        broadcast = np.cumsum(scenario.central.sample(
            np.random.default_rng(9), (40, 300)), axis=0)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        arr = network._arrivals(broadcast, scenario, rng)
        assert arr.shape == (40, 3, 300)
        for i, node in enumerate(nodes):
            expected = broadcast + node.delay
            if node.jitter is None:
                assert np.array_equal(arr[:, i], expected)
                continue
            expected += (node.jitter.sample(twin, broadcast.shape)
                         - node.jitter.mean)
            np.testing.assert_array_max_ulp(arr[:, i], expected, maxulp=2)
        assert rng.random() == twin.random()

    def test_arrivals_equal_node_by_node_draws(self):
        # runs of nodes that share a jitter law, broken by an unjittered
        # node and by other laws: every plane equals the node-by-node
        # reference on a twin stream exactly, and both streams end at
        # the same position
        a, b = Box(0.05, 0.04), Box(0.2, 0.1)
        mixture = DeltaMixture(((0.02, 0.3), (0.05, 0.5), (0.09, 0.2)))
        laws = (a, a, None, a, b, mixture, Delta(0.03))
        nodes = tuple(NodeConfig(delay=0.66 + 0.01 * i, jitter=law)
                      for i, law in enumerate(laws))
        scenario = NetworkScenario(central=Box(0.3, 0.05),
                                   ec=ExplicitEC(1.0, 0.1, 0.001),
                                   nodes=nodes, n_outputs=5)
        broadcast = np.cumsum(scenario.central.sample(
            np.random.default_rng(9), (40, 300)), axis=0)
        rng, twin = np.random.default_rng(8), np.random.default_rng(8)
        arr = network._arrivals(broadcast, scenario, rng)
        assert arr.shape == (40, len(nodes), 300)
        for i, node in enumerate(nodes):
            lag = node.delay
            if node.jitter is not None:
                lag = node.jitter.sample(twin, broadcast.shape)
                lag += node.delay - node.jitter.mean
            assert np.array_equal(arr[:, i], broadcast + lag), i
        assert rng.random() == twin.random()

    def test_reordering_jitter_rejected(self):
        # jitter spans 1.5, more than the shortest central wait of 0.95
        jitter = Box(center=1.0, width=1.5)
        ec = ExplicitEC(tau=4.0, sigma=0.0, eps_tail=0.0)
        nodes = tuple(NodeConfig(delay=3.0, jitter=jitter)
                      for _ in range(2))
        scenario = NetworkScenario(central=Box(1.0, 0.1), ec=ec, nodes=nodes,
                                   n_outputs=3)
        with pytest.raises(ValueError, match="reordered"):
            network_spreads(scenario, 50, 0, 0)

    def test_step_loop_ends_on_unsorted_arrivals(self):
        # jitter spans five central waits, so every output steps over
        # reordered arrivals and the broadcast is extended many times
        jitter = Box(center=3.0, width=5.0)
        ec = ExplicitEC(tau=10.0, sigma=0.0, eps_tail=0.0)
        nodes = tuple(NodeConfig(delay=9.0, jitter=jitter)
                      for _ in range(2))
        scenario = NetworkScenario(central=Box(1.0, 0.1), ec=ec, nodes=nodes,
                                   n_outputs=30)
        with pytest.raises(ValueError, match="reordered"):
            network_spreads(scenario, 20, 0, 0)

    @pytest.mark.parametrize("trials,k", [(0, 0), (-3, 0), (10, -1),
                                          (10, 5), (2.5, 0), (10.0, 0),
                                          (np.nan, 0), (10, 0.5),
                                          (10, np.nan)])
    def test_bad_trial_count_or_tick_rejected(self, trials, k):
        scenario = plan_scenario(Box(1.0, 0.1), 2, 0.1, 256, n_outputs=5)
        with pytest.raises(ValueError):
            network_spreads(scenario, trials, 0, k)

    @pytest.mark.parametrize("build", [
        lambda: plan_scenario(Box(1.0, 0.1), 2.5, 0.1, 256),
        lambda: plan_scenario(Box(1.0, 0.1), 2, 0.1, 256, n_outputs=2.5),
        lambda: plan_scenario(Box(1.0, 0.1), 2, 0.1, 256, n_outputs=np.nan),
        lambda: cross_node_spread([[1.0, 2.0], [1.1, 2.1]], 0.5),
    ], ids=["n_nodes", "n_outputs", "n_outputs-nan", "cross_node_spread"])
    def test_bad_count_rejected(self, build):
        with pytest.raises(ValueError, match="integer"):
            build()
