import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ticklab import (Box, Delta, ExplicitEC, NetworkScenario, NodeConfig,
                     cross_node_spread, network_spreads, plan_scenario,
                     run_network, sample_tick_phase, wrap_phase)
from ticklab.network import _BLOCK, _blocks


def oracle_node(arrivals, ec, n_outputs, rng):
    """Dynamics switching over a fixed arrival trace, one fire at a time.

    The EC is not reset at the first arrival: it free-evolved from phase 0
    at time 0.  After each output the EC is reset as usual.
    """
    tau, sigma, eps_tail = ec.tau, ec.sigma, ec.eps_tail
    out = []
    idx = 0
    t_in = arrivals[idx]
    s = wrap_phase(t_in, tau)
    while len(out) < n_outputs:
        phi = sample_tick_phase(tau, sigma, eps_tail, rng)
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
    """Output ticks (nodes, n_outputs) of one trial over a broadcast of
    4 (n_outputs + 2) central ticks, all drawn from ``rng``."""
    waits = scenario.central.sample(rng, 4 * (scenario.n_outputs + 2))
    broadcast = np.cumsum(waits)
    out = []
    for node in scenario.nodes:
        arr = broadcast + node.delay
        if node.jitter is not None:
            arr = arr + node.jitter.sample(rng, arr.size) - node.jitter.mean
        out.append(oracle_node(arr, node.ec, scenario.n_outputs, rng))
    return np.array(out)


def _ideal_ec(tau=1.0):
    return ExplicitEC(tau=tau, sigma=0.0, eps_tail=0.0)


class TestScenarios:
    def test_needs_two_nodes(self):
        with pytest.raises(ValueError):
            NetworkScenario(central=Delta(3.3),
                            nodes=(NodeConfig(delay=0.0, ec=_ideal_ec()),),
                            n_outputs=1)

    def test_needs_common_period(self):
        nodes = (NodeConfig(delay=0.0, ec=_ideal_ec(1.0)),
                 NodeConfig(delay=0.0, ec=_ideal_ec(1.1)))
        with pytest.raises(ValueError):
            NetworkScenario(central=Delta(3.3), nodes=nodes, n_outputs=1)

    def test_detector_band_violation_names_node(self):
        # an arrival at phase tau/2 lands on the detector
        nodes = (NodeConfig(delay=0.0, ec=_ideal_ec(), name="good"),
                 NodeConfig(delay=0.2, ec=_ideal_ec(), name="bad"))
        scenario = NetworkScenario(central=Delta(3.3), nodes=nodes,
                                   n_outputs=1, eps=0.0)
        with pytest.raises(ValueError, match="bad"):
            run_network(scenario, seed=0)


class TestRunNetwork:
    def test_symmetric_deterministic_nodes_coincide(self):
        nodes = (NodeConfig(delay=0.0, ec=_ideal_ec()),
                 NodeConfig(delay=0.0, ec=_ideal_ec()))
        scenario = NetworkScenario(central=Delta(3.3), nodes=nodes,
                                   n_outputs=4, eps=0.0)
        result = run_network(scenario, seed=0)
        assert result.outputs[0] == pytest.approx(result.outputs[1])

    def test_delay_offset_absorbed_by_enhancement(self):
        # raw arrivals differ by exactly the delay offset, but both nodes
        # fire at their (pre-synchronized) detector phase
        delta = 0.05
        nodes = (NodeConfig(delay=0.0, ec=_ideal_ec()),
                 NodeConfig(delay=delta, ec=_ideal_ec()))
        scenario = NetworkScenario(central=Delta(3.3), nodes=nodes,
                                   n_outputs=3, eps=0.0)
        result = run_network(scenario, seed=0)
        raw0, raw1 = result.arrivals
        assert np.allclose(raw1 - raw0, delta)
        out0, out1 = result.outputs
        assert out0 == pytest.approx(out1, abs=1e-12)

    def test_nodes_only_see_their_arrivals(self):
        # adding jitter at one node leaves the other node's trace unchanged
        jitter = Box(center=0.05, width=0.05)
        quiet = NodeConfig(delay=0.05, ec=_ideal_ec(), name="quiet")
        noisy_a = NodeConfig(delay=0.05, ec=_ideal_ec(), name="n",
                             jitter=None)
        noisy_b = NodeConfig(delay=0.05, ec=_ideal_ec(), name="n",
                             jitter=jitter)
        central = Box(3.2, 0.05)
        a = run_network(NetworkScenario(central=central,
                                        nodes=(quiet, noisy_a),
                                        n_outputs=3), seed=4)
        b = run_network(NetworkScenario(central=central,
                                        nodes=(quiet, noisy_b),
                                        n_outputs=3), seed=4)
        assert np.array_equal(a.arrivals[0], b.arrivals[0])


class TestPlanScenario:
    def test_structure(self):
        scenario = plan_scenario(Box(1.0, 0.1), n_nodes=8, jitter_width=0.1,
                                 d=256)
        assert len(scenario.nodes) == 8
        taus = {n.ec.tau for n in scenario.nodes}
        assert len(taus) == 1
        run_network(scenario, seed=0)  # passes the per-node checks

    def test_sigma_scale_only_shrinks_window(self):
        base = plan_scenario(Box(1.0, 0.1), 4, 0.1, 256)
        half = plan_scenario(Box(1.0, 0.1), 4, 0.1, 256, sigma_scale=0.5)
        assert half.nodes[0].ec.tau == base.nodes[0].ec.tau
        assert half.nodes[0].ec.sigma == pytest.approx(
            base.nodes[0].ec.sigma / 2)

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


class TestEngineAgainstOracle:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(min_value=0.05, max_value=5.0),
           st.lists(st.floats(min_value=-0.3, max_value=0.3), min_size=2,
                    max_size=4),
           st.integers(min_value=1, max_value=30))
    def test_delta_central_zero_width_ec(self, mu, phases, n_outputs):
        # node i's first arrival sits at EC phase phases[i]
        delays = [(p - mu) % 1.0 for p in phases]
        nodes = tuple(NodeConfig(delay=d, ec=_ideal_ec()) for d in delays)
        scenario = NetworkScenario(central=Delta(mu), nodes=nodes,
                                   n_outputs=n_outputs, eps=0.0)
        result = run_network(scenario, seed=0)
        rng = np.random.default_rng(1)
        for node, out, arr in zip(nodes, result.outputs, result.arrivals):
            expected = mu * np.arange(1, len(arr) + 1) + node.delay
            assert arr == pytest.approx(expected, rel=1e-12)
            assert out == pytest.approx(
                oracle_node(arr, node.ec, n_outputs, rng), rel=1e-12)

    def test_in_distribution_box_central_with_jitter(self):
        # every node and output column is one KS test; Bonferroni keeps
        # the family-wise error rate at 5 percent
        scenario = plan_scenario(Box(1.0, 0.1), 3, 0.1, 256, n_outputs=4)
        trials = 1500
        engine = np.concatenate(
            [out for out, _ in _blocks(scenario, trials, 2024)])
        rng = np.random.default_rng(2025)
        oracle = np.array([oracle_trial(scenario, rng)
                           for _ in range(trials)])
        alpha = 0.05 / (len(scenario.nodes) * scenario.n_outputs)
        for i in range(len(scenario.nodes)):
            for k in range(scenario.n_outputs):
                p = stats.ks_2samp(engine[:, i, k], oracle[:, i, k]).pvalue
                assert p > alpha, f"node {i} tick {k}: KS p-value {p:.2e}"

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

    def test_run_network_is_a_one_trial_block(self):
        scenario = plan_scenario(Box(1.0, 0.1), 4, 0.1, 256)
        result = run_network(scenario, 6)
        enhanced, raw = network_spreads(scenario, 1, 6, 3)
        assert enhanced[0] == cross_node_spread(result.outputs, 3)[0]
        assert raw[0] == cross_node_spread(result.arrivals, 3)[0]


class TestBroadcast:
    def test_extended_when_outputs_use_several_arrivals(self):
        # five central ticks per EC period: 20 outputs need about 100
        # arrivals, more than the first chunk of broadcast ticks
        nodes = (NodeConfig(delay=0.0, ec=_ideal_ec()),
                 NodeConfig(delay=0.0, ec=_ideal_ec()))
        scenario = NetworkScenario(central=Delta(0.1), nodes=nodes,
                                   n_outputs=20)
        result = run_network(scenario, seed=0)
        for out in result.outputs:
            assert len(out) == 20
            assert np.diff(out) == pytest.approx(np.full(19, 0.5), abs=1e-9)

    def test_reordering_jitter_rejected(self):
        # jitter spans 1.5, more than the shortest central wait of 0.95
        jitter = Box(center=1.0, width=1.5)
        ec = ExplicitEC(tau=4.0, sigma=0.0, eps_tail=0.0)
        nodes = tuple(NodeConfig(delay=3.0, ec=ec, jitter=jitter)
                      for _ in range(2))
        scenario = NetworkScenario(central=Box(1.0, 0.1), nodes=nodes,
                                   n_outputs=3)
        with pytest.raises(ValueError, match="reordered"):
            network_spreads(scenario, 50, 0, 0)

    @pytest.mark.parametrize("trials,k", [(0, 0), (-3, 0), (10, -1),
                                          (10, 5)])
    def test_bad_trial_count_or_tick_rejected(self, trials, k):
        scenario = plan_scenario(Box(1.0, 0.1), 2, 0.1, 256, n_outputs=5)
        with pytest.raises(ValueError):
            network_spreads(scenario, trials, 0, k)
