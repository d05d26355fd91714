import numpy as np
import pytest

from ticklab import (Box, Delta, ExplicitEC, Protocol, ProtocolConfig,
                     QuasiIdealSpec, choose_period_feedback,
                     choose_period_no_feedback, corollary_bounds,
                     ec_bar_sigma, monte_carlo, output_epsilon_budget,
                     prepare, theorem1_bound, theorem2_bound, theorem_bound)
from ticklab.protocols import _simulate

BOX_THIRD = Box(center=1.0, width=0.3333333333)


class TestPeriodChoosers:
    def test_no_feedback_examples(self):
        assert choose_period_no_feedback(1.0, 0.2, 1) == (4, pytest.approx(1 / 4.5))
        assert choose_period_no_feedback(1.0, 0.5, 1) == (1, pytest.approx(1 / 1.5))

    def test_no_feedback_bracket(self):
        for sigma in (0.05, 0.11, 0.23, 0.4):
            for j in (1, 2):
                if j * sigma >= 2 / 3:
                    continue
                m, tau = choose_period_no_feedback(1.0, sigma, j)
                assert 1 / (m + 1.5) <= j * sigma < 1 / (m + 0.5)
                assert tau == pytest.approx(1.0 / (m + 0.5))

    def test_no_feedback_cap_and_errors(self):
        m, tau = choose_period_no_feedback(1.0, 0.0, 1)
        assert m == 10 ** 6
        with pytest.raises(ValueError):
            choose_period_no_feedback(1.0, 0.7, 1)
        with pytest.raises(ValueError):
            choose_period_no_feedback(1.0, 0.2, 4)

    def test_feedback_examples(self):
        assert choose_period_feedback(1.0, 0.2) == (4, pytest.approx(0.25))
        assert choose_period_feedback(1.0, 0.11) == (9, pytest.approx(1 / 9))
        # sigma = mu / (m + 1) sits on the closed lower edge of the m-cell
        assert choose_period_feedback(1.0, 0.5) == (1, pytest.approx(1.0))

    def test_brackets_on_grid(self):
        # the cell edges mu_in / (k + 3/2) and mu_in / (k + 1) are on the
        # grid, where rounding decides the cell
        for mu_in in (0.3, 1.0, 2.7, 10.0):
            grid = [mu_in / (k + 1.5) for k in range(1, 30)] \
                + [mu_in / (k + 1) for k in range(1, 30)] \
                + list(np.linspace(0.01, 0.99, 50) * mu_in)
            for x in grid:
                for j in range(1, 6):
                    sigma_in = x / j
                    js = j * sigma_in
                    if js >= 2 * mu_in / 3 or sigma_in >= 2 * mu_in / 3:
                        with pytest.raises(ValueError):
                            choose_period_no_feedback(mu_in, sigma_in, j)
                        continue
                    m, tau = choose_period_no_feedback(mu_in, sigma_in, j)
                    assert mu_in / (m + 1.5) <= js * (1 + 1e-12)
                    assert js < mu_in / (m + 0.5)
                    assert tau == pytest.approx(mu_in / (m + 0.5))
                m, tau = choose_period_feedback(mu_in, x)
                assert mu_in / (m + 1) <= x * (1 + 1e-12)
                assert x < mu_in / m * (1 + 1e-12)
                assert tau == pytest.approx(mu_in / m)

    def test_feedback_bracket_and_errors(self):
        for sigma in (0.07, 0.13, 0.29, 0.6):
            m, tau = choose_period_feedback(1.0, sigma)
            assert 1 / (m + 1) <= sigma < 1 / m
        with pytest.raises(ValueError):
            choose_period_feedback(1.0, 1.0)


class TestBoundFormulas:
    def test_theorem1(self):
        assert theorem1_bound(0.33, 0.04, 1) == pytest.approx(0.011)
        assert theorem1_bound(0.0, 0.04, 5) == 0.0
        assert theorem1_bound(0.1, 0.04, 2) == pytest.approx(
            4 * theorem1_bound(0.1, 0.04, 1))
        with pytest.raises(ValueError):
            theorem1_bound(0.7, 0.04, 1)
        with pytest.raises(ValueError):
            theorem1_bound(0.33, 0.04, 3)

    def test_theorem2(self):
        assert theorem2_bound(0.33, 0.04) == pytest.approx(0.0132)
        assert theorem2_bound(0.0, 0.04) == 0.0
        assert theorem2_bound(0.33, 1.0) == pytest.approx(0.33)
        with pytest.raises(ValueError):
            theorem2_bound(1.0, 0.04)

    def test_corollaries(self):
        nf, fb = corollary_bounds(0.33, 100, 0.1, 1)
        assert nf == pytest.approx(0.00872, abs=1e-5)
        assert fb == pytest.approx(0.01046, abs=1e-5)
        # consistency with the theorem bounds at bar_sigma = 2 / d^(1-nu)
        bar = 2.0 / 100 ** 0.9
        assert nf == pytest.approx(theorem1_bound(0.33, bar, 1))
        assert fb == pytest.approx(theorem2_bound(0.33, bar))
        # each corollary holds exactly where its theorem does
        assert corollary_bounds(0.33, 100, 0.1, 2)[1] is None
        assert corollary_bounds(0.33, 100, 0.1, 3) == (None, None)
        assert corollary_bounds(0.0, 100, 0.1, 1) == (0.0, 0.0)
        with pytest.raises(ValueError):
            corollary_bounds(0.33, 1, 0.1, 1)
        with pytest.raises(ValueError):
            corollary_bounds(0.33, 100, 1.0, 1)

    @pytest.mark.parametrize("protocol, sigma_in, j, expected", [
        # theorem 1 holds for every j at sigma_in = 0 ...
        (Protocol.DYN_SWITCH, 0.0, 1, 0.0),
        (Protocol.DYN_SWITCH, 0.0, 100, 0.0),
        # ... and below j = 2 / (3 sigma_in) otherwise (2.02 at 0.33)
        (Protocol.DYN_SWITCH, 0.33, 1, 5 / 6 * 0.33 * 0.04),
        (Protocol.DYN_SWITCH, 0.33, 2, 5 * 4 / 6 * 0.33 * 0.04),
        (Protocol.DYN_SWITCH, 0.33, 3, None),
        (Protocol.DYN_SWITCH, 1 / 3, 1, 5 / 6 / 3 * 0.04),
        (Protocol.DYN_SWITCH, 1 / 3, 2, None),     # j at the limit itself
        (Protocol.DYN_SWITCH, 2 / 3, 1, None),
        (Protocol.DYN_SWITCH, 1.0, 1, None),
        # theorem 2 bounds the single i.i.d. gap, below sigma_in = 1
        (Protocol.DYN_SWITCH_FEEDBACK, 0.0, 1, 0.0),
        (Protocol.DYN_SWITCH_FEEDBACK, 0.33, 1, 0.33 * 0.04),
        (Protocol.DYN_SWITCH_FEEDBACK, 0.33, 2, None),
        (Protocol.DYN_SWITCH_FEEDBACK, 0.0, 5, None),
        (Protocol.DYN_SWITCH_FEEDBACK, 2 / 3, 1, 2 / 3 * 0.04),
        (Protocol.DYN_SWITCH_FEEDBACK, 0.9, 1, 0.9 * 0.04),
        (Protocol.DYN_SWITCH_FEEDBACK, 1.0, 1, None),
        (Protocol.DYN_SWITCH_FEEDBACK, 1.5, 1, None),
        # no theorem covers the bunching protocols
        (Protocol.INPUT_BUNCH, 0.0, 1, None),
        (Protocol.INPUT_BUNCH, 0.33, 3, None),
        (Protocol.EC_BUNCH, 0.0, 1, None),
        (Protocol.EC_BUNCH, 0.33, 1, None),
    ])
    def test_theorem_bound(self, protocol, sigma_in, j, expected):
        bound = theorem_bound(protocol, sigma_in, 0.04, j)
        if expected is None:
            assert bound is None
        else:
            assert bound == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_theorem_bound_rejects_bad_arguments(self):
        for protocol in Protocol:
            with pytest.raises(ValueError):
                theorem_bound(protocol, -0.1, 0.04, 1)
            with pytest.raises(ValueError):
                theorem_bound(protocol, 0.33, 0.04, 0)
        # the bunching protocols have no switchable EC to pass
        assert theorem_bound(Protocol.EC_BUNCH, 0.33, None, 1) is None

    def test_ec_bar_sigma(self):
        assert ec_bar_sigma(0.1, 2.0) == pytest.approx(0.1)
        assert ec_bar_sigma(0.5, 1.0) == pytest.approx(1.0)
        with pytest.raises(ValueError):
            ec_bar_sigma(1.0, 1.0)

    def test_epsilon_budget(self):
        assert output_epsilon_budget(0.01, 0.001, 1) == pytest.approx(0.012)
        assert output_epsilon_budget(0.0, 0.0, 7) == 0.0
        assert output_epsilon_budget(0.5, 0.5, 9) == 1.0


def _delta_prep(protocol, mu_in=1.0, tau=0.2, n_ticks=5, **kw):
    cfg = ProtocolConfig(protocol=protocol, input_dist=Delta(mu_in),
                         eps=0.0, n_ticks=n_ticks,
                         ec=ExplicitEC(tau=tau, sigma=0.0, eps_tail=0.0),
                         **kw)
    return prepare(cfg)


def _one_trial(prep):
    """The absolute output ticks of one trial of ``prep``."""
    return _simulate(prep, np.random.default_rng(0), 1)[0][0]


class TestDeterministicTraces:
    def test_dyn_switch_delta_pipeline(self):
        # mu_in = (m + 1/2) tau with m=4, tau=2/9
        tau = 2.0 / 9.0
        prep = _delta_prep(Protocol.DYN_SWITCH, tau=tau)
        times = _one_trial(prep)
        expected = [1.0 + tau / 2 + k for k in range(5)]
        assert times == pytest.approx(expected)
        assert np.all(np.diff(times) > 0)

    def test_dyn_switch_feedback_delta_pipeline(self):
        # mu_in = m tau with m=5; spacing mu_in + tau/2 after the first tick
        tau = 0.2
        prep = _delta_prep(Protocol.DYN_SWITCH_FEEDBACK, tau=tau)
        times = _one_trial(prep)
        gaps = np.diff(times)
        assert times[0] == pytest.approx(1.0 + tau / 2)
        assert gaps == pytest.approx([1.0 + tau / 2] * 4)

    def test_input_bunch_counts(self):
        cfg = ProtocolConfig(protocol=Protocol.INPUT_BUNCH,
                             input_dist=Delta(1.0), eps=0.0, n_ticks=3,
                             bunch=3)
        assert _one_trial(prepare(cfg)) == pytest.approx([3.0, 6.0, 9.0])

    def test_ec_bunch_ceiling(self):
        cfg = ProtocolConfig(protocol=Protocol.EC_BUNCH,
                             input_dist=Delta(1.0), eps=0.0, n_ticks=2,
                             ec=ExplicitEC(tau=2 * 0.3, sigma=0.0,
                                           eps_tail=0.0))
        times = _one_trial(prepare(cfg))
        # the free-running EC ticks every tau / 2; the first EC tick at or
        # after 1.0 is ceil(1.0 / 0.3) * 0.3
        assert times[0] == pytest.approx(4 * 0.3)
        assert times[1] == pytest.approx(7 * 0.3)

    def test_minimal_single_output(self):
        prep = _delta_prep(Protocol.DYN_SWITCH, tau=2.0 / 9.0, n_ticks=1)
        times = _one_trial(prep)
        assert times.shape == (1,)
        assert times[0] <= prep.horizon


class TestPrepare:
    def test_feedback_constraint_enforced(self):
        cfg = ProtocolConfig(
            protocol=Protocol.DYN_SWITCH_FEEDBACK, input_dist=Box(1.0, 0.1111),
            eps=0.01, n_ticks=1, ec=QuasiIdealSpec(d=16))
        with pytest.raises(ValueError):
            prepare(cfg)

    def test_ec_bunch_needs_narrow_input(self):
        cfg = ProtocolConfig(
            protocol=Protocol.EC_BUNCH, input_dist=Box(1.0, 0.9),
            eps=0.01, n_ticks=1,
            ec=ExplicitEC(tau=2 * 0.4, sigma=0.001, eps_tail=0.0))
        with pytest.raises(ValueError):
            prepare(cfg)

    def test_bunching_has_no_switchable_ec(self):
        cfg = ProtocolConfig(protocol=Protocol.INPUT_BUNCH,
                             input_dist=BOX_THIRD, eps=0.01, n_ticks=1,
                             bunch=4)
        assert prepare(cfg).bar_sigma_ec is None
        cfg = ProtocolConfig(protocol=Protocol.EC_BUNCH,
                             input_dist=BOX_THIRD, eps=0.01, n_ticks=1,
                             ec=QuasiIdealSpec(d=256))
        assert prepare(cfg).bar_sigma_ec is None

    def test_reports_both_j_conditions(self):
        cfg = ProtocolConfig(
            protocol=Protocol.DYN_SWITCH, input_dist=BOX_THIRD,
            eps=0.01, n_ticks=1, ec=QuasiIdealSpec(d=256))
        prep = prepare(cfg)
        assert prep.theorem_j_limit == pytest.approx(
            2 * prep.mu_in / (3 * prep.sigma_in))
        assert prep.cond_j_limit == pytest.approx(
            (prep.tau - prep.sigma_ec) / (prep.sigma_ec + prep.sigma_in))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(protocol=Protocol.INPUT_BUNCH,
                           input_dist=BOX_THIRD, eps=0.01, n_ticks=1)
        with pytest.raises(ValueError):
            ProtocolConfig(protocol=Protocol.DYN_SWITCH,
                           input_dist=BOX_THIRD, eps=0.01, n_ticks=1)


class TestMonteCarlo:
    def test_bit_identical_for_fixed_seed(self):
        cfg = ProtocolConfig(protocol=Protocol.DYN_SWITCH,
                             input_dist=BOX_THIRD, eps=0.01, n_ticks=2,
                             ec=QuasiIdealSpec(d=64))
        a = monte_carlo(cfg, 50, 99)
        b = monte_carlo(cfg, 50, 99)
        assert np.array_equal(a.data, b.data)

    def test_delta_pipeline_rows_identical(self):
        cfg = ProtocolConfig(protocol=Protocol.DYN_SWITCH,
                             input_dist=Delta(1.0), eps=0.0, n_ticks=2,
                             ec=ExplicitEC(tau=2 / 9, sigma=0.0, eps_tail=0.0))
        matrix = monte_carlo(cfg, 20, 0)
        assert np.all(matrix.data == matrix.data[0])
        assert matrix.data[0] == pytest.approx([1.0, 2.0])

    def test_truncation_excluded_from_samples(self):
        cfg = ProtocolConfig(protocol=Protocol.INPUT_BUNCH,
                             input_dist=Box(1.0, 0.5), eps=0.01, n_ticks=3,
                             bunch=4, horizon=12.0)
        matrix = monte_carlo(cfg, 200, 3)
        assert matrix.n_truncated > 0
        samples = matrix.tick_samples(3)
        assert samples.size == 200 - matrix.n_truncated
        assert np.all(np.isfinite(samples))

    def test_frequency_preservation(self):
        # mean output spacing stays within 1% of the input mean
        j = 10
        for cfg in [
            ProtocolConfig(protocol=Protocol.DYN_SWITCH,
                           input_dist=BOX_THIRD, eps=0.01, n_ticks=j,
                           ec=QuasiIdealSpec(d=256)),
            # sigma_in low in its period cell, so tau - sigma_ec clears it
            ProtocolConfig(protocol=Protocol.DYN_SWITCH_FEEDBACK,
                           input_dist=Box(1.0, 0.016586), eps=0.01,
                           n_ticks=j, ec=QuasiIdealSpec(d=256)),
        ]:
            matrix = monte_carlo(cfg, 400, 11)
            spacing = matrix.tick_samples(j).mean() / j
            assert spacing / cfg.input_dist.mean == pytest.approx(1.0,
                                                                  abs=0.01)
        cfg4 = ProtocolConfig(protocol=Protocol.EC_BUNCH,
                              input_dist=BOX_THIRD, eps=0.01, n_ticks=j,
                              ec=QuasiIdealSpec(d=256))
        m4 = monte_carlo(cfg4, 400, 11)
        spacing = (m4.tick_samples(j) - m4.tick_samples(1)).mean() / (j - 1)
        assert spacing == pytest.approx(1.0, abs=0.01)
        cfg3 = ProtocolConfig(protocol=Protocol.INPUT_BUNCH,
                              input_dist=BOX_THIRD, eps=0.01, n_ticks=1,
                              bunch=64)
        m3 = monte_carlo(cfg3, 400, 11)
        assert m3.tick_samples(1).mean() == pytest.approx(64.0, abs=0.5)

    def test_degradation_contrast(self):
        # without feedback the inaccuracy blows up with j; with feedback
        # it keeps sqrt(j) growth
        box = Box(1.0, 0.30303)
        no_fb = monte_carlo(ProtocolConfig(
            protocol=Protocol.DYN_SWITCH, input_dist=box, eps=0.01,
            n_ticks=12, ec=QuasiIdealSpec(d=256)), 1500, 21)
        fb = monte_carlo(ProtocolConfig(
            protocol=Protocol.DYN_SWITCH_FEEDBACK, input_dist=box, eps=0.01,
            n_ticks=12, ec=QuasiIdealSpec(d=256)), 1500, 21)
        # evaluate each tick at its own tail budget j eps + (j+1) eps_ec
        eps1 = output_epsilon_budget(0.01, 0.001, 1)
        eps12 = output_epsilon_budget(0.01, 0.001, 12)
        growth_no_fb = (no_fb.estimate(12, eps12).sigma_ratio
                        / no_fb.estimate(1, eps1).sigma_ratio)
        growth_fb = (fb.estimate(12, eps12).sigma_ratio
                     / fb.estimate(1, eps1).sigma_ratio)
        assert growth_no_fb > 12          # super-linear
        assert growth_fb < 2 * np.sqrt(12)
