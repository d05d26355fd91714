import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticklab import (Box, Delta, ExplicitEC, Gaussian, PreparedRun,
                     Protocol, ProtocolConfig, QuasiIdealSpec,
                     corollary_bounds, ec_bar_sigma, monte_carlo,
                     output_epsilon_budget, prepare, quasi_ideal_ratio,
                     theorem1_bound, theorem2_bound, theorem_bound)
from ticklab.clocks import quasi_ideal_params
from ticklab.protocols import (_contract, _simulate, check_rows,
                               largest_period)

BOX_THIRD = Box(center=1.0, width=0.3333333333)


def _cell_edges(mu_in):
    """The period cell edges mu_in / (k + 1) and mu_in / (k + 3/2)."""
    return [mu_in / (k + 1) for k in range(1, 60)] \
        + [mu_in / (k + 1.5) for k in range(1, 60)]


def _search(protocol, mu_in, sigma_in, j=1, ratio=0.0, dist=None):
    """The period cell that ``prepare``'s search picks for ``protocol``:
    ``largest_period`` on ``_contract``'s lattice with its rule, for the EC
    whose window is ``ratio`` tau; the contract's message where no period
    fits.  ``dist`` (default a delta at mu_in) gives EC bunching its
    support width."""
    cfg = ProtocolConfig(protocol, dist or Delta(mu_in), 0.0, 1,
                         ec=ExplicitEC(1.0, 0.0, 0.0), period_tick=j)
    (mu, offset, cap), fits, message = _contract(cfg, mu_in, sigma_in)
    cell = largest_period(mu, offset, lambda _, tau: fits(
        ExplicitEC(tau, ratio * tau, 0.0)), cap)
    if cell is None:
        raise ValueError(message)
    return cell


NO_FB, FB, EC_BUNCH = (Protocol.DYN_SWITCH, Protocol.DYN_SWITCH_FEEDBACK,
                       Protocol.EC_BUNCH)


class TestPeriodChoosers:
    def test_no_feedback_examples(self):
        assert _search(NO_FB, 1.0, 0.2) == (4, pytest.approx(1 / 4.5))
        assert _search(NO_FB, 1.0, 0.5) == (1, pytest.approx(1 / 1.5))

    def test_no_feedback_bracket(self):
        for sigma in (0.05, 0.11, 0.23, 0.4):
            for j in (1, 2):
                if j * sigma >= 2 / 3:
                    continue
                m, tau = _search(NO_FB, 1.0, sigma, j)
                assert 1 / (m + 1.5) <= j * sigma < 1 / (m + 0.5)
                assert tau == pytest.approx(1.0 / (m + 0.5))

    def test_no_feedback_cap_and_errors(self):
        m, tau = _search(NO_FB, 1.0, 0.0)
        assert m == 10 ** 6
        with pytest.raises(ValueError, match="times the targeted tick"):
            _search(NO_FB, 1.0, 0.7)
        with pytest.raises(ValueError, match="times the targeted tick"):
            _search(NO_FB, 1.0, 0.2, 4)

    def test_feedback_examples(self):
        assert _search(FB, 1.0, 0.2) == (4, pytest.approx(0.25))
        assert _search(FB, 1.0, 0.11) == (9, pytest.approx(1 / 9))
        # sigma = mu / (m + 1) sits on the closed lower edge of the m-cell
        assert _search(FB, 1.0, 0.5) == (1, pytest.approx(1.0))
        # the window takes its share of the period: 0.11 < 0.9 / m
        assert _search(FB, 1.0, 0.11, ratio=0.1) == (8, pytest.approx(1 / 8))

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
                            _search(NO_FB, mu_in, sigma_in, j)
                        continue
                    m, tau = _search(NO_FB, mu_in, sigma_in, j)
                    assert mu_in / (m + 1.5) <= js * (1 + 1e-12)
                    assert js < mu_in / (m + 0.5)
                    assert tau == pytest.approx(mu_in / (m + 0.5))
                m, tau = _search(FB, mu_in, x)
                assert mu_in / (m + 1) <= x * (1 + 1e-12)
                assert x < mu_in / m * (1 + 1e-12)
                assert tau == pytest.approx(mu_in / m)

    def test_feedback_bracket_and_errors(self):
        for sigma in (0.07, 0.13, 0.29, 0.6):
            m, tau = _search(FB, 1.0, sigma)
            assert 1 / (m + 1) <= sigma < 1 / m
        with pytest.raises(ValueError, match="tau - sigma_ec"):
            _search(FB, 1.0, 1.0)
        # ExplicitEC rejects a window as wide as the period
        with pytest.raises(ValueError, match="EC window width"):
            _search(FB, 1.0, 0.01, ratio=1.0)

    @pytest.mark.parametrize("mu_in", [0.3, 1.0, 2.7, 10.0])
    def test_strict_brackets_at_cell_edges(self, mu_in):
        # at each cell edge and at its float neighbours the chosen period
        # holds the window and the next cell's does not, with no slack;
        # at mu_in = 1 this covers sigma_in = 1/49, where tau once equalled
        # sigma_in, and just below 0.2 and 0.4, where m fell one cell short
        for edge in _cell_edges(mu_in):
            for x in (math.nextafter(edge, 0), edge,
                      math.nextafter(edge, math.inf)):
                for j in (1, 2):
                    m, tau = _search(NO_FB, mu_in, x / j, j)
                    assert tau == mu_in / (m + 0.5)
                    assert mu_in / (m + 1.5) <= j * (x / j) < tau
                m, tau = _search(FB, mu_in, x)
                assert tau == mu_in / m
                assert mu_in / (m + 1) <= x < tau

    @pytest.mark.parametrize("ratio", [0.01, 0.3, 0.9])
    @pytest.mark.parametrize("mu_in", [0.3, 1.0, 2.7, 10.0])
    def test_feedback_matches_scan_at_cell_edges(self, mu_in, ratio):
        # the contract sigma_in < tau - sigma_ec, scanned over every m up
        # to mu_in / sigma_in (it fails beyond); the grid holds the cell
        # edges with and without the window's share
        for edge in _cell_edges(mu_in):
            for base in (edge, (1 - ratio) * edge):
                for x in (math.nextafter(base, 0), base,
                          math.nextafter(base, math.inf)):
                    expected = _linear_largest(
                        mu_in, 0.0, lambda m, tau: x < tau - ratio * tau,
                        int(mu_in / x) + 1)
                    if expected is None:
                        with pytest.raises(ValueError):
                            _search(FB, mu_in, x, ratio=ratio)
                    else:
                        assert _search(FB, mu_in, x, ratio=ratio) \
                            == expected

    @pytest.mark.parametrize("mu_in, sigma_in", [
        (math.inf, 0.1), (-math.inf, 0.1), (math.nan, 0.1), (1.0, math.nan),
        (0.0, 0.1), (1.0, -0.1), (1.0, math.inf)])
    def test_choosers_reject_bad_input(self, mu_in, sigma_in):
        for protocol in (NO_FB, FB, EC_BUNCH):
            with pytest.raises(ValueError):
                _search(protocol, mu_in, sigma_in, dist=Delta(1.0))


def _linear_largest(mu, offset, fits, m_max):
    """Slow reference for ``largest_period``: scan every m."""
    cell = None
    for m in range(1, m_max + 1):
        if fits(m, mu / (m + offset)):
            cell = (m, mu / (m + offset))
    return cell


def _ec_bunch_mean_scan(mu_in, width, ratio):
    """Slow reference for EC bunching's mean EC tick gap tau / 2: the
    linear scan over m = 1..63 of mu_ec = mu_in / (m + 1/2) with
    mu_ec > width and (m + 1) 2 ratio mu_ec <= 0.9 (mu_ec - width); None
    where no m qualifies."""
    best = None
    for m in range(1, 64):
        mu_ec = mu_in / (m + 0.5)
        sigma_tick = 2.0 * ratio * mu_ec
        if mu_ec > width and \
                (m + 1) * sigma_tick <= 0.9 * (mu_ec - width):
            best = m
    return best and mu_in / (best + 0.5)


class TestLargestPeriod:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3),
           st.sampled_from([0.0, 0.5]), st.integers(1, 200),
           st.booleans(), st.integers(-3, 210),
           st.floats(min_value=1e-6, max_value=2e3))
    def test_matches_linear_scan(self, mu, offset, m_max, on_m, m_star,
                                 tau_star):
        # a random threshold predicate on m, or on the period tau
        def fits(m, tau):
            assert tau == mu / (m + offset)
            return m <= m_star if on_m else tau > tau_star

        assert largest_period(mu, offset, fits, m_max) \
            == _linear_largest(mu, offset, fits, m_max)

    def test_none_and_cap(self):
        assert largest_period(1.0, 0.5, lambda m, tau: False, 10) is None
        assert largest_period(1.0, 0.5, lambda m, tau: True, 10) \
            == (10, 1 / 10.5)
        assert largest_period(1.0, 0.0, lambda m, tau: True, 1) == (1, 1.0)

    def test_ec_bunch_mean_matches_scan(self):
        # EC bunching searches with the input's support width, which is
        # wider than the confidence width sigma_in at eps = 0.01
        ratios = [0.0, 1e-3, 0.01, 0.05, 0.2] + [
            quasi_ideal_ratio(d, eta) for d in (2, 8, 64, 1024, 2 ** 16)
            for eta in (0.1, 0.5)]
        cells = set()
        for mu_in in (0.3, 1.0, 2.7, 10.0):
            for width in np.linspace(0.0, 0.7, 36) * mu_in:
                dist = Box(mu_in, width) if width else Delta(mu_in)
                conf = dist.confidence(0.01)
                lo, hi = dist.support()
                for ratio in ratios:
                    mu_ec = _ec_bunch_mean_scan(conf.mu, hi - lo, ratio)
                    if mu_ec is None:
                        with pytest.raises(ValueError,
                                           match="EC tick gap tau / 2"):
                            _search(EC_BUNCH, conf.mu, conf.sigma,
                                    ratio=ratio, dist=dist)
                        cells.add(None)
                        continue
                    m, tau = _search(EC_BUNCH, conf.mu, conf.sigma,
                                     ratio=ratio, dist=dist)
                    assert tau == 2 * mu_ec
                    assert tau == 2 * conf.mu / (m + 0.5)
                    cells.add(m)
        # the grid reaches both the case where no period fits and the cap
        assert {None, 63} <= cells


def _unit_cell_run(protocol, sigma_in):
    """A run of a unit-mean input of width ``sigma_in`` whose EC, with
    bar_Sigma_EC = 0.04, has the widest period of its chooser: the m = 1
    cell, tau = 1 / 1.5 without feedback and 1 with it."""
    tau = 1 / 1.5 if protocol is Protocol.DYN_SWITCH else 1.0
    ec = ExplicitEC(tau, 0.02 * tau, 0.0)
    cfg = ProtocolConfig(protocol, Delta(1.0), 0.01, 1, ec=ec, bunch=1)
    return PreparedRun(cfg=cfg, mu_in=1.0, sigma_in=sigma_in, ec=ec, m=1,
                       horizon=10.0)


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
        # ... and while j sigma_in < tau = 2/3 otherwise
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
        bound = theorem_bound(_unit_cell_run(protocol, sigma_in), j)
        if expected is None:
            assert bound is None
        else:
            assert bound == pytest.approx(expected, rel=1e-14, abs=0.0)
        # the bound table states the same theorems on the same cells
        if protocol in (Protocol.DYN_SWITCH, Protocol.DYN_SWITCH_FEEDBACK):
            table = corollary_bounds(sigma_in, 64, 0.5, j)
            covered = table[protocol is Protocol.DYN_SWITCH_FEEDBACK]
            assert (covered is None) == (expected is None)

    def test_theorem_bound_rejects_bad_arguments(self):
        for protocol in Protocol:
            for sigma_in in (-0.1, math.inf, math.nan):
                with pytest.raises(ValueError):
                    theorem_bound(_unit_cell_run(protocol, sigma_in), 1)
            with pytest.raises(ValueError):
                theorem_bound(_unit_cell_run(protocol, 0.33), 0)
        # input bunching has no EC at all
        prep = prepare(ProtocolConfig(Protocol.INPUT_BUNCH, BOX_THIRD, 0.01,
                                      1, bunch=4))
        assert theorem_bound(prep, 1) is None

    def test_ec_bar_sigma(self):
        assert ec_bar_sigma(ExplicitEC(2.0, 0.1, 0.0)) == pytest.approx(0.1)
        assert ec_bar_sigma(ExplicitEC(1.0, 0.5, 0.0)) == pytest.approx(1.0)
        assert ec_bar_sigma(ExplicitEC(1.0, 0.0, 0.0)) == 0.0
        with pytest.raises(ValueError):  # ExplicitEC is the validator
            ec_bar_sigma(ExplicitEC(1.0, 1.0, 0.0))

    def test_zero_width_ec_bound(self):
        # a zero-width EC is valid, and its bound 2 sigma / tau is 0
        prep = prepare(ProtocolConfig(Protocol.DYN_SWITCH, Box(1.0, 0.1),
                                      0.01, 1, ec=ExplicitEC(1 / 4.5, 0.0,
                                                             0.0)))
        assert prep.bar_sigma_ec == 0.0

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
    out = np.empty((1, prep.cfg.n_ticks))
    _simulate(prep, np.random.default_rng(0), out, np.zeros(1, dtype=int))
    return out[0]


class TestCheckRows:
    """The tick-time invariant ``check_rows``: each row of a block is one
    tick trace, nonnegative and strictly increasing."""

    @pytest.mark.parametrize("times", [[-0.1], [-0.1, 1.0], [1.0, 1.0],
                                       [1.0, 2.0, 1.5]])
    def test_rejects_negative_or_non_increasing(self, times):
        with pytest.raises(ValueError, match="nonnegative and strictly"):
            check_rows(np.array([times]))

    def test_check_rows_checks_every_row(self):
        check_rows(np.array([[0.0, 1.0], [2.0, 3.0]]))
        with pytest.raises(ValueError):
            check_rows(np.array([[0.0, 1.0], [3.0, 3.0]]))
        with pytest.raises(ValueError):
            check_rows(np.array([[0.0, 1.0], [-1.0, 3.0]]))


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
        box = Box(1.0, 0.1111)
        sigma_in = box.confidence(0.01).sigma
        # an explicit EC with tau - sigma_ec = 0.1 < sigma_in is rejected
        cfg = ProtocolConfig(
            protocol=Protocol.DYN_SWITCH_FEEDBACK, input_dist=box,
            eps=0.01, n_ticks=1,
            ec=ExplicitEC(tau=0.12, sigma=0.02, eps_tail=0.0))
        with pytest.raises(ValueError, match="tau - sigma_ec"):
            prepare(cfg)
        # a d = 16 EC resolves to the largest m whose EC meets the contract
        prep = prepare(replace(cfg, ec=QuasiIdealSpec(d=16)))
        assert prep.m == 8
        assert sigma_in < prep.ec.tau - prep.ec.sigma
        assert prep.ec == quasi_ideal_params(16, 0.1, prep.mu_in / prep.m)
        shorter = quasi_ideal_params(16, 0.1, prep.mu_in / (prep.m + 1))
        assert not sigma_in < shorter.tau - shorter.sigma

    def test_ec_bunch_needs_narrow_input(self):
        cfg = ProtocolConfig(
            protocol=Protocol.EC_BUNCH, input_dist=Box(1.0, 0.9),
            eps=0.01, n_ticks=1,
            ec=ExplicitEC(tau=2 * 0.4, sigma=0.001, eps_tail=0.0))
        with pytest.raises(ValueError, match="EC tick gap tau / 2"):
            prepare(cfg)

    def test_explicit_ec_bunch_checked_against_its_jitter_margin(self):
        # sigma_in = 0.198 < tau / 2 = 0.4, but the EC jitter over a cycle,
        # (1 / 0.4 + 1/2) sigma_ec = 0.3, exceeds 0.9 (0.4 - 0.2) = 0.18
        cfg = ProtocolConfig(Protocol.EC_BUNCH, Box(1.0, 0.2), 0.01, 1,
                             ec=ExplicitEC(0.8, 0.1, 0.0))
        assert cfg.input_dist.confidence(0.01).sigma < 0.4
        with pytest.raises(ValueError, match="EC tick gap tau / 2"):
            prepare(cfg)
        narrow = ExplicitEC(0.8, 0.05, 0.0)  # 0.15 <= 0.18
        assert prepare(replace(cfg, ec=narrow)).ec == narrow

    def test_explicit_no_feedback_ec_checked(self):
        # period_tick sigma_in >= tau breaks theorem 1's hypothesis
        box = Box(1.0, 0.2)
        sigma_in = box.confidence(0.01).sigma
        cfg = ProtocolConfig(Protocol.DYN_SWITCH, box, 0.01, 1,
                             ec=ExplicitEC(0.3, 0.0, 0.0), period_tick=2)
        with pytest.raises(ValueError, match="times the targeted tick"):
            prepare(cfg)
        assert prepare(replace(cfg, period_tick=1)).m is None
        with pytest.raises(ValueError, match="times the targeted tick"):
            prepare(replace(cfg, ec=ExplicitEC(sigma_in, 0.0, 0.0),
                            period_tick=1))

    def test_searched_period_is_the_run_period(self):
        # prepare resolves a QuasiIdealSpec to the EC of the largest cell
        # m whose EC meets the contract, and records m
        for width, j in itertools.product((0.05, 0.1015, 0.3333333333),
                                          (1, 2)):
            prep = prepare(ProtocolConfig(
                Protocol.DYN_SWITCH, Box(1.0, width), 0.01, 1,
                ec=QuasiIdealSpec(d=256), period_tick=j))
            tau = prep.mu_in / (prep.m + 0.5)
            assert prep.ec == quasi_ideal_params(256, 0.1, tau)
            assert j * prep.sigma_in < tau
            assert not j * prep.sigma_in < prep.mu_in / (prep.m + 1.5)
        for dist, d in itertools.product(
                (BOX_THIRD, Box(1.0, 0.1), Gaussian(1.0, 0.05)),
                (16, 256, 1024)):
            prep = prepare(ProtocolConfig(Protocol.EC_BUNCH, dist, 0.01, 1,
                                          ec=QuasiIdealSpec(d=d)))
            lo, hi = dist.support() or (prep.mu_in - prep.sigma_in / 2,
                                        prep.mu_in + prep.sigma_in / 2)
            mu_ec = _ec_bunch_mean_scan(prep.mu_in, hi - lo,
                                        quasi_ideal_ratio(d, 0.1))
            assert prep.ec == quasi_ideal_params(d, 0.1, 2 * mu_ec)
            assert prep.ec.tau == 2 * prep.mu_in / (prep.m + 0.5)

    def test_ec_bunch_without_a_fitting_period_raises(self):
        # d <= 8 on the default input: no period holds the input within
        # the jitter margin, and there is no fallback period
        for d in (2, 4, 8):
            cfg = ProtocolConfig(Protocol.EC_BUNCH, BOX_THIRD, 0.01, 1,
                                 ec=QuasiIdealSpec(d=d))
            with pytest.raises(ValueError, match="EC tick gap tau / 2"):
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

    def test_theorem_bound_follows_the_run_period(self):
        # theorem 1 covers tick j of a run exactly while the period chooser
        # at tick j would still allow the run's cell m
        for width, period_tick in itertools.product((0.05, 0.1015, 0.2),
                                                    (1, 2, 3)):
            prep = prepare(ProtocolConfig(
                Protocol.DYN_SWITCH, Box(1.0, width), 0.01, 1,
                ec=QuasiIdealSpec(d=256), period_tick=period_tick))
            for j in range(1, 16):
                try:
                    m_j = _search(Protocol.DYN_SWITCH, prep.mu_in,
                                  prep.sigma_in, j)[0]
                except ValueError:
                    m_j = 0
                assert (theorem_bound(prep, j) is not None) == \
                    (m_j >= prep.m)
            assert theorem_bound(prep, period_tick) is not None

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProtocolConfig(protocol=Protocol.INPUT_BUNCH,
                           input_dist=BOX_THIRD, eps=0.01, n_ticks=1)
        with pytest.raises(ValueError):
            ProtocolConfig(protocol=Protocol.DYN_SWITCH,
                           input_dist=BOX_THIRD, eps=0.01, n_ticks=1)
        with pytest.raises(ValueError, match="tick index"):
            ProtocolConfig(protocol=Protocol.DYN_SWITCH,
                           input_dist=BOX_THIRD, eps=0.01, n_ticks=1,
                           ec=QuasiIdealSpec(d=256), period_tick=0)


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
