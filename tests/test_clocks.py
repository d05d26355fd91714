import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticklab import (Box, EnhancingClock, InputClock, MarkovTwoState, Mode,
                     free_run, quasi_ideal_params, quasi_ideal_ratio,
                     sample_tick_phase, wrap_phase)


class TestWrapPhase:
    def test_examples(self):
        assert wrap_phase(1.0, 1.0) == pytest.approx(0.0)
        assert wrap_phase(0.6, 1.0) == pytest.approx(-0.4)
        assert wrap_phase(0.2, 1.0) == pytest.approx(0.2)

    def test_boundary_maps_to_upper_half(self):
        # the domain is the half-open interval (-tau/2, tau/2]
        assert wrap_phase(0.5, 1.0) == 0.5
        assert wrap_phase(-0.5, 1.0) == 0.5

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-50, max_value=50),
           st.floats(min_value=0.1, max_value=10))
    def test_stays_in_domain(self, x, tau):
        s = wrap_phase(x, tau)
        assert -tau / 2 < s <= tau / 2


class TestEnhancingClock:
    def test_advance_wraps(self):
        ec = EnhancingClock(tau=1.0, sigma=0.1, eps_tail=0.0, phase=0.4)
        assert ec.advance(0.2).phase == pytest.approx(-0.4)
        assert ec.advance(1.0).phase == pytest.approx(0.4)
        assert ec.advance(0.0).phase == 0.4

    def test_advance_additivity(self):
        ec = EnhancingClock(tau=1.0, sigma=0.1, eps_tail=0.0)
        parts = ec
        for dt in (0.3, 0.45, 1.2, 0.05):
            parts = parts.advance(dt)
        assert parts.phase == pytest.approx(ec.advance(2.0).phase, abs=1e-12)

    def test_mode_discipline(self):
        ec = EnhancingClock(tau=1.0, sigma=0.1, eps_tail=0.0)
        with pytest.raises(ValueError):
            ec.tick(np.random.default_rng(0))
        armed = ec.switched(Mode.TICK)
        with pytest.raises(ValueError):
            armed.advance(0.1)

    @pytest.mark.parametrize("phase,expected", [
        (0.0, 0.5), (0.3, 0.2), (-0.4, 0.9)])
    def test_deterministic_tick_durations(self, phase, expected):
        ec = EnhancingClock(tau=1.0, sigma=0.0, eps_tail=0.0,
                            phase=phase, mode=Mode.TICK)
        duration, after = ec.tick(np.random.default_rng(0))
        assert duration == pytest.approx(expected)
        assert after.phase == 0.0
        assert after.mode is Mode.NO_TICK

    def test_tick_phase_coverage(self):
        rng = np.random.default_rng(1)
        tau, sigma, eps = 1.0, 0.05, 0.001
        phi = sample_tick_phase(tau, sigma, eps, rng, 20000)
        inside = (phi > (tau - sigma) / 2) & (phi < (tau + sigma) / 2)
        assert inside.mean() >= 1 - eps - 3 * np.sqrt(eps / 20000)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            EnhancingClock(tau=1.0, sigma=1.0, eps_tail=0.0)
        with pytest.raises(ValueError):
            EnhancingClock(tau=1.0, sigma=0.1, eps_tail=0.0, phase=0.7)
        with pytest.raises(ValueError):
            EnhancingClock(tau=0.0, sigma=0.0, eps_tail=0.0)


class TestFreeRun:
    def test_deterministic_grid(self):
        trace = free_run(0.5, 0.0, 0.0, 4, np.random.default_rng(0))
        assert trace.times == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_single_tick(self):
        trace = free_run(0.5, 0.0, 0.0, 1, np.random.default_rng(0))
        assert len(trace) == 1

    def test_gap_statistics(self):
        rng = np.random.default_rng(2)
        mu, sigma, eps = 0.5, 0.02, 0.001
        trace = free_run(mu, sigma, eps, 10 ** 5, rng)
        gaps = np.concatenate([[trace[0]], trace.gaps])
        assert gaps.mean() == pytest.approx(mu, abs=3 * sigma)
        covered = np.abs(gaps - mu) < sigma / 2
        assert covered.mean() >= 1 - eps - 3 * np.sqrt(eps / gaps.size)


class TestQuasiIdeal:
    def test_reference_values(self):
        p = quasi_ideal_params(100, 0.1, 1.0)
        assert p.gamma == pytest.approx(100 ** -0.9, abs=1e-12)
        assert p.gamma == pytest.approx(0.015849, abs=1e-6)
        assert p.sigma == pytest.approx(0.017281, abs=1e-6)

    def test_boundary_dimensions(self):
        assert quasi_ideal_params(2, 0.5, 1.0).sigma < 1.0
        # at d=2 a large eta pushes the window past the period
        with pytest.raises(ValueError):
            quasi_ideal_params(2, 0.9, 1.0)
        with pytest.raises(ValueError):
            quasi_ideal_params(1, 0.1, 1.0)

    def test_scaling_slope(self):
        ds = [2 ** k for k in range(4, 11)]
        ratios = [quasi_ideal_ratio(d, 0.1) for d in ds]
        slope = np.polyfit(np.log(ds), np.log(ratios), 1)[0]
        assert slope == pytest.approx(-0.9, abs=0.02)

    def test_clock_factory(self):
        ec = quasi_ideal_params(100, 0.1, 1.0).clock()
        assert ec.dimension == 100
        assert ec.mode is Mode.NO_TICK


class TestRenewalProcess:
    def test_strictly_increasing(self):
        proc = InputClock(Box(1.0, 0.5)).process(np.random.default_rng(0))
        ticks = [proc.next_tick() for _ in range(200)]
        assert np.all(np.diff(ticks) > 0)

    def test_next_after_counts_skipped(self):
        proc = InputClock(Box(1.0, 0.1)).process(np.random.default_rng(1))
        t = proc.next_after(3.5)
        assert t > 3.5
        assert proc.n_skipped == 3


class TestMarkovTwoState:
    def test_identity_at_zero_time(self):
        m = MarkovTwoState(0.3, 0.7)
        assert np.allclose(m.transition(0.0), np.eye(2), atol=1e-14)

    def test_zero_rates_are_identity(self):
        m = MarkovTwoState(0.0, 0.0)
        assert np.array_equal(m.transition(5.0), np.eye(2))

    def test_alpha_zero_form(self):
        m = MarkovTwoState(0.0, 1.0)
        t = 0.8
        expected = np.array([[1.0, 0.0],
                             [1 - np.exp(-t), np.exp(-t)]])
        assert np.allclose(m.transition(t), expected, atol=1e-14)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0, max_value=3),
           st.floats(min_value=0, max_value=3),
           st.floats(min_value=0, max_value=5),
           st.floats(min_value=0, max_value=5))
    def test_semigroup_and_stochasticity(self, a, b, s, t):
        m = MarkovTwoState(a, b)
        ps, pt = m.transition(s), m.transition(t)
        assert np.allclose(ps @ pt, m.transition(s + t), atol=1e-12)
        assert np.allclose(ps.sum(axis=1), 1.0, atol=1e-14)

    def test_periodicity_examples(self):
        def stationary_for_all_t(chain):
            return all(np.array_equal(chain.transition(t)[0], [1.0, 0.0])
                       for t in (0.0, 0.3, 1.0, 5.0, 40.0))

        stationary = MarkovTwoState(0.0, 0.7)
        assert stationary.periodicity_check(5.0).is_fixed_point
        assert stationary_for_all_t(stationary)
        leaky = MarkovTwoState(0.3, 0.7)
        assert not leaky.periodicity_check(5.0).is_fixed_point
        assert not stationary_for_all_t(leaky)
        frozen = MarkovTwoState(0.0, 0.0)
        assert frozen.periodicity_check(1.0).is_fixed_point
        assert stationary_for_all_t(frozen)

    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            MarkovTwoState(-0.1, 0.5)
