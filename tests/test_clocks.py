import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import stats

from ticklab import (EnhancingClock, ExplicitEC, MarkovTwoState, Mode,
                     quasi_ideal_params, quasi_ideal_ratio,
                     sample_tick_phase, wrap_phase)
from ticklab import clocks
from ticklab.clocks import delay_to_phase, fire_delay


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

    @staticmethod
    def _wrap_by_remainder(x, tau):
        """The float ``%`` form the ceil form replaced, as the oracle."""
        s = (x + tau / 2) % tau - tau / 2
        return np.where(s <= -tau / 2, tau / 2, s)

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.floats(min_value=-1e6, max_value=1e6),
        # a few ulps either side of a domain edge, (k + 1/2) tau
        st.tuples(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                  st.integers(min_value=-4, max_value=4))),
        st.floats(min_value=0.1, max_value=10))
    def test_agrees_with_remainder_form(self, x, tau):
        if isinstance(x, tuple):
            k, ulps = x
            x = (k + 0.5) * tau
            for _ in range(abs(ulps)):
                x = np.nextafter(x, math.copysign(math.inf, ulps))
            assume(abs(x) <= 1e6)
        s = wrap_phase(x, tau)
        assert -tau / 2 < s <= tau / 2
        # the same dial point: tau/2 and -tau/2 are one point on the dial
        gap = abs(float(s) - float(self._wrap_by_remainder(x, tau)))
        assert min(gap, tau - gap) <= 4 * np.spacing(max(abs(x), tau))

    @staticmethod
    def _guards(monkeypatch) -> list:
        """Record the names of the guard calls of ``wrap_phase``'s array
        branch, ``np.minimum`` and ``np.copyto``, as clocks makes them."""
        calls = []

        class Spy:
            def __getattr__(self, name):
                attr = getattr(np, name)
                if name not in ("minimum", "copyto"):
                    return attr

                def spy(*args, **kwargs):
                    calls.append(name)
                    return attr(*args, **kwargs)
                return spy

        monkeypatch.setattr(clocks, "np", Spy())
        return calls

    @staticmethod
    def _layouts(x):
        """``x`` as a C-order array and as a non-contiguous view."""
        block = np.zeros((x.shape[1], 2, x.shape[0]), order="F")
        block[:, 1] = x.T
        view = block[:, 1].T
        assert not (view.flags.c_contiguous or view.flags.f_contiguous)
        return np.ascontiguousarray(x), view

    def test_interior_array_skips_the_guards(self, monkeypatch):
        # phases a tenth of tau or more inside the domain edges
        tau = 0.3
        rng = np.random.default_rng(4)
        x = (rng.integers(-10 ** 6, 10 ** 6, (6, 32))
             + rng.uniform(-0.4, 0.4, (6, 32))) * tau
        floats = np.array([wrap_phase(float(v), tau) for v in x.flat])
        guards = self._guards(monkeypatch)
        for view in self._layouts(x):
            assert wrap_phase(view, tau).tobytes() == floats.tobytes()
        assert guards == []
        assert wrap_phase(np.empty((0, 3)), tau).shape == (0, 3)

    def test_outside_value_or_nan_takes_the_guards(self, monkeypatch):
        # one value an ulp past (k + 1/2) tau whose ceil form rounds it
        # outside the domain, or one NaN, among interior values
        tau = 0.3
        for k in range(-2000, 2000):
            edge = float(np.nextafter((k + 0.5) * tau, math.inf))
            s = edge - tau * math.ceil(edge / tau - 0.5)
            if not -tau / 2 < s <= tau / 2:
                break
        else:
            pytest.fail("no value rounds outside the domain")
        x = (np.arange(-96, 96).reshape(6, 32) + 0.25) * tau
        guards = self._guards(monkeypatch)
        for bad in (edge, math.nan):
            x[2, 5] = bad
            # the float branch has no NaN: math.ceil rejects it
            floats = np.array([wrap_phase(v, tau) if v == v else v
                               for v in x.ravel().tolist()])
            for view in self._layouts(x):
                guards.clear()
                s = wrap_phase(view, tau)
                assert guards == ["minimum", "copyto"]
                assert np.array_equal(s.ravel(), floats, equal_nan=True)


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

    @pytest.mark.parametrize("dt", [np.nan, np.inf])
    def test_advance_rejects_non_finite_time(self, dt):
        ec = EnhancingClock(tau=1.0, sigma=0.1, eps_tail=0.0)
        with pytest.raises(ValueError, match="advance time dt must be "
                                             "finite"):
            ec.advance(dt)

    def test_advance_rejects_negative_time(self):
        ec = EnhancingClock(tau=1.0, sigma=0.1, eps_tail=0.0)
        with pytest.raises(ValueError, match="cannot advance backwards"):
            ec.advance(-1.0)

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
        phi = sample_tick_phase(ExplicitEC(tau, sigma, eps), rng, 20000)
        inside = (phi > (tau - sigma) / 2) & (phi < (tau + sigma) / 2)
        assert inside.mean() >= 1 - eps - 3 * np.sqrt(eps / 20000)

    def test_scalar_draw_is_rng_uniform_bit_for_bit(self):
        # the scalar branch inlines rng.uniform; a tail level of 0.3 puts
        # many draws in each of its two branches
        ec = ExplicitEC(tau=0.7313, sigma=0.0123, eps_tail=0.3)
        fast, slow = np.random.default_rng(77), np.random.default_rng(77)
        lo, hi = (ec.tau - ec.sigma) / 2, (ec.tau + ec.sigma) / 2
        for _ in range(10 ** 5):
            phi = sample_tick_phase(ec, fast)
            if slow.random() < 1.0 - ec.eps_tail:
                assert phi == slow.uniform(lo, hi)
            else:
                assert phi == slow.uniform(-ec.tau / 2, ec.tau / 2)
        assert fast.random() == slow.random()

    def test_vector_draw_moves_stream_as_one_uniform_each(self):
        # n phases use exactly rng.random(n): a twin generator that drew
        # those uniforms continues with the same numbers, and its
        # uniforms give the phases by the split at keep = 1 - eps_tail
        for eps in (0.0, 0.3):
            ec = ExplicitEC(tau=0.7313, sigma=0.0123, eps_tail=eps)
            rng, twin = np.random.default_rng(5), np.random.default_rng(5)
            phi = sample_tick_phase(ec, rng, (40, 25))
            u = twin.random((40, 25))
            assert rng.random() == twin.random()
            keep = 1.0 - eps
            lo, hi = (ec.tau - ec.sigma) / 2, (ec.tau + ec.sigma) / 2
            expected = lo + (hi - lo) / keep * u
            tail = u >= keep
            expected[tail] = -ec.tau / 2 + ec.tau * (u[tail] - keep) / eps
            assert tail.any() == (eps > 0)
            assert np.array_equal(phi, expected)

    def test_vector_draw_law(self):
        # the tail count is Binomial(n, eps_tail), and window and tail
        # phases are each uniform on their interval; Bonferroni over the
        # three tests keeps the family-wise error rate at 5 percent
        n, eps = 20000, 0.3
        ec = ExplicitEC(tau=0.7313, sigma=0.0123, eps_tail=eps)
        phi = sample_tick_phase(ec, np.random.default_rng(11), n)
        tail = np.random.default_rng(11).random(n) >= 1.0 - eps
        lo, hi = (ec.tau - ec.sigma) / 2, (ec.tau + ec.sigma) / 2
        alpha = 0.05 / 3
        assert stats.binomtest(int(tail.sum()), n, eps).pvalue > alpha
        assert stats.kstest(phi[~tail], stats.uniform(lo, hi - lo).cdf
                            ).pvalue > alpha
        assert stats.kstest(phi[tail], stats.uniform(-ec.tau / 2, ec.tau)
                            .cdf).pvalue > alpha

    def test_no_tail_level_never_takes_the_tail(self):
        class Stub:
            """Hands out uniforms up to the largest double below 1."""

            def random(self, size):
                return np.linspace(0.0, np.nextafter(1.0, 0.0), size)

        ec = ExplicitEC(tau=1.0, sigma=0.1, eps_tail=0.0)
        lo, hi = (ec.tau - ec.sigma) / 2, (ec.tau + ec.sigma) / 2
        phi = sample_tick_phase(ec, Stub(), 1001)
        assert ((phi >= lo) & (phi <= hi)).all()
        assert np.array_equal(phi, lo + (hi - lo) * Stub().random(1001))

    def test_tick_returns_one_reset_clock(self):
        ec = EnhancingClock(tau=1.0, sigma=0.1, eps_tail=0.0, phase=0.2,
                            mode=Mode.TICK)
        rng = np.random.default_rng(3)
        after = ec.tick(rng)[1]
        assert after is ec.tick(rng)[1]
        assert after == EnhancingClock(tau=1.0, sigma=0.1, eps_tail=0.0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            EnhancingClock(tau=1.0, sigma=1.0, eps_tail=0.0)
        with pytest.raises(ValueError):
            EnhancingClock(tau=1.0, sigma=0.1, eps_tail=0.0, phase=0.7)
        with pytest.raises(ValueError):
            EnhancingClock(tau=0.0, sigma=0.0, eps_tail=0.0)


class TestExplicitEC:
    @pytest.mark.parametrize("tau", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_period_outside_positive_reals(self, tau):
        with pytest.raises(ValueError, match="EC period"):
            ExplicitEC(tau=tau, sigma=0.0, eps_tail=0.0)

    @pytest.mark.parametrize("sigma", [-0.5, math.nan, 1.0, 1.5])
    def test_rejects_window_outside_period(self, sigma):
        # the window must lie in [0, tau), here tau = 1
        with pytest.raises(ValueError, match="EC window width"):
            ExplicitEC(tau=1.0, sigma=sigma, eps_tail=0.0)


class TestFreeRun:
    """A free-running EC of period 2 mu: every tick resets it, so its
    gaps are i.i.d. fire delays from phase 0, with mean mu."""

    def test_deterministic_grid(self):
        gaps = fire_delay(np.zeros(4), ExplicitEC(1.0, 0.0, 0.0),
                          np.random.default_rng(0))
        assert np.cumsum(gaps) == pytest.approx([0.5, 1.0, 1.5, 2.0])

    def test_single_tick(self):
        gap = fire_delay(np.zeros(1), ExplicitEC(1.0, 0.0, 0.0),
                         np.random.default_rng(0))
        assert gap.tolist() == [0.5]

    def test_gap_statistics(self):
        rng = np.random.default_rng(2)
        mu, sigma, eps = 0.5, 0.02, 0.001
        gaps = fire_delay(np.zeros(10 ** 5), ExplicitEC(2 * mu, sigma, eps),
                          rng)
        assert gaps.mean() == pytest.approx(mu, abs=3 * sigma)
        covered = np.abs(gaps - mu) < sigma / 2
        assert covered.mean() >= 1 - eps - 3 * np.sqrt(eps / gaps.size)


class TestIdleLaw:
    """The EC's switch-on law takes the idle time since its last reset;
    it holds the wrapped idle time as its dial phase."""

    def test_zero_width_delays(self):
        idle = np.array([0.0, 0.3, 1.3, 2.3, 2.6])
        delays = fire_delay(idle, ExplicitEC(1.0, 0.0, 0.0),
                            np.random.default_rng(0))
        assert delays == pytest.approx([0.5, 0.2, 0.2, 0.2, 0.9])
        broadcast = fire_delay(2.3, ExplicitEC(1.0, 0.0, 0.0),
                               np.random.default_rng(0), 3)
        assert broadcast == pytest.approx([0.2] * 3)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10),
           st.floats(min_value=0.0, max_value=0.99),
           st.floats(min_value=0.0, max_value=50, exclude_max=True),
           st.integers(min_value=0, max_value=2 ** 32))
    def test_window_delay_within_one_period(self, tau, width, cycles, seed):
        # switched on outside the detector window, which spans width / 2
        # either side of each odd multiple of tau/2
        assume(abs(cycles % 1 - 0.5) > width / 2 + 1e-6)
        ec = ExplicitEC(tau, width * tau, 0.0)
        delays = fire_delay(np.full(64, cycles * tau), ec,
                            np.random.default_rng(seed))
        assert ((delays > 0) & (delays <= tau)).all()

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10),
           st.floats(min_value=0.0, max_value=0.99),
           st.floats(min_value=0.0, max_value=0.5),
           st.floats(min_value=0.0, max_value=50),
           st.integers(min_value=0, max_value=2 ** 32))
    def test_every_delay_within_period_and_half_window(self, tau, width,
                                                       eps, cycles, seed):
        # any idle, inside the detector window too, and tail draws
        sigma = width * tau
        delays = fire_delay(np.full(64, cycles * tau),
                            ExplicitEC(tau, sigma, eps),
                            np.random.default_rng(seed))
        bound = (tau + sigma / 2) * (1 + 1e-12)  # rounding of phi - s
        assert ((delays > 0) & (delays <= bound)).all()

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.floats(min_value=-1e6, max_value=1e6),
        # a few ulps either side of a domain edge, (k + 1/2) tau
        st.tuples(st.integers(min_value=-10 ** 6, max_value=10 ** 6),
                  st.integers(min_value=-4, max_value=4))),
        st.one_of(st.floats(min_value=-0.5, max_value=1.0),
                  st.just("hand")),
        st.floats(min_value=0.1, max_value=10))
    def test_scalar_branch_matches_array_branch(self, idle, phase, tau):
        # a float idle takes wrap_phase's scalar branch, the oracle's, and
        # an array its array branch; a tick phase at the hand itself
        # probes the phi <= s edge
        if isinstance(idle, tuple):
            k, ulps = idle
            idle = (k + 0.5) * tau
            for _ in range(abs(ulps)):
                idle = float(np.nextafter(idle, math.copysign(math.inf,
                                                              ulps)))
        phi = float(wrap_phase(idle, tau)) if phase == "hand" \
            else phase * tau
        scalar = delay_to_phase(idle, phi, tau)
        array = delay_to_phase(np.array([idle]), np.array([phi]), tau)
        assert type(scalar) is float
        assert np.array([scalar]).tobytes() == array.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.1, max_value=10),
           st.integers(min_value=0, max_value=2 ** 32))
    def test_many_entry_arrays_match_scalar_oracle(self, tau, seed):
        # 2-D idles, half of them within 4 ulps of a domain edge
        # (k + 1/2) tau, in two memory layouts: contiguous, and a
        # non-contiguous transposed view of a Fortran-order block like
        # the network's; tick phases at the hand or anywhere in
        # (-tau/2, tau); a 0-d idle; then a float idle against an array
        # of phases, EC bunching's fire_delay(0.0, ec, rng, size)
        rng = np.random.default_rng(seed)
        shape = (6, 32)
        edge = (rng.integers(-10 ** 6, 10 ** 6, 96) + 0.5) * tau
        for _ in range(4):
            for sign in (-1.0, 1.0):
                pick = rng.random(edge.size) < 0.3
                edge[pick] = np.nextafter(edge[pick], sign * math.inf)
        idle = np.concatenate([rng.uniform(-1e6, 1e6, 96), edge])
        idle = rng.permutation(idle).reshape(shape)
        hand = rng.random(shape) < 0.25
        phi = np.where(hand, wrap_phase(idle, tau),
                       rng.uniform(-0.5, 1.0, shape) * tau)
        block = np.zeros((shape[1], 2, shape[0]), order="F")
        block[:, 1] = idle.T
        layouts = (idle, block[:, 1].T)
        assert not layouts[1].flags.c_contiguous
        assert not layouts[1].flags.f_contiguous
        wrapped = np.array([wrap_phase(float(x), tau) for x in idle.flat])
        oracle = np.array([delay_to_phase(float(x), float(p), tau)
                           for x, p in zip(idle.flat, phi.flat)])
        for view in layouts:
            assert np.array_equal(view, idle)
            assert wrap_phase(view, tau).tobytes() == wrapped.tobytes()
            assert (delay_to_phase(view, phi, tau).tobytes()
                    == oracle.tobytes())
        assert wrap_phase(idle[:1, :1].reshape(()), tau) == wrapped[0]
        ec = ExplicitEC(tau, 0.3 * tau, 0.2)
        twin = np.random.default_rng(seed)
        oracle = np.array([delay_to_phase(0.0, float(p), tau)
                           for p in sample_tick_phase(ec, twin, 192)])
        assert fire_delay(0.0, ec, np.random.default_rng(seed),
                          192).tobytes() == oracle.tobytes()
        assert (delay_to_phase(0.0, phi, tau).tobytes()
                == np.array([delay_to_phase(0.0, float(p), tau)
                             for p in phi.flat]).tobytes())

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e6)),
           st.integers(min_value=-4, max_value=4),
           st.floats(min_value=0.1, max_value=10))
    def test_late_exactly_when_phase_at_or_behind_hand(self, idle, ulps,
                                                       tau):
        # the late test reads the sign of d = phi - s; tick phases a few
        # ulps either side of the hand, subnormal ones around a hand at 0
        # too, take the extra period exactly where phi <= s
        s = float(wrap_phase(idle, tau))
        phi = s
        for _ in range(abs(ulps)):
            phi = float(np.nextafter(phi, math.copysign(math.inf, ulps)))
        expected = phi - s + (tau if phi <= s else 0.0)
        assert delay_to_phase(idle, phi, tau) == expected
        assert delay_to_phase(np.array([idle]), np.array([phi]),
                              tau)[0] == expected

    def test_array_arguments_are_left_unchanged(self):
        # the network passes a view of its arrival array as ``idle``
        rng = np.random.default_rng(6)
        ec = ExplicitEC(1.0, 0.3, 0.2)
        arrivals = rng.uniform(0.0, 5.0, (40, 3, 4))
        before = arrivals.copy()
        idle = arrivals[:, :, 0]
        phi = rng.uniform(-0.5, 1.0, idle.shape)
        phi_before = phi.copy()
        fire_delay(idle, ec, rng)
        fire_delay(idle, ec, rng, idle.shape)
        delay = delay_to_phase(idle, phi, ec.tau)
        wrap_phase(idle, ec.tau)
        assert arrivals.tobytes() == before.tobytes()
        assert phi.tobytes() == phi_before.tobytes()
        assert not np.shares_memory(delay, arrivals)
        assert not np.shares_memory(delay, phi)

    def test_scalar_calls_give_floats(self):
        ec = ExplicitEC(1.0, 0.3, 0.2)
        assert type(wrap_phase(0.7, 1.0)) is float
        assert type(delay_to_phase(0.7, 0.4, 1.0)) is float
        assert type(delay_to_phase(0.2, 0.4, 1.0)) is float
        clock = EnhancingClock(1.0, 0.3, 0.2, mode=Mode.TICK)
        assert type(clock.tick(np.random.default_rng(0))[0]) is float
        # a scalar idle draws a 0-d phase, and the delay is a numpy float
        delay = fire_delay(0.7, ec, np.random.default_rng(0))
        assert isinstance(delay, float) and np.ndim(delay) == 0

    def test_lower_half_of_window_waits_for_next_turn(self):
        # switched on at s = -0.375, the dial point 0.625 inside the window
        # (0.25, 0.75): a tick phase ahead of it, in (0.625, 0.75), is
        # still taken a whole period later
        delays = fire_delay(np.full(10 ** 4, 1.625), ExplicitEC(1.0, 0.5, 0.0),
                            np.random.default_rng(3))
        assert delays.min() > 0.625 and delays.max() < 1.125
        assert (delays > 1.0).mean() == pytest.approx(0.25, abs=0.02)


class TestQuasiIdeal:
    def test_reference_values(self):
        assert quasi_ideal_ratio(100, 0.1) == pytest.approx(
            100 ** -0.9 + 100 ** -0.925 / math.pi ** 2, abs=1e-12)
        p = quasi_ideal_params(100, 0.1, 1.0)
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

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite_rates_times_and_periods(self, bad):
        with pytest.raises(ValueError, match="rates"):
            MarkovTwoState(bad, 1.0)
        with pytest.raises(ValueError, match="rates"):
            MarkovTwoState(1.0, bad)
        chain = MarkovTwoState(0.3, 0.7)
        with pytest.raises(ValueError, match="time"):
            chain.transition(bad)
        with pytest.raises(ValueError, match="period"):
            chain.periodicity_check(bad)
