import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ticklab import (Box, ConfidenceInterval, Delta, DeltaMixture,
                     ExplicitEC, Gaussian, InaccuracyEstimate, Protocol,
                     ProtocolConfig, TrialMatrix, bruteforce_inaccuracy,
                     chebyshev_bound, corollary_bounds, cross_node_spread,
                     empirical_inaccuracy, hoeffding_inaccuracy_bound,
                     hoeffding_tail, output_epsilon_budget, prepare,
                     theorem1_bound)
from ticklab.inaccuracy import _coverage_count, _scan_windows

positive_samples = st.lists(
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
    min_size=2, max_size=200)

_PREP = prepare(ProtocolConfig(Protocol.INPUT_BUNCH, Box(1.0, 0.5), 0.01, 1,
                               bunch=1))


def _matrix(data) -> TrialMatrix:
    """A ``TrialMatrix`` holding ``data``, shape (trials, ticks)."""
    data = np.array(data, dtype=float)
    return TrialMatrix(prep=_PREP, data=data,
                       n_ignored=np.zeros(len(data), dtype=int))


def batch_estimates(samples, j, eps):
    """``samples`` as the middle tick of three, the other two valid, all
    estimated in one ``TrialMatrix.estimates`` call."""
    x = np.asarray(samples, dtype=float)
    good = np.linspace(1.0, 2.0, x.size)
    return _matrix(np.column_stack([good, x, good])).estimates([1, 2, 3],
                                                               eps)


@st.composite
def trial_matrices(draw):
    """Small matrices of rounded, often tied, tick times with at least
    two trials."""
    ticks = draw(st.integers(min_value=1, max_value=5))
    trials = draw(st.integers(min_value=2, max_value=60))
    value = st.floats(min_value=0.5, max_value=3.0).map(
        lambda v: round(v, 1))
    data = draw(st.lists(st.lists(value, min_size=ticks, max_size=ticks),
                         min_size=trials, max_size=trials))
    return _matrix(data)


class TestEmpiricalInaccuracy:
    def test_constant_samples_give_zero(self):
        est = empirical_inaccuracy([2.5] * 10, 1, 0.1)
        assert est.sigma_ratio == 0.0
        assert est.interval.mu == 2.5

    def test_three_point_hand_example(self):
        # k = ceil(0.66 * 3) = 2; window [1.0, 1.1] has the smaller ratio
        est = empirical_inaccuracy([0.9, 1.0, 1.1], 1, 0.34)
        assert est.interval.left == 1.0
        assert est.interval.right == 1.1
        assert est.sigma_ratio == pytest.approx(0.1 / 1.05)

    def test_tick_index_scales_ratio(self):
        samples = [0.9, 1.0, 1.1, 1.2]
        one = empirical_inaccuracy(samples, 1, 0.1)
        three = empirical_inaccuracy(samples, 3, 0.1)
        assert three.sigma_ratio == pytest.approx(3 * one.sigma_ratio)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="need at least two samples"):
            empirical_inaccuracy([1.0], 1, 0.1)
        with pytest.raises(ValueError):
            empirical_inaccuracy([1.0, -2.0], 1, 0.1)
        with pytest.raises(ValueError):
            empirical_inaccuracy([1.0, 2.0], 0, 0.1)
        with pytest.raises(ValueError):
            empirical_inaccuracy([1.0, 2.0], 1, 1.0)
        with pytest.raises(ValueError, match="need at least two samples"):
            bruteforce_inaccuracy([1.0], 1, 0.1)
        with pytest.raises(ValueError, match="need at least two samples"):
            empirical_inaccuracy([[1.0, 2.0], [1.5, 2.5]], 1, 0.1)
        # a window of (1 - eps) n = 2e-12 samples covers none
        with pytest.raises(ValueError, match="coverage count vanished"):
            empirical_inaccuracy([1.0, 2.0], 1, 1 - 1e-12)

    @pytest.mark.parametrize("estimator", [empirical_inaccuracy,
                                           bruteforce_inaccuracy,
                                           batch_estimates])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_samples(self, estimator, bad):
        for at in (0, 2, 4):  # first, middle, last
            samples = [1.0, 1.1, 0.9, 1.2]
            samples.insert(at, bad)
            with pytest.raises(ValueError, match="must be finite"):
                estimator(samples, 1, 0.1)
        # a non-finite sample is named before a nonpositive one
        with pytest.raises(ValueError, match="must be finite"):
            estimator([0.0, 1.0, bad], 1, 0.1)

    @pytest.mark.parametrize("estimator", [empirical_inaccuracy,
                                           bruteforce_inaccuracy,
                                           batch_estimates])
    @pytest.mark.parametrize("bad", [0.0, -0.0, -2.0, -5e-324])
    def test_rejects_nonpositive_samples(self, estimator, bad):
        for at in (0, 2, 4):  # first, middle, last
            samples = [1.0, 1.1, 0.9, 1.2]
            samples.insert(at, bad)
            with pytest.raises(ValueError, match="strictly positive"):
                estimator(samples, 1, 0.1)

    def test_batch_names_its_first_bad_tick(self):
        # each tick fails as its own estimate would, and the first in
        # the requested order names the error
        matrix = _matrix([[1.0, 0.0], [1.1, 2.0], [math.nan, 3.0]])
        for js, message in (([1, 2], "must be finite"),
                            ([2, 1], "strictly positive")):
            with pytest.raises(ValueError, match=message):
                matrix.estimates(js, 0.1)

    def test_estimates_find_nans_past_the_sorted_tails(self):
        # at eps 0.01, 100 samples sort only their 2 smallest and 2
        # largest; 10 NaNs still reach the end of the row
        x = np.linspace(1.0, 2.0, 100)
        x[::10] = math.nan
        matrix = _matrix(np.column_stack([np.linspace(1.0, 2.0, 100), x]))
        with pytest.raises(ValueError, match="must be finite"):
            matrix.estimates([1, 2], 0.01)

    def test_estimates_need_two_kept_trials(self):
        matrix = _matrix([[1.0, 2.0]])
        with pytest.raises(ValueError, match="need at least two samples"):
            matrix.estimates([1], 0.1)

    def test_scan_needs_a_window_that_reaches_the_need(self):
        # weights summing to 0.6 leave a need of 0.9 out of reach
        with pytest.raises(ValueError, match="no interval reaches"):
            _scan_windows(np.array([[1.0, 2.0]]), [1], 0.1, [0.3, 0.3], 0.9)

    @pytest.mark.parametrize("js", [[0], [4, 1], [1, 4, 2], [1, 2, -1]])
    def test_estimates_check_every_tick_first(self, js):
        # one trial holding a NaN would fail the scan; the tick checks
        # come before anything is gathered or sorted, and the first bad
        # tick in js names the error
        matrix = _matrix([[1.0, math.nan, 1.0]])
        message = "out of range" if min(js) >= 1 else \
            "must be a positive integer"
        with pytest.raises(ValueError, match=f"^tick index {message}$"):
            matrix.estimates(js, 0.1)

    def test_coverage_count_resists_float_noise(self):
        # (1 - 0.01) * 100000 overshoots 99000 in floating point; the
        # window size must still be 99000, not 99001
        rng = np.random.default_rng(0)
        samples = rng.uniform(0.5, 1.5, 100000)
        est = empirical_inaccuracy(samples, 1, 0.01)
        x = np.sort(samples)
        k = 99000
        lo, hi = x[: x.size - k + 1], x[k - 1:]
        best = ((hi - lo) / ((hi + lo) / 2)).min()
        assert est.sigma_ratio == best

    def test_estimator_matches_analytic_interval(self):
        rng = np.random.default_rng(1)
        dist = Box(center=1.0, width=0.5)
        samples = dist.sample(rng, 100000)
        est = empirical_inaccuracy(samples, 1, 0.01)
        exact = dist.confidence(0.01)
        assert est.sigma_ratio == pytest.approx(exact.sigma / exact.mu,
                                                abs=0.01)

    @settings(max_examples=60, deadline=None)
    @given(positive_samples, st.sampled_from([0.01, 0.1, 0.34]))
    def test_oracle_equivalence(self, samples, eps):
        fast = empirical_inaccuracy(samples, 1, eps)
        slow = bruteforce_inaccuracy(samples, 1, eps)
        assert fast.sigma_ratio == slow.sigma_ratio
        assert fast.interval == slow.interval

    @settings(max_examples=60, deadline=None)
    @given(trial_matrices(), st.sampled_from([0.0, 0.01, 0.1, 0.34, 0.6]),
           st.data())
    def test_batch_matches_oracle(self, matrix, eps, data):
        # unsorted, repeated tick indices, e.g. [3, 1, 3]
        js = data.draw(st.lists(
            st.integers(min_value=1, max_value=matrix.data.shape[1]),
            min_size=1, max_size=6))
        batch = matrix.estimates(js, eps)
        for j, fast in zip(js, batch):
            slow = bruteforce_inaccuracy(matrix.tick_samples(j), j, eps)
            assert fast.sigma_ratio == slow.sigma_ratio
            assert fast.interval == slow.interval
        assert batch == [matrix.estimate(j, eps) for j in js]

    @settings(max_examples=60, deadline=None)
    @given(positive_samples,
           st.floats(min_value=0.1, max_value=1000.0),
           st.sampled_from([0.05, 0.2]))
    def test_scale_invariance(self, samples, c, eps):
        base = empirical_inaccuracy(samples, 1, eps).sigma_ratio
        scaled = empirical_inaccuracy([c * x for x in samples],
                                      1, eps).sigma_ratio
        assert scaled == pytest.approx(base, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(positive_samples)
    def test_monotone_in_eps(self, samples):
        ratios = [empirical_inaccuracy(samples, 1, eps).sigma_ratio
                  for eps in (0.0, 0.1, 0.2, 0.4)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))


class TestHoeffding:
    def test_values(self):
        assert hoeffding_tail(0.0, 1, 100) == pytest.approx(0.0, abs=1e-12)
        assert hoeffding_tail(0.01, 1, 3) == pytest.approx(0.03200, abs=1e-5)
        assert hoeffding_tail(0.01, 4, 3) == pytest.approx(0.06074, abs=1e-5)

    def test_clamped_to_unit_interval(self):
        assert hoeffding_tail(0.9, 50, 0.1) <= 1.0
        assert hoeffding_tail(0.0, 1, 0.01) >= 0.0

    def test_bound_values(self):
        assert hoeffding_inaccuracy_bound(0.0, 7, 3) == 0.0
        assert hoeffding_inaccuracy_bound(0.1, 4, 3) == pytest.approx(1.2)
        assert hoeffding_inaccuracy_bound(0.33, 1, 2) == pytest.approx(1.32)

    def test_bound_rejects_large_sigma(self):
        with pytest.raises(ValueError):
            hoeffding_inaccuracy_bound(1.2, 1, 3)

    def test_empirical_coverage(self):
        # the interval of width 2 n sqrt(j) sigma1 around j mu misses the
        # j-th tick no more often than the tail formula allows
        rng = np.random.default_rng(2)
        dist = Box(center=1.0, width=0.6)
        conf = dist.confidence(0.05)
        n, j, trials = 2.0, 5, 40000
        sums = dist.sample(rng, (trials, j)).sum(axis=1)
        half = n * math.sqrt(j) * conf.sigma
        missed = np.mean(np.abs(sums - j * conf.mu) > half)
        budget = hoeffding_tail(0.05, j, n)
        mc_sd = math.sqrt(budget * (1 - budget) / trials)
        assert missed <= budget + 3 * mc_sd

    def test_sqrt_growth_for_iid_sums(self):
        rng = np.random.default_rng(3)
        dist = Gaussian(mu=1.0, sd=0.05)
        draws = dist.sample(rng, (20000, 50))
        sums = np.cumsum(draws, axis=1)
        js = range(1, 51)
        sig = [empirical_inaccuracy(sums[:, j - 1], j, 0.05).sigma_ratio
               for j in js]
        slope = np.polyfit(np.log(list(js)), np.log(sig), 1)[0]
        assert slope == pytest.approx(0.5, abs=0.1)


@pytest.mark.parametrize("sigma, eps, message", [
    (-0.1, 0.1, "interval width must be nonnegative"),
    (0.1, -0.1, r"tail level must lie in \[0, 1\]"),
    (0.1, 1.5, r"tail level must lie in \[0, 1\]"),
    (0.1, math.nan, r"tail level must lie in \[0, 1\]"),
])
def test_confidence_interval_rejects_bad_fields(sigma, eps, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        ConfidenceInterval(1.0, sigma, eps)


@pytest.mark.parametrize("bound,args", [
    (hoeffding_tail, (math.nan, 2, 3)),
    (hoeffding_tail, (0.01, math.nan, 3)),
    (hoeffding_tail, (0.01, 2, math.nan)),
    (hoeffding_inaccuracy_bound, (math.nan, 2, 3)),
    (hoeffding_inaccuracy_bound, (0.1, math.nan, 3)),
    (hoeffding_inaccuracy_bound, (0.1, 2, math.nan)),
    (chebyshev_bound, (math.nan, 1, 0.1)),
    (chebyshev_bound, (100.0, math.nan, 0.1)),
    (chebyshev_bound, (100.0, 1, math.nan)),
])
def test_bound_helpers_reject_nan(bound, args):
    with pytest.raises(ValueError):
        bound(*args)


class TestChebyshev:
    def test_values(self):
        assert chebyshev_bound(100.0, 1, 0.04) == 0.5
        assert chebyshev_bound(100.0, 4, 0.04) == pytest.approx(1.0)

    def test_sqrt_j_scaling(self):
        base = chebyshev_bound(50.0, 2, 0.1)
        assert chebyshev_bound(50.0, 8, 0.1) == pytest.approx(2 * base)

    def test_rejects_zero_eps(self):
        with pytest.raises(ValueError):
            chebyshev_bound(100.0, 1, 0.0)

    @pytest.mark.parametrize("dist", [
        Box(center=1.0, width=0.5),
        Gaussian(mu=1.0, sd=0.1),
        DeltaMixture(((0.9, 0.5), (1.1, 0.5))),
    ])
    def test_consistent_with_estimator(self, dist):
        rng = np.random.default_rng(5)
        first = np.atleast_2d(dist.sample(rng, (20000, 4)))
        sums = np.cumsum(first, axis=1)
        # first-tick accuracy R_1 = mean^2 / variance
        r1 = sums[:, 0].mean() ** 2 / sums[:, 0].var(ddof=1)
        for j in (1, 2, 4):
            emp = empirical_inaccuracy(sums[:, j - 1], j, 0.05).sigma_ratio
            assert emp <= chebyshev_bound(r1, j, 0.05)


_THREE = [1.0, 1.1, 1.2]
_TWO_TICKS = np.column_stack([_THREE, _THREE])  # three trials, two ticks


def _ec_run(eps=0.01, period_tick=1):
    return ProtocolConfig(Protocol.DYN_SWITCH, Box(1.0, 0.5), eps, 1,
                          ec=ExplicitEC(0.7, 0.1, 0.0),
                          period_tick=period_tick)


_TICK_ENTRIES = {
    "empirical_inaccuracy": lambda j: empirical_inaccuracy(_THREE, j, 0.1),
    "bruteforce_inaccuracy": lambda j: bruteforce_inaccuracy(_THREE, j,
                                                             0.1),
    "hoeffding_tail": lambda j: hoeffding_tail(0.01, j, 2.0),
    "hoeffding_inaccuracy_bound": lambda j: hoeffding_inaccuracy_bound(
        0.1, j, 2.0),
    "chebyshev_bound": lambda j: chebyshev_bound(100.0, j, 0.04),
    "output_epsilon_budget": lambda j: output_epsilon_budget(0.01, 0.001,
                                                             j),
    "period_tick": lambda j: _ec_run(period_tick=j),
    "tick_samples": lambda j: _matrix(_TWO_TICKS).tick_samples(j),
    "TrialMatrix.estimates": lambda j: _matrix(_TWO_TICKS).estimates(
        [j], 0.1)[0],
}


@pytest.mark.parametrize("j", [0, -1, math.nan], ids=["0", "-1", "nan"])
@pytest.mark.parametrize("entry", _TICK_ENTRIES)
def test_tick_index_must_be_positive(entry, j):
    with pytest.raises(ValueError,
                       match="^tick index must be a positive integer$"):
        _TICK_ENTRIES[entry](j)


@pytest.mark.parametrize("j", [1.5, 2.0, math.inf, np.float64(2.5)],
                         ids=["1.5", "2.0", "inf", "float64"])
@pytest.mark.parametrize("entry", _TICK_ENTRIES)
def test_tick_index_must_be_an_integer(entry, j):
    with pytest.raises(ValueError,
                       match="^tick index must be a positive integer$"):
        _TICK_ENTRIES[entry](j)


@pytest.mark.parametrize("j", [2, np.int64(2), np.int32(2)],
                         ids=["int", "int64", "int32"])
@pytest.mark.parametrize("entry", _TICK_ENTRIES)
def test_integer_tick_index_is_accepted(entry, j):
    result = _TICK_ENTRIES[entry](j)
    if isinstance(result, InaccuracyEstimate):
        assert result.tick_index == 2


@pytest.mark.parametrize("bound", [
    lambda j: theorem1_bound(0.1, 0.04, j),
    lambda j: corollary_bounds(0.1, 100, 0.1, j),
], ids=["theorem1_bound", "corollary_bounds"])
def test_bound_tick_index_must_be_an_integer(bound):
    assert bound(2) == bound(np.int64(2))
    for j in (1.5, 2.0):
        with pytest.raises(ValueError, match="tick index >= 1"):
            bound(j)


_TAIL_ENTRIES = {
    "Delta.confidence": Delta(1.0).confidence,
    "Box.confidence": Box(1.0, 0.5).confidence,
    "Gaussian.confidence": Gaussian(1.0, 0.1).confidence,
    "DeltaMixture.confidence": DeltaMixture(((0.9, 0.5),
                                             (1.1, 0.5))).confidence,
    "ProtocolConfig.eps": lambda eps: _ec_run(eps=eps),
    "empirical_inaccuracy": lambda eps: empirical_inaccuracy(_THREE, 1,
                                                             eps),
    "bruteforce_inaccuracy": lambda eps: bruteforce_inaccuracy(_THREE, 1,
                                                               eps),
    "TrialMatrix.estimates": lambda eps: _matrix(
        [[1.0, 2.0], [1.1, 2.1], [1.2, 2.2]]).estimates([1, 2], eps),
    "cross_node_spread": lambda eps: cross_node_spread(
        [[1.0], [1.1], [1.2]], 0, eps),
}


@pytest.mark.parametrize("eps", [math.nan, -0.1, 1.0],
                         ids=["nan", "-0.1", "1.0"])
@pytest.mark.parametrize("entry", _TAIL_ENTRIES)
def test_tail_level_must_lie_in_unit_interval(entry, eps):
    with pytest.raises(ValueError,
                       match=r"^tail level must lie in \[0, 1\)$"):
        _TAIL_ENTRIES[entry](eps)


def test_cross_node_spread_trims_to_the_estimators_count():
    # (1 - 0.7) 10 = 3.0000000000000004, so the trimmed width spans the
    # k = 3 values that the estimator's window would, not 4
    assert (1 - 0.7) * 10 == 3.0000000000000004
    assert _coverage_count(10, 0.7) == 3
    values = [0.0, 10.0, 11.0, 12.0, 30.0, 31.0, 50.0, 51.0, 52.0, 53.0]
    assert cross_node_spread([[v] for v in values], 0, 0.7) == (53.0, 2.0)
