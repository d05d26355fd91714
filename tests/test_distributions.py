import decimal
import itertools
import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from ticklab import (Box, ConfidenceInterval, Delta, DeltaMixture, Gaussian,
                     distributions)
from ticklab.distributions import (_ALIAS_CHUNK, _ALIAS_MAX, _BIT_PLANES,
                                   _MASS_TOL, _PLANE_WEIGHTS, _alias_pairs,
                                   _normal_tail, _pair_alias)


class TestDelta:
    def test_sampling_is_constant(self):
        rng = np.random.default_rng(0)
        d = Delta(1.0)
        assert np.array_equal(d.sample(rng, (2, 3)), np.ones((2, 3)))
        assert np.all(d.sample(rng, 100) == 1.0)

    def test_confidence_is_point(self):
        c = Delta(1.0).confidence(0.1)
        assert (c.mu, c.sigma) == (1.0, 0.0)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Delta(0.0)


class TestBox:
    def test_large_sample_statistics(self):
        rng = np.random.default_rng(1)
        x = Box(center=1.0, width=0.66).sample(rng, 10 ** 6)
        assert np.mean(x) == pytest.approx(1.0, abs=0.001)
        assert x.min() >= 0.67
        assert x.max() <= 1.33

    def test_confidence_hugs_right_edge(self):
        c = Box(center=1.0, width=0.6).confidence(0.1)
        assert c.sigma == pytest.approx(0.54)
        assert c.mu == pytest.approx(1.03)
        assert c.right == pytest.approx(1.3)

    def test_confidence_matches_grid_search(self):
        # independent check: slide a mass-0.9 window across the support
        box = Box(center=1.0, width=0.6)
        c = box.confidence(0.1)
        lo, hi = box.support()
        span = 0.9 * box.width
        lefts = np.linspace(lo, hi - span, 20001)
        ratios = span / (lefts + span / 2)
        assert c.sigma / c.mu == pytest.approx(ratios.min(), abs=1e-9)

    def test_rejects_support_through_zero(self):
        with pytest.raises(ValueError):
            Box(center=1.0, width=2.0)

    @pytest.mark.parametrize("box", [Box(1.0, 0.3333333333), Box(0.3, 0.05),
                                     Box(0.05, 0.04), Box(1e3, 1.9e3)])
    @pytest.mark.parametrize("size", [10 ** 5, (7, 512), ()])
    def test_draw_is_rng_uniform_bit_for_bit(self, box, size):
        # sample inlines rng.uniform's arithmetic in place, and moves the
        # stream exactly as rng.random(size) does
        rng, twin, raw = (np.random.default_rng(77) for _ in range(3))
        lo, hi = box.support()
        x = box.sample(rng, size)
        assert x.tobytes() == twin.uniform(lo, hi, size).tobytes()
        raw.random(size)
        assert rng.random() == twin.random() == raw.random()


def lattice_words(seed, n):
    """The n 32-bit words ``Box.bunch_sums`` draws for n waits from a
    fresh ``default_rng(seed)``, as Python ints."""
    raw = np.random.default_rng(seed).bit_generator.random_raw(-(-n // 2))
    return [int(w) for w in raw.view(np.uint32)[:n]]


def lattice_sums(box, seed, n, d):
    """n sums of d waits of ``box`` from a fresh ``default_rng(seed)``, each
    wait a 2^-32 lattice midpoint of one 32-bit word and the words summed
    as integers, at any d: the sum ``Box.bunch_sums`` draws below
    ``_BIT_PLANES``.  Drawn 64 bunches at a time, so that a large d holds
    few words at once."""
    rng = np.random.default_rng(seed)
    cells = []
    for rows in np.diff(np.r_[0:n:64, n]):
        raw = rng.bit_generator.random_raw(-(-rows * d // 2))
        u = raw.view(np.uint32)[:rows * d].reshape(rows, d)
        cells.append(u.sum(-1, dtype=np.uint64))
    cells = np.concatenate(cells)
    return d * box.support()[0] + box.width * 2.0 ** -32 * (cells + d / 2)


def alias_columns(d):
    """``_pair_alias(d)``'s table as a plain alias table in Python ints: the
    column width 2^shift, the first column's outcome, and each column's
    threshold and alias.  Below its threshold column c draws first + c,
    from there on its alias; a full column, which is its own alias, has
    threshold 2^shift."""
    shift, bound, pair = _pair_alias(d)
    shift, first = int(shift), int(pair[0])
    thresholds, aliases = [], []
    for c in range(len(bound)):
        assert int(pair[2 * c]) == first + c
        alias = int(pair[2 * c + 1])
        thresholds.append(1 << shift if alias == first + c
                          else int(bound[c]) - (c << shift))
        aliases.append(alias)
    return shift, first, thresholds, aliases


def alias_mass(d):
    """The words of each outcome 0..3d of ``alias_columns(d)``'s table."""
    shift, first, thresholds, aliases = alias_columns(d)
    mass = [0] * (3 * d + 1)
    for c, (t, a) in enumerate(zip(thresholds, aliases)):
        assert 0 <= t <= 1 << shift
        if t:
            mass[first + c] += t
        if t < 1 << shift:
            mass[a] += (1 << shift) - t
    return mass


def alias_sums(box, words, d):
    """Exact sums of d waits of ``box`` from the 64-bit ``words``, 16 per
    bunch: word p of a bunch gives the count M_p = N_2p + 2 N_2p+1 of bit
    planes 2p and 2p + 1 by one plain alias lookup on ``alias_columns(d)``,
    and the bunch's cells sum to sum_p 4^p M_p, the sum ``Box.bunch_sums``
    draws from ``_BIT_PLANES`` to ``_ALIAS_MAX``."""
    shift, first, thresholds, aliases = alias_columns(d)
    counts = []
    for w in words:
        c = w >> shift
        counts.append(first + c if w & ((1 << shift) - 1) < thresholds[c]
                      else aliases[c])
    lo, width = Fraction(box.support()[0]), Fraction(box.width)
    sums = []
    for k in range(0, len(counts), 16):
        cells = sum(m << 2 * p for p, m in enumerate(counts[k:k + 16]))
        # each wait is its cell's midpoint, lo + width (u + 1/2) / 2^32
        sums.append(d * lo + width * Fraction(2 * cells + d, 2 ** 33))
    return sums


def binomials(d):
    """C(d, k) for k = 0..d; math.comb at every k would take a second at
    d = 4096."""
    combs = [1]
    for k in range(d):
        combs.append(combs[-1] * (d - k) // (k + 1))
    return combs


def pair_law(d):
    """4^d P(N_0 + 2 N_1 = m) for m = 0..3d and i.i.d. N_b ~ Bin(d, 1/2):
    the coefficients of (1 + x)^d (1 + x^2)^d, by Kronecker substitution of
    x = 10^w in one product of exact decimals, which the decimal module
    multiplies by number-theoretic transform (Python ints take three times
    as long at d = 1024)."""
    w = len(str(4 ** d))  # each coefficient lies below 4^d
    # highest power first, which C(d, k) = C(d, d - k) leaves as it is
    combs = [str(c).zfill(w) for c in binomials(d)]
    exact = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX)
    digits = str(exact.multiply(decimal.Decimal("".join(combs)),
                                decimal.Decimal(("0" * w).join(combs))))
    digits = digits.zfill((3 * d + 1) * w)
    return [int(digits[i:i + w]) for i in range(0, len(digits), w)][::-1]


def digit_law(d):
    """C_m = 4^d P(N_0 + 2 N_1 = m) for m = 0..3d, the coefficients of
    (1 + x + x^2 + x^3)^d, by the exact recurrence of P = that power,
    (1 + x + x^2 + x^3) P' = d (1 + 2x + 3x^2) P, over the whole range;
    fast where ``pair_law`` takes seconds (d = 4096).  Checked on the way
    out: the C_m sum to 4^d, are symmetric, and sum_m C_m r^m is
    (1 + r + r^2 + r^3)^d modulo the prime 2^61 - 1 at a few r."""
    law = [0, 0, 1]  # C_-2, C_-1 and C_0
    for m in range(3 * d):
        law.append(((d - m) * law[-1] + (2 * d - m + 1) * law[-2]
                    + (3 * d - m + 2) * law[-3]) // (m + 1))
    law = law[2:]
    assert sum(law) == 4 ** d
    assert law == law[::-1]
    prime = 2 ** 61 - 1
    residues = [c % prime for c in law]
    for r in (2, 12345, 2 ** 40 + 15):
        value = 0
        for c in reversed(residues):
            value = (value * r + c) % prime
        assert value == pow(1 + r + r * r + r ** 3, d, prime)
    return law


def rounded_law(law, d):
    """The 2^64-word counts of C_m / 4^d, ``law`` as ``pair_law`` gives
    it: C_m 2^64 / 4^d rounded once, the residual on the mode."""
    counts = [((c << 64) + (1 << (2 * d - 1))) >> (2 * d) for c in law]
    counts[counts.index(max(counts))] += (1 << 64) - sum(counts)
    return counts


class TestPairAlias:
    @pytest.mark.parametrize("d", [_BIT_PLANES, 256, 257, 1000, 1024])
    def test_table_law_is_within_2_53_of_the_pair_law(self, d):
        shift, _, thresholds, _ = alias_columns(d)
        assert len(thresholds) == 2 ** (64 - shift)
        mass = alias_mass(d)
        assert sum(mass) == 2 ** 64
        # twice the distance to the exact law, in units of 2^-(64 + 2d)
        l1 = sum(abs((m << 2 * d) - (p << 64))
                 for m, p in zip(mass, pair_law(d)))
        assert Fraction(l1, 2 ** (65 + 2 * d)) <= Fraction(1, 2 ** 53)

    @pytest.mark.parametrize("d", [33, 257, 1024])
    def test_table_counts_are_the_rounded_law(self, d):
        # d = 33 is the first d whose counts are rounded: 2^64 / 4^d is no
        # longer a whole number of words
        assert alias_mass(d) == rounded_law(pair_law(d), d)

    @pytest.mark.parametrize("d", [1, 33, 257])
    def test_digit_law_is_the_pair_law(self, d):
        assert digit_law(d) == pair_law(d)

    def test_largest_table_is_within_2_56_of_the_pair_law(self):
        # pair_law would take seconds at _ALIAS_MAX; digit_law checks its
        # own coefficients
        d = _ALIAS_MAX
        law = digit_law(d)
        mass = alias_mass(d)
        assert mass == rounded_law(law, d)
        # twice the distance to the exact law, in units of 2^-(64 + 2d)
        l1 = sum(abs((m << 2 * d) - (c << 64)) for m, c in zip(mass, law))
        assert Fraction(l1, 2 ** (65 + 2 * d)) <= Fraction(1, 2 ** 56)

    @pytest.mark.parametrize("d", [_BIT_PLANES, 257])
    def test_threshold_words_draw_the_alias(self, d):
        # in each column that holds two outcomes, the word below the
        # threshold still draws the column and the threshold word its alias
        shift, first, thresholds, aliases = alias_columns(d)
        split = [c for c, t in enumerate(thresholds) if 0 < t < 1 << shift]
        words = [(c << shift) + thresholds[c] + k
                 for c in split for k in (-1, 0)]
        words += [0] * (-len(words) % 16)
        raw = np.array(words, dtype=np.uint64)
        rng = SimpleNamespace(bit_generator=SimpleNamespace(
            random_raw=lambda shape: raw.reshape(shape)))
        counts = _alias_pairs(rng, (len(words) // 16,), d).ravel()
        expected = [v for c in split for v in (first + c, aliases[c])]
        assert counts[:len(expected)].tolist() == expected

    @pytest.mark.parametrize("d", [1, 2, 3, 32])
    def test_small_tables_hold_the_exact_law(self, d):
        # up to d = 32 each count C_m 2^64 / 4^d is a whole number of
        # words, so the table draws the exact law
        assert [m * 4 ** d for m in alias_mass(d)] == [
            p << 64 for p in pair_law(d)]


class TestBoxBunchSums:
    BOX = Box(center=1.0, width=0.33)

    def test_bit_planes_match_lattice_sums(self):
        # the alias range's ends and the binomial planes above it;
        # family-wise 5 % over the four d
        ds = (_BIT_PLANES, 1024, _ALIAS_MAX, _ALIAS_MAX + 1)
        for i, d in enumerate(ds):
            planes = self.BOX.bunch_sums(np.random.default_rng(30 + i),
                                         (2000,), d)
            lattice = lattice_sums(self.BOX, 40 + i, 2000, d)
            assert stats.ks_2samp(planes, lattice).pvalue > 0.05 / len(ds)

    @pytest.mark.parametrize("d", [_BIT_PLANES, 256, 1000, _ALIAS_MAX])
    def test_alias_plane_sum_matches_exact_alias_lookup(self, d):
        # one 64-bit word per pair of planes, read by a plain alias lookup,
        # and the generator left where the oracle's is
        shape = (3, 5)
        rng = np.random.default_rng(9)
        sums = self.BOX.bunch_sums(rng, shape, d)
        oracle_rng = np.random.default_rng(9)
        words = oracle_rng.bit_generator.random_raw(math.prod(shape) * 16)
        exact = alias_sums(self.BOX, [int(w) for w in words], d)
        for got, want in zip(sums.ravel(), exact):
            assert abs(Fraction(float(got)) - want) <= 1e-15 * want
        assert rng.random() == oracle_rng.random()

    def test_binomial_planes_draw_alike_in_chunks(self):
        # above _ALIAS_MAX the planes are drawn _ALIAS_CHUNK counts at a
        # time: (600, 2) bunches take three chunks and must draw what one
        # draw of all their planes would
        d, shape = _ALIAS_MAX + 1, (600, 2)
        assert shape[0] * shape[1] * 32 > 2 * _ALIAS_CHUNK
        sums = self.BOX.bunch_sums(np.random.default_rng(11), shape, d)
        planes = np.random.default_rng(11).binomial(d, 0.5, (*shape, 32))
        cells = planes @ _PLANE_WEIGHTS
        lo = self.BOX.support()[0]
        assert np.array_equal(
            sums, d * lo + self.BOX.width * 2.0 ** -32 * (cells + d / 2))

    def test_law_matches_float_sums(self):
        # family-wise 5 % over the four d
        ds = (1, 3, 64, 1024)
        for i, d in enumerate(ds):
            n = 4000
            lattice = self.BOX.bunch_sums(np.random.default_rng(10 + i),
                                          (n,), d)
            floats = self.BOX.sample(np.random.default_rng(20 + i),
                                     (n, d)).sum(-1)
            assert stats.ks_2samp(lattice, floats).pvalue > 0.05 / len(ds)

    @pytest.mark.parametrize("d", [1, 3, 64, 1024, _ALIAS_MAX + 1])
    def test_sums_lie_strictly_inside_the_support(self, d):
        sums = self.BOX.bunch_sums(np.random.default_rng(d), (300, 2), d)
        lo, hi = self.BOX.support()
        assert sums.shape == (300, 2)
        assert (sums > d * lo).all() and (sums < d * hi).all()

    @pytest.mark.parametrize("shape", [(0, 3), (4, 0)])
    @pytest.mark.parametrize("dist,d", [
        (BOX, 3), (BOX, 256), (BOX, _ALIAS_MAX + 1),
        (Gaussian(1.0, 0.5), 3)])
    def test_empty_shapes_draw_empty_sums(self, dist, d, shape):
        sums = dist.bunch_sums(np.random.default_rng(0), shape, d)
        assert sums.shape == shape

    def test_numpy_integer_bunch_draws_alike(self):
        # the alias table's exact ints must not take a numpy integer's
        # fixed width, so the table is built anew from one
        _pair_alias.cache_clear()
        sums = [self.BOX.bunch_sums(np.random.default_rng(6), (40, 2), n)
                for n in (np.int32(_BIT_PLANES), np.int64(_BIT_PLANES),
                          _BIT_PLANES)]
        assert np.array_equal(sums[0], sums[2])
        assert np.array_equal(sums[1], sums[2])

    def test_float_sum_matches_exact_integer_sum(self):
        # (3, 5) bunches of 7 waits: 105 words, so half of the last 64-bit
        # word is dropped
        shape, d = (3, 5), 7
        sums = self.BOX.bunch_sums(np.random.default_rng(8), shape, d)
        words = lattice_words(8, math.prod(shape) * d)
        lo = Fraction(self.BOX.support()[0])
        width = Fraction(self.BOX.width)
        for k, got in enumerate(sums.ravel()):
            # each wait is its cell's midpoint, lo + width (u + 1/2) / 2^32
            cells = sum(words[k * d:(k + 1) * d])
            exact = d * lo + width * Fraction(2 * cells + d, 2 ** 33)
            assert abs(Fraction(float(got)) - exact) <= 1e-15 * exact


class TestGaussian:
    def test_samples_positive(self):
        rng = np.random.default_rng(2)
        x = Gaussian(mu=0.5, sd=1.0).sample(rng, 20000)
        assert np.all(x > 0)

    def test_confidence_near_symmetric_quantiles(self):
        c = Gaussian(mu=1.0, sd=0.1).confidence(0.05)
        assert c.sigma == pytest.approx(2 * 1.96 * 0.1, abs=2e-3)
        # minimising width over center shifts the interval slightly right
        assert c.mu == pytest.approx(1.0, abs=0.02)

    def test_confidence_matches_grid_search(self):
        g = Gaussian(mu=1.0, sd=0.2)
        eps = 0.1
        c = g.confidence(eps)
        a = (0 - 1.0) / 0.2
        law = stats.truncnorm(a, np.inf, loc=1.0, scale=0.2)
        grid = np.linspace(1e-6, eps - 1e-6, 5001)
        lo = law.ppf(grid)
        hi = law.ppf(grid + 1 - eps)
        ratios = (hi - lo) / ((hi + lo) / 2)
        assert c.sigma / c.mu <= ratios.min() + 1e-9
        assert c.sigma / c.mu == pytest.approx(ratios.min(), abs=1e-5)

    @pytest.mark.parametrize("z", [6.0, 9.0, 10.0])
    def test_lower_tail_matches_scipy(self, z):
        # NormalDist().cdf(-z) is already 0.0 at z = 8.5
        assert _normal_tail(z) == pytest.approx(stats.norm.sf(z), rel=1e-12)

    def test_one_normal_bunch_sums_match_per_wait_sums(self):
        gauss, d = Gaussian(1.0, 0.1), 64
        assert d * _normal_tail(1.0 / 0.1) <= 2.0 ** -53
        one = gauss.bunch_sums(np.random.default_rng(50), (4000,), d)
        per_wait = gauss.sample(np.random.default_rng(51), (4000, d)).sum(-1)
        assert stats.ks_2samp(one, per_wait).pvalue > 0.05

    def test_bunch_sums_at_the_gate(self):
        # z is the mu / sd at which d Phi(-mu / sd) = 2^-53: just below
        # it a bunch sums its waits, just above it is one normal draw
        d, size = 64, (50, 3)
        z = optimize.brentq(lambda z: d * stats.norm.sf(z) - 2.0 ** -53,
                            5.0, 20.0)
        outside = Gaussian(1.0, 1.0 / (z * (1 - 1e-3)))
        assert np.array_equal(
            outside.bunch_sums(np.random.default_rng(7), size, d),
            outside.sample(np.random.default_rng(7), (*size, d)).sum(-1))
        inside = Gaussian(1.0, 1.0 / (z * (1 + 1e-3)))
        assert np.array_equal(
            inside.bunch_sums(np.random.default_rng(7), size, d),
            np.random.default_rng(7).normal(d, math.sqrt(d) * inside.sd,
                                            size))

    @pytest.mark.parametrize("mu, sd, eps, a", [
        (1.0, 1e-4, 1e-16, 1e-16),  # a + 1 - eps rounds
        # hi is +inf past a = ulp(1) / 2, where a + 1.0 leaves 1.0
        (1.0, 0.01, 1.6e-16, math.ulp(1.0) / 2),
    ])
    def test_an_end_of_the_bracket_can_win(self, mu, sd, eps, a):
        # at eps near 1e-16, a + 1 - eps takes one of a few doubles, so
        # the ratio is a step function of a, and the window at the end of
        # a step wins
        g = Gaussian(mu, sd)
        lo, hi = g._quantile(a), g._quantile(a + 1.0 - eps)
        assert g.confidence(eps) == ConfidenceInterval((lo + hi) / 2,
                                                       hi - lo, eps)

    @pytest.mark.parametrize("eps", [5e-324, 1e-320, 2.5e-320, 1e-310])
    def test_subnormal_eps_searches_to_a_positive_tolerance(
            self, eps, monkeypatch):
        # 1e-4 eps rounds to 0 below about 2.5e-320; at a zero tolerance
        # the search ends only when ties move the bracket, and a ratio
        # that falls across a bracket one subnormal step wide cycles
        search = distributions._golden_section_min

        def checked(f, lo, hi, xatol):
            assert xatol >= math.ulp(0.0)
            return search(f, lo, hi, xatol)

        monkeypatch.setattr(distributions, "_golden_section_min", checked)
        g = Gaussian(1.0, 0.1)
        # 1 - eps rounds to 1, so every window reaches the open tail
        lo, hi = g._quantile(0.0), g._quantile(1.0 - eps)
        assert hi == math.inf
        assert g.confidence(eps) == ConfidenceInterval((lo + hi) / 2,
                                                       hi - lo, eps)

    @pytest.mark.parametrize("hi", [5e-324, 1e-320])
    def test_search_ends_at_one_subnormal_step(self, hi):
        # a falling function keeps the search at the top of the bracket,
        # where a zero tolerance would cycle; one step ends it
        calls = itertools.count()

        def falling(a):
            assert next(calls) < 100
            return -a

        x = distributions._golden_section_min(falling, 0.0, hi,
                                              math.ulp(0.0))
        assert 0.0 <= x <= hi

    @pytest.mark.parametrize("mu, sd, eps", [
        *itertools.product((1.0,), (0.1, 0.01, 10.0),
                           (1e-13, 5e-12, 1e-10)),
        (1.0, 10.0, 1.5e-12),   # a bracket of a few 1e-12
        (1.0, 0.01, 2.5e-16),   # hi is +inf on the upper half of [0, eps]
    ])
    def test_small_eps_matches_grid_minimum(self, mu, sd, eps):
        # the search's tolerance shrinks with eps, so a small bracket
        # [0, eps] is searched as finely as a large one
        g = Gaussian(mu, sd)

        def ratio(a):
            lo, hi = g._quantile(a), g._quantile(a + 1.0 - eps)
            return (hi - lo) / ((hi + lo) / 2) if hi < math.inf else math.inf

        c = g.confidence(eps)
        best = min(ratio(a) for a in np.linspace(0.0, eps, 4001))
        assert c.sigma / c.mu <= best * (1 + 1e-5)

    @pytest.mark.parametrize("mu, sd, eps", [
        *((mu, sd, eps) for mu, sd in ((2.0, 0.01), (1.0, 0.1), (1.0, 1e-4))
          for eps in (1e-15, 1e-14, 1e-13)),
        (1.0, 1e-4, 1e-12), (2.0, 0.01, 5e-12), (1.0, 0.1, 5e-12)])
    def test_tiny_eps_scans_every_step(self, mu, sd, eps):
        # a + 1 - eps takes a few hundred doubles at most up to 1e-13,
        # and every step is scanned; the search over a alone stopped up
        # to 0.9 % above the grid's best at 1e-15.  At 1e-12 and 5e-12 the
        # step ends are searched; the search over a alone stopped 1.6e-6,
        # 9.2e-7 and 6.9e-7 above it
        g = Gaussian(mu, sd)

        def ratio(a):
            lo, hi = g._quantile(a), g._quantile(a + 1.0 - eps)
            return (hi - lo) / ((hi + lo) / 2)

        c = g.confidence(eps)
        best = min(ratio(a) for a in np.linspace(0.0, eps, 4001))
        assert c.sigma / c.mu <= best * (1 + 1e-12)

    def test_no_interval_at_zero_eps(self):
        with pytest.raises(ValueError):
            Gaussian(mu=1.0, sd=0.1).confidence(0.0)

    @pytest.mark.parametrize("mu, sd, eps", itertools.product(
        (0.5, 1.0, 2.0), (0.01, 0.1, 0.3, 1.0), (0.001, 0.01, 0.05, 0.2)))
    def test_confidence_matches_scipy_oracle(self, mu, sd, eps):
        # the ratio is flat at its minimum, so any optimiser pins the
        # argmin, and with it the endpoints, only to about 1e-8
        c = Gaussian(mu, sd).confidence(eps)
        mu_ref, sigma_ref = scipy_confidence(mu, sd, eps)
        assert c.sigma / c.mu == pytest.approx(sigma_ref / mu_ref, rel=1e-12)
        assert c.mu == pytest.approx(mu_ref, rel=1e-6)
        assert c.sigma == pytest.approx(sigma_ref, rel=1e-6)

    @pytest.mark.parametrize("mu, sd", itertools.product(
        (0.5, 1.0, 2.0), (0.01, 0.1, 0.3, 1.0, 5.0)))
    def test_mean_matches_scipy(self, mu, sd):
        law = stats.truncnorm(-mu / sd, np.inf, loc=mu, scale=sd)
        assert Gaussian(mu, sd).mean == pytest.approx(law.mean(), rel=1e-12)

    @pytest.mark.parametrize("mu, sd, eps", [
        (100.0, 1.0, 0.01),   # mass below zero underflows to 0
        (0.5, 1.0, 0.01),     # heavy truncation
        (1.0, 0.1, 0.9),      # a window of mass 0.1
    ])
    def test_confidence_edge_cases(self, mu, sd, eps):
        c = Gaussian(mu, sd).confidence(eps)
        assert 0.0 <= c.left < c.right < math.inf
        law = stats.truncnorm(-mu / sd, np.inf, loc=mu, scale=sd)
        grid = np.linspace(0.0, eps, 5001)[:-1]
        lo = law.ppf(grid)
        hi = law.ppf(grid + 1 - eps)
        ratios = (hi - lo) / ((hi + lo) / 2)
        assert c.sigma / c.mu <= ratios.min() * (1 + 1e-12)


def scipy_confidence(mu, sd, eps):
    """Minimal-ratio interval of the truncated normal by scipy's
    ``truncnorm`` quantiles and bounded Brent search: the oracle."""
    law = stats.truncnorm(-mu / sd, np.inf, loc=mu, scale=sd)

    def ratio(a):
        lo = law.ppf(a)
        hi = law.ppf(a + 1.0 - eps)
        if not math.isfinite(hi):
            return math.inf
        return (hi - lo) / ((hi + lo) / 2)

    res = optimize.minimize_scalar(ratio, bounds=(0.0, eps),
                                   method="bounded",
                                   options={"xatol": 1e-12})
    a = float(res.x)
    for edge in (0.0, eps):
        if ratio(edge) < ratio(a):
            a = edge
    lo, hi = float(law.ppf(a)), float(law.ppf(a + 1.0 - eps))
    return (lo + hi) / 2, hi - lo


@pytest.mark.parametrize("make", [
    lambda x: Delta(x),
    lambda x: Box(center=x, width=0.1),
    lambda x: Box(center=1.0, width=x),
    lambda x: Gaussian(mu=x, sd=0.1),
    lambda x: Gaussian(mu=1.0, sd=x),
    lambda x: DeltaMixture(((x, 0.5), (1.0, 0.5))),
    lambda x: DeltaMixture(((0.9, x), (1.0, 0.5))),
])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_rejects_non_finite_parameters(make, value):
    with pytest.raises(ValueError, match="must be finite"):
        make(value)


@pytest.mark.parametrize("make, message", [
    (lambda: Box(center=1.0, width=0.0), "width must be positive"),
    (lambda: Box(center=1.0, width=-0.1), "width must be positive"),
    (lambda: Gaussian(mu=0.0, sd=0.1), "mean must be positive"),
    (lambda: Gaussian(mu=-1.0, sd=0.1), "mean must be positive"),
    (lambda: Gaussian(mu=1.0, sd=0.0), "standard deviation must be positive"),
], ids=["box-width-0", "box-width-neg", "gauss-mu-0", "gauss-mu-neg",
        "gauss-sd-0"])
def test_rejects_nonpositive_parameters(make, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        make()


def mixture_oracle(mix, eps):
    """The minimal-ratio window of ``mix`` by a double loop over its atoms:
    each left end a takes the first right end b at which the mass summed
    from a, atom by atom, reaches 1 - eps - ``_MASS_TOL``."""
    times = [t for t, _ in mix.atoms]
    probs = [p for _, p in mix.atoms]
    n = len(times)
    best = None
    for a in range(n):
        mass = 0.0
        for b in range(a, n):
            mass += probs[b]
            if mass >= 1.0 - eps - _MASS_TOL:
                sigma = times[b] - times[a]
                mu = (times[a] + times[b]) / 2
                r = sigma / mu
                if best is None or r < best[0]:
                    best = (r, mu, sigma)
                break
    if best is None:
        raise ValueError("no interval reaches the requested coverage")
    return ConfidenceInterval(best[1], best[2], eps)


@st.composite
def mixtures(draw):
    """1 to 40 atoms on a grid of 30 times, so that some repeat, with
    integer counts from 0 as masses, and atoms without mass below and
    above all others at will."""
    n = draw(st.integers(1, 40))
    times = draw(st.lists(st.integers(1, 30), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    counts[draw(st.integers(0, n - 1))] += 1
    atoms = [(t / 10, c / sum(counts)) for t, c in zip(times, counts)]
    if draw(st.booleans()):
        atoms.append((0.05, 0.0))
    if draw(st.booleans()):
        atoms.append((3.5, 0.0))
    return DeltaMixture(tuple(atoms))


MIXTURE_EPS = (0.9, 0.34, 0.1, 0.01, 1e-3, 0.0)


class TestDeltaMixture:
    def test_atom_frequencies(self):
        rng = np.random.default_rng(3)
        mix = DeltaMixture(((0.9, 0.5), (1.1, 0.5)))
        x = mix.sample(rng, 10 ** 6)
        assert np.mean(x == 0.9) == pytest.approx(0.5, abs=0.005)
        assert np.mean(x == 1.1) == pytest.approx(0.5, abs=0.005)

    def test_confidence_drops_light_atom(self):
        mix = DeltaMixture(((0.9, 0.05), (1.0, 0.5), (1.1, 0.45)))
        c = mix.confidence(0.1)
        assert (c.left, c.right) == (1.0, 1.1)

    def test_confidence_needs_full_mass_at_zero_eps(self):
        mix = DeltaMixture(((0.9, 0.5), (1.1, 0.5)))
        c = mix.confidence(0.0)
        assert c.left == pytest.approx(0.9)
        assert c.right == pytest.approx(1.1)

    @settings(max_examples=60, deadline=None)
    @given(mixtures())
    def test_confidence_matches_oracle(self, mix):
        for eps in MIXTURE_EPS:
            assert mix.confidence(eps) == mixture_oracle(mix, eps)

    def test_equal_masses_match_oracle(self):
        times = np.random.default_rng(6).uniform(0.5, 1.5, 3000)
        mix = DeltaMixture(tuple((t, 1 / 3000) for t in times))
        assert mix.confidence(0.1) == mixture_oracle(mix, 0.1)

    @pytest.mark.parametrize("eps", [1 - 1e-12, 1 - 2 ** -53])
    def test_need_of_about_zero_matches_oracle(self, eps):
        # every atom covers alone, the massless first one too
        mix = DeltaMixture(((0.5, 0.0), (1.0, 0.6), (2.0, 0.4)))
        assert mix.confidence(eps) == mixture_oracle(mix, eps) == \
            ConfidenceInterval(0.5, 0.0, eps)

    def test_one_atom_has_zero_width(self):
        for eps in MIXTURE_EPS:
            assert DeltaMixture(((1.5, 1.0),)).confidence(eps) == \
                ConfidenceInterval(1.5, 0.0, eps)

    @settings(max_examples=60, deadline=None)
    @given(mixtures())
    def test_exact_relations(self, mix):
        # doubling every atom time doubles the window exactly, and its
        # ratio never falls as eps falls
        doubled = DeltaMixture(tuple((2 * t, p) for t, p in mix.atoms))
        ratios = []
        for eps in MIXTURE_EPS:
            c, c2 = mix.confidence(eps), doubled.confidence(eps)
            assert (c2.mu, c2.sigma) == (2 * c.mu, 2 * c.sigma)
            ratios.append(c.sigma / c.mu)
        assert ratios == sorted(ratios)

    def test_support_spans_only_atoms_with_mass(self):
        mix = DeltaMixture(((0.5, 0.0), (1.0, 0.6), (2.0, 0.4), (5.0, 0.0)))
        assert mix.support() == (1.0, 2.0)
        assert DeltaMixture(((0.5, 0.0), (1.0, 1.0))).support() == (1.0, 1.0)

    def test_rejects_bad_masses(self):
        with pytest.raises(ValueError):
            DeltaMixture(((1.0, 0.7), (2.0, 0.4)))
        with pytest.raises(ValueError):
            DeltaMixture(((0.0, 1.0),))
        with pytest.raises(ValueError, match="at least one atom"):
            DeltaMixture(())
        with pytest.raises(ValueError, match="must be nonnegative"):
            DeltaMixture(((1.0, 1.5), (2.0, -0.5)))

    def test_bunch_sums_follow_the_binomial_law(self):
        # two atoms: a bunch sum is (d - k) 0.9 + k 1.1 with k binomial in
        # the count of the 1.1 atom; chi-square, family-wise 5 % over the d
        mix = DeltaMixture(((0.9, 0.7), (1.1, 0.3)))
        ds = (1, 3, 64)
        for d in ds:
            sums = mix.bunch_sums(np.random.default_rng(d), (20000,), d)
            k = np.rint((sums - 0.9 * d) / 0.2).astype(int)
            np.testing.assert_allclose(sums, 0.9 * (d - k) + 1.1 * k,
                                       rtol=1e-12)
            observed = np.bincount(k, minlength=d + 1)
            expected = stats.binom.pmf(np.arange(d + 1), d, 0.3) * sums.size
            # pool the sparse tails into their neighbours
            keep = expected >= 5
            first, last = np.flatnonzero(keep)[[0, -1]]
            obs = np.r_[observed[:first + 1].sum(), observed[first + 1:last],
                        observed[last:].sum()]
            exp = np.r_[expected[:first + 1].sum(), expected[first + 1:last],
                        expected[last:].sum()]
            assert stats.chisquare(obs, exp * obs.sum() / exp.sum()
                                   ).pvalue > 0.05 / len(ds)


def test_module_helpers():
    rng = np.random.default_rng(4)
    assert np.array_equal(Delta(2.0).sample(rng, 3), [2.0, 2.0, 2.0])
    c = Delta(2.0).confidence(0.2)
    assert c.mu == 2.0
