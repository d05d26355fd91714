"""The lockstep Monte-Carlo engine against a scalar oracle.

The oracle runs one trial at a time on the ``EnhancingClock`` state
machine (``tick`` / ``advance``) and the scalar input clock
``RenewalProcess`` below.
It draws its random numbers in a different order than the engine, so the
two agree exactly only where nothing is random (Delta input, zero-width
EC) and in distribution otherwise.  Input bunching has a second oracle,
``prefix_sum_bunching``, which builds every wait, or a Box's alias-pair
bunch sum, from the engine's own draws and sums them in another order, so
the two agree draw for draw to rounding.
``serial_monte_carlo`` simulates ``monte_carlo``'s blocks each on its own
into its own arrays and stacks them; ``monte_carlo``, which runs groups of
blocks in lockstep, must agree with it bit for bit, whatever number of
CPUs the process is told it has.
"""
import _thread
import os
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ticklab import (Box, Delta, DeltaMixture, EnhancingClock, ExplicitEC,
                     Gaussian, Mode, Protocol, ProtocolConfig, QuasiIdealSpec,
                     monte_carlo, prepare, protocols)
from ticklab.cli import main
from ticklab.distributions import _ALIAS_CHUNK, _ALIAS_MAX, _BIT_PLANES, _CHUNK
from ticklab.protocols import _BLOCK, _GROUP, _simulate, _Streams

from test_distributions import alias_sums

SWITCHING = (Protocol.DYN_SWITCH, Protocol.DYN_SWITCH_FEEDBACK)


def simulate(prep, rng, size, ticks=None):
    """``_simulate`` of ``size`` trials of ``ticks`` outputs, by default
    ``prep``'s, into fresh arrays: the absolute output ticks and the
    per-trial count of ignored input ticks."""
    out = np.empty((size, ticks or prep.cfg.n_ticks))
    n_ignored = np.zeros(size, dtype=int)
    _simulate(prep, _Streams([(rng, size)]), out, n_ignored)
    return out, n_ignored


class RenewalProcess:
    """Scalar input clock: the ticks of a renewal process over ``dist``,
    from time 0.

    Waits are drawn 64 at a time, so the draw sequence per rng is fixed.
    ``n_skipped`` counts the ticks that ``next_after`` passed over.
    """

    def __init__(self, dist, rng):
        self._dist = dist
        self._rng = rng
        self.t = 0.0
        self.n_skipped = 0
        self._buf = np.empty(0)
        self._i = 0

    def next_tick(self) -> float:
        if self._i >= self._buf.size:
            self._buf = np.atleast_1d(self._dist.sample(self._rng, 64))
            self._i = 0
        self.t += float(self._buf[self._i])
        self._i += 1
        return self.t

    def next_after(self, t: float) -> float:
        """First tick strictly after t."""
        tick = self.next_tick()
        while tick <= t:
            self.n_skipped += 1
            tick = self.next_tick()
        return tick


class TestRenewalProcess:
    def test_strictly_increasing(self):
        proc = RenewalProcess(Box(1.0, 0.5), np.random.default_rng(0))
        ticks = [proc.next_tick() for _ in range(200)]
        assert np.all(np.diff(ticks) > 0)

    def test_next_after_counts_skipped(self):
        proc = RenewalProcess(Box(1.0, 0.1), np.random.default_rng(1))
        t = proc.next_after(3.5)
        assert t > 3.5
        assert proc.n_skipped == 3


def oracle_trial(prep, rng):
    """One trial of ``prep``'s protocol, tick by tick.  Returns the
    absolute output ticks and the number of ignored input ticks."""
    cfg = prep.cfg
    proc = RenewalProcess(cfg.input_dist, rng)
    out = []
    if prep.ec is not None:  # the EC starts reset, detector on
        clock = EnhancingClock(prep.ec.tau, prep.ec.sigma, prep.ec.eps_tail,
                               mode=Mode.TICK)
    if cfg.protocol is Protocol.INPUT_BUNCH:
        for _ in range(cfg.n_ticks):
            for _ in range(cfg.bunch):
                t = proc.next_tick()
            out.append(t)
    elif cfg.protocol is Protocol.EC_BUNCH:
        t_ec = 0.0
        for _ in range(cfg.n_ticks):
            t_in = proc.next_after(t_ec)
            while t_ec < t_in:
                gap, clock = clock.tick(rng)
                clock = clock.switched(Mode.TICK)
                t_ec += gap
            out.append(t_ec)
    else:
        t_in = proc.next_tick()
        for k in range(cfg.n_ticks):
            duration, clock = clock.tick(rng)
            t_out = t_in + duration
            out.append(t_out)
            if k + 1 == cfg.n_ticks:
                break
            if cfg.protocol is Protocol.DYN_SWITCH_FEEDBACK:
                proc.t = t_out  # restart the input clock
                t_in = proc.next_tick()
            else:
                t_in = proc.next_after(t_out)
            clock = clock.advance(t_in - t_out).switched(Mode.TICK)
    return np.asarray(out), proc.n_skipped


def oracle_matrix(cfg, trials, seed):
    """Oracle rows in ``TrialMatrix.data`` form: output ticks relative to
    the anchoring first output for the switching protocols."""
    switching = cfg.protocol in SWITCHING
    n_out = cfg.n_ticks + 1 if switching else cfg.n_ticks
    prep = prepare(replace(cfg, n_ticks=n_out))
    rng = np.random.default_rng(seed)
    rows = [oracle_trial(prep, rng)[0] for _ in range(trials)]
    data = np.array(rows)
    return data[:, 1:] - data[:, :1] if switching else data


def _delta_cfg(protocol, mu, m, n_ticks):
    if protocol is Protocol.INPUT_BUNCH:
        return ProtocolConfig(protocol=protocol, input_dist=Delta(mu),
                              eps=0.0, n_ticks=n_ticks, bunch=m)
    if protocol is Protocol.EC_BUNCH:  # free-running: mean gap tau / 2
        tau = 2 * (mu / (m + 0.5))
    else:
        tau = mu / (m + 0.5) if protocol is Protocol.DYN_SWITCH else mu / m
    return ProtocolConfig(protocol=protocol, input_dist=Delta(mu), eps=0.0,
                          n_ticks=n_ticks,
                          ec=ExplicitEC(tau=tau, sigma=0.0, eps_tail=0.0))


class TestExactAgreement:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(list(Protocol)),
           st.floats(min_value=0.1, max_value=10.0),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=6))
    def test_delta_input_zero_width_ec(self, protocol, mu, m, n_ticks):
        cfg = _delta_cfg(protocol, mu, m, n_ticks)
        prep = prepare(cfg)
        out, n_ignored = simulate(prep, np.random.default_rng(0), 1)
        times, oracle_ignored = oracle_trial(prep, np.random.default_rng(1))
        assert out[0] == pytest.approx(times, rel=1e-12)
        assert n_ignored[0] == oracle_ignored
        matrix = monte_carlo(cfg, 3, 0)
        expected = oracle_matrix(cfg, 1, 0)[0]
        for row in matrix.data:
            assert row == pytest.approx(expected, rel=1e-12)

    def test_lagging_input_is_ignored(self):
        # EC ticks at 1.5, 3.0, 4.5, ...; the input tick at 3.0 (and 6.0)
        # is not strictly after the previous output, so it is skipped
        cfg = ProtocolConfig(protocol=Protocol.EC_BUNCH,
                             input_dist=Delta(1.0), eps=0.0, n_ticks=5,
                             ec=ExplicitEC(tau=3.0, sigma=0.0, eps_tail=0.0))
        out, n_ignored = simulate(prepare(cfg), np.random.default_rng(0), 1)
        assert out[0] == pytest.approx([1.5, 3.0, 4.5, 6.0, 7.5])
        assert n_ignored[0] == 2
        assert oracle_trial(prepare(cfg), np.random.default_rng(0)) == (
            pytest.approx(out[0]), 2)


# Box and Gaussian inputs, two-sample KS per output column.  The family is
# every column of every case, so the Bonferroni level below keeps the
# family-wise error rate at 5 percent.
DIST_CASES = [
    (Protocol.DYN_SWITCH, Box(1.0, 0.30303), 4),
    (Protocol.DYN_SWITCH_FEEDBACK, Box(1.0, 0.1015), 4),
    (Protocol.INPUT_BUNCH, Box(1.0, 0.30303), 3),
    (Protocol.EC_BUNCH, Box(1.0, 0.30303), 3),
    (Protocol.DYN_SWITCH, Gaussian(1.0, 0.05), 4),
    (Protocol.DYN_SWITCH_FEEDBACK, Gaussian(1.0, 0.05), 4),
    (Protocol.INPUT_BUNCH, Gaussian(1.0, 0.05), 3),
    (Protocol.EC_BUNCH, Gaussian(1.0, 0.05), 3),
]
KS_ALPHA = 0.05 / sum(n for _, _, n in DIST_CASES)
KS_TRIALS = 1500


def _cfg(protocol, dist, n_ticks, **kw):
    if protocol is Protocol.INPUT_BUNCH:
        return ProtocolConfig(protocol=protocol, input_dist=dist, eps=0.01,
                              n_ticks=n_ticks, bunch=8, **kw)
    return ProtocolConfig(protocol=protocol, input_dist=dist, eps=0.01,
                          n_ticks=n_ticks, ec=QuasiIdealSpec(d=256), **kw)


@pytest.mark.parametrize("protocol,dist,n_ticks", DIST_CASES,
                         ids=[f"{p.value}-{type(d).__name__}"
                              for p, d, _ in DIST_CASES])
def test_agreement_in_distribution(protocol, dist, n_ticks):
    cfg = _cfg(protocol, dist, n_ticks)
    engine = monte_carlo(cfg, KS_TRIALS, 2024)
    oracle = oracle_matrix(cfg, KS_TRIALS, 2025)
    for j in range(1, n_ticks + 1):
        p = stats.ks_2samp(engine.tick_samples(j), oracle[:, j - 1]).pvalue
        assert p > KS_ALPHA, f"tick {j}: KS p-value {p:.2e}"


def bunch_waits(dist, rng, n, n_out, d):
    """The (n, n_out * d) input waits of n trials, bunch after bunch, built
    from the draws ``dist.bunch_sums`` makes: a Box's 2^-32 lattice
    midpoints from the same 32-bit words (below ``_BIT_PLANES``), and a
    mixture's atoms repeated by the same multinomial counts.  Other laws
    sample their waits (a Gaussian outside its one-normal gate)."""
    if isinstance(dist, Box):
        u = rng.bit_generator.random_raw(-(-n * n_out * d // 2))
        u = u.view(np.uint32)[:n * n_out * d]
        lo = dist.support()[0]
        waits = lo + dist.width * 2.0 ** -32 * (u + 0.5)
    elif isinstance(dist, DeltaMixture):
        times = np.array([t for t, _ in dist.atoms])
        counts = rng.multinomial(d, [p for _, p in dist.atoms], (n, n_out))
        waits = np.repeat(np.tile(times, n * n_out), counts.ravel())
    else:
        waits = dist.sample(rng, (n, n_out * d))
    return waits.reshape(n, n_out * d)


def alias_bunch_range(dist, d):
    """Whether ``dist.bunch_sums`` draws d-wait sums by alias pairs of
    bit planes."""
    return isinstance(dist, Box) and _BIT_PLANES <= d <= _ALIAS_MAX


def prefix_sum_bunching(prep, rng, size):
    """Input bunching's output ticks as a prefix sum over every input
    wait, keeping every d-th: the engine's draws, chunk for chunk, summed
    in a different order.  A Box in the alias range has no waits, so there
    the prefix sum runs over the alias oracle's exact bunch sums, drawn
    from the same words, 16 per bunch."""
    cfg = prep.cfg
    d, n_out = cfg.bunch, cfg.n_ticks
    if alias_bunch_range(cfg.input_dist, d):
        words = rng.bit_generator.random_raw(size * n_out * 16)
        sums = alias_sums(cfg.input_dist, [int(w) for w in words], d)
        sums = np.array([float(x) for x in sums]).reshape(size, n_out)
        return np.cumsum(sums, axis=1)
    rows = max(1, _CHUNK // (n_out * d))
    out = np.empty((size, n_out))
    for r in range(0, size, rows):
        n = min(rows, size - r)
        waits = bunch_waits(cfg.input_dist, rng, n, n_out, d)
        out[r:r + n] = np.cumsum(waits, axis=1)[:, d - 1::d]
    return out


BUNCH_INPUTS = [Box(1.0, 0.33), Gaussian(1.0, 0.5), Delta(0.7),
                DeltaMixture(((0.9, 0.25), (1.05, 0.5), (1.3, 0.25)))]
# a Box sums lattice words below _BIT_PLANES and alias pairs of bit planes
# up to _ALIAS_MAX: it takes both ranges' ends and odd and even bunches
# inside the alias range, whose pair law has one mode or two
BUNCH_CASES = [(dist, d) for d in (1, 3, 64, 1024) for dist in BUNCH_INPUTS
               if not isinstance(dist, Box)] + [
    (BUNCH_INPUTS[0], d)
    for d in (1, 3, _BIT_PLANES - 1, _BIT_PLANES, 255, 256, 1023,
              _ALIAS_MAX)]


def check_bunching_matches_prefix_sum(dist, d, n_ticks, size):
    cfg = ProtocolConfig(protocol=Protocol.INPUT_BUNCH, input_dist=dist,
                         eps=0.01, n_ticks=n_ticks, bunch=d)
    prep = prepare(cfg)
    engine_rng, oracle_rng = (np.random.default_rng(41),
                              np.random.default_rng(41))
    out, n_ignored = simulate(prep, engine_rng, size)
    expected = prefix_sum_bunching(prep, oracle_rng, size)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)
    assert not n_ignored.any()
    # both consumed the stream alike
    assert engine_rng.random() == oracle_rng.random()


@pytest.mark.parametrize("dist,d", BUNCH_CASES,
                         ids=[f"{d}-{type(dist).__name__}"
                              for dist, d in BUNCH_CASES])
@pytest.mark.parametrize("n_ticks", [1, 20])
def test_input_bunching_matches_prefix_sum(dist, d, n_ticks):
    # two trials past a chunk boundary, so the last chunk is a short one;
    # an alias pair draw chunks 16 words per bunch
    if alias_bunch_range(dist, d):
        rows = _ALIAS_CHUNK // (n_ticks * 16)
    else:
        rows = _CHUNK // (n_ticks * d)
    check_bunching_matches_prefix_sum(dist, d, n_ticks, max(1, rows) + 2)


def test_box_bunching_drops_the_odd_half_word():
    # 5 trials of 3 ticks of 3 waits: 45 waits in 23 words
    check_bunching_matches_prefix_sum(Box(1.0, 0.33), 3, 3, 5)


class TestStreams:
    @pytest.mark.parametrize("protocol", list(Protocol),
                             ids=lambda p: p.value)
    def test_full_blocks_ignore_trial_count(self, protocol):
        cfg = _cfg(protocol, Box(1.0, 0.30303), 2)
        short = monte_carlo(cfg, _BLOCK + 5, 31)
        long = monte_carlo(cfg, 2 * _BLOCK + 300, 31)
        assert np.array_equal(short.data[:_BLOCK], long.data[:_BLOCK])
        assert np.array_equal(short.n_ignored[:_BLOCK],
                              long.n_ignored[:_BLOCK])
        again = monte_carlo(cfg, _BLOCK + 5, 31)
        assert np.array_equal(short.data, again.data)
        # each block has its own stream
        assert not np.array_equal(long.data[:300],
                                  long.data[_BLOCK:_BLOCK + 300])


class TestTickMajorLayout:
    """``monte_carlo`` hands each group tick-major (Fortran-order) rows,
    while ``simulate`` above fills C-order arrays: ``_simulate`` must fill
    both alike, draw for draw."""

    @pytest.mark.parametrize("n_ticks", [1, 20])
    @pytest.mark.parametrize("protocol", list(Protocol),
                             ids=lambda p: p.value)
    def test_c_and_f_order_fill_alike(self, protocol, n_ticks):
        prep = prepare(_cfg(protocol, Gaussian(1.0, 0.1), n_ticks))
        filled = []
        for out in (np.empty((300, n_ticks)),
                    # a group's rows of a larger tick-major array
                    np.empty((500, n_ticks), order="F")[100:400]):
            n_ignored = np.zeros(300, dtype=int)
            rng = np.random.default_rng(5)
            _simulate(prep, _Streams([(rng, 300)]), out, n_ignored)
            filled.append((out.view(np.int64), n_ignored, rng.random()))
        (c, c_ignored, c_next), (f, f_ignored, f_next) = filled
        assert np.array_equal(c, f)
        assert np.array_equal(c_ignored, f_ignored)
        assert c_next == f_next  # both consumed the stream alike

    @pytest.mark.parametrize("protocol", list(Protocol),
                             ids=lambda p: p.value)
    def test_tick_samples_are_data_columns(self, protocol):
        matrix = monte_carlo(_cfg(protocol, Box(1.0, 0.30303), 5), 700, 3)
        assert matrix.data.shape == (700, 5)
        assert matrix.data.strides[0] == matrix.data.itemsize
        for j in range(1, 6):
            assert np.array_equal(matrix.tick_samples(j),
                                  matrix.data[:, j - 1])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Box(1.0, 0.5), Delta(0.7), Gaussian(1.0, 0.4)]),
       st.lists(st.tuples(st.floats(min_value=0.0, max_value=50.0),
                          st.integers(min_value=0, max_value=6),
                          st.floats(min_value=0.0, max_value=0.99)),
                min_size=1, max_size=40),
       st.integers(min_value=0, max_value=2 ** 32))
def test_next_after_is_strictly_after(dist, trials, seed):
    # trial i's input sits at t_in and lags t by ``lag`` mean waits and a
    # fraction of one
    t_in = np.array([t for t, _, _ in trials])
    t = t_in + np.array([(lag + frac) * dist.mean
                         for _, lag, frac in trials])
    n_ignored = np.zeros(len(trials), dtype=int)
    streams = _Streams([(np.random.default_rng(seed), len(trials))])
    nxt = protocols._next_after(t_in.copy(), t, dist, streams, n_ignored)
    assert (nxt > t).all()
    assert (n_ignored >= 0).all()
    if isinstance(dist, Delta):  # every tick passed over is counted
        for i, start in enumerate(t_in):
            tick, passed = start + dist.time, 0
            while tick <= t[i]:
                tick, passed = tick + dist.time, passed + 1
            assert (nxt[i], n_ignored[i]) == (tick, passed)


def serial_monte_carlo(cfg, trials, seed):
    """``monte_carlo``'s blocks one after another on the calling thread,
    each simulated into its own arrays and stacked: the data and
    n_ignored of its ``TrialMatrix``."""
    prep = prepare(cfg)
    switching = cfg.protocol in SWITCHING
    n_out = cfg.n_ticks + 1 if switching else cfg.n_ticks
    streams = np.random.SeedSequence(seed).spawn(-(-trials // _BLOCK))
    blocks = [simulate(prep, np.random.default_rng(stream),
                       min(_BLOCK, trials - b * _BLOCK), n_out)
              for b, stream in enumerate(streams)]
    out = np.concatenate([out for out, _ in blocks])
    n_ignored = np.concatenate([n for _, n in blocks])
    data = out[:, 1:] - out[:, :1] if switching else out
    return data, n_ignored


def _bit_plane_bunch_cfg():
    """Input bunching on a Box at the smallest bunch that sums bit planes."""
    return replace(_cfg(Protocol.INPUT_BUNCH, Box(1.0, 0.30303), 2),
                   bunch=_BIT_PLANES)


def _no_thread_on_cpus(monkeypatch, cpus):
    """Report ``cpus`` CPUs to the process and make starting any thread
    fail, so a run that still passes started none."""
    def no_thread(*args, **kwargs):
        raise AssertionError("monte_carlo started a thread")

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    if hasattr(os, "sched_getaffinity"):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
    monkeypatch.setattr(_thread, "start_new_thread", no_thread)
    monkeypatch.setattr(threading.Thread, "start", no_thread)


def _lagging_cfg(dist):
    """Dynamics switching whose EC fires after the next input tick is due
    (tau / 2 > mu_in), so every tick redraws lagging inputs."""
    return ProtocolConfig(protocol=Protocol.DYN_SWITCH, input_dist=dist,
                          eps=0.01, n_ticks=2,
                          ec=ExplicitEC(tau=2.5, sigma=0.1, eps_tail=0.01))


# a run takes each of these per-row redraws in several blocks of a group
REDRAW_CASES = {
    # Gaussian.sample redraws its nonpositive waits; the EC leaves room
    # for its wide confidence interval
    "truncating-gaussian": replace(_lagging_cfg(Gaussian(1.0, 0.45)),
                                   ec=ExplicitEC(3.0, 0.1, 0.01)),
    "lagging-input": _lagging_cfg(Box(1.0, 0.3)),
    # the catch-up fires of EC bunching
    "ec-bunch": _cfg(Protocol.EC_BUNCH, Gaussian(1.0, 0.1), 2),
    # a mixture draws its waits with rng.choice
    "delta-mixture": _lagging_cfg(DeltaMixture(((0.9, 0.25), (1.05, 0.5),
                                                (1.3, 0.25)))),
    # a Box drops the odd half word of each lattice draw
    "odd-lattice-bunch": replace(_bit_plane_bunch_cfg(),
                                 bunch=_BIT_PLANES - 1),
}
TRIAL_COUNTS = [1, _BLOCK, 2 * _BLOCK + 1, 5 * _BLOCK + 7,
                _GROUP * _BLOCK + 1]


class TestBlocksOnEveryCpu:
    """``monte_carlo`` runs its blocks in lockstep groups on the calling
    thread, however many CPUs the process may use: the result must not
    depend on that number or on the grouping, no thread may start, and a
    bad row in any block must reach the caller."""

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    @pytest.mark.parametrize("protocol", list(Protocol),
                             ids=lambda p: p.value)
    def test_matches_serial_block_loop(self, monkeypatch, protocol, trials,
                                       cpus):
        _no_thread_on_cpus(monkeypatch, cpus)
        cfg = _cfg(protocol, Box(1.0, 0.30303), 2)
        if protocol is Protocol.INPUT_BUNCH:
            cfg = _bit_plane_bunch_cfg()
        # a seed per CPU count, so rows a block failed to write cannot
        # hold the equal values a freed array of the last case left
        seed = 17 + cpus
        matrix = monte_carlo(cfg, trials, seed)
        data, n_ignored = serial_monte_carlo(cfg, trials, seed)
        assert np.array_equal(matrix.data, data)
        assert np.array_equal(matrix.n_ignored, n_ignored)

    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    @pytest.mark.parametrize("case", list(REDRAW_CASES))
    def test_redraws_match_serial_block_loop(self, monkeypatch, case,
                                             trials):
        # each block takes its share of a redraw from its own stream
        _no_thread_on_cpus(monkeypatch, 1)
        cfg = REDRAW_CASES[case]
        matrix = monte_carlo(cfg, trials, 23)
        data, n_ignored = serial_monte_carlo(cfg, trials, 23)
        assert np.array_equal(matrix.data, data)
        assert np.array_equal(matrix.n_ignored, n_ignored)

    @pytest.mark.parametrize("cfg", [
        _cfg(Protocol.DYN_SWITCH, Box(1.0, 0.30303), 2),
        _cfg(Protocol.DYN_SWITCH_FEEDBACK, Box(1.0, 0.30303), 2),
        _cfg(Protocol.EC_BUNCH, Box(1.0, 0.30303), 2),
        replace(_bit_plane_bunch_cfg(), bunch=_BIT_PLANES // 2 - 1),
    ], ids=["dyn-switch", "dyn-switch-feedback", "ec-bunch",
            "input-bunch-few-waits"])
    def test_small_arrays_stay_on_the_calling_thread(self, monkeypatch,
                                                      cfg):
        checked = self._record_checks(monkeypatch)
        monte_carlo(cfg, 3 * _BLOCK, 0)
        # three blocks, one group
        assert checked == [(3 * _BLOCK, threading.get_ident())]

    @pytest.mark.parametrize("blocks", [2, 3, 5, _GROUP + 2])
    def test_rows_checked_on_the_caller(self, monkeypatch, blocks):
        checked = self._record_checks(monkeypatch)
        trials = (blocks - 1) * _BLOCK + 5
        monte_carlo(_bit_plane_bunch_cfg(), trials, 0)
        # the groups in order, the short last one included, each checked
        # once, all on the calling thread
        group = _GROUP * _BLOCK
        assert checked == [(min(group, trials - start), threading.get_ident())
                           for start in range(0, trials, group)]

    @staticmethod
    def _record_checks(monkeypatch, bad_row=None):
        """Record the row count and thread of every ``check_rows`` call,
        with threads forbidden.  With ``bad_row``, that row of the run,
        counted over the calls, which see the rows in order, gets a NaN
        tick before it is checked."""
        check_rows, checked = protocols.check_rows, []

        def recording_check_rows(times):
            first = sum(n for n, _ in checked)
            checked.append((len(times), threading.get_ident()))
            if bad_row is not None and first <= bad_row < first + len(times):
                times[bad_row - first, -1] = np.nan
            check_rows(times)

        monkeypatch.setattr(protocols, "check_rows", recording_check_rows)
        _no_thread_on_cpus(monkeypatch, 3)
        return checked

    def test_bad_row_reaches_the_caller(self, monkeypatch):
        trials = (_GROUP + 1) * _BLOCK + 5
        for bad_row in (0, _BLOCK + 1, _GROUP * _BLOCK, trials - 1):
            with monkeypatch.context() as patch:
                checked = self._record_checks(patch, bad_row)
                with pytest.raises(ValueError, match="strictly increasing"):
                    monte_carlo(_bit_plane_bunch_cfg(), trials, 0)
            # the failure stops the run at the group that holds the row
            assert sum(n for n, _ in checked[:-1]) <= bad_row < \
                sum(n for n, _ in checked)

    def test_bad_row_exits_2(self, monkeypatch, capsys, tmp_path):
        trials = 2 * _BLOCK + 5
        self._record_checks(monkeypatch, trials - 1)
        config = tmp_path / "run.ini"
        config.write_text("[run]\nticks = 2\nbunch = 8\n")
        code = main(["run", "--config", str(config), "--protocol", "3",
                     "--trials", str(trials)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "strictly increasing" in captured.err


class TestInvariants:
    def test_lagging_input_counted_and_rows_increasing(self):
        # tau / 2 > mu_in: the EC fires after the next input tick is due
        cfg = ProtocolConfig(
            protocol=Protocol.DYN_SWITCH, input_dist=Box(1.0, 0.3),
            eps=0.01, n_ticks=6,
            ec=ExplicitEC(tau=2.5, sigma=0.1, eps_tail=0.01))
        matrix = monte_carlo(cfg, 500, 8)
        assert (matrix.n_ignored > 0).all()
        assert (np.diff(matrix.data, axis=1) > 0).all()
        assert (matrix.data[:, 0] > 0).all()

    @pytest.mark.parametrize("protocol", list(Protocol),
                             ids=lambda p: p.value)
    def test_rows_strictly_increasing(self, protocol):
        matrix = monte_carlo(_cfg(protocol, Gaussian(1.0, 0.05), 8), 500, 9)
        data = matrix.data
        assert (data[:, 0] > 0).all()
        assert (np.diff(data, axis=1) > 0).all()
        if protocol is Protocol.DYN_SWITCH_FEEDBACK:
            assert not matrix.n_ignored.any()


class TestTimeUnit:
    """Scaling the input law by a power of two scales every output tick
    by it, bit for bit: each rule of the engine is homogeneous in time,
    and a product with 2^k is exact."""

    @pytest.mark.parametrize("law", [Box, Gaussian],
                             ids=lambda law: law.__name__)
    @pytest.mark.parametrize("protocol", list(Protocol),
                             ids=lambda p: p.value)
    def test_scaled_input_scales_every_tick(self, protocol, law):
        def run(c):
            extra = ({"bunch": 256} if protocol is Protocol.INPUT_BUNCH
                     else {"ec": QuasiIdealSpec(d=256)})
            cfg = ProtocolConfig(protocol=protocol,
                                 input_dist=law(c, 0.1 * c), eps=0.01,
                                 n_ticks=20, **extra)
            return monte_carlo(cfg, 5000, 7)

        one = run(1.0)
        for c in (2.0, 0.25):
            scaled = run(c)
            assert scaled.prep.m == one.prep.m
            assert np.array_equal(c * one.data, scaled.data)
