"""The lockstep Monte-Carlo engine against a scalar oracle.

The oracle runs one trial at a time on the ``EnhancingClock`` state
machine (``tick`` / ``advance``) and the scalar input clock
``RenewalProcess`` below.
It draws its random numbers in a different order than the engine, so the
two agree exactly only where nothing is random (Delta input, zero-width
EC) and in distribution otherwise.  Input bunching has a second oracle,
``prefix_sum_bunching``, which makes the engine's own draws and sums them
in another order, so the two agree draw for draw to rounding.
``serial_monte_carlo`` runs ``monte_carlo``'s blocks one after another on
the calling thread; the threaded blocks must agree with it bit for bit.
"""
import sys
import threading
import time
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
from ticklab.protocols import _BLOCK, _CHUNK, _THREAD_WAITS, _simulate

SWITCHING = (Protocol.DYN_SWITCH, Protocol.DYN_SWITCH_FEEDBACK)


def simulate(prep, rng, size):
    """``_simulate`` of ``size`` trials into fresh arrays: the absolute
    output ticks and the per-trial count of ignored input ticks."""
    out = np.empty((size, prep.cfg.n_ticks))
    n_ignored = np.zeros(size, dtype=int)
    _simulate(prep, rng, out, n_ignored)
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
        assert (out[0] <= prep.horizon).all()
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
    assert engine.n_truncated == 0
    oracle = oracle_matrix(cfg, KS_TRIALS, 2025)
    for j in range(1, n_ticks + 1):
        p = stats.ks_2samp(engine.tick_samples(j), oracle[:, j - 1]).pvalue
        assert p > KS_ALPHA, f"tick {j}: KS p-value {p:.2e}"


def prefix_sum_bunching(prep, rng, size):
    """Input bunching's output ticks as a prefix sum over every input
    wait, keeping every d-th: the engine's draws, chunk for chunk, summed
    in a different order."""
    cfg = prep.cfg
    d, n_out = cfg.bunch, cfg.n_ticks
    rows = max(1, _CHUNK // (n_out * d))
    out = np.empty((size, n_out))
    for r in range(0, size, rows):
        n = min(rows, size - r)
        waits = cfg.input_dist.sample(rng, (n, n_out * d))
        out[r:r + n] = np.cumsum(waits, axis=1)[:, d - 1::d]
    return out


BUNCH_INPUTS = [Box(1.0, 0.33), Gaussian(1.0, 0.5), Delta(0.7),
                DeltaMixture(((0.9, 0.25), (1.05, 0.5), (1.3, 0.25)))]


@pytest.mark.parametrize("dist", BUNCH_INPUTS, ids=lambda d: type(d).__name__)
@pytest.mark.parametrize("d", [1, 3, 64, 1024])
@pytest.mark.parametrize("n_ticks", [1, 20])
def test_input_bunching_matches_prefix_sum(dist, d, n_ticks):
    cfg = ProtocolConfig(protocol=Protocol.INPUT_BUNCH, input_dist=dist,
                         eps=0.01, n_ticks=n_ticks, bunch=d)
    prep = prepare(cfg)
    # two trials past a chunk boundary, so the last chunk is a short one
    size = max(1, _CHUNK // (n_ticks * d)) + 2
    engine_rng, oracle_rng = (np.random.default_rng(41),
                              np.random.default_rng(41))
    out, n_ignored = simulate(prep, engine_rng, size)
    expected = prefix_sum_bunching(prep, oracle_rng, size)
    np.testing.assert_allclose(out, expected, rtol=1e-12, atol=0)
    assert not n_ignored.any()
    # both consumed the stream alike
    assert engine_rng.random() == oracle_rng.random()


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


def serial_monte_carlo(cfg, trials, seed):
    """``monte_carlo``'s blocks one after another on the calling thread,
    each simulated into its own arrays and stacked: the data, truncated
    and n_ignored of its ``TrialMatrix``."""
    prep = prepare(cfg)
    switching = cfg.protocol in SWITCHING
    n_out = cfg.n_ticks + 1 if switching else cfg.n_ticks
    run_prep = replace(prep, cfg=replace(cfg, n_ticks=n_out))
    streams = np.random.SeedSequence(seed).spawn(-(-trials // _BLOCK))
    blocks = [simulate(run_prep, np.random.default_rng(stream),
                       min(_BLOCK, trials - b * _BLOCK))
              for b, stream in enumerate(streams)]
    out = np.concatenate([out for out, _ in blocks])
    n_ignored = np.concatenate([n for _, n in blocks])
    truncated = (out > prep.horizon).any(axis=1)
    data = out[:, 1:] - out[:, :1] if switching else out
    data[truncated] = np.nan
    return data, truncated, n_ignored


def _threaded_bunch_cfg():
    """Input bunching with just enough waits per trial to use threads."""
    return replace(_cfg(Protocol.INPUT_BUNCH, Box(1.0, 0.30303), 2),
                   bunch=_THREAD_WAITS // 2)


class TestBlocksOnEveryCpu:
    """``monte_carlo`` runs input bunching's blocks on every CPU the process
    may use; the result must not depend on how many that is."""

    @pytest.mark.parametrize("cpus", [1, 3])
    @pytest.mark.parametrize("trials", [1, _BLOCK, 2 * _BLOCK + 1,
                                        5 * _BLOCK + 7])
    @pytest.mark.parametrize("protocol", list(Protocol),
                             ids=lambda p: p.value)
    def test_matches_serial_block_loop(self, monkeypatch, protocol, trials,
                                       cpus):
        monkeypatch.setattr(protocols, "_cpus", lambda: cpus)
        cfg = _cfg(protocol, Box(1.0, 0.30303), 2)
        if protocol is Protocol.INPUT_BUNCH:
            cfg = _threaded_bunch_cfg()
        # a seed per CPU count, so rows a block failed to write cannot
        # hold the equal values a freed array of the last case left
        seed = 17 + cpus
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # threads interleave more often
        try:
            matrix = monte_carlo(cfg, trials, seed)
        finally:
            sys.setswitchinterval(interval)
        data, truncated, n_ignored = serial_monte_carlo(cfg, trials, seed)
        assert np.array_equal(matrix.data, data, equal_nan=True)
        assert np.array_equal(matrix.truncated, truncated)
        assert np.array_equal(matrix.n_ignored, n_ignored)

    @pytest.mark.parametrize("cfg", [
        _cfg(Protocol.DYN_SWITCH, Box(1.0, 0.30303), 2),
        _cfg(Protocol.DYN_SWITCH_FEEDBACK, Box(1.0, 0.30303), 2),
        _cfg(Protocol.EC_BUNCH, Box(1.0, 0.30303), 2),
        replace(_threaded_bunch_cfg(), bunch=_THREAD_WAITS // 2 - 1),
    ], ids=["dyn-switch", "dyn-switch-feedback", "ec-bunch",
            "input-bunch-few-waits"])
    def test_small_arrays_stay_on_the_calling_thread(self, monkeypatch,
                                                      cfg):
        monkeypatch.setattr(protocols, "_cpus", lambda: 3)
        check_rows, ran_on = protocols.check_rows, set()

        def recording_check_rows(times):
            ran_on.add(threading.get_ident())
            check_rows(times)

        monkeypatch.setattr(protocols, "check_rows", recording_check_rows)
        monte_carlo(cfg, 3 * _BLOCK, 0)
        assert ran_on == {threading.get_ident()}

    @pytest.mark.parametrize("blocks", [2, 3, 5])
    def test_caller_runs_the_last_block(self, monkeypatch, blocks):
        monkeypatch.setattr(protocols, "_cpus", lambda: 3)
        check_rows, last_on = protocols.check_rows, []

        def recording_check_rows(times):
            if len(times) == 5:
                last_on.append(threading.get_ident())
            check_rows(times)

        monkeypatch.setattr(protocols, "check_rows", recording_check_rows)
        monte_carlo(_threaded_bunch_cfg(), (blocks - 1) * _BLOCK + 5, 0)
        assert last_on == [threading.get_ident()]

    def test_caller_waits_for_helper_blocks(self, monkeypatch):
        # a barrier makes the helper take a block while the calling thread
        # is in its first one; the helper's block then outlasts the rest
        monkeypatch.setattr(protocols, "_cpus", lambda: 2)
        check_rows, caller = protocols.check_rows, threading.get_ident()
        both_busy, waited = threading.Barrier(2, timeout=10), set()
        helper_done = []

        def slow_helper_check_rows(times):
            me = threading.get_ident()
            if me not in waited:
                waited.add(me)
                both_busy.wait()
            if me != caller:
                time.sleep(0.2)
                helper_done.append(len(times))
            check_rows(times)

        monkeypatch.setattr(protocols, "check_rows", slow_helper_check_rows)
        monte_carlo(_threaded_bunch_cfg(), 2 * _BLOCK + 5, 0)
        assert helper_done == [_BLOCK]

    def test_caller_does_not_wait_for_helpers_to_start(self, monkeypatch):
        # helpers that never start leave every block to the calling thread
        monkeypatch.setattr(protocols, "_cpus", lambda: 3)
        monkeypatch.setattr(protocols._thread, "start_new_thread",
                            lambda function, args: None)
        cfg, trials = _threaded_bunch_cfg(), 2 * _BLOCK + 5
        matrix = monte_carlo(cfg, trials, 3)
        data, truncated, n_ignored = serial_monte_carlo(cfg, trials, 3)
        assert np.array_equal(matrix.data, data, equal_nan=True)
        assert np.array_equal(matrix.n_ignored, n_ignored)

    @staticmethod
    def _fail_on_helper(monkeypatch):
        """Run a three-block run on two threads, with ``check_rows``
        failing the block a helper thread runs.  A barrier holds the
        calling thread in its first block until the helper has taken one.
        Returns the row counts of the blocks that failed."""
        monkeypatch.setattr(protocols, "_cpus", lambda: 2)
        check_rows, caller = protocols.check_rows, threading.get_ident()
        both_busy, waited = threading.Barrier(2, timeout=10), set()
        failed_rows = []

        def failing_check_rows(times):
            me = threading.get_ident()
            if me not in waited:
                waited.add(me)
                both_busy.wait()
            if me != caller:
                failed_rows.append(len(times))
                raise ValueError("bad row on a helper thread")
            check_rows(times)

        monkeypatch.setattr(protocols, "check_rows", failing_check_rows)
        return failed_rows

    def test_helper_failure_reaches_the_caller(self, monkeypatch):
        failed_rows = self._fail_on_helper(monkeypatch)
        with pytest.raises(ValueError, match="helper thread"):
            monte_carlo(_threaded_bunch_cfg(), 2 * _BLOCK + 5, 0)
        # the helper took the second block; the last is the caller's
        assert failed_rows == [_BLOCK]

    def test_helper_failure_exits_2(self, monkeypatch, capsys, tmp_path):
        failed_rows = self._fail_on_helper(monkeypatch)
        config = tmp_path / "run.ini"
        config.write_text(f"[run]\nticks = 2\nbunch = {_THREAD_WAITS // 2}\n")
        code = main(["run", "--config", str(config), "--protocol", "3",
                     "--trials", str(2 * _BLOCK + 5)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "helper thread" in captured.err
        assert failed_rows == [_BLOCK]


class TestInvariants:
    def test_lagging_input_counted_and_rows_increasing(self):
        # tau / 2 > mu_in: the EC fires after the next input tick is due
        cfg = ProtocolConfig(
            protocol=Protocol.DYN_SWITCH, input_dist=Box(1.0, 0.3),
            eps=0.01, n_ticks=6,
            ec=ExplicitEC(tau=2.5, sigma=0.1, eps_tail=0.01))
        matrix = monte_carlo(cfg, 500, 8)
        assert matrix.n_truncated == 0
        assert (matrix.n_ignored > 0).all()
        assert (np.diff(matrix.data, axis=1) > 0).all()
        assert (matrix.data[:, 0] > 0).all()

    @pytest.mark.parametrize("protocol", list(Protocol),
                             ids=lambda p: p.value)
    def test_rows_strictly_increasing(self, protocol):
        matrix = monte_carlo(_cfg(protocol, Gaussian(1.0, 0.05), 8), 500, 9)
        data = matrix.data[~matrix.truncated]
        assert (data[:, 0] > 0).all()
        assert (np.diff(data, axis=1) > 0).all()
        if protocol is Protocol.DYN_SWITCH_FEEDBACK:
            assert not matrix.n_ignored.any()
