import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ticklab
from ticklab import cli
from ticklab.cli import (ConfigError, build_parser, fit_slope, main,
                         parse_dist)
from ticklab.distributions import Box, Delta, DeltaMixture, Gaussian

from rewrite_golden import CASES, unstamped


class TestParseDist:
    def test_variants(self):
        assert parse_dist("box:center=1,width=0.5") == Box(1.0, 0.5)
        assert parse_dist("delta:time=2") == Delta(2.0)
        assert parse_dist("gaussian:mu=1,sd=0.1") == Gaussian(1.0, 0.1)
        mix = parse_dist("mixture:times=0.9|1.1,probs=0.5|0.5")
        assert mix == DeltaMixture(((0.9, 0.5), (1.1, 0.5)))

    def test_errors(self):
        with pytest.raises(ConfigError):
            parse_dist("triangle:a=1")
        with pytest.raises(ConfigError):
            parse_dist("box:center=1")
        with pytest.raises(ConfigError):
            parse_dist("box:center=1,width=0.5,tilt=2")
        with pytest.raises(ConfigError, match="2 times but 3 probs"):
            parse_dist("mixture:times=0.9|1.1,probs=0.2|0.3|0.5")
        with pytest.raises(ConfigError, match=r"unknown keys \['tilt'\]"):
            parse_dist("mixture:times=0.9|1.1,probs=0.5|0.5,tilt=2")


def test_fit_slope_recovers_power_law():
    ds = [16, 64, 256]
    sigma = [0.5 * d ** -0.75 for d in ds]
    assert fit_slope(ds, sigma) == pytest.approx(-0.75, abs=1e-12)


@pytest.mark.parametrize("bad", [0.0, -0.1, float("nan"), float("inf")])
def test_fit_slope_has_no_value_off_the_positive_reals(bad):
    assert fit_slope([16, 64, 256], [0.1, bad, 0.01]) is None


def test_sweep_of_one_repeated_dimension_has_an_empty_slope(capsys):
    # a log-log fit over one distinct d has no slope (numpy warns that it
    # is rank deficient, which the suite turns into an error)
    assert fit_slope([16, 16], [0.1, 0.05]) is None
    code, text = _run(capsys, "sweep", "--d", "16,16", "--protocol", "1",
                      "--trials", "60", "--seed", "7")
    slopes = [r for r in _table(text) if r["experiment"] == "sweep_slope"]
    assert code == 0 and [r["Sigma_out"] for r in slopes] == [""]


def _run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def _table(text):
    """The data rows of an emitted CSV file, as dicts."""
    return list(csv.DictReader(
        line for line in text.splitlines() if not line.startswith("#")))


def _ini(tmp_path, experiment, body):
    path = tmp_path / f"{experiment}.ini"
    path.write_text(f"[{experiment}]\n{body}")
    return str(path)


WIDE_WINDOW = "d = 2\neta = 0.9\ntrials = 10\n"
SMALL_SWEEP = ("sweep", "--d", "16,32", "--trials", "60", "--seed", "7")


class TestDeterminism:
    def test_identical_output_except_timestamp(self, capsys):
        _, first = _run(capsys, *SMALL_SWEEP)
        _, second = _run(capsys, *SMALL_SWEEP)
        assert unstamped(first) == unstamped(second)

    def test_round_trip_from_emitted_file(self, capsys, tmp_path):
        out = tmp_path / "first.csv"
        code, _ = _run(capsys, *SMALL_SWEEP, "--out", str(out))
        assert code == 0
        code, text = _run(capsys, "sweep", "--config", str(out))
        assert code == 0
        emitted = out.read_text()
        assert unstamped(text) == unstamped(emitted)

    def test_network_round_trip_from_emitted_file(self, capsys, tmp_path):
        out = tmp_path / "network.csv"
        code, _ = _run(capsys, "network", "--trials", "40", "--seed", "9",
                       "--out", str(out))
        assert code == 0
        code, text = _run(capsys, "network", "--config", str(out))
        assert code == 0
        assert unstamped(text) == unstamped(out.read_text())

    @pytest.mark.parametrize("argv", [
        ("run", "--protocol", "2", "--trials", "80", "--seed", "5"),
        ("run", "--protocol", "3", "--trials", "80", "--d", "16"),
        ("bounds", "--d", "16,64", "--seed", "3"),
        ("estimator-check", "--seed", "11"),
    ], ids=["run-2", "run-3", "bounds", "estimator-check"])
    def test_subcommand_round_trip_from_emitted_file(self, capsys, tmp_path,
                                                     argv):
        out = tmp_path / "first.csv"
        code, _ = _run(capsys, *argv, "--out", str(out))
        assert code == 0
        code, text = _run(capsys, argv[0], "--config", str(out))
        assert code == 0
        assert unstamped(text) == unstamped(out.read_text())

    def test_parser_built_once_keeps_no_state(self, capsys, monkeypatch):
        # main builds its parser on the first call of a process; a network
        # call in between leaves the next run's output as it was
        built = []

        def counting_build_parser():
            built.append(True)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counting_build_parser)
        run = ("run", "--protocol", "3", "--trials", "80", "--d", "16")
        _, first = _run(capsys, *run)
        code, _ = _run(capsys, "network", "--trials", "20")
        assert code == 0
        _, again = _run(capsys, *run)
        assert unstamped(first) == unstamped(again)
        assert len(built) == 1

    def test_env_variable_overrides_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TICKLAB_SEED", "4242")
        _, text = _run(capsys, *SMALL_SWEEP)
        data = [line for line in text.splitlines() if line.startswith("sweep,")]
        assert all(line.endswith(",4242") for line in data)

    def test_env_variable_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("TICKLAB_SEED", "not-a-number")
        code, _ = _run(capsys, *SMALL_SWEEP)
        assert code == 2


class TestFeedbackRuns:
    """Dynamics switching with feedback on the default input: its period
    leaves room in each cycle for the EC window as well as the input."""

    @pytest.mark.parametrize("d", ["2", "16", "64", "128"])
    def test_run(self, capsys, d):
        code, text = _run(capsys, "run", "--protocol", "2", "--d", d,
                          "--trials", "300")
        assert code == 0
        assert [row["j"] for row in _table(text)] == list("123456")

    def test_sweep_of_all_protocols_meets_theorem_2(self, capsys):
        code, text = _run(capsys, "sweep", "--protocol", "1,2,3,4",
                          "--trials", "300")
        assert code == 0
        rows = [row for row in _table(text)
                if row["experiment"] == "sweep" and row["protocol"] == "2"]
        assert len(rows) == 7
        assert all(float(row["Sigma_out"]) <= float(row["bound"])
                   for row in rows)


class TestConfigHandling:
    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[sweep]\nwarp = 9\n")
        code, _ = _run(capsys, "sweep", "--config", str(cfg))
        assert code == 2

    def test_ini_section_read(self, capsys, tmp_path):
        cfg = tmp_path / "ok.ini"
        cfg.write_text("[sweep]\nd = 16\ntrials = 50\nseed = 3\n")
        code, text = _run(capsys, "sweep", "--config", str(cfg))
        assert code == 0
        assert "# config: d=16\n" in text

    def test_config_for_wrong_experiment_rejected(self, capsys, tmp_path):
        out = tmp_path / "sweep.csv"
        _run(capsys, *SMALL_SWEEP, "--out", str(out))
        code, _ = _run(capsys, "bounds", "--config", str(out))
        assert code == 2
        # an INI file without the subcommand's section
        cfg = _ini(tmp_path, "sweep", "d = 16\n")
        assert main(["bounds", "--config", cfg]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {cfg}: missing section [bounds]\n"

    def test_sweep_needs_a_dimension(self, capsys, tmp_path):
        cfg = _ini(tmp_path, "sweep", "d = ,\ntrials = 10\n")
        code, text = _run(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert text == ""

    @pytest.mark.parametrize("experiment, body, message", [
        ("bounds", "d = ,\n", "d needs at least one entry"),
        ("bounds", "j = ,\n", "j needs at least one entry"),
        ("bounds", "sigma_in = inf\n", "finite sigma_in"),
        ("sweep", "protocols = ,\ntrials = 10\n", "protocols needs"),
        ("bounds", "d = 16,abc\n", "bad integer list '16,abc'"),
        ("bounds", "d\n", "Source contains parsing errors"),
    ])
    def test_empty_or_infinite_config_rejected(self, capsys, tmp_path,
                                               experiment, body, message):
        cfg = _ini(tmp_path, experiment, body)
        code = main([experiment, "--config", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("argv", [
        ("bounds", "--trials", "5"),
        ("bounds", "--protocol", "1"),
        ("network", "--protocol", "3"),
        ("estimator-check", "--d", "16"),
        ("estimator-check", "--trials", "5"),
    ])
    def test_flag_without_config_key_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_benchmark_argv_parses(self):
        parser = build_parser()
        common = ["--seed", "3", "--format", "json"]
        assert parser.parse_args(["sweep", *common]).protocols is None
        args = parser.parse_args(["run", "--config", "run.ini",
                                  "--protocol", "2", *common])
        assert (args.config, args.protocol) == ("run.ini", "2")
        assert parser.parse_args(["network", "--trials", "9",
                                  *common]).trials == 9

    @pytest.mark.parametrize("argv", [
        ("run", "--config", "{tmp}/missing.ini"),
        ("run", "--config", "{tmp}"),
        ("bounds", "--out", "{tmp}/missing/x.csv"),
    ])
    def test_file_error_is_config_error(self, capsys, tmp_path, argv):
        code = main([arg.format(tmp=tmp_path) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert str(tmp_path) in captured.err

    @pytest.mark.parametrize("experiment, single", [
        ("run", True), ("network", True), ("sweep", False),
        ("bounds", False)])
    def test_dimension_help_says_how_many(self, capsys, experiment, single):
        with pytest.raises(SystemExit):
            main([experiment, "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert ("--d D EC dimension" in text) is single
        assert ("dimension list" in text) is not single

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "ok.ini"
        cfg.write_text("[sweep]\nd = 16\ntrials = 50\nseed = 3\n")
        _, text = _run(capsys, "sweep", "--config", str(cfg), "--seed", "8")
        assert "# config: seed=8\n" in text


class TestCommands:
    def test_bounds_pure_table(self, capsys, tmp_path):
        code, text = _run(capsys, "bounds")
        assert code == 0
        assert "theorem1" in text and "theorem2" in text
        # each value once: the corollaries are the theorems' rows
        assert "corollary" not in text
        # every row is computed at the EC inaccuracy that nu sets
        assert {r["eta"] for r in _table(text)} == {"0.1"}
        cfg = _ini(tmp_path, "bounds", "nu = 0.25\n")
        code, text = _run(capsys, "bounds", "--config", cfg)
        assert code == 0
        assert {r["eta"] for r in _table(text)} == {"0.25"}

    def test_run_emits_per_tick_rows(self, capsys):
        code, text = _run(capsys, "run", "--protocol", "2", "--trials",
                          "80", "--seed", "5")
        rows = [line for line in text.splitlines() if line.startswith("run,")]
        assert code == 0
        assert len(rows) == 6      # default ticks=6, one row per j

    def test_run_feedback_bound_only_at_first_tick(self, capsys):
        code, text = _run(capsys, "run", "--protocol", "2", "--trials",
                          "200", "--seed", "5")
        assert code == 0
        bounds = {int(r["j"]): r["bound"] for r in _table(text)}
        assert float(bounds.pop(1)) > 0
        assert set(bounds) == {2, 3, 4, 5, 6}
        assert set(bounds.values()) == {""}

    def test_run_bound_within_theorem1_limit(self, capsys, tmp_path):
        # sigma_in = 0.297 and the run's period tau = 1.0015 / 2.5 = 0.4006:
        # only j = 1 has j sigma_in < tau, though 2 / (3 Sigma_in) = 2.25
        cfg = _ini(tmp_path, "run", "input = box:center=1,width=0.3\n"
                   "trials = 100\nticks = 4\n")
        code, text = _run(capsys, "run", "--config", cfg)
        assert code == 0
        assert [r["bound"] != "" for r in _table(text)] == \
            [True, False, False, False]

    @pytest.mark.parametrize("body", [
        "", "input = box:center=1,width=0.1015\n"])
    def test_run_bound_only_where_its_period_fits(self, capsys, tmp_path,
                                                  body):
        # run chooses the period for tick 1, so 2 sigma_in already
        # exceeds tau (0.66 > 0.40 by default, 0.20 > 0.105 at 0.1015)
        cfg = _ini(tmp_path, "run", body + "trials = 200\n")
        code, text = _run(capsys, "run", "--config", cfg)
        assert code == 0
        assert [r["bound"] != "" for r in _table(text)] == \
            [True] + 5 * [False]

    @pytest.mark.parametrize("d", ["16", "64", "256"])
    def test_run_bound_holds_on_a_narrow_input(self, capsys, tmp_path, d):
        # sigma_in = 0.0198: a period that left the detector window no
        # room let the arrivals sweep it, and Sigma_out at j = 1 stayed
        # near the input's own 0.0198, 13 to 82 times its printed bound
        cfg = _ini(tmp_path, "run", "input = box:center=1,width=0.02\n"
                   "ticks = 2\n")
        code, text = _run(capsys, "run", "--config", cfg, "--d", d)
        assert code == 0
        rows = [r for r in _table(text) if r["bound"]]
        assert [r["j"] for r in rows] == ["1"]
        assert float(rows[0]["Sigma_out"]) <= float(rows[0]["bound"])

    def test_sweep_keeps_its_theorem1_bound(self, capsys, tmp_path):
        # sweep chooses the period for its own tick j, which therefore fits
        cfg = _ini(tmp_path, "sweep", "input = box:center=1,width=0.1015\n"
                   "j = 3\nprotocols = 1\ntrials = 200\n")
        code, text = _run(capsys, "sweep", "--config", cfg)
        assert code == 0
        rows = [r for r in _table(text) if r["experiment"] == "sweep"]
        assert len(rows) == 7
        assert all(float(r["bound"]) > 0 for r in rows)

    @pytest.mark.parametrize("protocol", ["1", "2"])
    def test_run_with_delta_input(self, capsys, tmp_path, protocol):
        cfg = _ini(tmp_path, "run", "input = delta:time=1\ntrials = 50\n"
                   "ticks = 3\n")
        code, text = _run(capsys, "run", "--config", cfg,
                          "--protocol", protocol)
        assert code == 0
        rows = _table(text)
        assert float(rows[0]["bound"]) == 0.0
        assert [r["bound"] != "" for r in rows] == \
            [True, protocol == "1", protocol == "1"]

    @pytest.mark.parametrize("protocol", ["1", "2", "3", "4"])
    def test_run_in_half_the_time_unit(self, capsys, tmp_path, protocol):
        # the default input with its center and width doubled: every time
        # doubles exactly, every ratio stays
        cfg = _ini(tmp_path, "run",
                   "input = box:center=2,width=0.6666666666\n")
        rows = []
        for argv in ([], ["--config", cfg]):
            code, text = _run(capsys, "run", *argv, "--protocol", protocol,
                              "--format", "json")
            assert code == 0
            rows.append(json.loads(text)["rows"])
        assert len(rows[0]) == len(rows[1]) == 6
        for one, two in zip(*rows):
            assert two["sigma_out"] == 2 * one["sigma_out"]
            assert two["mu_out"] == 2 * one["mu_out"]
            assert (two["Sigma_out"], two["bound"]) == \
                (one["Sigma_out"], one["bound"])

    def test_bounds_at_zero_input_inaccuracy(self, capsys, tmp_path):
        cfg = _ini(tmp_path, "bounds", "sigma_in = 0\n")
        code, text = _run(capsys, "bounds", "--config", cfg)
        assert code == 0
        rows = _table(text)
        assert {float(r["bound"]) for r in rows} == {0.0}
        # theorem 1 holds for every j, theorem 2 for the first gap only
        assert sum(r["protocol"] == "theorem1" for r in rows) == 4 * 6
        assert sum(r["protocol"] == "theorem2" for r in rows) == 4

    def test_bounds_reject_negative_input_inaccuracy(self, capsys,
                                                     tmp_path):
        cfg = _ini(tmp_path, "bounds", "sigma_in = -0.1\n")
        code, _ = _run(capsys, "bounds", "--config", cfg)
        assert code == 2

    def test_network_summary(self, capsys):
        code, text = _run(capsys, "network", "--trials", "10", "--seed", "2")
        assert code == 0
        assert any(line.startswith("network,enhanced,") for line
                   in text.splitlines())

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_network_needs_a_trial(self, capsys, trials):
        code, text = _run(capsys, "network", "--trials", trials)
        assert code == 2
        assert text == ""

    @pytest.mark.parametrize("experiment", ["run", "sweep"])
    def test_estimate_needs_two_trials(self, capsys, monkeypatch,
                                       experiment):
        # no inaccuracy estimate exists below two samples, so one trial is
        # rejected before any is simulated
        def no_simulation(*args):
            raise AssertionError("monte_carlo ran")

        monkeypatch.setattr(cli, "monte_carlo", no_simulation)
        code = main([experiment, "--trials", "1"])
        out, err = capsys.readouterr()
        assert (code, out) == (2, "")
        assert "trials" in err

    @pytest.mark.parametrize("experiment",
                             ["run", "sweep", "bounds", "network"])
    def test_oversized_dimension_is_config_error(self, capsys, experiment):
        # d = 10^400 overflows a float: an error line and exit code 2, not
        # a traceback
        code = main([experiment, "--d", str(10 ** 400)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err.startswith("error: ")

    def test_network_runs_one_trial(self, capsys):
        code, text = _run(capsys, "network", "--trials", "1", "--seed", "2")
        assert code == 0
        assert any(line.startswith("network,enhanced,") for line
                   in text.splitlines())

    @pytest.mark.parametrize("tick", ["-1", "5"])
    def test_network_tick_outside_outputs(self, capsys, tmp_path, tick):
        cfg = tmp_path / "net.ini"
        cfg.write_text(f"[network]\noutputs = 5\ntick = {tick}\n"
                       "trials = 10\n")
        code, _ = _run(capsys, "network", "--config", str(cfg))
        assert code == 2

    def test_estimator_check_passes(self, capsys):
        code, text = _run(capsys, "estimator-check")
        assert code == 0

    def test_estimator_check_fails_on_a_mismatch(self, capsys, tmp_path,
                                                 monkeypatch):
        # an oracle that disagrees on the first and third of 4 instances
        calls, slow = [], cli.bruteforce_inaccuracy

        def oracle(samples, j, eps):
            calls.append(j)
            return None if len(calls) % 2 else slow(samples, j, eps)
        monkeypatch.setattr(cli, "bruteforce_inaccuracy", oracle)
        cfg = _ini(tmp_path, "estimator-check", "instances = 4\n")
        code, text = _run(capsys, "estimator-check", "--config", cfg)
        assert code == 3
        assert len(calls) == 4
        assert "# config: instances=4\n" in text
        (row,) = _table(text)
        assert (row["trials"], row["Sigma_out"]) == ("4", "2")

    @pytest.mark.parametrize("body, key", [
        ("instances = 0\n", "instances"),
        ("instances = -2\n", "instances"),
        ("max_samples = 4\n", "max_samples"),
        ("max_samples = 0\n", "max_samples"),
    ])
    def test_estimator_check_rejects_bad_counts(self, capsys, tmp_path,
                                                body, key):
        cfg = _ini(tmp_path, "estimator-check", body)
        code = main(["estimator-check", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert f"{key} must be at least" in captured.err

    @pytest.mark.parametrize("spec", [
        "gaussian:mu=nan,sd=0.1",
        "gaussian:mu=1,sd=inf",
        "box:center=nan,width=0.1",
        "box:center=inf,width=0.1",
        "delta:time=inf",
        "mixture:times=0.9|nan,probs=0.5|0.5",
    ])
    def test_run_rejects_non_finite_input(self, capsys, tmp_path, spec):
        cfg = _ini(tmp_path, "run", f"input = {spec}\ntrials = 10\n")
        code = main(["run", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "must be finite" in captured.err

    @pytest.mark.parametrize("experiment", ["run", "sweep", "network"])
    @pytest.mark.parametrize("eps_ec", ["2", "-0.5", "nan"])
    def test_ec_tail_level_outside_unit_interval(self, capsys, tmp_path,
                                                 experiment, eps_ec):
        cfg = _ini(tmp_path, experiment, f"eps_ec = {eps_ec}\ntrials = 10\n")
        code = main([experiment, "--config", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "EC tail level must lie in [0, 1)" in captured.err

    @pytest.mark.parametrize("experiment,key", [("run", "protocol"),
                                                ("sweep", "protocols")])
    def test_ec_bunch_window_reaching_the_period(self, capsys, tmp_path,
                                                 experiment, key):
        # quasi_ideal_ratio(2, 0.9) = 1.014: the window outgrows the period,
        # for EC bunching and for both switching protocols alike
        for protocol in (1, 2, 4):
            cfg = _ini(tmp_path, experiment,
                       f"{key} = {protocol}\n{WIDE_WINDOW}")
            code = main([experiment, "--config", cfg])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "EC window width" in captured.err

    @pytest.mark.parametrize("d", ["2", "4", "8"])
    def test_ec_bunch_without_a_fitting_period(self, capsys, d):
        # no EC bunching period of a d <= 8 EC holds the default input
        # within its jitter margin, and there is no fallback period
        code = main(["run", "--protocol", "4", "--d", d, "--trials", "10"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "EC tick gap tau / 2" in captured.err

    def test_ec_bunch_ignores_atoms_without_mass(self, capsys, tmp_path):
        # the same law as delta:time=1: the zero-mass atoms must not widen
        # the input that EC bunching fits into its tick gap
        for spec in ("mixture:times=0.5|1|5,probs=0|1|0", "delta:time=1"):
            cfg = _ini(tmp_path, "run", f"input = {spec}\ntrials = 10\n")
            code, text = _run(capsys, "run", "--protocol", "4", "--config",
                              cfg)
            assert code == 0
            assert len(_table(text)) == 6

    def test_mixture_needs_equal_counts(self, capsys, tmp_path):
        spec = "mixture:times=0.9|1.1|5.0,probs=0.5|0.5"
        cfg = _ini(tmp_path, "run", f"input = {spec}\ntrials = 10\n")
        code = main(["run", "--config", cfg])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "3 times but 2 probs" in captured.err

    @pytest.mark.parametrize("experiment,key", [("run", "protocol"),
                                                ("sweep", "protocols")])
    @pytest.mark.parametrize("eta", ["nan", "0", "1", "1.5", "-0.1"])
    def test_eta_outside_unit_interval(self, capsys, tmp_path, experiment,
                                       key, eta):
        # every protocol, input bunching included, whose sweep d = 1 (its
        # bunch size) is valid
        for protocol in (1, 2, 3, 4):
            d = 1 if protocol == 3 else 16
            cfg = _ini(tmp_path, experiment, f"{key} = {protocol}\n"
                       f"eta = {eta}\nd = {d}\ntrials = 10\n")
            code = main([experiment, "--config", cfg])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert "eta must lie in (0, 1)" in captured.err

    def test_input_bunching_sweep_accepts_unit_bunch(self, capsys,
                                                      tmp_path):
        cfg = _ini(tmp_path, "sweep", "protocols = 3\nd = 1,4\n"
                   "trials = 10\n")
        code, text = _run(capsys, "sweep", "--config", cfg)
        assert code == 0
        assert [r["d"] for r in _table(text)] == ["1", "4", ""]

    def test_input_bunching_run_reports_its_bunch(self, capsys, tmp_path):
        # column d holds the bunch size the run used, not the unused EC d
        cfg = _ini(tmp_path, "run", "protocol = 3\nd = 2\nbunch = 16\n"
                   "trials = 20\nticks = 2\n")
        code, text = _run(capsys, "run", "--config", cfg)
        assert code == 0
        assert [r["d"] for r in _table(text)] == ["16", "16"]

    def test_json_format(self, capsys):
        code, text = _run(capsys, "bounds", "--format", "json")
        payload = json.loads(text)
        assert code == 0
        assert payload["experiment"] == "bounds"
        assert payload["rows"][0]["protocol"] == "theorem1"

    def test_unknown_protocol_is_config_error(self, capsys):
        code, _ = _run(capsys, "run", "--protocol", "9")
        assert code == 2


def test_parser_rejects_missing_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def _indent_json(rows, cfg, experiment) -> str:
    """The slow form ``render_json`` reproduces: json's Python encoder,
    which ``indent`` selects."""
    return json.dumps({"experiment": experiment, "config": cfg,
                       "rows": rows}, indent=2, default=float) + "\n"


class TestRenderJson:
    @pytest.mark.parametrize("name", CASES)
    def test_golden_cases_match_the_indent_encoder(self, name, tmp_path,
                                                   monkeypatch):
        monkeypatch.delenv("TICKLAB_SEED", raising=False)
        argv, config = CASES[name]
        if config is not None:
            path = tmp_path / "case.ini"
            path.write_text(config, encoding="utf-8")
            argv = [*argv, "--config", str(path)]
        args = build_parser().parse_args(argv)
        cfg = cli.resolve_config(args)
        rows = cli._COMMANDS[args.experiment](cfg)
        assert cli.render_json(rows, cfg, args.experiment) \
            == _indent_json(rows, cfg, args.experiment)

    def test_edge_payloads_match_the_indent_encoder(self):
        bounds = dict(cli._DEFAULTS["bounds"], sigma_in="1.5")
        assert cli.cmd_bounds(bounds) == []  # no theorem applies
        odd = {"a, b": 'say "hi", \\ then', "d\u00e9j\u00e0": "\u65e5\u672c",
               "tab": "a\tb\n"}
        row = cli._row(experiment="run", protocol='p, "q"', d=np.int64(7),
                       eta=np.float64(0.1), eps=float("nan"),
                       eps0=float("inf"), eps_ec=-float("inf"),
                       trials=np.int64(-3), j=np.float64(1e300),
                       sigma_out=np.float64(-0.0), Sigma_out=True)
        for rows, cfg in (([], bounds), ([], {}), ([row], {}),
                          ([row, row], odd), ([{}], odd), ([row], bounds)):
            assert cli.render_json(rows, cfg, "run") \
                == _indent_json(rows, cfg, "run")


@pytest.mark.parametrize("n", [1, 2, 3, 200, 5000])
def test_median_matches_numpy(n):
    # ties: values from a few levels, some repeated many times
    rng = np.random.default_rng(n)
    for values in (rng.integers(0, 7, n) * 0.1, rng.random(n),
                   np.full(n, 0.3), rng.permutation(np.arange(n) // 2)
                   * 1.0):
        before = values.copy()
        assert cli._median(values).hex() == float(np.median(values)).hex()
        assert np.array_equal(values, before)


RUN_T20 = Path(__file__).resolve().parents[1] / "perfbench" / "run_t20.ini"


def _python(*args, check=True):
    """Run a fresh interpreter that imports this ticklab."""
    src = str(Path(ticklab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120,
                          check=check)


def test_gaussian_run_loads_no_scipy():
    # scipy is a test-only dependency: the runtime must not import it
    script = (
        "import os, sys\n"
        "import ticklab.cli\n"
        f"code = ticklab.cli.main(['run', '--config', {str(RUN_T20)!r}, "
        "'--trials', '50', '--out', os.devnull])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] "
        "== 'scipy'))\n")
    done = _python("-c", script)
    assert done.stdout.split() == ["0", "[]"]


def test_import_builds_no_alias_table():
    # the Box alias tables are built on first use, so that the import time
    # of every command stays free of them
    script = ("import ticklab.cli\n"
              "from ticklab.distributions import _pair_alias\n"
              "print(_pair_alias.cache_info().currsize)\n")
    assert _python("-c", script).stdout == "0\n"


def test_ec_window_check_survives_optimize(tmp_path):
    # the EC checks are raises, not asserts, so python -O keeps them
    cfg = _ini(tmp_path, "run", f"protocol = 4\n{WIDE_WINDOW}")
    done = _python("-O", "-m", "ticklab.cli", "run", "--config", cfg,
                   check=False)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "EC window width" in done.stderr


def test_sample_checks_survive_optimize():
    # the estimator's sample checks are raises, not asserts, so python -O
    # keeps them
    script = ("from ticklab import empirical_inaccuracy\n"
              "try:\n"
              "    empirical_inaccuracy([1.0, float('nan')], 1, 0.1)\n"
              "except ValueError as exc:\n"
              "    print(exc)\n")
    done = _python("-O", "-c", script)
    assert done.stdout == "tick-time samples must be finite\n"


IMPOSSIBLE_TRIALS = {"10^30": 10 ** 30, "2^62": 2 ** 62}


@pytest.fixture(scope="module")
def impossible_trial_runs():
    """Every (experiment, trial count) case of
    ``test_impossible_trial_count_fails_at_once``, run one after another
    in one child process: (exit code, seconds, stdout, stderr) by case.
    The output arrays are allocated before any block's stream is spawned,
    so each count fails there at once; spawning first would build 2^50
    streams for 2^62 trials.  The child's address space is capped, so
    that such a regression fails instead of filling memory."""
    cases = [(e, t) for e in ("run", "network") for t in IMPOSSIBLE_TRIALS]
    argvs = [[e, "--trials", str(IMPOSSIBLE_TRIALS[t])] for e, t in cases]
    script = (
        "import contextlib, io, json, resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 31, 1 << 31))\n"
        "import ticklab.cli\n"
        f"for argv in {argvs!r}:\n"
        "    out, err = io.StringIO(), io.StringIO()\n"
        "    start = time.monotonic()\n"
        "    with contextlib.redirect_stdout(out), "
        "contextlib.redirect_stderr(err):\n"
        "        code = ticklab.cli.main(argv)\n"
        "    print(json.dumps([code, time.monotonic() - start, "
        "out.getvalue(), err.getvalue()]))\n")
    done = _python("-c", script)
    return dict(zip(cases, map(json.loads, done.stdout.splitlines()),
                    strict=True))


@pytest.mark.parametrize("trials", list(IMPOSSIBLE_TRIALS))
@pytest.mark.parametrize("experiment", ["run", "network"])
def test_impossible_trial_count_fails_at_once(impossible_trial_runs,
                                              experiment, trials):
    code, seconds, out, err = impossible_trial_runs[experiment, trials]
    assert code == 2 and seconds < 5.0
    assert out == ""
    assert err.startswith("error: ")


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_sweep_of_zero_sigma_has_an_empty_slope(tmp_path, capsys):
    # a Delta input gives Sigma_out = 0 at every d, whose log has no value:
    # the slope cell stays empty instead of carrying nan (a bare NaN token
    # in JSON) and a numpy warning on stderr, which the suite also turns
    # into an error
    cfg = _ini(tmp_path, "sweep", "input = delta:time=1\nprotocols = 3\n"
               "d = 16,32\ntrials = 50\n")
    code = main(["sweep", "--config", cfg])
    csv_run = capsys.readouterr()
    assert (code, csv_run.err) == (0, "")
    slope = [r for r in _table(csv_run.out)
             if r["experiment"] == "sweep_slope"]
    assert [r["Sigma_out"] for r in slope] == [""]
    code = main(["sweep", "--config", cfg, "--format", "json"])
    json_run = capsys.readouterr()
    assert (code, json_run.err) == (0, "")
    rows = json.loads(json_run.out, parse_constant=_reject_constant)["rows"]
    assert [r["Sigma_out"] for r in rows] == [0.0, 0.0, None]
