import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ticklab

from ticklab.cli import (ConfigError, build_parser, fit_slope, main,
                         parse_dist)
from ticklab.distributions import Box, Delta, DeltaMixture, Gaussian


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


def test_fit_slope_recovers_power_law():
    ds = [16, 64, 256]
    sigma = [0.5 * d ** -0.75 for d in ds]
    assert fit_slope(ds, sigma) == pytest.approx(-0.75, abs=1e-12)


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


SMALL_SWEEP = ("sweep", "--d", "16,32", "--trials", "60", "--seed", "7")


class TestDeterminism:
    def test_identical_output_except_timestamp(self, capsys):
        _, first = _run(capsys, *SMALL_SWEEP)
        _, second = _run(capsys, *SMALL_SWEEP)
        strip = lambda text: [line for line in text.splitlines()
                              if not line.startswith("# generated")]
        assert strip(first) == strip(second)

    def test_round_trip_from_emitted_file(self, capsys, tmp_path):
        out = tmp_path / "first.csv"
        code, _ = _run(capsys, *SMALL_SWEEP, "--out", str(out))
        assert code == 0
        code, text = _run(capsys, "sweep", "--config", str(out))
        assert code == 0
        emitted = out.read_text()
        strip = lambda t: [line for line in t.splitlines()
                           if not line.startswith("# generated")]
        assert strip(text) == strip(emitted)

    def test_network_round_trip_from_emitted_file(self, capsys, tmp_path):
        out = tmp_path / "network.csv"
        code, _ = _run(capsys, "network", "--trials", "40", "--seed", "9",
                       "--out", str(out))
        assert code == 0
        code, text = _run(capsys, "network", "--config", str(out))
        assert code == 0
        strip = lambda t: [line for line in t.splitlines()
                           if not line.startswith("# generated")]
        assert strip(text) == strip(out.read_text())

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
        strip = lambda t: [line for line in t.splitlines()
                           if not line.startswith("# generated")]
        assert strip(text) == strip(out.read_text())

    def test_env_variable_overrides_seed(self, capsys, monkeypatch):
        monkeypatch.setenv("TICKLAB_SEED", "4242")
        _, text = _run(capsys, *SMALL_SWEEP)
        data = [line for line in text.splitlines() if line.startswith("sweep,")]
        assert all(line.endswith(",4242") for line in data)

    def test_env_variable_must_be_integer(self, capsys, monkeypatch):
        monkeypatch.setenv("TICKLAB_SEED", "not-a-number")
        code, _ = _run(capsys, *SMALL_SWEEP)
        assert code == 2


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

    def test_sweep_needs_a_dimension(self, capsys, tmp_path):
        cfg = _ini(tmp_path, "sweep", "d = ,\ntrials = 10\n")
        code, text = _run(capsys, "sweep", "--config", cfg)
        assert code == 2
        assert text == ""

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

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "ok.ini"
        cfg.write_text("[sweep]\nd = 16\ntrials = 50\nseed = 3\n")
        _, text = _run(capsys, "sweep", "--config", str(cfg), "--seed", "8")
        assert "# config: seed=8\n" in text


class TestCommands:
    def test_bounds_pure_table(self, capsys):
        code, text = _run(capsys, "bounds")
        assert code == 0
        assert "theorem1" in text and "corollary_feedback" in text

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
        # Sigma_in = 0.297 / 1.0015: theorem 1 admits j < 2.25
        cfg = _ini(tmp_path, "run", "input = box:center=1,width=0.3\n"
                   "trials = 100\nticks = 4\n")
        code, text = _run(capsys, "run", "--config", cfg)
        assert code == 0
        assert [r["bound"] != "" for r in _table(text)] == \
            [True, True, False, False]

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

    @pytest.mark.parametrize("sigma_in", ["0", "0.33", "0.5", "0.7", "1.2"])
    def test_bounds_corollary_only_with_its_theorem(self, capsys, tmp_path,
                                                    sigma_in):
        cfg = _ini(tmp_path, "bounds", f"sigma_in = {sigma_in}\n")
        code, text = _run(capsys, "bounds", "--config", cfg)
        assert code == 0
        names = {(r["d"], r["j"], r["protocol"]) for r in _table(text)}
        for theorem, corollary in (("theorem1", "corollary_no_feedback"),
                                   ("theorem2", "corollary_feedback")):
            with_theorem = {(d, j) for d, j, p in names if p == theorem}
            with_corollary = {(d, j) for d, j, p in names if p == corollary}
            assert with_theorem == with_corollary

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


RUN_T20 = Path(__file__).resolve().parents[1] / "perfbench" / "run_t20.ini"


def test_gaussian_run_loads_no_scipy():
    # scipy is a test-only dependency: the runtime must not import it
    script = (
        "import os, sys\n"
        "import ticklab.cli\n"
        f"code = ticklab.cli.main(['run', '--config', {str(RUN_T20)!r}, "
        "'--trials', '50', '--out', os.devnull])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] "
        "== 'scipy'))\n")
    src = str(Path(ticklab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH"))
                           if p)
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120,
                          check=True)
    assert done.stdout.split() == ["0", "[]"]
