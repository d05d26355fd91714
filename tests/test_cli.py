import json

import pytest

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
