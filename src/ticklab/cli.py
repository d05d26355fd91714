"""Command-line front end.

Subcommands:

* ``sweep``: dimension sweep over protocols, with fitted log-log slopes;
* ``bounds``: tabulate the closed-form bound formulas (no simulation);
* ``run``: one protocol, per-tick-index inaccuracy table;
* ``network``: multi-node shared-signal scenario, spread statistics;
* ``estimator-check``: exact comparison of the inaccuracy estimator
  against the brute-force oracle (exit code 3 on any mismatch).

Results go to CSV (default) or JSON.  Every emitted file embeds the
resolved configuration in ``# config:`` comment lines; pointing
``--config`` at such a file reproduces the run.  The environment variable
``TICKLAB_SEED`` overrides the seed and nothing else.  Exit codes: 0 on
success, 2 on configuration errors and on a config or output file that
cannot be read or written, 3 on an estimator-check failure.
"""
from __future__ import annotations

import argparse
import configparser
import csv
import io
import json
import os
import sys
from datetime import datetime, timezone

import numpy as np

from .clocks import _check_ec_tail, _check_eta
from .distributions import Box, Delta, DeltaMixture, Gaussian
from .inaccuracy import bruteforce_inaccuracy, empirical_inaccuracy
from .network import network_spreads, plan_scenario
from .protocols import (Protocol, ProtocolConfig, QuasiIdealSpec,
                        corollary_bounds, monte_carlo, theorem_bound)

COLUMNS = ["experiment", "protocol", "d", "eta", "eps", "eps0", "eps_ec",
           "trials", "j", "sigma_out", "mu_out", "Sigma_out", "bound",
           "truncated_trials", "seed"]

_PROTOCOLS = {"1": Protocol.DYN_SWITCH, "2": Protocol.DYN_SWITCH_FEEDBACK,
              "3": Protocol.INPUT_BUNCH, "4": Protocol.EC_BUNCH}


class ConfigError(ValueError):
    pass


def parse_dist(spec: str):
    """Parse a distribution spec such as ``box:center=1,width=0.333``,
    ``delta:time=1``, ``gaussian:mu=1,sd=0.1`` or
    ``mixture:times=0.9|1.1,probs=0.5|0.5``."""
    try:
        kind, _, rest = spec.partition(":")
        kv = {}
        if rest:
            for item in rest.split(","):
                key, _, value = item.partition("=")
                kv[key.strip()] = value.strip()
        laws = {"box": (Box, "center", "width"), "delta": (Delta, "time"),
                "gaussian": (Gaussian, "mu", "sd")}
        if kind in laws:
            law, *keys = laws[kind]
            return law(**{key: float(kv.pop(key)) for key in keys}, **kv)
        if kind == "mixture":
            times = [float(x) for x in kv.pop("times").split("|")]
            probs = [float(x) for x in kv.pop("probs").split("|")]
            if kv:
                raise ValueError(f"unknown keys {sorted(kv)}")
            if len(times) != len(probs):
                raise ValueError(f"{len(times)} times but {len(probs)} "
                                 "probs")
            return DeltaMixture(tuple(zip(times, probs)))
        raise ValueError(f"unknown distribution kind {kind!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad distribution spec {spec!r}: {exc}") from exc


_DEFAULTS = {
    "sweep": {
        "input": "box:center=1,width=0.3333333333",
        "eps": "0.01", "eps0": "0.01", "eps_ec": "0.001", "eta": "0.1",
        "d": "16,32,64,128,256,512,1024", "trials": "10000", "j": "1",
        "protocols": "1,3,4", "seed": "12345",
    },
    "bounds": {
        "sigma_in": "0.33", "d": "16,64,256,1024", "nu": "0.1",
        "j": "1,2,3,4,5,6", "seed": "12345",
    },
    "run": {
        "protocol": "1", "input": "box:center=1,width=0.3333333333",
        "eps": "0.01", "eps0": "0.01", "eps_ec": "0.001", "eta": "0.1",
        "d": "256", "bunch": "64", "trials": "10000", "ticks": "6",
        "seed": "12345",
    },
    "network": {
        "central": "box:center=1,width=0.1", "nodes": "8",
        "jitter_width": "0.1", "d": "256", "eta": "0.1", "eps": "0.01",
        "eps_ec": "0.001", "outputs": "5", "tick": "4", "trials": "200",
        "sigma_scale": "1.0", "seed": "12345",
    },
    "estimator-check": {
        "instances": "100", "max_samples": "200", "seed": "12345",
    },
}


def _read_config_file(path: str, experiment: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    embedded = {}
    for line in text.splitlines():
        if line.startswith("# config: "):
            key, _, value = line[len("# config: "):].partition("=")
            embedded[key.strip()] = value.strip()
    if embedded:
        conf_exp = embedded.pop("experiment", experiment)
        if conf_exp != experiment:
            raise ConfigError(
                f"config file is for experiment {conf_exp!r}, "
                f"not {experiment!r}")
        _reject_unknown(embedded, experiment, path)
        return embedded
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc
    if not parser.has_section(experiment):
        raise ConfigError(f"{path}: missing section [{experiment}]")
    section = dict(parser.items(experiment))
    _reject_unknown(section, experiment, path)
    return section


def _reject_unknown(keys: dict, experiment: str, source: str):
    unknown = set(keys) - set(_DEFAULTS[experiment])
    if unknown:
        raise ConfigError(
            f"{source}: unknown keys for {experiment}: {sorted(unknown)}")


def resolve_config(args) -> dict:
    cfg = dict(_DEFAULTS[args.experiment])
    if args.config:
        cfg.update(_read_config_file(args.config, args.experiment))
    for key in _DEFAULTS[args.experiment]:
        # a flag overrides the config key of its name (see build_parser)
        if getattr(args, key, None) is not None:
            cfg[key] = str(getattr(args, key))
    env_seed = os.environ.get("TICKLAB_SEED")
    if env_seed is not None:
        try:
            cfg["seed"] = str(int(env_seed))
        except ValueError as exc:
            raise ConfigError("TICKLAB_SEED must be an integer") from exc
    return cfg


def _int_list(cfg: dict, key: str) -> list[int]:
    try:
        values = [int(x) for x in cfg[key].split(",") if x.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad integer list {cfg[key]!r}") from exc
    if not values:
        raise ConfigError(f"{key} needs at least one entry")
    return values


def _row(**kw) -> dict:
    row = dict.fromkeys(COLUMNS)
    for key, value in kw.items():
        if key not in row:
            raise KeyError(key)
        row[key] = value
    return row


def fit_slope(d_values, sigma_values) -> float | None:
    """OLS slope of log2(Sigma) against log2(d); None below 2 distinct d
    or when a Sigma is not positive and finite, where the log has no value."""
    y = np.asarray(sigma_values, dtype=float)
    if len(set(d_values)) < 2 or not (np.isfinite(y) & (y > 0)).all():
        return None
    x = np.log2(np.asarray(d_values, dtype=float))
    return float(np.polyfit(x, np.log2(y), 1)[0])


def _protocol_rows(experiment: str, cfg: dict, name: str, d: int,
                   bunch: int, n_ticks: int, js,
                   period_tick: int) -> list[dict]:
    """Simulate protocol ``name`` of ``cfg`` with EC dimension ``d`` (or
    counter capacity ``bunch`` for input bunching, which its rows show in
    column ``d``) and emit one row per tick index in ``js``, each with the
    theorem bound that covers it."""
    if name not in _PROTOCOLS:
        raise ConfigError(f"unknown protocol {name!r}")
    protocol = _PROTOCOLS[name]
    dist = parse_dist(cfg["input"])
    eps, eps0 = float(cfg["eps"]), float(cfg["eps0"])
    eps_ec, eta = float(cfg["eps_ec"]), float(cfg["eta"])
    trials, seed = int(cfg["trials"]), int(cfg["seed"])
    if trials < 2:
        raise ConfigError("trials must be at least 2: an inaccuracy "
                          "estimate needs two samples")
    if protocol is Protocol.INPUT_BUNCH:
        # input bunching runs no EC, and its d is the bunch size, but a
        # bad eta or eps_ec is rejected all the same
        _check_eta(eta)
        _check_ec_tail(eps_ec)
        pc = ProtocolConfig(protocol=protocol, input_dist=dist, eps=eps,
                            n_ticks=n_ticks, bunch=bunch)
        d = bunch
    else:
        ec = QuasiIdealSpec(d=d, eta=eta, eps_tail=eps_ec)
        pc = ProtocolConfig(protocol=protocol, input_dist=dist, eps=eps,
                            n_ticks=n_ticks, ec=ec, period_tick=period_tick)
    matrix = monte_carlo(pc, trials, seed)
    return [_row(experiment=experiment, protocol=name, d=d, eta=eta, eps=eps,
                 eps0=eps0, eps_ec=eps_ec, trials=trials, j=est.tick_index,
                 sigma_out=est.interval.sigma, mu_out=est.interval.mu,
                 Sigma_out=est.sigma_ratio,
                 bound=theorem_bound(matrix.prep, est.tick_index),
                 truncated_trials=matrix.n_truncated, seed=seed)
            for est in matrix.estimates(js, eps0)]


def cmd_sweep(cfg: dict) -> list[dict]:
    j = int(cfg["j"])
    d_list = _int_list(cfg, "d")
    protocols = [p.strip() for p in cfg["protocols"].split(",") if p.strip()]
    if not protocols:
        raise ConfigError("protocols needs at least one entry")
    rows = []
    for name in protocols:
        # input bunching counts d input ticks; the ECs target tick j
        points = [_protocol_rows("sweep", cfg, name, d, d, j, [j], j)[0]
                  for d in d_list]
        rows += points
        shared = {key: points[0][key] for key in
                  ("eta", "eps", "eps0", "eps_ec", "trials", "j", "seed")}
        rows.append(_row(
            experiment="sweep_slope", protocol=name, **shared,
            Sigma_out=fit_slope(d_list, [r["Sigma_out"] for r in points])))
    return rows


def cmd_bounds(cfg: dict) -> list[dict]:
    sigma_in = float(cfg["sigma_in"])
    nu = float(cfg["nu"])
    seed = int(cfg["seed"])
    rows = []
    for d in _int_list(cfg, "d"):
        for j in _int_list(cfg, "j"):
            # the table evaluates both theorems at the d-dimensional EC
            # inaccuracy, which is what each corollary states
            for name, value in zip(("theorem1", "theorem2"),
                                   corollary_bounds(sigma_in, d, nu, j)):
                if value is not None:
                    rows.append(_row(experiment="bounds", protocol=name,
                                     d=d, eta=nu, j=j, Sigma_out=sigma_in,
                                     bound=value, seed=seed))
    return rows


def cmd_run(cfg: dict) -> list[dict]:
    ticks = int(cfg["ticks"])
    return _protocol_rows("run", cfg, cfg["protocol"], int(cfg["d"]),
                          int(cfg["bunch"]), ticks, range(1, ticks + 1), 1)


def cmd_network(cfg: dict) -> list[dict]:
    central = parse_dist(cfg["central"])
    d, eta = int(cfg["d"]), float(cfg["eta"])
    eps, eps_ec = float(cfg["eps"]), float(cfg["eps_ec"])
    trials, seed = int(cfg["trials"]), int(cfg["seed"])
    tick = int(cfg["tick"])
    scenario = plan_scenario(
        central, n_nodes=int(cfg["nodes"]),
        jitter_width=float(cfg["jitter_width"]), d=d, eta=eta, eps=eps,
        eps_ec=eps_ec, n_outputs=int(cfg["outputs"]),
        sigma_scale=float(cfg["sigma_scale"]))
    enhanced, raw = network_spreads(scenario, trials, seed, tick)
    rows = []
    for label, values in (("enhanced", enhanced), ("raw", raw)):
        rows.append(_row(
            experiment="network", protocol=label, d=d, eta=eta, eps=eps,
            eps_ec=eps_ec, trials=trials, j=tick,
            sigma_out=_median(values),
            mu_out=float(np.mean(values)), seed=seed))
    return rows


def _median(values: np.ndarray) -> float:
    """``float(np.median(values))`` of NaN-free values, bit for bit, from
    one single-kth partition; an even count adds the lower half's max."""
    half = values.size // 2
    part = np.partition(values, half)
    return float(part[half] if values.size % 2
                 else (part[:half].max() + part[half]) / 2)


def cmd_estimator_check(cfg: dict) -> list[dict]:
    rng = np.random.default_rng(int(cfg["seed"]))
    instances = int(cfg["instances"])
    max_n = int(cfg["max_samples"])
    if instances < 1:
        raise ConfigError("instances must be at least 1")
    if max_n < 5:  # every instance draws between 5 and max_samples samples
        raise ConfigError("max_samples must be at least 5")
    mismatches = 0
    for _ in range(instances):
        n = int(rng.integers(5, max_n + 1))
        samples = rng.lognormal(mean=0.0, sigma=0.5, size=n)
        eps = float(rng.choice([0.01, 0.1, 0.34]))
        fast = empirical_inaccuracy(samples, 1, eps)
        slow = bruteforce_inaccuracy(samples, 1, eps)
        if fast != slow:
            mismatches += 1
    return [_row(experiment="estimator-check", trials=instances,
                 Sigma_out=mismatches, seed=int(cfg["seed"]))]


_COMMANDS = {
    "sweep": cmd_sweep,
    "bounds": cmd_bounds,
    "run": cmd_run,
    "network": cmd_network,
    "estimator-check": cmd_estimator_check,
}


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def render_csv(rows: list[dict], cfg: dict, experiment: str) -> str:
    buf = io.StringIO()
    stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
    buf.write(f"# generated: {stamp}\n")
    buf.write(f"# config: experiment={experiment}\n")
    for key in sorted(cfg):
        buf.write(f"# config: {key}={cfg[key]}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(COLUMNS)
    for row in rows:
        writer.writerow([_format_value(row[c]) for c in COLUMNS])
    return buf.getvalue()


def render_json(rows: list[dict], cfg: dict, experiment: str) -> str:
    """The bytes of ``json.dumps(payload, indent=2, default=float)`` and a
    newline for flat-dict rows and config, from json's C encoder with the
    indent in its separators (``indent`` would select the Python one)."""
    def flat(obj: dict, indent: str) -> str:
        inner = json.dumps(obj, default=float,
                           separators=(",\n" + indent, ": "))[1:-1]
        return "{\n" + indent + inner + "\n" + indent[2:] + "}" if obj \
            else "{}"

    body = ",\n    ".join(flat(row, " " * 6) for row in rows)
    body = "[\n    " + body + "\n  ]" if rows else "[]"
    return (f'{{\n  "experiment": {json.dumps(experiment)},\n  "config": '
            f'{flat(cfg, " " * 4)},\n  "rows": {body}\n}}\n')


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ticklab",
        description="Tick-signal accuracy enhancement simulator")
    sub = parser.add_subparsers(dest="experiment", required=True)
    for name in _COMMANDS:
        keys = _DEFAULTS[name]
        p = sub.add_parser(name)
        p.add_argument("--config", help="INI file or previously emitted "
                       "result file to reproduce")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        # an override flag only where the subcommand reads its key
        if "trials" in keys:
            p.add_argument("--trials", type=int)
        if "d" in keys:
            p.add_argument("--d", help="EC dimension" if name in (
                "run", "network") else "comma-separated dimension list")
        if "protocol" in keys:
            p.add_argument("--protocol", help="protocol number (1-4)")
        if "protocols" in keys:
            p.add_argument("--protocol", dest="protocols",
                           help="comma-separated protocol numbers (1-4)")
    return parser


_parser = None  # built by the first ``main`` call, not at import


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        rows = _COMMANDS[args.experiment](cfg)
        render = render_json if args.format == "json" else render_csv
        text = render(rows, cfg, args.experiment)
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except (ConfigError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.experiment == "estimator-check" and rows[0]["Sigma_out"] != 0:
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
