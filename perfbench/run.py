"""Benchmark of ticklab's command line.

One closed-loop caller in one process issues a workload's
``ticklab.cli.main(argv)`` calls back to back, pass after pass, for
``--seconds``, and checks every pass with the correctness gate.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it reports the end-to-end metrics: ``setup_s`` (median
time to ``import ticklab.cli`` in a fresh interpreter), ``wall_s`` (median
pass time, first call to last return), ``trials_per_s`` and
``peak_rss_mb``.  The times are calibrated to a fixed machine speed (see
speed.py); the raw wall times are printed next to them.  With
``--trace 1`` it runs the same untraced passes and then one pass under
cProfile, and reports the per-layer metrics.  The last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` (gate checks) and ``metrics``.  Run from the repository root;
the program is imported from ``src/`` there.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from gate import Gate, check_pass, load_reference
from layers import Aggregate, Probes, layer_metrics, profile_call
from speed import SpeedTimer, Stopwatch
from workloads import HERE, WORKLOADS, invoke, load_cli, parse_rows

ROOT = HERE.parent
SETUP_REPEATS = 5
# probe_python, so that numpy is not imported before the timed import
IMPORT_TIMER = f"""import sys
sys.path.insert(0, {str(HERE)!r})
from speed import SpeedTimer, probe_python
with SpeedTimer(probe_python) as timer:
    import ticklab.cli
print(timer.raw_s, timer.calibrated_s)
"""


def measure_setup(root: Path) -> tuple[float, float]:
    """Median raw and calibrated times to import ``ticklab.cli`` in a fresh
    interpreter.  A first, discarded import writes the bytecode cache of a
    new checkout (unless PYTHONDONTWRITEBYTECODE is set)."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(SETUP_REPEATS + 1):
        done = subprocess.run([sys.executable, "-c", IMPORT_TIMER], env=env,
                              cwd=root, capture_output=True, text=True,
                              check=True, timeout=120)
        times.append([float(x) for x in done.stdout.split()])
    raw, calibrated = zip(*times[1:])
    return statistics.median(raw), statistics.median(calibrated)


def one_pass(main, argvs, timer) -> list:
    """Run one pass timed by ``timer``; return (exit code, rows) per call.
    Output is parsed only after the clock stops."""
    outputs = []
    with timer:
        for argv in argvs:
            outputs.append(invoke(main, argv))
    return [(rc, parse_rows(text)) for rc, text in outputs]


def run_passes(main, workload, seed, seconds, reference, gate):
    """Passes back to back until ``seconds`` have elapsed (at least one);
    return the SpeedTimer of each."""
    argvs = workload.argvs(seed)
    timers = []
    start = time.perf_counter()
    while not timers or time.perf_counter() - start < seconds:
        timers.append(SpeedTimer())
        calls = one_pass(main, argvs, timers[-1])
        gate.merge(check_pass(workload.name, calls, reference))
    return timers


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(root: Path) -> dict:
    import numpy
    import scipy
    src = sorted((root / "src" / "ticklab").glob("*.py"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(root),
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def end_to_end(cli, workload, args, reference, gate) -> dict:
    setup_raw_s, setup_s = measure_setup(ROOT)
    timers = run_passes(cli.main, workload, args.seed, args.seconds,
                        reference, gate)
    walls = [t.calibrated_s for t in timers]
    wall_s = statistics.median(walls)
    print(f"passes {len(walls)}: wall_s min {min(walls):.4f} "
          f"max {max(walls):.4f}")
    print(f"raw (uncalibrated): setup_s {setup_raw_s:.4f} s, wall_s "
          f"{statistics.median(t.raw_s for t in timers):.4f} s")
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall_s, "s"),
        "trials_per_s": (workload.trials / wall_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MB"),
    }


def per_layer(cli, workload, args, reference, gate) -> dict:
    probes = Probes()
    with probes.timing_monte_carlo():
        timers = run_passes(cli.main, workload, args.seed, args.seconds,
                            reference, gate)
    traced = Stopwatch()
    with probes.counting():
        calls, stats = profile_call(one_pass, cli.main,
                                    workload.argvs(args.seed), traced)
    gate.merge(check_pass(workload.name, calls, reference))
    agg = Aggregate(stats)
    print("self time by module (traced pass):")
    for module, secs in agg.self_s.most_common():
        print(f"  {module:<14} {secs:9.4f} s")
    return layer_metrics(agg, probes, traced.raw_s,
                         [t.raw_s for t in timers])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    os.environ.pop("TICKLAB_SEED", None)  # it would override --seed
    try:
        cli = load_cli(ROOT)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    reference = load_reference()
    workload = WORKLOADS[args.workload]
    gate = Gate()
    measure = per_layer if args.trace else end_to_end
    metrics = measure(cli, workload, args, reference, gate)

    print("meta " + json.dumps(run_metadata(ROOT), sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {gate.failed_frac:.6g} ratio "
          f"({gate.failed} of {gate.attempted} checks)")
    for message in gate.messages[:20]:
        print(f"gate: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
