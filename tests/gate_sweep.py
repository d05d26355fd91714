"""Seeds at which a benchmark workload fails its correctness gate.

Runs the ``ticklab.cli.main`` calls of one workload of ``perfbench`` in
this process, one pass per seed of an inclusive range, and checks each
pass with the gate of ``perfbench/gate.py``.  Nothing is timed, so a
range of seeds takes seconds where ``perfbench/run.py`` starts several
interpreters per seed.  From the repository root:

    PYTHONPATH=src python tests/gate_sweep.py network 1 300

prints each failing seed with its first gate message, then how many
seeds failed; the exit code is 1 when any did.
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

from gate import check_pass, load_reference
from workloads import WORKLOADS, invoke, load_cli, parse_rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("first", type=int)
    parser.add_argument("last", type=int)
    args = parser.parse_args(argv)
    os.environ.pop("TICKLAB_SEED", None)  # it would override --seed
    cli = load_cli(ROOT)
    reference = load_reference()
    workload = WORKLOADS[args.workload]
    seeds = range(args.first, args.last + 1)
    failed = 0
    for seed in seeds:
        calls = [invoke(cli.main, argv) for argv in workload.argvs(seed)]
        gate = check_pass(workload.name,
                          [(rc, parse_rows(text)) for rc, text in calls],
                          reference)
        if gate.failed:
            failed += 1
            print(f"seed {seed}: {gate.failed} of {gate.attempted} checks "
                  f"failed, first: {gate.messages[0]}")
    print(f"{workload.name}: {failed} of {len(seeds)} seeds fail the gate")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
