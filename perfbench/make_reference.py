"""Record the reference values the correctness gate compares against.

For each workload named on the command line (default: all), runs one pass
for each of its reference seeds and stores the Sigma_out / sigma_out of
every row in reference.json, keeping the other workloads' entries.  The
reference belongs to the commit it was recorded at; re-recording it
after a change to the program would let that change define its own
correct answer.

    python3 perfbench/make_reference.py [WORKLOAD ...]   # from the repo root
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

from gate import REFERENCE, compared_values
from run import git_commit
from workloads import WORKLOADS, invoke, load_cli, parse_rows

# run-t20 has rows whose value jumps between the levels of neighbouring
# ticks from seed to seed, so it needs more seeds to see the rare levels
SEED_COUNTS = {"sweep": 32, "run-t20": 128, "network": 32}


def reference_seeds(workload: str) -> list[int]:
    # far apart, so the per-trial seeds seed + t of ``network`` never overlap
    return [1_000_000 * k for k in range(1, SEED_COUNTS[workload] + 1)]


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    cli = load_cli(root)
    names = sys.argv[1:] or list(WORKLOADS)
    recorded = {}
    for name in names:
        values = {}
        for seed in reference_seeds(name):
            for argv in WORKLOADS[name].argvs(seed):
                rc, text = invoke(cli.main, argv)
                if rc != 0:
                    print(f"{argv}: exit code {rc}", file=sys.stderr)
                    return 1
                for key, x in compared_values(parse_rows(text)).items():
                    values.setdefault(key, []).append(x)
        recorded[name] = {"commit": git_commit(root),
                          "seeds": reference_seeds(name), "values": values}
        print(f"{name}: {len(values)} values recorded", file=sys.stderr)
    existing = {}
    if REFERENCE.exists():
        with open(REFERENCE, encoding="utf-8") as fh:
            existing = json.load(fh)
    existing.update(recorded)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(_format(existing))
    return 0


def _format(reference: dict) -> str:
    """JSON with one line per recorded value list."""
    parts = []
    for name, entry in sorted(reference.items()):
        values = ",\n".join(f"   {json.dumps(key)}: {json.dumps(xs)}"
                             for key, xs in sorted(entry["values"].items()))
        parts.append(f' {json.dumps(name)}: {{\n'
                     f'  "commit": {json.dumps(entry["commit"])},\n'
                     f'  "seeds": {json.dumps(entry["seeds"])},\n'
                     f'  "values": {{\n{values}\n  }}\n }}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


if __name__ == "__main__":
    sys.exit(main())
