"""The benchmark's workloads: the ``ticklab.cli.main`` calls each one makes.

Every workload is a fixed list of CLI argument vectors built from the
benchmark seed, which reaches the program only through the CLI's own
``--seed`` flag.  Output is requested as JSON so the correctness gate can
read the rows back.
"""
from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN_T20_CONFIG = HERE / "run_t20.ini"

# ticklab's protocol numbers and the names its Protocol enum gives them
PROTOCOL_NAMES = {"1": "dyn-switch", "2": "dyn-switch-feedback",
                  "3": "input-bunch", "4": "ec-bunch"}


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int          # Monte-Carlo or scenario trials per pass

    def argvs(self, seed: int) -> list[list[str]]:
        common = ["--seed", str(seed), "--format", "json"]
        if self.name == "sweep":
            return [["sweep", *common]]
        if self.name == "run-t20":
            return [["run", "--config", str(RUN_T20_CONFIG),
                     "--protocol", p, *common] for p in PROTOCOL_NAMES]
        if self.name == "network":
            return [["network", "--trials", str(self.trials), *common]]
        raise KeyError(self.name)


# Why each workload was chosen is recorded in README.md.
WORKLOADS = {w.name: w for w in (
    Workload("sweep", 3 * 7 * 10_000),   # protocols 1,3,4 x 7 d x 10^4
    Workload("run-t20", 4 * 10_000),     # protocols 1-4 x 10^4, 20 ticks
    Workload("network", 5_000),          # default scenario, 5000 trials
)}


def invoke(main, argv: list[str]) -> tuple[int, str]:
    """Call ``main(argv)`` with its output captured; return the exit code
    and what it wrote to stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 1
    return rc, out.getvalue()


def parse_rows(text: str) -> list[dict]:
    """Rows of a JSON-format CLI result; empty when there is none."""
    try:
        return json.loads(text)["rows"]
    except (ValueError, KeyError, TypeError):
        return []


def load_cli(root: Path):
    """Import ``ticklab.cli`` from the source tree under ``root``.

    Raises ``FileNotFoundError`` when ``root`` holds no ticklab sources, so
    that an installed copy elsewhere is never benchmarked by mistake.
    """
    src = root / "src"
    if not (src / "ticklab" / "cli.py").is_file():
        raise FileNotFoundError(f"no ticklab sources under {src}")
    sys.path.insert(0, str(src))
    import ticklab.cli
    if Path(ticklab.cli.__file__).resolve().parents[1] != src.resolve():
        raise FileNotFoundError(f"ticklab was not imported from {src}")
    return ticklab.cli
