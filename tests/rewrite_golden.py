"""Golden CLI outputs: the cases, and the script that rewrites them.

Each case is one ``ticklab`` command line.  Its golden file
``golden/<case>.csv`` holds the CSV that the command prints, minus the
``# generated:`` timestamp line.  ``test_golden.py`` renders every case
in-process and compares it with its file byte for byte.  A change that
moves a random stream rewrites the files,

    PYTHONPATH=src python tests/rewrite_golden.py

and names the files that moved, and why, in CHANGES.md.  ``golden/VERSIONS``
records the Python and numpy versions that wrote them, since another
numpy may draw other bits from the same seed.
"""
from __future__ import annotations

import contextlib
import io
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from ticklab import cli

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden"
RUN_T20 = HERE.parent / "perfbench" / "run_t20.ini"

# name -> (argv, text of a config file passed with --config, or None)
CASES = {
    "sweep": (["sweep"], None),
    "sweep-seed1": (["sweep", "--seed", "1"], None),
    **{f"run-p{p}": (["run", "--protocol", p], None) for p in "1234"},
    **{f"run-t20-p{p}": (["run", "--config", str(RUN_T20), "--protocol", p],
                         None) for p in "1234"},
    "network": (["network"], None),
    # unjittered links: every node's arrivals are the broadcast plus its
    # delay, with no draw from the jitter stream
    "network-nojitter": (["network"], "[network]\njitter_width = 0\n"),
    "bounds": (["bounds"], None),
    "estimator-check": (["estimator-check"], None),
    # one protocol-3 run per Box bunch-sum path: per wait (32), alias
    # table (64, run-p3's default bunch, and 4096) and binomial planes
    # (4097)
    **{f"run-p3-bunch{b}": (["run"], f"[run]\nprotocol = 3\nbunch = {b}\n")
       for b in (32, 4096, 4097)},
}


def versions() -> str:
    """The interpreter and numpy versions, as ``golden/VERSIONS`` holds
    them."""
    return f"python {platform.python_version()}, numpy {np.__version__}"


def unstamped(text: str) -> str:
    """``text`` without its ``# generated:`` timestamp line."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("# generated"))


def render(name: str, *flags: str) -> bytes:
    """The unstamped CSV that case ``name`` prints, run in-process, as
    its golden file holds it; ``flags`` are added to its command line."""
    argv, config = CASES[name]
    argv = [*argv, *flags]
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = Path(tmp) / "case.ini"
            path.write_text(config, encoding="utf-8")
            argv = [*argv, "--config", str(path)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"golden case {name}: exit code {code}")
    return unstamped(out.getvalue()).encode("utf-8")


def main() -> int:
    os.environ.pop("TICKLAB_SEED", None)  # the cases fix their own seeds
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        path = GOLDEN / f"{name}.csv"
        data = render(name)
        moved = not path.exists() or path.read_bytes() != data
        path.write_bytes(data)
        print(f"{'moved' if moved else 'same '} {path.relative_to(HERE)}")
    (GOLDEN / "VERSIONS").write_text(versions() + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
