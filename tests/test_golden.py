"""Every golden CLI output, byte for byte (see ``rewrite_golden.py``)."""
import csv
import json

import pytest

from rewrite_golden import CASES, GOLDEN, render, versions
from ticklab import cli


def _written_by() -> str:
    recorded = (GOLDEN / "VERSIONS").read_text(encoding="utf-8").strip()
    return f"goldens written by {recorded}; running {versions()}"


def test_goldens_match_this_python_and_numpy():
    # another numpy may draw other bits from the same seed: a mismatch
    # fails here rather than skipping the comparison
    recorded = (GOLDEN / "VERSIONS").read_text(encoding="utf-8").strip()
    assert recorded == versions(), _written_by()


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, monkeypatch):
    monkeypatch.delenv("TICKLAB_SEED", raising=False)
    expected = (GOLDEN / f"{name}.csv").read_bytes()
    assert render(name) == expected, (
        f"{name}.csv differs from its golden ({_written_by()}); a change "
        "that moves a stream reruns tests/rewrite_golden.py")


@pytest.mark.parametrize("name", CASES)
def test_json_output_matches_golden(name, monkeypatch):
    # the benchmark reads --format json: its rows, each value formatted as
    # the CSV formats it, and its config are the golden CSV's
    monkeypatch.delenv("TICKLAB_SEED", raising=False)
    payload = json.loads(render(name, "--format", "json"))
    lines = (GOLDEN / f"{name}.csv").read_text(encoding="utf-8").splitlines()
    assert [f"# config: experiment={payload['experiment']}"] + [
        f"# config: {key}={value}"
        for key, value in sorted(payload["config"].items())] == [
        line for line in lines if line.startswith("# config: ")]
    assert "" not in [v for row in payload["rows"] for v in row.values()]
    header, *rows = csv.reader(
        line for line in lines if not line.startswith("#"))
    assert header == cli.COLUMNS
    assert [[cli._format_value(row[c]) for c in cli.COLUMNS]
            for row in payload["rows"]] == rows
