"""Every golden CLI output, byte for byte (see ``rewrite_golden.py``)."""
import pytest

from rewrite_golden import CASES, GOLDEN, render, versions


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
