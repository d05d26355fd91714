"""The correctness gate is live: each injected fault raises failed_frac.

    python3 -m pytest -q perfbench/test_gate.py     # from the repository root

The clean rows are synthesised from the recorded reference (each value at
the median of its reference values), so the test needs no simulation run.
"""
import statistics

import pytest

from gate import check_pass, load_reference

REFERENCE = load_reference()


def _clean_calls(workload):
    """Calls whose rows carry the reference medians."""
    rows = {}
    for key, values in REFERENCE[workload].items():
        rid, col = key.rsplit("/", 1)
        exp, proto, *rest = rid.split("/")
        row = rows.setdefault(rid, {"experiment": exp, "protocol": proto[1:]
                                    if exp != "network" else proto,
                                    "Sigma_out": None, "sigma_out": None,
                                    "bound": None, "truncated_trials": None})
        if rest:
            axis, number = rest[0][0], int(rest[0][1:])
            row[axis] = number
            row["truncated_trials"] = 0
        row[col] = statistics.median(values)
    return [(0, list(rows.values()))]


@pytest.mark.parametrize("workload", ["sweep", "run-t20", "network"])
def test_clean_pass_has_no_failures(workload):
    gate = check_pass(workload, _clean_calls(workload), REFERENCE)
    assert gate.attempted > 0
    assert gate.failed == 0, gate.messages


@pytest.mark.parametrize("workload", ["sweep", "run-t20"])
def test_doubled_sigma_out_fails(workload):
    calls = _clean_calls(workload)
    for row in calls[0][1]:
        if row["Sigma_out"] is not None:
            row["Sigma_out"] *= 2
    assert check_pass(workload, calls, REFERENCE).failed_frac > 0


def test_doubled_network_spread_fails():
    calls = _clean_calls("network")
    for row in calls[0][1]:
        row["sigma_out"] *= 2
    assert check_pass("network", calls, REFERENCE).failed_frac > 0


@pytest.mark.parametrize("workload", ["sweep", "run-t20"])
def test_truncated_trials_fail(workload):
    calls = _clean_calls(workload)
    calls[0][1][0]["truncated_trials"] = 3
    gate = check_pass(workload, calls, REFERENCE)
    assert gate.failed == 1 and gate.failed_frac > 0


@pytest.mark.parametrize("workload", ["sweep", "run-t20", "network"])
def test_exit_code_2_fails(workload):
    gate = check_pass(workload, [(2, [])], REFERENCE)
    assert gate.failed_frac > 0
    assert any("exit code 2" in m for m in gate.messages)
