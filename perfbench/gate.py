"""Correctness gate applied to every pass of a workload.

Each check counts as one attempt; ``failed_frac`` is failed / attempted.
A pass must

* exit with code 0 on every call and report no truncated trials;
* on ``sweep``, fit slopes inside the acceptance-criterion-1 ranges, with
  protocol 1 below protocols 3 and 4 for d >= 64;
* on ``run-t20``, keep Sigma_out <= bound for dynamics switching wherever a
  bound is printed (protocol 1 at every j, protocol 2 at j = 1, the single
  gap its theorem bounds);
* on ``network``, give an enhanced spread below the raw spread;
* keep every Sigma_out / sigma_out inside the tolerance band of the
  reference recorded by ``make_reference.py``.

The band is the reference's own seed-to-seed range, widened on each side
by twice that range.  Some run-t20 rows jump between the levels of
neighbouring ticks from seed to seed, so their range is wide; with 128
reference seeds and the factor 2, held-out seeds stayed inside every band
(see README.md).  A new random-stream layout drawing from the same law
lands inside the band; a wrong law, such as a doubled Sigma_out, does not.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"

SWEEP_D = (16, 32, 64, 128, 256, 512, 1024)
SLOPE_RANGES = {"1": (-1.15, -0.85), "3": (-0.6, -0.4), "4": (-1.15, -0.85)}
COMPARED = ("Sigma_out", "sigma_out")
BAND_WIDENING = 2.0


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    def check(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(what)

    def merge(self, other: "Gate"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.messages += other.messages

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def row_id(row: dict) -> str:
    exp, proto = row["experiment"], row["protocol"]
    if exp == "sweep":
        return f"sweep/p{proto}/d{row['d']}"
    if exp == "run":
        return f"run/p{proto}/j{row['j']}"
    if exp == "sweep_slope":
        return f"sweep_slope/p{proto}"
    return f"{exp}/{proto}"


def compared_values(rows: list[dict]) -> dict[str, float]:
    """Sigma_out and sigma_out of every row, keyed ``row_id/column``."""
    values = {}
    for row in rows:
        for col in COMPARED:
            if row.get(col) is not None:
                values[f"{row_id(row)}/{col}"] = float(row[col])
    return values


def band(reference_values: list[float]) -> tuple[float, float]:
    lo, hi = min(reference_values), max(reference_values)
    width = max(hi - lo, 1e-6 * max(abs(lo), abs(hi)))
    return lo - BAND_WIDENING * width, hi + BAND_WIDENING * width


def load_reference(path: Path = REFERENCE) -> dict:
    """Recorded values, as ``workload -> key -> values over seeds``."""
    with open(path, encoding="utf-8") as fh:
        return {name: entry["values"] for name, entry in json.load(fh).items()}


def _sweep(gate: Gate, rows: list[dict]):
    sigma = {(r["protocol"], r["d"]): r["Sigma_out"]
             for r in rows if r["experiment"] == "sweep"}
    slopes = {r["protocol"]: r["Sigma_out"]
              for r in rows if r["experiment"] == "sweep_slope"}
    for proto, (lo, hi) in SLOPE_RANGES.items():
        s = slopes.get(proto)
        gate.check(s is not None and lo <= s <= hi,
                   f"sweep slope of protocol {proto} is {s}, "
                   f"outside [{lo}, {hi}]")
    for d in SWEEP_D:
        if d < 64:
            continue
        p1, p3, p4 = (sigma.get((p, d)) for p in "134")
        gate.check(None not in (p1, p3, p4) and p1 < p3 and p1 < p4,
                   f"sweep d={d}: protocol 1 ({p1}) not below "
                   f"protocols 3 ({p3}) and 4 ({p4})")


def _run_t20(gate: Gate, rows: list[dict]):
    for r in rows:
        if r["experiment"] != "run" or r.get("bound") is None:
            continue
        if r["protocol"] == "1" or (r["protocol"] == "2" and r["j"] == 1):
            gate.check(r["Sigma_out"] <= r["bound"],
                       f"{row_id(r)}: Sigma_out {r['Sigma_out']} above "
                       f"bound {r['bound']}")


def _network(gate: Gate, rows: list[dict]):
    spread = {r["protocol"]: r["sigma_out"]
              for r in rows if r["experiment"] == "network"}
    enhanced, raw = spread.get("enhanced"), spread.get("raw")
    gate.check(None not in (enhanced, raw) and enhanced < raw,
               f"network: enhanced spread {enhanced} not below raw {raw}")


_WORKLOAD_CHECKS = {"sweep": _sweep, "run-t20": _run_t20,
                    "network": _network}


def check_pass(workload: str, calls: list[tuple[int, list[dict]]],
               reference: dict) -> Gate:
    """Check one pass of ``workload``: ``calls`` holds the exit code and the
    parsed rows of each CLI call, ``reference`` the recorded values of
    every workload."""
    gate = Gate()
    rows = []
    for rc, call_rows in calls:
        gate.check(rc == 0, f"{workload}: exit code {rc}")
        rows += call_rows
    for r in rows:
        if r.get("truncated_trials") is not None:
            gate.check(r["truncated_trials"] == 0,
                       f"{row_id(r)}: {r['truncated_trials']} truncated "
                       f"trials")
    measured = compared_values(rows)
    for key, ref in reference[workload].items():
        lo, hi = band(ref)
        x = measured.get(key)
        gate.check(x is not None and lo <= x <= hi,
                   f"{key} = {x}, outside the reference band "
                   f"[{lo:.6g}, {hi:.6g}]")
    _WORKLOAD_CHECKS[workload](gate, rows)
    return gate
