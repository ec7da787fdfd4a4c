"""Correctness checks on the files one CLI invocation wrote.

An op is one `run` or `spectra` invocation, or one sweep row. It fails
on an unexpected exit code, a failed check, or a sweep row whose status
is not ok. Pins (digests and pinned values from pins.json) apply to the
default workload seed only; every seed gets the invariants, and the
caller compares digests between repetitions of the same seed.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
from dataclasses import dataclass, field

from workloads import MAX_DRIFT, SUM_CONSERVING_RULES, Workload

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

#: lambda2 and rho_centered must match their pins to within this
SPECTRAL_PIN_TOL = 1e-9

SPECTRA_FLAGS = ("row_stochastic", "column_stochastic", "lambda2_below_one",
                 "rho_centered_below_one", "certified_consensus", "certified_average")


def load_pins(workload: str) -> dict | None:
    with open(PINS_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload)


@dataclass
class Outcome:
    attempted: int
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)  # file -> sha256
    output_bytes: int = 0
    summary: dict[str, str] = field(default_factory=dict)  # run: summary.txt
    rows: list[dict[str, str]] = field(default_factory=list)  # sweep: sweep.csv

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def fail(self, msg: str, ops: int = 1) -> None:
        self.errors.append(msg)
        self.failed = min(self.attempted, self.failed + ops)


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _drift_ok(value: str) -> bool:
    try:
        return float(value) < MAX_DRIFT
    except ValueError:
        return False


def check_invocation(wl: Workload, rc: int, out_dir: str, pins: dict | None) -> Outcome:
    """Check one invocation's exit code and outputs."""
    out = Outcome(attempted=wl.sweep_rows if wl.command == "sweep" else 1)
    files = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    for name in files:
        path = os.path.join(out_dir, name)
        out.digests[name] = sha256_file(path)
        out.output_bytes += os.path.getsize(path)
    if rc != wl.expected_exit:
        out.fail(f"exit code {rc}, expected {wl.expected_exit}", out.attempted)
        return out
    try:
        {"run": _check_run, "sweep": _check_sweep, "spectra": _check_spectra}[wl.command](
            wl, out_dir, pins, out)
    except (OSError, KeyError, ValueError) as exc:
        out.fail(f"unreadable output: {type(exc).__name__}: {exc}", out.attempted)
    return out


def _check_run(wl: Workload, out_dir: str, pins: dict | None, out: Outcome) -> None:
    with open(os.path.join(out_dir, "summary.txt"), encoding="utf-8") as fh:
        out.summary = dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)
    s = out.summary
    if int(s["rows"]) < 1:
        out.fail("summary reports no trace rows")
    if (s["converged"] == "true") != (wl.expected_exit == 0):
        out.fail(f"converged={s['converged']} contradicts the exit code")
    # every run workload uses the default rule, neighborhood_set, which conserves the sum
    if not _drift_ok(s["max_drift"]):
        out.fail(f"max_drift {s['max_drift']} not below {MAX_DRIFT}")
    if pins is None:
        return
    for name, digest in pins["digests"].items():
        if out.digests.get(name) != digest:
            out.fail(f"{name} digest {out.digests.get(name)} != pinned {digest}")
    for key, want in pins["summary"].items():
        if s[key] != want:
            out.fail(f"{key}={s[key]!r}, pinned {want!r}")


def _check_sweep(wl: Workload, out_dir: str, pins: dict | None, out: Outcome) -> None:
    with open(os.path.join(out_dir, "sweep.csv"), encoding="utf-8", newline="") as fh:
        out.rows = list(csv.DictReader(fh))
    if len(out.rows) != wl.sweep_rows:
        out.fail(f"{len(out.rows)} sweep rows, expected {wl.sweep_rows}", out.attempted)
        return
    pinned = pins["rows"] if pins else {}
    for row in out.rows:
        key = f"{row['topology']},{row['rule']},{row['seed']}"
        if row["status"] != "ok":
            out.fail(f"sweep row {key}: status {row['status']} {row['error']}")
        elif row["rule"] in SUM_CONSERVING_RULES and not _drift_ok(row["max_drift"]):
            out.fail(f"sweep row {key}: max_drift {row['max_drift']}")
        elif pins and pinned.get(key) != f"{row['converged']},{row['rounds_to_tolerance']}":
            out.fail(f"sweep row {key}: converged,rounds {row['converged']},"
                     f"{row['rounds_to_tolerance']} != pinned {pinned.get(key)}")


def _check_spectra(wl: Workload, out_dir: str, pins: dict | None, out: Outcome) -> None:
    with open(os.path.join(out_dir, "spectra.csv"), encoding="utf-8", newline="") as fh:
        reports = {r["label"]: r for r in csv.DictReader(fh)}
    if not reports:
        out.fail("spectra.csv holds no report")
    for label, r in reports.items():
        for key in ("lambda2", "rho_centered"):
            v = float(r[key])
            if not (math.isfinite(v) and 0.0 <= v < 1.0):
                out.fail(f"{label}: {key}={r[key]} outside [0, 1)")
        bad = [f for f in SPECTRA_FLAGS if r[f] != "true"]
        if bad:
            out.fail(f"{label}: not certified: {', '.join(bad)}")
    if pins is None:
        return
    if sorted(reports) != sorted(pins["reports"]):
        out.fail(f"report labels {sorted(reports)} != pinned {sorted(pins['reports'])}")
        return
    for label, want in pins["reports"].items():
        flags = [f for f in SPECTRA_FLAGS if reports[label][f] != want[f]]
        if flags:
            out.fail(f"{label}: flags {', '.join(flags)} differ from the pins")
        for key in ("lambda2", "rho_centered"):
            got = float(reports[label][key])
            if abs(got - want[key]) > SPECTRAL_PIN_TOL:
                out.fail(f"{label}: {key}={got!r}, pinned {want[key]!r}")


def compare_traced(untraced: Outcome, traced_dir: str) -> list[str]:
    """Differences between the files a traced pass wrote and those of an
    untraced invocation of the same workload and seed: the traced pass
    runs the same CLI, so every file must be byte-identical."""
    traced = sorted(os.listdir(traced_dir)) if os.path.isdir(traced_dir) else []
    if traced != sorted(untraced.digests):
        return [f"traced pass wrote {traced}, untraced {sorted(untraced.digests)}"]
    return [f"traced {name} differs from the untraced invocation's"
            for name in traced
            if sha256_file(os.path.join(traced_dir, name)) != untraced.digests[name]]
