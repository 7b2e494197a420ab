"""Output checks: every CLI invocation is judged against the model's own
invariants, at the tolerances of the acceptance suite (never looser).

check_op returns (attempted, failed, problems). An op is one CLI invocation,
except for sweep, where each cell is an op.
"""

from __future__ import annotations

import csv
import json
import os

import numpy as np

from lohe_sync.core import ModelConfig
from lohe_sync.correlations import CorrelationState, integrate
from lohe_sync.errors import LoheSyncError
from lohe_sync.oracles import classify_two

from workloads import SWEEP_OMEGAS

MASS_TOL = 1e-9      # acceptance criterion 1
CLOSURE_TOL = 1e-6   # acceptance criterion 3


def check_op(spec, run_dir: str, returncode: int, stdout: str) -> tuple[int, int, list[str]]:
    attempted = spec.cells
    if returncode != 0:
        return attempted, attempted, [f"exit code {returncode}"]
    try:
        if spec.command == "simulate":
            problems = _check_simulate(spec, run_dir)
        elif spec.command == "verify":
            problems = _check_verify(spec, run_dir, stdout)
        else:
            return _check_sweep(spec, run_dir)
    except (OSError, ValueError, KeyError, IndexError, LoheSyncError) as exc:
        problems = [f"unusable output: {exc!r}"]
    return attempted, (1 if problems else 0), problems


def _read_ndjson(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh]


def _check_simulate(spec, run_dir: str) -> list[str]:
    problems = []
    records = _read_ndjson(os.path.join(run_dir, "diagnostics.ndjson"))
    if len(records) != spec.samples:
        problems.append(f"{len(records)} diagnostics records, expected {spec.samples}")
    drift = max(max(abs(d) for d in rec["mass_drift"]) for rec in records)
    if not drift <= MASS_TOL:
        problems.append(f"mass drift {drift:.3e} > {MASS_TOL:g}")

    # outside-in closure: the N x N correlation ODE from the first emitted
    # Gram matrix must reproduce every emitted r, s
    emitted = np.array([np.array(rec["r"]) + 1j * np.array(rec["s"]) for rec in records])
    times = np.array([rec["t"] for rec in records])
    series = integrate(
        "full",
        CorrelationState(0.0, emitted[0]),
        ModelConfig(coupling=spec.coupling, frequencies=spec.frequencies),
        spec.dt,
        spec.steps * spec.dt,
        sample_stride=spec.stride,
    )
    if series.z.shape != emitted.shape or not np.allclose(series.times, times, rtol=0, atol=1e-9):
        problems.append("emitted sampling does not match the scenario")
    else:
        err = float(np.max(np.abs(series.z - emitted)))
        if not err <= CLOSURE_TOL:
            problems.append(f"PDE-ODE closure error {err:.3e} > {CLOSURE_TOL:g}")

    if "csv" in spec.formats:
        with open(os.path.join(run_dir, "diagnostics.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
        if len(rows) != len(records):
            problems.append(f"csv has {len(rows)} rows, ndjson {len(records)}")
        elif any(float(row["t"]) != rec["t"] for row, rec in zip(rows, records)):
            problems.append("csv and ndjson times differ")
        elif not max(float(row["mass_drift_max"]) for row in rows) <= MASS_TOL:
            problems.append("csv mass drift over tolerance")
    return problems


def _check_verify(spec, run_dir: str, stdout: str) -> list[str]:
    problems = []
    with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    names = [c["name"] for c in report["checks"]]
    if names != [name for name, _ in spec.checks]:
        problems.append(f"report checks {names} differ from the scenario")
    tols = [c["tol"] for c in report["checks"]]
    if tols != [tol for _, tol in spec.checks]:
        problems.append("report tolerances differ from the scenario")
    failed = [c["name"] for c in report["checks"] if c["passed"] is not True]
    if failed or report["passed"] is not True:
        problems.append(f"report.json FAIL: {failed}")
    lines = [ln for ln in stdout.splitlines() if ln.startswith(("PASS ", "FAIL "))]
    if len(lines) != len(spec.checks) or any(not ln.startswith("PASS ") for ln in lines):
        problems.append("stdout does not show one PASS line per check")
    return problems


def _check_sweep(spec, run_dir: str) -> tuple[int, int, list[str]]:
    attempted = spec.cells
    try:
        with open(os.path.join(run_dir, "sweep.csv"), encoding="utf-8", newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return attempted, attempted, [f"unreadable output: {exc!r}"]
    problems = []
    pending = {(w, s) for w in SWEEP_OMEGAS for s in spec.sweep_seeds}
    for row in rows:
        try:
            key = (float(row["omega"]), int(row["seed"]))
            if key not in pending:
                problems.append(f"unexpected or repeated cell {key}")
            elif row["status"] != "ok":
                problems.append(f"cell {key}: status {row['status']}")
            elif row["regime"] != classify_two(float(row["coupling"]), key[0]).regime:
                problems.append(f"cell {key}: regime {row['regime']!r}")
            else:
                pending.discard(key)
        except (KeyError, ValueError, LoheSyncError) as exc:
            problems.append(f"malformed row: {exc!r}")
    bad_rows = len(problems)
    if len(pending) > bad_rows:
        problems.append(f"{len(pending) - bad_rows} cells missing from sweep.csv")
    return attempted, min(attempted, max(len(pending), bad_rows)), problems
