"""Deterministic artifact serialization.

Every number is rendered through repr(float(x)): the shortest string that
round-trips the exact binary value, never more than 17 significant digits.
Two runs that compute identical doubles therefore emit identical bytes,
which is the whole reproducibility story; nothing here depends on locale,
dict iteration quirks, or platform line endings.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .correlations import CorrelationSeries
from .errors import ConfigurationError

__all__ = [
    "fmt_float",
    "to_jsonable",
    "dump_json",
    "write_ode_ndjson",
    "write_ode_csv",
    "write_diagnostics_ndjson",
    "write_diagnostics_csv",
    "write_sweep_csv",
    "SWEEP_COLUMNS",
]


def fmt_float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise ConfigurationError(f"refusing to serialize non-finite value {x}")
    return repr(x)


def to_jsonable(value):
    """Recursively convert numpy containers to plain Python for json.dumps."""
    if isinstance(value, np.ndarray):
        return [to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, complex):
        return {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def dump_json(obj) -> str:
    """Canonical single-document JSON: converted, keys kept in insertion
    order (schemas fix the order), newline-terminated."""
    return json.dumps(to_jsonable(obj), ensure_ascii=True, allow_nan=False) + "\n"


def _finite(values) -> np.ndarray:
    """values as a float array, refused with fmt_float's error for the first
    entry that is not finite. .tolist() then gives the Python floats whose
    repr fmt_float and json.dumps both write."""
    arr = np.asarray(values, dtype=float)
    bad = ~np.isfinite(arr)
    if bad.any():
        fmt_float(arr[bad].flat[0])
    return arr


def _cells(values: np.ndarray) -> str:
    """One csv cell per entry of a checked array, comma-joined."""
    return ",".join(map(repr, values.tolist()))


def ode_records(series: CorrelationSeries):
    """The documented correlation-series schema, one dict per sample:
    {t, r, s, r_tilde, s_tilde, zeta_norm_sq}."""
    times = _finite(series.times)
    r = _finite(series.z.real)
    s = _finite(series.z.imag)
    r_t = _finite(series.r_tilde)
    s_t = _finite(series.s_tilde)
    zeta = _finite(series.zeta_norm_sq)
    for i in range(len(times)):
        yield {
            "t": times[i].tolist(),
            "r": r[i].tolist(),
            "s": s[i].tolist(),
            "r_tilde": r_t[i].tolist(),
            "s_tilde": s_t[i].tolist(),
            "zeta_norm_sq": zeta[i].tolist(),
        }


def write_ode_ndjson(fh, series: CorrelationSeries) -> None:
    for rec in ode_records(series):
        fh.write(json.dumps(rec, ensure_ascii=True, allow_nan=False))
        fh.write("\n")


def write_ode_csv(fh, series: CorrelationSeries) -> None:
    """Flattened correlation series: full r and s matrices row-major, then
    the macroscopic vectors, then ||zeta||^2. One row per sample."""
    n = series.n_oscillators
    cols = ["t"]
    cols += [f"r_{j}_{k}" for j in range(n) for k in range(n)]
    cols += [f"s_{j}_{k}" for j in range(n) for k in range(n)]
    cols += [f"r_tilde_{j}" for j in range(n)]
    cols += [f"s_tilde_{j}" for j in range(n)]
    cols += ["zeta_norm_sq"]
    fh.write(",".join(cols) + "\n")
    samples = len(series.times)
    table = _finite(
        np.column_stack(
            [
                series.times,
                series.z.real.reshape(samples, -1),
                series.z.imag.reshape(samples, -1),
                series.r_tilde,
                series.s_tilde,
                series.zeta_norm_sq,
            ]
        )
    )
    for row in table:
        fh.write(_cells(row) + "\n")


def diagnostics_records(records):
    """The documented per-sample diagnostics schema (stable key order)."""
    for rec in records:
        en = rec.energies
        yield {
            "t": _finite(rec.time).tolist(),
            "zeta_norm": _finite(rec.zeta_norm).tolist(),
            "mass_drift": _finite(rec.mass_drift).tolist(),
            "pair_l2": _finite(rec.pair_l2).tolist(),
            "pair_h1": _finite(rec.pair_h1).tolist(),
            "r": _finite(rec.correlations.z.real).tolist(),
            "s": _finite(rec.correlations.z.imag).tolist(),
            "energy_total": _finite(en.total).tolist(),
            "energy_per_osc": _finite(en.per_osc).tolist(),
            "energy_pair": _finite(en.pair).tolist(),
            "energy_relative": _finite(en.relative).tolist(),
            "energy_zeta": _finite(en.zeta_energy).tolist(),
            "energy_diff_two": (
                None if en.diff_energy_two is None else _finite(en.diff_energy_two).tolist()
            ),
            "madelung_rho_l1": _finite(rec.madelung_rho_l1).tolist(),
            "madelung_current_l1": _finite(rec.madelung_current_l1).tolist(),
        }


def write_diagnostics_ndjson(fh, records) -> None:
    for rec in diagnostics_records(records):
        fh.write(json.dumps(rec, ensure_ascii=True, allow_nan=False))
        fh.write("\n")


def write_diagnostics_csv(fh, records) -> None:
    """Spreadsheet cut of the diagnostics stream: scalars, then the upper
    triangles of every pair matrix, then per-oscillator columns. The full
    matrices live in the ndjson emission."""
    records = list(records)
    if not records:
        raise ConfigurationError("no diagnostics records to write")
    n = records[0].pair_l2.shape[0]
    upper = np.triu_indices(n, k=1)
    pairs = [f"{j}_{k}" for j, k in zip(*upper)]
    cols = ["t", "zeta_norm", "mass_drift_max", "energy_total", "energy_relative", "energy_zeta"]
    cols += ["energy_diff_two"]
    for name in ("pair_l2", "pair_h1", "rho_l1", "current_l1", "r", "s"):
        cols += [f"{name}_{pair}" for pair in pairs]
    cols += [f"energy_{j}" for j in range(n)]
    fh.write(",".join(cols) + "\n")
    for rec in records:
        en = rec.energies
        z = rec.correlations.z
        scalars = _finite(
            [
                rec.time,
                rec.zeta_norm,
                np.max(np.abs(rec.mass_drift)),
                en.total,
                en.relative,
                en.zeta_energy,
            ]
        )
        diff_two = "" if en.diff_energy_two is None else fmt_float(en.diff_energy_two)
        matrices = (
            rec.pair_l2,
            rec.pair_h1,
            rec.madelung_rho_l1,
            rec.madelung_current_l1,
            z.real,
            z.imag,
        )
        rest = _finite(np.concatenate([m[upper] for m in matrices] + [en.per_osc]))
        fh.write(",".join((_cells(scalars), diff_two, _cells(rest))) + "\n")


SWEEP_COLUMNS = (
    "coupling",
    "omega",
    "n",
    "seed",
    "status",
    "lam",
    "regime",
    "classification",
    "rate_fitted",
    "distance_limit",
    "distance_tail",
    "zeta_norm_final",
    "detail",
)


def write_sweep_csv(fh, rows) -> None:
    """Aggregated sweep table; rows are dicts keyed by SWEEP_COLUMNS."""
    fh.write(",".join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        cells = []
        for col in SWEEP_COLUMNS:
            v = row.get(col)
            if v is None or v == "":
                cells.append("")
            elif isinstance(v, str):
                if "," in v or '"' in v or "\n" in v:
                    cells.append('"' + v.replace('"', '""') + '"')
                else:
                    cells.append(v)
            elif isinstance(v, (int, np.integer)):
                cells.append(str(int(v)))
            else:
                cells.append(fmt_float(v))
        fh.write(",".join(cells) + "\n")
