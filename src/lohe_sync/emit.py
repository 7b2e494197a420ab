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


def _matrix(values: np.ndarray) -> list:
    return [[float(v) for v in row] for row in np.asarray(values)]


def _vector(values: np.ndarray) -> list:
    return [float(v) for v in np.asarray(values)]


def ode_records(series: CorrelationSeries):
    """The documented correlation-series schema, one dict per sample:
    {t, r, s, r_tilde, s_tilde, zeta_norm_sq}."""
    r_t = series.r_tilde
    s_t = series.s_tilde
    zeta = series.zeta_norm_sq
    for i, t in enumerate(series.times):
        yield {
            "t": float(t),
            "r": _matrix(series.z[i].real),
            "s": _matrix(series.z[i].imag),
            "r_tilde": _vector(r_t[i]),
            "s_tilde": _vector(s_t[i]),
            "zeta_norm_sq": float(zeta[i]),
        }


def write_ode_ndjson(fh, series: CorrelationSeries) -> None:
    for rec in ode_records(series):
        fh.write(json.dumps(rec, ensure_ascii=True, allow_nan=False))
        fh.write("\n")


def _pairs(n: int):
    return [(j, k) for j in range(n) for k in range(j + 1, n)]


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
    r_t = series.r_tilde
    s_t = series.s_tilde
    zeta = series.zeta_norm_sq
    for i, t in enumerate(series.times):
        row = [fmt_float(t)]
        row += [fmt_float(v) for v in series.z[i].real.reshape(-1)]
        row += [fmt_float(v) for v in series.z[i].imag.reshape(-1)]
        row += [fmt_float(v) for v in r_t[i]]
        row += [fmt_float(v) for v in s_t[i]]
        row.append(fmt_float(zeta[i]))
        fh.write(",".join(row) + "\n")


def diagnostics_records(records):
    """The documented per-sample diagnostics schema (stable key order)."""
    for rec in records:
        en = rec.energies
        yield {
            "t": float(rec.time),
            "zeta_norm": float(rec.zeta_norm),
            "mass_drift": _vector(rec.mass_drift),
            "pair_l2": _matrix(rec.pair_l2),
            "pair_h1": _matrix(rec.pair_h1),
            "r": _matrix(rec.correlations.z.real),
            "s": _matrix(rec.correlations.z.imag),
            "energy_total": float(en.total),
            "energy_per_osc": _vector(en.per_osc),
            "energy_pair": _matrix(en.pair),
            "energy_relative": float(en.relative),
            "energy_zeta": float(en.zeta_energy),
            "energy_diff_two": None if en.diff_energy_two is None else float(en.diff_energy_two),
            "madelung_rho_l1": _matrix(rec.madelung_rho_l1),
            "madelung_current_l1": _matrix(rec.madelung_current_l1),
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
    pairs = _pairs(n)
    cols = ["t", "zeta_norm", "mass_drift_max", "energy_total", "energy_relative", "energy_zeta"]
    cols += ["energy_diff_two"]
    cols += [f"pair_l2_{j}_{k}" for j, k in pairs]
    cols += [f"pair_h1_{j}_{k}" for j, k in pairs]
    cols += [f"rho_l1_{j}_{k}" for j, k in pairs]
    cols += [f"current_l1_{j}_{k}" for j, k in pairs]
    cols += [f"r_{j}_{k}" for j, k in pairs]
    cols += [f"s_{j}_{k}" for j, k in pairs]
    cols += [f"energy_{j}" for j in range(n)]
    fh.write(",".join(cols) + "\n")
    for rec in records:
        en = rec.energies
        row = [
            fmt_float(rec.time),
            fmt_float(rec.zeta_norm),
            fmt_float(np.max(np.abs(rec.mass_drift))),
            fmt_float(en.total),
            fmt_float(en.relative),
            fmt_float(en.zeta_energy),
            "" if en.diff_energy_two is None else fmt_float(en.diff_energy_two),
        ]
        for matrix in (rec.pair_l2, rec.pair_h1, rec.madelung_rho_l1, rec.madelung_current_l1):
            row += [fmt_float(matrix[j, k]) for j, k in pairs]
        row += [fmt_float(rec.correlations.z[j, k].real) for j, k in pairs]
        row += [fmt_float(rec.correlations.z[j, k].imag) for j, k in pairs]
        row += [fmt_float(v) for v in en.per_osc]
        fh.write(",".join(row) + "\n")


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
