"""Deterministic artifact serialization.

Every number is rendered through repr(float(x)): the shortest string that
round-trips the exact binary value, never more than 17 significant digits.
Two runs that compute identical doubles therefore emit identical bytes,
which is the whole reproducibility story; nothing here depends on locale,
dict iteration quirks, or platform line endings.

A diagnostics record, or a block of correlation-series samples, is rendered
once for every format it is written in: its numbers are checked for
finiteness together, each distinct magnitude goes through repr once (pair
matrices are symmetric, s antisymmetric, and the csv repeats ndjson values),
the sign is put back from signbit, and the ndjson line and the csv row are
both assembled from those strings. A diagnostics csv written alone reprs its
row's entries directly: its upper triangles hardly repeat a magnitude.
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
    "write_diagnostics_ndjson",
    "write_diagnostics_csv",
    "write_diagnostics",
    "write_series",
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


def _check_finite(values: np.ndarray) -> None:
    """Refuse the first entry that is not finite, with fmt_float's error."""
    bad = ~np.isfinite(values)
    if bad.any():
        fmt_float(values[bad].flat[0])


def _tokens(flat: np.ndarray) -> np.ndarray:
    """repr of every entry of a finite 1-D float array, as an object array.

    Each distinct magnitude is rendered once and the sign put back with
    signbit, so -0.0 stays "-0.0" and x and -x share one repr; repr(-x) is
    "-" + repr(x) for every finite double."""
    magnitudes, inverse = np.unique(np.abs(flat), return_inverse=True)
    tokens = np.array(list(map(repr, magnitudes.tolist())), dtype=object)[inverse]
    negative = np.signbit(flat)
    tokens[negative] = "-" + tokens[negative]
    return tokens


def _json_value(tokens: list, shape: tuple) -> str:
    """A rendered scalar, or a nested JSON array with json.dumps's ", "
    separator."""
    if not shape:
        return tokens[0]
    if len(shape) == 1:
        return "[" + ", ".join(tokens) + "]"
    step = len(tokens) // shape[0]
    rows = (_json_value(tokens[i : i + step], shape[1:]) for i in range(0, len(tokens), step))
    return "[" + ", ".join(rows) + "]"


def _ndjson_line(shapes: dict, tokens: list) -> str:
    """One JSON object from {key: shape} in schema order, shape None for
    null; tokens hold the rendered entries of every other field, flattened
    in that order."""
    parts = []
    at = 0
    for key, shape in shapes.items():
        if shape is None:
            parts.append(f'"{key}": null')
            continue
        size = math.prod(shape)
        parts.append(f'"{key}": {_json_value(tokens[at : at + size], shape)}')
        at += size
    return "{" + ", ".join(parts) + "}\n"


# rows of a correlation series rendered together: bounds the strings held at once
_SERIES_CHUNK = 256


def write_series(handles: dict, series: CorrelationSeries) -> None:
    """Write a correlation series to every open file in handles, keyed by
    format ("ndjson", "csv"). The ndjson schema is one {t, r, s, r_tilde,
    s_tilde, zeta_norm_sq} object per sample; the csv row holds the same
    numbers in the same order, full r and s matrices row-major. Both formats
    are assembled from one rendering of each sample."""
    n = series.n_oscillators
    samples = len(series.times)
    table = np.column_stack(
        [
            series.times,
            series.z.real.reshape(samples, -1),
            series.z.imag.reshape(samples, -1),
            series.r_tilde,
            series.s_tilde,
            series.zeta_norm_sq,
        ]
    )
    ndjson, csv = handles.get("ndjson"), handles.get("csv")
    if csv is not None:
        cols = ["t"]
        cols += [f"r_{j}_{k}" for j in range(n) for k in range(n)]
        cols += [f"s_{j}_{k}" for j in range(n) for k in range(n)]
        cols += [f"r_tilde_{j}" for j in range(n)]
        cols += [f"s_tilde_{j}" for j in range(n)]
        cols += ["zeta_norm_sq"]
        csv.write(",".join(cols) + "\n")
    _check_finite(table)
    shapes = dict(t=(), r=(n, n), s=(n, n), r_tilde=(n,), s_tilde=(n,), zeta_norm_sq=())
    for start in range(0, samples, _SERIES_CHUNK):
        block = table[start : start + _SERIES_CHUNK]
        rows = _tokens(block.ravel()).reshape(block.shape).tolist()
        for row in rows:
            if ndjson is not None:
                ndjson.write(_ndjson_line(shapes, row))
            if csv is not None:
                csv.write(",".join(row) + "\n")


def _diagnostics_arrays(rec) -> dict:
    """The documented per-sample diagnostics schema (stable key order), each
    field a float array, or None for a missing energy_diff_two."""
    en = rec.energies
    z = rec.correlations.z
    fields = {
        "t": rec.time,
        "zeta_norm": rec.zeta_norm,
        "mass_drift": rec.mass_drift,
        "pair_l2": rec.pair_l2,
        "pair_h1": rec.pair_h1,
        "r": z.real,
        "s": z.imag,
        "energy_total": en.total,
        "energy_per_osc": en.per_osc,
        "energy_pair": en.pair,
        "energy_relative": en.relative,
        "energy_zeta": en.zeta_energy,
        "energy_diff_two": en.diff_energy_two,
        "madelung_rho_l1": rec.madelung_rho_l1,
        "madelung_current_l1": rec.madelung_current_l1,
    }
    return {key: None if v is None else np.asarray(v, dtype=float) for key, v in fields.items()}


# fields whose upper triangles the csv holds, as <field>_<j>_<k> columns
# with the madelung_ prefix dropped
_CSV_PAIRS = ("pair_l2", "pair_h1", "madelung_rho_l1", "madelung_current_l1", "r", "s")


def _diagnostics_csv_layout(n: int) -> tuple[np.ndarray, str]:
    """Flat offsets of an n x n matrix's upper triangle, and the csv header."""
    iu = np.triu_indices(n, k=1)
    pairs = [f"{j}_{k}" for j, k in zip(*iu)]
    cols = ["t", "zeta_norm", "mass_drift_max", "energy_total", "energy_relative"]
    cols += ["energy_zeta", "energy_diff_two"]
    for key in _CSV_PAIRS:
        cols += [f"{key.removeprefix('madelung_')}_{pair}" for pair in pairs]
    cols += [f"energy_{j}" for j in range(n)]
    return iu[0] * n + iu[1], ",".join(cols) + "\n"


def write_diagnostics(handles: dict, records) -> None:
    """Write diagnostics records to every open file in handles, keyed by
    format ("ndjson", "csv"), one record at a time.

    Each record is rendered once: its fields are concatenated in ndjson key
    order and checked for finiteness, every distinct magnitude is rendered
    by repr once, and both the ndjson line and the csv row are assembled
    from those strings; a csv-only write reprs just the entries of its row.
    records may be any iterable: each line is written as its record
    arrives. The csv is the spreadsheet cut: scalars, then the
    upper triangles of every pair matrix, then per-oscillator energies; the
    full matrices live in the ndjson."""
    ndjson, csv = handles.get("ndjson"), handles.get("csv")
    upper = None
    for rec in records:
        arrays = _diagnostics_arrays(rec)
        flat = np.concatenate([a.ravel() for a in arrays.values() if a is not None])
        _check_finite(flat)
        if csv is not None:
            n = rec.pair_l2.shape[0]
            if upper is None:
                upper, header = _diagnostics_csv_layout(n)
                csv.write(header)
            sizes = [0 if a is None else a.size for a in arrays.values()]
            at = dict(zip(arrays, np.cumsum([0] + sizes).tolist()))
            # max |mass drift| is the magnitude of one entry
            drift = at["mass_drift"] + int(np.argmax(np.abs(arrays["mass_drift"])))
            head = [at["t"], at["zeta_norm"], drift]
            head += [at["energy_total"], at["energy_relative"], at["energy_zeta"]]
            if arrays["energy_diff_two"] is not None:
                head.append(at["energy_diff_two"])
            index = np.concatenate(
                [head] + [at[key] + upper for key in _CSV_PAIRS] + [at["energy_per_osc"] + np.arange(n)]
            )
        if ndjson is not None:
            tokens = _tokens(flat)
            shapes = {key: None if a is None else a.shape for key, a in arrays.items()}
            ndjson.write(_ndjson_line(shapes, tokens.tolist()))
        if csv is not None:
            if ndjson is not None:
                cells = tokens[index].tolist()
            else:
                # upper triangles hardly repeat a magnitude, so a csv-only
                # row reprs each entry instead of deduplicating
                cells = list(map(repr, flat[index].tolist()))
            cells[2] = cells[2].lstrip("-")
            if arrays["energy_diff_two"] is None:
                cells.insert(6, "")
            csv.write(",".join(cells) + "\n")
    if csv is not None and upper is None:
        raise ConfigurationError("no diagnostics records to write")


def write_diagnostics_ndjson(fh, records) -> None:
    write_diagnostics({"ndjson": fh}, records)


def write_diagnostics_csv(fh, records) -> None:
    write_diagnostics({"csv": fh}, records)


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
