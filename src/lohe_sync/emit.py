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

Writing diagnostics has two halves: reading a record into one flat float64
vector and checking it, then rendering that vector. A run whose records
hold many numbers (write_diagnostics_files: 2^16 or more in all, about 6
records at N = 40) renders in a forked child while the run goes on
stepping: the parent reads and checks each record and sends its vector down
a pipe, and the child, which calls no BLAS, runs the same rendering into
the files, so their bytes do not depend on where they were rendered.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import ExitStack
from functools import partial

import numpy as np

from . import forked
from .correlations import CorrelationSeries
from .errors import ConfigurationError

__all__ = [
    "fmt_float",
    "to_jsonable",
    "dump_json",
    "write_diagnostics_ndjson",
    "write_diagnostics_csv",
    "write_diagnostics",
    "write_diagnostics_files",
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


# the per-sample diagnostics schema in its stable key order, with each
# field's rank: a scalar, a per-oscillator vector or an N x N matrix
_DIAGNOSTICS_RANKS = {
    "t": 0,
    "zeta_norm": 0,
    "mass_drift": 1,
    "pair_l2": 2,
    "pair_h1": 2,
    "r": 2,
    "s": 2,
    "energy_total": 0,
    "energy_per_osc": 1,
    "energy_pair": 2,
    "energy_relative": 0,
    "energy_zeta": 0,
    "energy_diff_two": 0,
    "madelung_rho_l1": 2,
    "madelung_current_l1": 2,
}

# fields whose upper triangles the csv holds, as <field>_<j>_<k> columns
# with the madelung_ prefix dropped
_CSV_PAIRS = ("pair_l2", "pair_h1", "madelung_rho_l1", "madelung_current_l1", "r", "s")

# Rendering a large run's records goes to a forked child once they hold this
# many numbers in all. The fork costs about 5 ms (mostly the parent's
# copy-on-write faults afterwards), the repr of about 13 000 distinct
# magnitudes at 0.38 us each; a record's distinct magnitudes are about half
# its numbers, so 2^16 numbers cost about 2.5 forks to render.
_RENDER_CHILD_NUMBERS = 1 << 16


def _record_numbers(n: int) -> int:
    """The numbers in one N-oscillator record without energy_diff_two
    (which only a coupled pair has): 7 N^2 + 2 N + 5."""
    return sum(n**rank for key, rank in _DIAGNOSTICS_RANKS.items() if key != "energy_diff_two")


def _diagnostics_vector(rec) -> np.ndarray:
    """A record's fields, flattened and concatenated in schema order with a
    missing energy_diff_two left out, refused with fmt_float's error when
    any entry is not finite: the half of write_diagnostics that reads the
    record."""
    en = rec.energies
    z = rec.z
    fields = (
        rec.time,
        rec.zeta_norm,
        rec.mass_drift,
        rec.pair_l2,
        rec.pair_h1,
        z.real,
        z.imag,
        en.total,
        en.per_osc,
        en.pair,
        en.relative,
        en.zeta_energy,
        en.diff_energy_two,
        rec.madelung_rho_l1,
        rec.madelung_current_l1,
    )
    flat = np.concatenate([np.asarray(v, dtype=float).ravel() for v in fields if v is not None])
    _check_finite(flat)
    return flat


def _diagnostics_csv_header(n: int) -> str:
    pairs = [f"{j}_{k}" for j, k in zip(*np.triu_indices(n, k=1))]
    cols = ["t", "zeta_norm", "mass_drift_max", "energy_total", "energy_relative"]
    cols += ["energy_zeta", "energy_diff_two"]
    for key in _CSV_PAIRS:
        cols += [f"{key.removeprefix('madelung_')}_{pair}" for pair in pairs]
    cols += [f"energy_{j}" for j in range(n)]
    return ",".join(cols) + "\n"


def _diagnostics_layout(n: int, size: int) -> tuple[dict, np.ndarray]:
    """The shapes of an N-oscillator record's fields, None for a missing
    energy_diff_two, and the offsets of its csv cells in its flat vector of
    size numbers; cell 2, max |mass drift|, holds mass_drift's offset."""
    shapes = {key: (n,) * rank for key, rank in _DIAGNOSTICS_RANKS.items()}
    if size == _record_numbers(n):
        shapes["energy_diff_two"] = None
    sizes = [0 if shape is None else n ** len(shape) for shape in shapes.values()]
    at = dict(zip(shapes, np.cumsum([0] + sizes).tolist()))
    head = ["t", "zeta_norm", "mass_drift", "energy_total", "energy_relative", "energy_zeta"]
    if shapes["energy_diff_two"] is not None:
        head.append("energy_diff_two")
    iu = np.triu_indices(n, k=1)
    upper = iu[0] * n + iu[1]
    index = np.concatenate(
        [[at[key] for key in head]]
        + [at[key] + upper for key in _CSV_PAIRS]
        + [at["energy_per_osc"] + np.arange(n)]
    )
    return shapes, index


def _render_diagnostics(handles: dict, vectors) -> bool:
    """Write records, given as (N, _diagnostics_vector) pairs, to every open
    file in handles, the csv header with the first: the half of
    write_diagnostics that renders. Returns whether any record came."""
    ndjson, csv = handles.get("ndjson"), handles.get("csv")
    layouts: dict = {}
    for n, flat in vectors:
        if not layouts and csv is not None:
            csv.write(_diagnostics_csv_header(n))
        layout = layouts.get((n, flat.size))
        if layout is None:
            layout = layouts[n, flat.size] = _diagnostics_layout(n, flat.size)
        shapes, index = layout
        if ndjson is not None:
            tokens = _tokens(flat)
            ndjson.write(_ndjson_line(shapes, tokens.tolist()))
        if csv is not None:
            # max |mass drift| is the magnitude of one entry
            drift = index[2]
            index = index.copy()
            index[2] += int(np.argmax(np.abs(flat[drift : drift + n])))
            if ndjson is not None:
                cells = tokens[index].tolist()
            else:
                # upper triangles hardly repeat a magnitude, so a csv-only
                # row reprs each entry instead of deduplicating
                cells = list(map(repr, flat[index].tolist()))
            cells[2] = cells[2].lstrip("-")
            if shapes["energy_diff_two"] is None:
                cells.insert(6, "")
            csv.write(",".join(cells) + "\n")
    return bool(layouts)


def _vectors(records):
    """(N, _diagnostics_vector) of each record, in order."""
    for rec in records:
        yield rec.pair_l2.shape[0], _diagnostics_vector(rec)


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
    if not _render_diagnostics(handles, _vectors(records)) and handles.get("csv") is not None:
        raise ConfigurationError("no diagnostics records to write")


def _opened(stack: ExitStack, paths: dict) -> dict:
    """A new text file for each path, closed with stack."""
    return {
        fmt: stack.enter_context(open(path, "w", encoding="utf-8", newline=""))
        for fmt, path in paths.items()
    }


def write_diagnostics_files(paths: dict, records, n: int, samples: int) -> None:
    """write_diagnostics into a new file at each of paths, keyed by format,
    for a run of samples N-oscillator records.

    When those records hold _RENDER_CHILD_NUMBERS numbers or more, a forked
    child opens the files and renders while this process goes on making
    records: each record is read and checked for finiteness here, so a
    non-finite one still raises here and in order, and its flat vector goes
    to the child down a pipe. The child runs the same rendering, so the
    files hold the same bytes either way. Every record sent is written
    before this returns or raises, and the child is always waited for. An
    error in the child is raised here in its place: it came from an earlier
    record than any error of this process."""
    if samples * _record_numbers(n) < _RENDER_CHILD_NUMBERS:
        with ExitStack() as stack:
            write_diagnostics(_opened(stack, paths), records)
        return
    data_r, data_w = os.pipe()
    pid, report = forked.start(partial(_render_child, paths, data_r), keep=(data_r,))
    os.close(data_r)
    error = None
    try:
        with open(data_w, "wb") as pipe:
            for rec_n, flat in _vectors(records):
                pipe.write(np.array([rec_n, flat.size], dtype=np.int64).tobytes())
                pipe.write(flat)
    except BaseException as exc:  # raised below, once the child is done
        error = exc
    finally:
        forked.reap(pid, report, "diagnostics render child")
    if error is not None:
        raise error


def _render_child(paths: dict, data_fd: int) -> None:
    """The render child of write_diagnostics_files: render what arrives on
    data_fd until it closes."""
    with ExitStack() as stack, open(data_fd, "rb") as pipe:
        _render_diagnostics(_opened(stack, paths), _received(pipe))


def _received(pipe):
    """The (N, flat vector) pairs write_diagnostics_files sends, until the
    pipe closes; a record cut short is dropped."""
    while len(head := pipe.read(16)) == 16:
        n, size = np.frombuffer(head, dtype=np.int64).tolist()
        data = pipe.read(8 * size)
        if len(data) < 8 * size:
            return
        yield n, np.frombuffer(data)


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
