"""Artifact writers: their bytes against a value-by-value rendering, the
one finiteness rule every writer applies, and the forked render child."""

import functools
import io
import json
import os
import signal

import numpy as np
import pytest

from lohe_sync import (
    ConfigurationError,
    GridSpec,
    ModelConfig,
    SolverParams,
    evolve,
    integrate,
    random_correlation_matrix,
)
import lohe_sync.emit as emit
from lohe_sync.diagnostics import DiagnosticsRecord, EnergyReport
from lohe_sync.emit import (
    fmt_float,
    write_diagnostics,
    write_diagnostics_csv,
    write_diagnostics_ndjson,
    write_diagnostics_files,
    write_series,
)
from lohe_sync.initial_data import perturbed_gaussians
from lohe_sync.potentials import cosine_potential


def _records(n, coupling=1.0):
    grid = GridSpec(dim=1, points=64, length=20.0)
    config = ModelConfig(
        coupling=coupling,
        frequencies=(0.2, -0.2) if n == 2 else (0.0,) * n,
        potential=cosine_potential(grid, amplitude=1.0, offset=1.0),
    )
    params = SolverParams(0.01, 0.2, snapshot_stride=5)
    return evolve(perturbed_gaussians(grid, n, seed=7), config, params).diagnostics_stream


def _series():
    config = ModelConfig(coupling=1.0, frequencies=(0.1, 0.0, -0.1))
    return integrate("full", random_correlation_matrix(3, seed=4), config, 0.01, 0.5, 5)


def _written(writer, data) -> str:
    fh = io.StringIO()
    writer(fh, data)
    return fh.getvalue()


def _series_written(fmt, series) -> str:
    fh = io.StringIO()
    write_series({fmt: fh}, series)
    return fh.getvalue()


def _matrix(m):
    return [[float(v) for v in row] for row in m]


def _vector(v):
    return [float(x) for x in v]


def _diagnostics_ndjson_reference(records) -> str:
    out = []
    for rec in records:
        en = rec.energies
        doc = {
            "t": float(rec.time),
            "zeta_norm": float(rec.zeta_norm),
            "mass_drift": _vector(rec.mass_drift),
            "pair_l2": _matrix(rec.pair_l2),
            "pair_h1": _matrix(rec.pair_h1),
            "r": _matrix(rec.z.real),
            "s": _matrix(rec.z.imag),
            "energy_total": float(en.total),
            "energy_per_osc": _vector(en.per_osc),
            "energy_pair": _matrix(en.pair),
            "energy_relative": float(en.relative),
            "energy_zeta": float(en.zeta_energy),
            "energy_diff_two": None if en.diff_energy_two is None else float(en.diff_energy_two),
            "madelung_rho_l1": _matrix(rec.madelung_rho_l1),
            "madelung_current_l1": _matrix(rec.madelung_current_l1),
        }
        out.append(json.dumps(doc, ensure_ascii=True, allow_nan=False) + "\n")
    return "".join(out)


def _diagnostics_csv_reference(records) -> str:
    n = records[0].pair_l2.shape[0]
    pairs = [(j, k) for j in range(n) for k in range(j + 1, n)]
    cols = ["t", "zeta_norm", "mass_drift_max", "energy_total", "energy_relative", "energy_zeta"]
    cols += ["energy_diff_two"]
    for name in ("pair_l2", "pair_h1", "rho_l1", "current_l1", "r", "s"):
        cols += [f"{name}_{j}_{k}" for j, k in pairs]
    cols += [f"energy_{j}" for j in range(n)]
    rows = [",".join(cols) + "\n"]
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
        row += [fmt_float(rec.z[j, k].real) for j, k in pairs]
        row += [fmt_float(rec.z[j, k].imag) for j, k in pairs]
        row += [fmt_float(v) for v in en.per_osc]
        rows.append(",".join(row) + "\n")
    return "".join(rows)


def _hand_built_record():
    """N = 2 with signed zeros, +-x pairs, one value repeated across fields
    and energy_diff_two set: the cases one repr per magnitude must get right."""
    return DiagnosticsRecord(
        time=0.5,
        pair_l2=np.array([[0.0, 0.1], [0.1, -0.0]]),
        pair_h1=np.array([[0.0, 0.75], [0.75, 0.0]]),
        zeta_norm=0.75,
        z=np.array([[complex(1.0, -0.0), 0.3 + 0.2j], [0.3 - 0.2j, complex(1.0, 0.0)]]),
        energies=EnergyReport(
            total=0.75,
            per_osc=np.array([1.5, -1.5]),
            pair=np.array([[-0.0, 2.0], [2.0, 0.0]]),
            relative=0.1,
            zeta_energy=-0.0,
            diff_energy_two=-0.2,
        ),
        mass_drift=np.array([-2.5e-16, 1e-16]),
        madelung_rho_l1=np.array([[0.0, 1.0 / 3.0], [1.0 / 3.0, 0.0]]),
        madelung_current_l1=np.array([[0.0, 5e-324], [5e-324, -0.0]]),
    )


def test_hand_built_record_matches_value_by_value_rendering():
    records = [_hand_built_record()]
    ndjson, csv = io.StringIO(), io.StringIO()
    write_diagnostics({"ndjson": ndjson, "csv": csv}, records)
    assert ndjson.getvalue() == _diagnostics_ndjson_reference(records)
    assert csv.getvalue() == _diagnostics_csv_reference(records)
    assert '"s": [[-0.0, 0.2], [-0.2, 0.0]]' in ndjson.getvalue()
    assert csv.getvalue().splitlines()[1].startswith("0.5,0.75,2.5e-16,0.75,0.1,-0.0,-0.2,")


@pytest.mark.parametrize("n", [2, 3])
def test_diagnostics_writers_match_value_by_value_rendering(n):
    records = _records(n)
    assert (records[0].energies.diff_energy_two is None) == (n != 2)
    assert _written(write_diagnostics_ndjson, records) == _diagnostics_ndjson_reference(records)
    assert _written(write_diagnostics_csv, records) == _diagnostics_csv_reference(records)


def test_ode_writers_match_value_by_value_rendering():
    series = _series()
    r_t, s_t, zeta = series.r_tilde, series.s_tilde, series.zeta_norm_sq
    ndjson = []
    csv_rows = []
    for i, t in enumerate(series.times):
        doc = {
            "t": float(t),
            "r": _matrix(series.z[i].real),
            "s": _matrix(series.z[i].imag),
            "r_tilde": _vector(r_t[i]),
            "s_tilde": _vector(s_t[i]),
            "zeta_norm_sq": float(zeta[i]),
        }
        ndjson.append(json.dumps(doc, ensure_ascii=True, allow_nan=False) + "\n")
        row = [fmt_float(t)]
        row += [fmt_float(v) for v in series.z[i].real.reshape(-1)]
        row += [fmt_float(v) for v in series.z[i].imag.reshape(-1)]
        row += [fmt_float(v) for v in r_t[i]]
        row += [fmt_float(v) for v in s_t[i]]
        row.append(fmt_float(zeta[i]))
        csv_rows.append(",".join(row) + "\n")
    assert _series_written("ndjson", series) == "".join(ndjson)
    assert _series_written("csv", series).splitlines(keepends=True)[1:] == csv_rows


@pytest.mark.parametrize(
    "writer", [write_diagnostics_ndjson, write_diagnostics_csv], ids=["ndjson", "csv"]
)
def test_diagnostics_writers_refuse_non_finite_values(writer):
    records = _records(3)
    records[-1].madelung_current_l1[1, 2] = np.nan
    with pytest.raises(ConfigurationError, match="refusing to serialize non-finite value nan"):
        _written(writer, records)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_one_diagnostics_call_refuses_non_finite_values_for_both_formats(bad):
    records = _records(3)
    records[1].pair_h1[0, 2] = bad
    handles = {"ndjson": io.StringIO(), "csv": io.StringIO()}
    with pytest.raises(ConfigurationError, match=f"refusing to serialize non-finite value {bad}"):
        write_diagnostics(handles, records)
    # the first record went out in both formats, nothing of the bad one did
    assert handles["ndjson"].getvalue() == _diagnostics_ndjson_reference(records[:1])
    assert handles["csv"].getvalue() == _diagnostics_csv_reference(records[:1])


@pytest.mark.parametrize("fmt", ["ndjson", "csv"])
def test_ode_writers_refuse_non_finite_values(fmt):
    series = _series()
    series.z[-1, 0, 2] = complex(np.nan, 0.0)
    with pytest.raises(ConfigurationError, match="refusing to serialize non-finite value nan"):
        _series_written(fmt, series)


@functools.lru_cache(maxsize=None)
def _child_case(case):
    """Records of each render-child case: (N, coupling); a coupled pair's
    records carry energy_diff_two, the others hold None."""
    n, coupling = case
    return tuple(_records(n, coupling))


def _in_process(formats, records) -> dict:
    handles = {fmt: io.StringIO() for fmt in formats}
    write_diagnostics(handles, records)
    return {fmt: fh.getvalue() for fmt, fh in handles.items()}


def _files(tmp_path, formats) -> dict:
    return {fmt: str(tmp_path / f"diagnostics.{fmt}") for fmt in formats}


def _read(paths) -> dict:
    out = {}
    for fmt, path in paths.items():
        with open(path, encoding="utf-8", newline="") as fh:
            out[fmt] = fh.read()
    return out


def _assert_no_child_left():
    # no child of this process is left, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def render_child(monkeypatch):
    """Every write_diagnostics_files call renders in a forked child."""
    monkeypatch.setattr(emit, "_RENDER_CHILD_NUMBERS", 0)


@pytest.mark.parametrize("formats", [("ndjson",), ("csv",), ("ndjson", "csv")], ids="+".join)
@pytest.mark.parametrize(
    "case", [(2, 1.0), (2, 0.0), (5, 1.0), (40, 1.0)], ids=["2", "2_uncoupled", "5", "40"]
)
def test_render_child_writes_the_in_process_bytes(tmp_path, render_child, formats, case):
    records = _child_case(case)
    assert (records[0].energies.diff_energy_two is None) == (case != (2, 1.0))
    paths = _files(tmp_path, formats)
    write_diagnostics_files(paths, iter(records), case[0], len(records))
    _assert_no_child_left()
    assert _read(paths) == _in_process(formats, records)


def test_render_child_writes_signed_zeros_like_the_in_process_path(tmp_path, render_child):
    records = [_hand_built_record()] * 3
    paths = _files(tmp_path, ("ndjson", "csv"))
    write_diagnostics_files(paths, records, 2, len(records))
    _assert_no_child_left()
    assert _read(paths) == _in_process(("ndjson", "csv"), records)


def test_small_runs_render_in_process(tmp_path, monkeypatch):
    # 5 records of a pair hold 5 x 37 numbers, far below the threshold
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    records = _child_case((2, 1.0))
    paths = _files(tmp_path, ("ndjson", "csv"))
    write_diagnostics_files(paths, records, 2, len(records))
    assert _read(paths) == _in_process(("ndjson", "csv"), records)


@pytest.mark.parametrize(
    "failure",
    [ConfigurationError("z must be finite"), KeyboardInterrupt()],
    ids=["error", "interrupt"],
)
def test_render_child_keeps_the_records_before_an_error_of_the_parent(
    tmp_path, render_child, failure
):
    # the records made before the error are written, the child is waited
    # for, and the parent's own error is raised
    records = _child_case((5, 1.0))

    def made():
        yield from records[:3]
        raise failure

    paths = _files(tmp_path, ("ndjson", "csv"))
    with pytest.raises(type(failure)):
        write_diagnostics_files(paths, made(), 5, len(records))
    _assert_no_child_left()
    assert _read(paths) == _in_process(("ndjson", "csv"), records[:3])


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_render_child_refuses_a_non_finite_record_in_order(tmp_path, render_child, bad):
    records = [_hand_built_record() for _ in range(3)]
    records[1].pair_h1[0, 1] = bad
    paths = _files(tmp_path, ("ndjson", "csv"))
    with pytest.raises(ConfigurationError, match=f"refusing to serialize non-finite value {bad}"):
        write_diagnostics_files(paths, records, 2, len(records))
    _assert_no_child_left()
    assert _read(paths) == _in_process(("ndjson", "csv"), records[:1])


def test_render_child_that_cannot_open_its_file_raises_its_error(tmp_path, render_child):
    paths = _files(tmp_path, ("ndjson", "csv"))
    os.mkdir(paths["csv"])
    with pytest.raises(IsADirectoryError, match="diagnostics.csv"):
        write_diagnostics_files(paths, _child_case((40, 1.0)), 40, 5)
    _assert_no_child_left()


def test_render_child_that_fails_mid_stream_raises_its_error(tmp_path, render_child, monkeypatch):
    # the child fails on its third record while the parent is still sending
    ndjson_line, lines = emit._ndjson_line, []

    def failing_line(shapes, tokens):
        lines.append(None)
        if len(lines) == 3:
            raise RuntimeError("render failed")
        return ndjson_line(shapes, tokens)

    monkeypatch.setattr(emit, "_ndjson_line", failing_line)
    records = _child_case((40, 1.0)) * 4
    with pytest.raises(RuntimeError, match="render failed"):
        write_diagnostics_files(_files(tmp_path, ("ndjson",)), records, 40, len(records))
    _assert_no_child_left()


def test_render_child_killed_without_a_report_is_an_error(tmp_path, render_child, monkeypatch):
    def killed(handles, vectors):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(emit, "_render_diagnostics", killed)
    records = _child_case((40, 1.0))
    with pytest.raises(RuntimeError, match="render child exited with code -9"):
        write_diagnostics_files(_files(tmp_path, ("ndjson",)), records, 40, len(records))
    _assert_no_child_left()
