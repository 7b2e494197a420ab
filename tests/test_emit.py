"""Artifact writers: their bytes against a value-by-value rendering, and the
one finiteness rule every writer applies."""

import io
import json

import numpy as np
import pytest

from lohe_sync import (
    ConfigurationError,
    CorrelationState,
    GridSpec,
    ModelConfig,
    SolverParams,
    evolve,
    integrate,
    random_correlation_matrix,
)
from lohe_sync.diagnostics import DiagnosticsRecord, EnergyReport
from lohe_sync.emit import (
    fmt_float,
    write_diagnostics,
    write_diagnostics_csv,
    write_diagnostics_ndjson,
    write_series,
)
from lohe_sync.initial_data import perturbed_gaussians
from lohe_sync.potentials import cosine_potential


def _records(n):
    grid = GridSpec(dim=1, points=64, length=20.0)
    config = ModelConfig(
        coupling=1.0,
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
        row += [fmt_float(rec.correlations.z[j, k].real) for j, k in pairs]
        row += [fmt_float(rec.correlations.z[j, k].imag) for j, k in pairs]
        row += [fmt_float(v) for v in en.per_osc]
        rows.append(",".join(row) + "\n")
    return "".join(rows)


def _hand_built_record():
    """N = 2 with signed zeros, +-x pairs, one value repeated across fields
    and energy_diff_two set: the cases one repr per magnitude must get right."""
    z = np.array([[complex(1.0, -0.0), 0.3 + 0.2j], [0.3 - 0.2j, complex(1.0, 0.0)]])
    correlations = CorrelationState(0.5, z)
    correlations.z = z  # keep the signed zeros the constructor would round away
    return DiagnosticsRecord(
        time=0.5,
        pair_l2=np.array([[0.0, 0.1], [0.1, -0.0]]),
        pair_h1=np.array([[0.0, 0.75], [0.75, 0.0]]),
        zeta_norm=0.75,
        correlations=correlations,
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
