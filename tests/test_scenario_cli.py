"""Scenario files, snapshots, and the command-line surface end to end."""

import csv
import glob
import json
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lohe_sync import (
    ConfigurationError,
    CorrelationState,
    DivergenceError,
    EnsembleState,
    GridSpec,
    ModelConfig,
    SolverParams,
    compute_record,
    evolve,
    integrate,
    load_scenario,
    parse_scenario,
    random_correlation_matrix,
    read_snapshot,
    render_scenario,
    samples,
    with_records,
    write_snapshot,
)
import lohe_sync.emit as emit_module
import lohe_sync.scenario as scenario_module
import lohe_sync.solver as solver_module
from lohe_sync.cli import main
from lohe_sync.initial_data import gaussian_pair, perturbed_gaussians
from lohe_sync.scenario import (
    OdeParams,
    OutputSpec,
    Scenario,
    SweepSpec,
    build_ensemble,
    build_grid,
    build_model,
)
from lohe_sync.solver import _RECORD_BLOCK_BYTES

from conftest import (
    assert_no_child_left,
    assert_replays,
    assert_same_files,
    force_step_child,
    shipped,
)

BASE = """
[scenario]
name = roundtrip
seed = 11

[grid]
points = 64
length = 20.0

[model]
n = 2
coupling = 1.0
lam = 0.75

[initial]
kind = gaussian_pair
separation = 2.0

[ode]
system = two
z0 = 0.2+0.1j
dt = 0.001
t_end = 2.0
sample_stride = 40

[solver]
dt = 0.002
t_end = 1.0
snapshot_stride = 50

[outputs]
formats = ndjson, csv
final_snapshot = true

[verify]
checks = mass:1e-9, two_exact:1e-4
"""


# -- scenario parsing and rendering --------------------------------------------


def test_parse_render_round_trip():
    sc = parse_scenario(BASE)
    text = render_scenario(sc)
    again = parse_scenario(text)
    assert again == sc
    # canonical: rendering the reparsed scenario is byte-stable
    assert render_scenario(again) == text


_FLOATS = st.floats(allow_nan=False, allow_infinity=False)
_WORDS = st.text(alphabet="abcdefghijklmnopqrstuvwxyz0123456789_", min_size=1, max_size=10)
_INTS = st.integers(-(10**6), 10**6)


@st.composite
def _scenarios(draw):
    """Scenarios with every section filled, restricted to what the grammar can
    spell: lower-case keys, coherence only beside gram = random, lam only for
    n = 2, solver t_end a whole number of steps."""
    n = draw(st.integers(2, 6))
    frequencies = lam = None
    spelling = draw(st.sampled_from(("none", "frequencies", "lam") if n == 2 else ("none", "frequencies")))
    if spelling == "frequencies":
        frequencies = tuple(draw(st.lists(_FLOATS, min_size=n, max_size=n)))
    elif spelling == "lam":
        lam = draw(st.floats(0.0, 1e6))
    gram = draw(st.sampled_from((None, "random", "ones")))
    ode = OdeParams(
        system=draw(st.sampled_from(("full", "two", "fg"))),
        dt=draw(_FLOATS),
        t_end=draw(_FLOATS),
        sample_stride=draw(_INTS),
        self_check=draw(st.booleans()),
        z0=draw(st.one_of(st.none(), st.just("unstable"), st.complex_numbers(allow_nan=False, allow_infinity=False))),
        gram=gram,
        coherence=draw(_FLOATS) if gram == "random" else 0.0,
    )
    dt = draw(st.floats(1e-4, 1.0))
    solver = SolverParams(
        dt=dt,
        t_end=draw(st.integers(0, 1000)) * dt,
        scheme=draw(st.sampled_from(("span", "strang_rk4", "full_rk4"))),
        renormalize_each_step=draw(st.booleans()),
        snapshot_stride=draw(st.integers(1, 1000)),
    )
    sweep = SweepSpec(
        coupling=tuple(draw(st.lists(_FLOATS, min_size=1, max_size=4))),
        omega=tuple(draw(st.lists(_FLOATS, min_size=1, max_size=4))),
        n=tuple(draw(st.lists(_INTS, min_size=1, max_size=4))),
        seeds=tuple(draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=4))),
        mode=draw(st.sampled_from(("ode", "pde"))),
        dt=draw(_FLOATS),
        t_end=draw(_FLOATS),
    )
    return Scenario(
        name=draw(_WORDS),
        seed=draw(st.integers(0, 10**6)),
        grid_dim=draw(_INTS),
        grid_points=draw(_INTS),
        grid_length=draw(_FLOATS),
        n=n,
        coupling=draw(_FLOATS),
        frequencies=frequencies,
        lam=lam,
        potential_kind=draw(st.sampled_from(("zero", "cosine", "barrier"))),
        potential_params=draw(st.dictionaries(_WORDS, _FLOATS, max_size=3)),
        initial_kind=draw(st.sampled_from(("perturbed_gaussians", "gaussian_pair", "snapshot"))),
        initial_params=draw(
            st.dictionaries(
                _WORDS.filter(lambda k: k != "kind"),
                st.text(alphabet="abcxyz0123456789.+-_/ ", max_size=12).map(str.strip),
                max_size=3,
            )
        ),
        ode=ode,
        solver=solver,
        outputs=OutputSpec(
            formats=tuple(draw(st.lists(st.sampled_from(("ndjson", "csv")), min_size=1, max_size=2))),
            final_snapshot=draw(st.booleans()),
            diagnostics=draw(st.booleans()),
        ),
        checks=tuple(draw(st.lists(st.tuples(_WORDS, _FLOATS), max_size=4))),
        sweep=sweep,
    )


@settings(deadline=None)
@given(sc=_scenarios())
@example(sc=parse_scenario(BASE.replace("two_exact:1e-4", "two_exact:1.2345678e-9")))
def test_render_parse_round_trip_generated(sc):
    # the manifest written beside every run must parse back to the run's scenario
    assert parse_scenario(render_scenario(sc)) == sc


def test_unknown_keys_are_rejected():
    with pytest.raises(ConfigurationError, match=r"\[grid\] spacing"):
        parse_scenario("[scenario]\nname = x\n[grid]\nspacing = 0.1\n")
    for section in ("scenario", "grid", "model", "ode", "solver", "outputs", "verify", "sweep"):
        header = "" if section == "scenario" else f"[{section}]\n"
        with pytest.raises(ConfigurationError, match=rf"\[{section}\] bogus: unknown key"):
            parse_scenario(f"[scenario]\nname = x\n{header}bogus = 1\n")
    # [initial] keys belong to the family, so they are checked when it is built
    sc = parse_scenario("[scenario]\nname = x\n[initial]\nkind = gaussian_pair\nbogus = 1\n")
    with pytest.raises(ConfigurationError, match=r"\[initial\] bogus: unknown key for kind"):
        build_ensemble(sc, build_grid(sc))
    with pytest.raises(ConfigurationError, match=r"\[bogus\]"):
        parse_scenario("[scenario]\nname = x\n[bogus]\nkey = 1\n")
    with pytest.raises(ConfigurationError, match="name"):
        parse_scenario("[scenario]\nseed = 1\n")
    for body, missing in (
        ("[ode]\ndt = 0.1\n", r"\[ode\] t_end"),
        ("[solver]\ndt = 0.1\n", r"\[solver\] t_end"),
        ("[initial]\nsigma = 1.0\n", r"\[initial\] kind"),
    ):
        with pytest.raises(ConfigurationError, match=missing + ": missing required value"):
            parse_scenario("[scenario]\nname = x\n" + body)


def test_inputs_that_would_be_ignored_are_rejected():
    # coherence only biases gram = random; beside any other start it would
    # run without effect and vanish from the manifest
    for gram in ("", "gram = ones\n"):
        with pytest.raises(ConfigurationError, match=r"\[ode\] coherence: "):
            parse_scenario(f"[scenario]\nname = x\n[ode]\nt_end = 1.0\n{gram}coherence = 0.4\n")
    # an integer family key rejects a fraction instead of truncating it
    sc = parse_scenario("[scenario]\nname = x\n[initial]\nkind = perturbed_gaussians\nmax_mode = 6.7\n")
    with pytest.raises(ConfigurationError, match=r"\[initial\] max_mode: expected an integer"):
        build_ensemble(sc, build_grid(sc))


def test_negative_sweep_seeds_are_rejected(tmp_path, capsys):
    # a seed reaches np.random.default_rng, which takes no negative value
    with pytest.raises(ConfigurationError, match=r"\[sweep\] seeds: expected non-negative"):
        parse_scenario("[scenario]\nname = x\n[sweep]\nseeds = 1, -1\n")
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("[scenario]\nname = neg\n[sweep]\nseeds = -1\n")
    assert run_cli("sweep", "--scenario", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "[sweep] seeds:" in capsys.readouterr().err


def test_negative_scenario_seed_is_rejected(tmp_path, capsys):
    # perturbed_gaussians hands the seed to np.random.default_rng
    with pytest.raises(ConfigurationError, match=r"\[scenario\] seed: expected a non-negative integer"):
        parse_scenario("[scenario]\nname = x\nseed = -3\n")
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(
        "[scenario]\nname = neg\nseed = -3\n[grid]\npoints = 64\n"
        "[initial]\nkind = perturbed_gaussians\n[solver]\ndt = 0.01\nt_end = 0.1\n"
    )
    assert run_cli("simulate", "--scenario", str(cfg), "--out", str(tmp_path / "a")) == 2
    assert "[scenario] seed: expected a non-negative integer, got -3" in capsys.readouterr().err
    cfg.write_text(cfg.read_text().replace("seed = -3", "seed = 3"))
    argv = ("simulate", "--scenario", str(cfg), "--out", str(tmp_path / "b"), "--seed", "-1")
    assert run_cli(*argv) == 2
    assert "[scenario] seed: expected a non-negative integer, got -1" in capsys.readouterr().err
    assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()


def test_docstring_lists_every_key():
    # the README sends readers to the module docstring for the full grammar
    blocks = re.split(r"^ *\[(\w+)\]", scenario_module.__doc__, flags=re.M)
    documented = dict(zip(blocks[1::2], blocks[2::2]))
    keys = [(spec.name, key.name) for spec in scenario_module._SCHEMA for key in spec.keys]
    keys += [
        ("initial", key.name)
        for _, family_keys in scenario_module._FAMILIES.values()
        for key in family_keys
    ]
    for section, key in keys:
        assert re.search(rf"\b{key} =", documented[section]), f"[{section}] {key} undocumented"


def test_shipped_scenarios_render_to_a_fixed_point():
    paths = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "..", "scenarios", "*.cfg")))
    assert paths
    for path in paths:
        text = render_scenario(load_scenario(path))
        assert render_scenario(parse_scenario(text)) == text, path


def test_frequencies_and_lam_are_exclusive():
    text = "[scenario]\nname = x\n[model]\nfrequencies = 0.1, -0.1\nlam = 0.5\n"
    with pytest.raises(ConfigurationError):
        parse_scenario(text)


def test_malformed_values():
    with pytest.raises(ConfigurationError, match=r"\[model\] coupling"):
        parse_scenario("[scenario]\nname = x\n[model]\ncoupling = fast\n")
    with pytest.raises(ConfigurationError, match=r"\[ode\]"):
        parse_scenario("[scenario]\nname = x\n[ode]\nsystem = seven\nt_end = 1\n")


def test_sweep_axis_grammar(tmp_path, capsys):
    sc = parse_scenario(
        "[scenario]\nname = x\n[sweep]\ncoupling = 0:1:0.25\nomega = 0.3\nn = 2\nseeds = 1, 2\nt_end = 1.0\n"
    )
    assert sc.sweep.coupling == (0.0, 0.25, 0.5, 0.75, 1.0)
    assert sc.sweep.seeds == (1, 2)
    # an axis of no values would sweep no cells, and the manifest, which
    # renders no empty axis, would replay the default cell instead
    for key, raw in (("omega", "1:0:0.1"), ("omega", ","), ("seeds", ",")):
        with pytest.raises(ConfigurationError, match=rf"\[sweep\] {key}: expected at least one value"):
            parse_scenario(f"[scenario]\nname = x\n[sweep]\n{key} = {raw}\n")
    cfg = tmp_path / "empty.cfg"
    cfg.write_text("[scenario]\nname = empty\n[sweep]\nomega = 1:0:0.1\n")
    assert run_cli("sweep", "--scenario", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert "[sweep] omega: expected at least one value" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


# -- snapshot format ------------------------------------------------------------


def test_snapshot_round_trip(tmp_path):
    grid = GridSpec(dim=1, points=64, length=20.0)
    state = perturbed_gaussians(grid, 3, seed=5)
    state = EnsembleState(grid, state.psi, time=1.25)
    path = tmp_path / "state.slw"
    write_snapshot(path, state)
    back = read_snapshot(path)
    assert back.grid == grid
    assert back.time == 1.25
    assert np.array_equal(back.psi, state.psi)
    # byte-stable: writing again produces the identical file
    path2 = tmp_path / "again.slw"
    write_snapshot(path2, back)
    assert path.read_bytes() == path2.read_bytes()


def test_snapshot_rejects_corruption(tmp_path):
    grid = GridSpec(dim=1, points=16, length=4.0)
    state = EnsembleState(grid, np.ones((2, 16)), 0.0)
    path = tmp_path / "state.slw"
    write_snapshot(path, state)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.slw"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ConfigurationError):
        read_snapshot(bad)
    truncated = tmp_path / "short.slw"
    truncated.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ConfigurationError):
        read_snapshot(truncated)


# -- CLI end to end --------------------------------------------------------------


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "case.cfg"
    path.write_text(BASE)
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_simulate_is_deterministic(tmp_path, scenario_file):
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert run_cli("simulate", "--scenario", scenario_file, "--out", str(a)) == 0
    assert run_cli("simulate", "--scenario", scenario_file, "--out", str(b)) == 0
    names = sorted(os.listdir(a))
    assert names == [
        "diagnostics.csv",
        "diagnostics.ndjson",
        "final.slw",
        "manifest.cfg",
        "summary.json",
    ]
    for name in names:
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


@pytest.mark.parametrize("cfg", [pytest.param(None, id="base"), *shipped("solver")])
def test_manifest_reproduces_run(tmp_path, scenario_file, cfg):
    # byte determinism on the dense-output scenarios: a simulate run replayed
    # from the manifest.cfg it wrote must write the same files. critical_pair's
    # 40 000 pair steps in 1001 samples are above the thresholds at which a
    # span run of a pair steps its D in a forked child while it forms fields
    # and records (on two CPUs or more), and no child may be left
    assert_replays(tmp_path, "simulate", cfg or scenario_file)


def test_overrides_land_in_manifest(tmp_path, scenario_file):
    out = tmp_path / "o"
    assert (
        run_cli(
            "simulate", "--scenario", scenario_file, "--out", str(out),
            "--seed", "99", "--t-end", "0.5", "--format", "ndjson",
        )
        == 0
    )
    sc = load_scenario(out / "manifest.cfg")
    assert sc.seed == 99
    assert sc.solver.t_end == 0.5
    assert sc.outputs.formats == ("ndjson",)
    assert not (out / "diagnostics.csv").exists()


def test_one_simulate_writes_both_formats_as_separate_runs_do(tmp_path, scenario_file):
    both = tmp_path / "both"
    assert run_cli("simulate", "--scenario", scenario_file, "--out", str(both)) == 0
    for fmt in ("ndjson", "csv"):
        alone = tmp_path / fmt
        argv = ("--scenario", scenario_file, "--out", str(alone), "--format", fmt)
        assert run_cli("simulate", *argv) == 0
        name = f"diagnostics.{fmt}"
        assert (both / name).read_bytes() == (alone / name).read_bytes(), name


def test_ode_tanh_csv(tmp_path):
    cfg = tmp_path / "tanh.cfg"
    cfg.write_text(
        "[scenario]\nname = tanh\n[model]\nn = 2\ncoupling = 2.0\n"
        "frequencies = 0.0, 0.0\n[ode]\nsystem = two\nz0 = 0+0j\n"
        "dt = 0.001\nt_end = 3.0\nsample_stride = 100\n"
        "[outputs]\nformats = csv\n"
    )
    out = tmp_path / "o"
    assert run_cli("ode", "--scenario", str(cfg), "--out", str(out)) == 0
    with open(out / "correlations.csv") as fh:
        rows = list(csv.DictReader(fh))
    t = np.array([float(r["t"]) for r in rows])
    r01 = np.array([float(r["r_0_1"]) for r in rows])
    s01 = np.array([float(r["s_0_1"]) for r in rows])
    assert float(np.max(np.abs(r01 - np.tanh(t)))) <= 1e-10
    assert float(np.max(np.abs(s01))) <= 1e-12


def test_oracle_artifacts(tmp_path, scenario_file):
    out = tmp_path / "o"
    assert run_cli("oracle", "--scenario", scenario_file, "--out", str(out)) == 0
    doc = json.loads((out / "oracle.json").read_text())
    assert doc["regime"]["regime"] == "underdamped_sync"
    assert doc["regime"]["lam"] == pytest.approx(0.75)
    assert doc["limits"]["rate"] == pytest.approx(0.6614378277661477)
    assert (out / "z_exact.ndjson").exists()
    first = json.loads((out / "z_exact.ndjson").read_text().splitlines()[0])
    assert first["r"][0][1] == pytest.approx(0.2)
    assert first["s"][0][1] == pytest.approx(0.1)


@pytest.mark.parametrize(
    "old, new",
    [
        ("dt = 0.001", "dt = 0"),
        ("dt = 0.001", "dt = -0.01"),
        ("sample_stride = 40", "sample_stride = 0"),
    ],
    ids=["dt_zero", "dt_negative", "stride_zero"],
)
def test_oracle_rejects_a_bad_ode_window(tmp_path, capsys, old, new):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(BASE.replace(old, new))
    out = tmp_path / "o"
    assert run_cli("oracle", "--scenario", str(cfg), "--out", str(out)) == 2
    assert "[ode] " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("dt, t_end", [(0.6, 1.0), (0.001, 2.0), (0.3, 0.9)])
def test_oracle_times_increase_to_t_end(tmp_path, dt, t_end):
    cfg = tmp_path / "window.cfg"
    window = f"dt = {dt}\nt_end = {t_end}\nsample_stride = 1"
    cfg.write_text(BASE.replace("dt = 0.001\nt_end = 2.0\nsample_stride = 40", window))
    out = tmp_path / "o"
    assert run_cli("oracle", "--scenario", str(cfg), "--out", str(out)) == 0
    lines = (out / "z_exact.ndjson").read_text().splitlines()
    times = np.array([json.loads(line)["t"] for line in lines])
    assert np.all(np.diff(times) > 0.0)
    assert times[-1] == t_end


@pytest.mark.parametrize("threads", ["0", "-2"])
def test_threads_below_one_is_rejected(tmp_path, capsys, scenario_file, threads):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        run_cli("sweep", "--scenario", scenario_file, "--out", str(out), "--threads", threads)
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "verify", "ode", "oracle", "sweep"])
def test_threads_takes_only_one(tmp_path, capsys, command):
    # no subcommand runs workers; the flag still parses 1
    cfg = tmp_path / "case.cfg"
    cfg.write_text(BASE + "[sweep]\nomega = 0.2\ndt = 0.01\nt_end = 1.0\n")
    out = tmp_path / "o"
    for threads in ("0", "-2", "2"):
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--scenario", str(cfg), "--out", str(out), "--threads", threads)
        assert exc.value.code == 2
        assert "argument --threads: invalid choice" in capsys.readouterr().err
        assert not out.exists()
    assert run_cli(command, "--scenario", str(cfg), "--out", str(out), "--threads", "1") == 0


@pytest.mark.parametrize("kind, key", [("cosine", "foo"), ("zero", "amplitude")])
def test_unknown_potential_parameter_is_rejected(tmp_path, capsys, kind, key):
    # potential.<name> keys are free-form at parse time; the builder decides
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(
        BASE.replace("coupling = 1.0\n", f"coupling = 1.0\npotential = {kind}\npotential.{key} = 1\n")
    )
    out = tmp_path / "o"
    assert run_cli("simulate", "--scenario", str(cfg), "--out", str(out)) == 2
    assert f"potential {kind!r} takes no parameter {key}" in capsys.readouterr().err
    assert not out.exists()


def test_verify_pass_and_fail(tmp_path, scenario_file):
    out = tmp_path / "ok"
    assert run_cli("verify", "--scenario", scenario_file, "--out", str(out)) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["passed"] and len(report["checks"]) == 2

    strict = tmp_path / "strict.cfg"
    strict.write_text(BASE.replace("two_exact:1e-4", "two_exact:1e-18"))
    assert run_cli("verify", "--scenario", str(strict), "--out", str(tmp_path / "f")) == 1
    report = json.loads((tmp_path / "f" / "report.json").read_text())
    assert not report["passed"]


def test_sweep_csv(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "[scenario]\nname = sw\nseed = 1\n[sweep]\ncoupling = 1.0\n"
        "omega = 0.2, 0.8\nn = 2\nseeds = 1\nmode = ode\ndt = 0.001\nt_end = 6.0\n"
    )
    out = tmp_path / "o"
    assert run_cli("sweep", "--scenario", str(cfg), "--out", str(out)) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["regime"] for r in rows] == ["underdamped_sync", "periodic"]
    assert all(r["status"] == "ok" for r in rows)
    assert float(rows[0]["lam"]) == pytest.approx(0.4)


def _sweep_rows(tmp_path, tag, sweep_body):
    cfg = tmp_path / f"{tag}.cfg"
    cfg.write_text(f"[scenario]\nname = {tag}\n[sweep]\nmode = ode\n{sweep_body}")
    assert run_cli("sweep", "--scenario", str(cfg), "--out", str(tmp_path / tag)) == 0
    return (tmp_path / tag / "sweep.csv").read_text().splitlines()[1:]


@pytest.mark.parametrize(
    "couplings, t_end",
    [(None, "2.0"), (None, "2.005"), (("1.0", "400.0"), "2.0")],
    ids=["2.0", "2.005", "coupling_axis"],
)
def test_ode_sweep_batches_like_single_cells(tmp_path, couplings, t_end):
    # ode cells of one n go to integrate_batch together; each row must be
    # the one a sweep of that cell alone writes, including the n = 3,
    # omega != 0 cell, at t_end = 2.005 the rows of a t_end that is no
    # multiple of dt, and at K = 400 (K dt = 4, outside RK4's stability
    # region) the rows of cells that diverge while the others run on
    timing = f"dt = 0.01\nt_end = {t_end}\n"
    axis = "" if couplings is None else f"coupling = {', '.join(couplings)}\n"
    body = f"{axis}omega = 0.0, 0.3\nn = 2, 3\nseeds = 1, 4\n{timing}"
    with np.errstate(over="ignore", invalid="ignore"):
        rows = _sweep_rows(tmp_path, "all", body)
        alone = [
            row
            for k in couplings or (None,)
            for omega in ("0.0", "0.3")
            for n in (2, 3)
            for seed in (1, 4)
            for row in _sweep_rows(
                tmp_path,
                f"k{k}w{omega}n{n}s{seed}",
                ("" if k is None else f"coupling = {k}\n")
                + f"omega = {omega}\nn = {n}\nseeds = {seed}\n{timing}",
            )
        ]
    assert rows == alone
    statuses = [row.split(",")[4] for row in rows]
    if t_end == "2.0":
        expected = ["ok"] * 6 + ["config_error"] * 2
        assert all("need omega = 0" in row for row in rows[6:8])
    else:
        expected = ["config_error"] * 8
        assert sum("not an integer multiple of dt" in row for row in rows) == 6
    if couplings is not None:
        # every cell at K = 400 that can run diverges
        expected += ["divergence"] * 6 + ["config_error"] * 2
    assert statuses == expected
    # a diverging row names the step its solo integrate("full") run stops at
    for row in rows[8:14]:
        _, omega, n, seed = (float(v) for v in row.split(",")[:4])
        z0 = random_correlation_matrix(int(n), int(seed), coherence=0.5)
        frequencies = (omega, -omega) if n == 2 else (omega,) * 3
        config = ModelConfig(coupling=400.0, frequencies=frequencies)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
            integrate("full", z0, config, 0.01, 2.0)
        step = err.value.step_index
        assert row.endswith(f"non-finite values at step {step} (t = {step * 0.01:g})")


def test_diverging_ode_sweep_cells_print_no_runtime_warning(tmp_path):
    # at K = 400 (K dt = 4) both cells diverge: the n = 2 one in the scalar
    # pair loop, the n = 3 one in the stacked RK4, whose overflow on the way
    # there must not reach stderr; the rows still name the divergence step
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(
        "[scenario]\nname = diverge\nseed = 1\n[sweep]\ncoupling = 1.0, 400.0\n"
        "omega = 0.0\nn = 2, 3\nseeds = 0\nmode = ode\ndt = 0.01\nt_end = 1.0\n"
    )
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, "-W", "default", "-m", "lohe_sync", "sweep"]
    done = subprocess.run(
        argv + ["--scenario", str(cfg), "--out", str(out)], capture_output=True, text=True, env=env
    )
    assert done.returncode == 0, done.stderr
    assert "RuntimeWarning" not in done.stderr
    with open(out / "sweep.csv") as fh:
        rows = [(r["status"], r["detail"]) for r in csv.DictReader(fh)]
    message = "correlation integration produced non-finite values at step {} (t = 0.0{})"
    assert rows == [
        ("ok", ""),
        ("ok", ""),
        ("divergence", message.format(6, 6)),
        ("divergence", message.format(7, 7)),
    ]


def test_pde_sweep_builds_the_scenario_ensemble(tmp_path):
    # gaussian_pair always builds two fields, so an n = 3 cell cannot run;
    # 60 steps give enough samples that only the ensemble can fail the cell
    cfg = tmp_path / "sweep_pde.cfg"
    cfg.write_text(
        "[scenario]\nname = swp\n[grid]\npoints = 64\n[initial]\nkind = gaussian_pair\n"
        "[sweep]\ncoupling = 1.0\nomega = 0.0\nn = 3\nseeds = 0\nmode = pde\n"
        "dt = 0.01\nt_end = 0.6\n"
    )
    out = tmp_path / "o"
    assert run_cli("sweep", "--scenario", str(cfg), "--out", str(out)) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["config_error"]
    assert "3 frequencies but the ensemble has 2 fields" in rows[0]["detail"]


def test_pde_sweep_cell_is_its_own_scenario(tmp_path):
    # a pde cell is the sweep's scenario with the cell's n, seed, coupling and
    # frequencies, perturbed_gaussians for want of an [initial], and a
    # [solver] of [sweep]'s dt and t_end at the sweep's stride (100 steps: 1);
    # simulate on that scenario, written out here, must report what the row does
    sections = "[grid]\npoints = 64\n[model]\n{model}potential = cosine\n"
    cfg = tmp_path / "cells.cfg"
    cfg.write_text(
        "[scenario]\nname = cells\nseed = 2\n" + sections.format(model="")
        + "[sweep]\ncoupling = 1.5\nomega = 0.0, 0.3\nn = 2, 3\nseeds = 4\nmode = pde\n"
        "dt = 0.01\nt_end = 1.0\n"
    )
    assert run_cli("sweep", "--scenario", str(cfg), "--out", str(tmp_path / "sweep")) == 0
    with open(tmp_path / "sweep" / "sweep.csv") as fh:
        rows = {(r["omega"], r["n"]): r for r in csv.DictReader(fh)}
    for omega, n, frequencies in (("0.3", "2", "0.3, -0.3"), ("0.0", "3", "0.0, 0.0, 0.0")):
        row = rows[omega, n]
        assert row["status"] == "ok"
        cell = tmp_path / f"cell{n}.cfg"
        model = f"n = {n}\ncoupling = 1.5\nfrequencies = {frequencies}\n"
        cell.write_text(
            "[scenario]\nname = cell\nseed = 4\n" + sections.format(model=model)
            + "[initial]\nkind = perturbed_gaussians\n"
            "[solver]\ndt = 0.01\nt_end = 1.0\nsnapshot_stride = 1\n"
        )
        out = tmp_path / f"cell{n}"
        assert run_cli("simulate", "--scenario", str(cell), "--out", str(out)) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert row["classification"] == summary["classification"]["kind"]
        # the row reads ||zeta|| of the unit-normalized correlations, the
        # summary of the fields: they differ by at most max | ||psi_j|| - 1 |
        final = summary["final"]
        gap = abs(float(row["zeta_norm_final"]) - final["zeta_norm"])
        assert gap <= final["mass_drift_max"] + 1e-15, (gap, final["mass_drift_max"])


def test_pde_sweep_honours_solver(tmp_path):
    # full_rk4 at dt = 0.1 leaves the RK4 stability region on this grid, so
    # only a cell that runs the [solver] scheme diverges, and it warns first
    cfg = tmp_path / "sweep_solver.cfg"
    cfg.write_text(
        "[scenario]\nname = sws\n[grid]\npoints = 64\n"
        "[solver]\nscheme = full_rk4\ndt = 0.1\nt_end = 5.0\n"
        "[sweep]\ncoupling = 1.0\nomega = 0.0\nn = 2\nseeds = 0\nmode = pde\n"
        "dt = 0.1\nt_end = 5.0\n"
    )
    out = tmp_path / "o"
    with pytest.warns(UserWarning, match="advisory bound"):
        assert run_cli("sweep", "--scenario", str(cfg), "--out", str(out)) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["divergence"]
    assert "solver diverged at step 11" in rows[0]["detail"]


def test_pde_sweep_rejects_zero_dt_per_cell(tmp_path):
    cfg = tmp_path / "sweep_dt0.cfg"
    cfg.write_text(
        "[scenario]\nname = dt0\n[grid]\npoints = 64\n"
        "[sweep]\ncoupling = 1.0\nomega = 0.0, 0.1\nn = 2\nseeds = 0\nmode = pde\n"
        "dt = 0\nt_end = 1.0\n"
    )
    out = tmp_path / "o"
    assert run_cli("sweep", "--scenario", str(cfg), "--out", str(out)) == 0
    with open(out / "sweep.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["status"] for r in rows] == ["config_error"] * 2
    assert all("dt must be positive" in r["detail"] for r in rows)


def test_simulate_t_end_zero(tmp_path):
    cfg = tmp_path / "frozen.cfg"
    cfg.write_text(
        "[scenario]\nname = frozen\n[grid]\npoints = 64\n[model]\nn = 2\n"
        "coupling = 1.0\n[initial]\nkind = gaussian_pair\n"
        "[solver]\ndt = 0.001\nt_end = 0.0\n"
    )
    out = tmp_path / "o"
    assert run_cli("simulate", "--scenario", str(cfg), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["samples"] == 1
    assert summary["final"]["t"] == 0.0


def test_identical_fields_classify_instantly(tmp_path):
    cfg = tmp_path / "ident.cfg"
    cfg.write_text(
        "[scenario]\nname = ident\nseed = 4\n[grid]\npoints = 64\n[model]\nn = 3\n"
        "coupling = 1.0\n[initial]\nkind = perturbed_gaussians\nepsilon = 0.0\n"
        "[solver]\ndt = 0.001\nt_end = 0.0\n"
    )
    out = tmp_path / "o"
    assert run_cli("simulate", "--scenario", str(cfg), "--out", str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["classification"]["kind"] == "phase_sync"
    assert summary["classification"]["evidence"]["instantaneous"] is True


def test_exit_codes(tmp_path, scenario_file):
    assert run_cli("simulate", "--scenario", str(tmp_path / "nope.cfg")) == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nname = bad\n[model]\ncoupling = -1\n" + BASE.split("[model]")[0])
    assert run_cli("oracle", "--scenario", str(bad), "--out", str(tmp_path / "x")) == 2

    blow = tmp_path / "blow.cfg"
    blow.write_text(
        "[scenario]\nname = blow\n[grid]\npoints = 256\n[model]\nn = 2\ncoupling = 1.0\n"
        "[initial]\nkind = gaussian_pair\n[solver]\nscheme = full_rk4\n"
        "dt = 0.05\nt_end = 10.0\n"
    )
    with pytest.warns(UserWarning):
        assert run_cli("simulate", "--scenario", str(blow), "--out", str(tmp_path / "y")) == 3


def test_env_var_output_root(tmp_path, scenario_file, monkeypatch):
    monkeypatch.setenv("LOHE_SYNC_OUT", str(tmp_path / "root"))
    assert run_cli("oracle", "--scenario", scenario_file) == 0
    (made,) = os.listdir(tmp_path / "root")
    assert made.startswith("roundtrip-")


def test_snapshot_feeds_back_as_initial(tmp_path, scenario_file):
    out = tmp_path / "a"
    assert run_cli("simulate", "--scenario", scenario_file, "--out", str(out)) == 0
    cont = tmp_path / "cont.cfg"
    cont.write_text(
        "[scenario]\nname = cont\n[grid]\npoints = 64\nlength = 20.0\n"
        "[model]\nn = 2\ncoupling = 1.0\nlam = 0.75\n"
        f"[initial]\nkind = snapshot\npath = {out / 'final.slw'}\n"
        "[solver]\ndt = 0.002\nt_end = 0.1\n"
    )
    assert run_cli("simulate", "--scenario", str(cont), "--out", str(tmp_path / "b")) == 0
    summary = json.loads((tmp_path / "b" / "summary.json").read_text())
    # the snapshot carries its own clock; the run continues from t = 1.0
    assert summary["final"]["t"] == pytest.approx(1.1)


_DIVERGING_TRIPLE = (
    "[scenario]\nname = diverge\n[grid]\npoints = 64\n[model]\nn = 3\ncoupling = 1000.0\n"
    "[initial]\nkind = perturbed_gaussians\n[solver]\ndt = 0.01\nt_end = 1.0\n"
    "[outputs]\nformats = ndjson, csv\nfinal_snapshot = true\n"
)


def test_diverging_simulate_keeps_its_finite_samples(tmp_path, capsys):
    # K dt = 10 leaves the RK4 stability region of the span coefficients at
    # step 2; the records are written as the run goes, so the run directory
    # holds the two finite samples, and no summary
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(_DIVERGING_TRIPLE)
    out = tmp_path / "o"
    with pytest.warns(UserWarning):
        assert run_cli("simulate", "--scenario", str(cfg), "--out", str(out)) == 3
    assert capsys.readouterr().err == "numerical divergence: solver diverged at step 2 (t = 0.02)\n"
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "diagnostics.ndjson", "manifest.cfg"]
    lines = (out / "diagnostics.ndjson").read_text().splitlines()
    assert [json.loads(line)["t"] for line in lines] == [0.0, 0.01]
    with open(out / "diagnostics.csv") as fh:
        assert [row["t"] for row in csv.DictReader(fh)] == ["0.0", "0.01"]
    assert load_scenario(str(out / "manifest.cfg")) == load_scenario(str(cfg))


@pytest.mark.parametrize("points", [64, 1024])
def test_divergence_inside_a_record_block_keeps_every_finite_sample(tmp_path, capsys, points):
    # records are made a block of samples at a time: 64 samples of a 64-point
    # pair fit one block and 4 of a 1024-point pair do, so the blow-up at
    # step 6 lands inside the first block on 64 points and inside the second
    # on 1024; both runs keep the 6 finite samples
    assert _RECORD_BLOCK_BYTES // (2 * 16 * points) in (64, 4)
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(
        f"[scenario]\nname = diverge\n[grid]\npoints = {points}\n[model]\nn = 2\n"
        "coupling = 300.0\n[initial]\nkind = perturbed_gaussians\n"
        "[solver]\ndt = 0.01\nt_end = 1.0\n[outputs]\nformats = ndjson, csv\n"
    )
    out = tmp_path / "o"
    with pytest.warns(UserWarning):
        assert run_cli("simulate", "--scenario", str(cfg), "--out", str(out)) == 3
    assert capsys.readouterr().err == "numerical divergence: solver diverged at step 6 (t = 0.06)\n"
    times = [0.0, 0.01, 0.02, 0.03, 0.04, 0.05]
    lines = (out / "diagnostics.ndjson").read_text().splitlines()
    assert [json.loads(line)["t"] for line in lines] == times
    with open(out / "diagnostics.csv") as fh:
        assert [float(row["t"]) for row in csv.DictReader(fh)] == times

    sc = load_scenario(str(cfg))
    grid = build_grid(sc)
    config = build_model(sc, grid)
    with pytest.warns(UserWarning), pytest.raises(DivergenceError) as err:
        evolve(build_ensemble(sc, grid), config, sc.solver)
    partial = err.value.partial
    assert list(partial.times) == times
    assert [rec.time for rec in partial.diagnostics_stream] == times
    for state, rec in zip(partial.states, partial.diagnostics_stream):
        assert np.array_equal(rec.pair_l2, compute_record(state, config).pair_l2)


def test_record_block_that_fails_its_checks_keeps_the_samples_before_it():
    # a zero field has no normalized correlations, so the record checks
    # refuse it; the block is redone a sample at a time, so the two samples
    # before it come out with their records, as when each was made alone
    grid = GridSpec(dim=1, points=64, length=20.0)
    initial = gaussian_pair(grid)
    config = ModelConfig(coupling=1.0, frequencies=(0.1, -0.1))
    states = list(samples(initial, config, SolverParams(dt=0.01, t_end=0.04)))
    states[2] = EnsembleState(grid, np.zeros_like(initial.psi), states[2].time)
    made = []
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
        ConfigurationError, match="z must be finite"
    ):
        for state, record in with_records(iter(states), config):
            made.append((state, record))
    assert [state.time for state, _ in made] == [0.0, 0.01]
    for state, record in made:
        assert np.array_equal(record.pair_l2, compute_record(state, config).pair_l2)


@pytest.mark.parametrize("scheme", ["span", "strang_rk4"])
def test_sample_whose_gram_matrix_overflows_is_a_divergence(tmp_path, capsys, scheme):
    # at K = 1000 the pair's fields at t = 0.02 are finite but so large that
    # their squared norms overflow: the run diverged there, and the two
    # samples before it are written
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text(
        "[scenario]\nname = overflow\nseed = 1\n[grid]\npoints = 64\n[model]\nn = 2\n"
        "coupling = 1000.0\n[initial]\nkind = perturbed_gaussians\n"
        f"[solver]\ndt = 0.01\nt_end = 1.0\nscheme = {scheme}\n[outputs]\nformats = ndjson, csv\n"
    )
    out = tmp_path / "o"
    with pytest.warns(UserWarning):
        assert run_cli("simulate", "--scenario", str(cfg), "--out", str(out)) == 3
    assert capsys.readouterr().err == "numerical divergence: solver diverged at step 2 (t = 0.02)\n"
    lines = (out / "diagnostics.ndjson").read_text().splitlines()
    assert [json.loads(line)["t"] for line in lines] == [0.0, 0.01]
    with open(out / "diagnostics.csv") as fh:
        assert [row["t"] for row in csv.DictReader(fh)] == ["0.0", "0.01"]


# simulate with every diagnostics file rendered in a forked child
_WITH_RENDER_CHILD = (
    "import sys\nimport lohe_sync.emit\nfrom lohe_sync.cli import main\n"
    "lohe_sync.emit._RENDER_CHILD_NUMBERS = 0\nsys.exit(main(sys.argv[1:]))\n"
)


def _simulate_with_render_child(cfg, out):
    # the captured pipes stay open while any process holding them runs, so
    # a render child left behind would hang this call into its timeout
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    argv = [sys.executable, "-c", _WITH_RENDER_CHILD, "simulate", "--scenario", str(cfg)]
    return subprocess.run(
        argv + ["--out", str(out)], env=env, capture_output=True, text=True, timeout=120
    )


def test_simulate_with_render_child_writes_the_same_files(tmp_path, scenario_file):
    child = _simulate_with_render_child(scenario_file, tmp_path / "child")
    assert child.returncode == 0, child.stderr
    assert run_cli("simulate", "--scenario", scenario_file, "--out", str(tmp_path / "o")) == 0
    assert_same_files(tmp_path / "child", tmp_path / "o")


def test_diverging_simulate_with_render_child_keeps_its_finite_samples(
    tmp_path, capsys, monkeypatch
):
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(_DIVERGING_TRIPLE)
    message = "numerical divergence: solver diverged at step 2 (t = 0.02)\n"
    for out, threshold in (("child", 0), ("o", emit_module._RENDER_CHILD_NUMBERS)):
        monkeypatch.setattr(emit_module, "_RENDER_CHILD_NUMBERS", threshold)
        with pytest.warns(UserWarning):
            assert run_cli("simulate", "--scenario", str(cfg), "--out", str(tmp_path / out)) == 3
        assert capsys.readouterr().err == message
        with pytest.raises(ChildProcessError):  # no child left, running or unreaped
            os.waitpid(-1, os.WNOHANG)
    assert_same_files(tmp_path / "child", tmp_path / "o")
    lines = (tmp_path / "child" / "diagnostics.ndjson").read_text().splitlines()
    assert [json.loads(line)["t"] for line in lines] == [0.0, 0.01]


_DIVERGING_PAIR = (
    _DIVERGING_TRIPLE.replace("n = 3", "n = 2").replace("t_end = 1.0", "t_end = 2.0")
    + "[verify]\nchecks = mass:1e-9\n"
)


@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_cli_with_a_stepping_child_writes_the_same_files_and_leaves_none(
    tmp_path, scenario_file, capsys, monkeypatch, command
):
    diverging = tmp_path / "diverge.cfg"
    diverging.write_text(_DIVERGING_PAIR)
    runs = {}
    for side in ("in_process", "child"):
        if side == "child":
            forks = force_step_child(monkeypatch)
        for name, cfg in (("ok", scenario_file), ("diverge", str(diverging))):
            out = tmp_path / side / name
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                code = run_cli(command, "--scenario", cfg, "--out", str(out))
            runs[side, name] = code, capsys.readouterr()
            assert_no_child_left()
    assert len(forks) == 2
    # verify reports the divergence as a failed check
    expected = [0, 3 if command == "simulate" else 1]
    assert [runs["child", name][0] for name in ("ok", "diverge")] == expected
    for name in ("ok", "diverge"):
        child, in_process = runs["child", name], runs["in_process", name]
        assert child[0] == in_process[0]
        assert child[1].err == in_process[1].err
        moved = child[1].out.replace(str(tmp_path / "child"), str(tmp_path / "in_process"))
        assert moved == in_process[1].out
        assert_same_files(tmp_path / "child" / name, tmp_path / "in_process" / name)


def test_cli_whose_stepping_child_fails_exits_with_its_error(
    tmp_path, scenario_file, capsys, monkeypatch
):
    def failing(stepper, params, fd):
        raise ConfigurationError("the stepping child failed")

    force_step_child(monkeypatch)
    monkeypatch.setattr(solver_module, "_step_child", failing)
    assert run_cli("simulate", "--scenario", scenario_file, "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == "error: the stepping child failed\n"
    assert_no_child_left()


def test_simulate_whose_render_child_fails_exits_with_its_error(tmp_path, scenario_file):
    out = tmp_path / "o"
    os.makedirs(out / "diagnostics.csv")
    run = _simulate_with_render_child(scenario_file, out)
    assert run.returncode == 1
    assert "IsADirectoryError" in run.stderr and "diagnostics.csv" in run.stderr
    assert not (out / "summary.json").exists()


def _finite_numbers(value):
    """Whether every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or np.isfinite(value)


@pytest.mark.parametrize(
    "dim, coupling, seed, kept, message",
    [
        (1, 296.2, 1, 9, "solver diverged at step 9 (t = 0.09)"),
        (1, 359.1, 1, 5, "solver diverged at step 5 (t = 0.05)"),
        (2, 386.5, 2, 3, "the diagnostics record at step 3 (t = 0.03) is not finite"),
    ],
    ids=["1d_296", "1d_359", "2d_386"],
)
def test_diverging_run_whose_records_overflow_exits_3(
    tmp_path, capsys, dim, coupling, seed, kept, message
):
    # the Madelung current norm was the sqrt of summed squared current
    # differences, quartic in the fields, so it overflowed a sample or more
    # before the fields' squared norms did and the writer refused the inf
    # (exit 2). In 1-D it is |dj| now and the run diverges in the solver;
    # in 2-D the sample's non-finite record is the divergence. Either way
    # the finite records are kept, no summary is written, and the error names
    # the step of the first sample that was not kept
    cfg = tmp_path / "diverge.cfg"
    cfg.write_text(
        f"[scenario]\nname = diverge\nseed = {seed}\n[grid]\ndim = {dim}\n"
        f"points = {64 if dim == 1 else 16}\nlength = 20.0\n[model]\nn = 2\n"
        f"coupling = {coupling}\n[initial]\nkind = perturbed_gaussians\n[solver]\n"
        "dt = 0.01\nt_end = 2.0\nsnapshot_stride = 1\n[outputs]\nformats = ndjson, csv\n"
    )
    out = tmp_path / "o"
    with pytest.warns(UserWarning):
        assert run_cli("simulate", "--scenario", str(cfg), "--out", str(out)) == 3
    assert capsys.readouterr().err == f"numerical divergence: {message}\n"
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "diagnostics.ndjson", "manifest.cfg"]
    records = [json.loads(line) for line in (out / "diagnostics.ndjson").read_text().splitlines()]
    assert [rec["t"] for rec in records] == [0.01 * i for i in range(kept)]
    assert all(_finite_numbers(rec) for rec in records)
    with open(out / "diagnostics.csv") as fh:
        assert [float(row["t"]) for row in csv.DictReader(fh)] == [rec["t"] for rec in records]
    sc = load_scenario(cfg)
    grid = build_grid(sc)
    with pytest.warns(UserWarning), pytest.raises(DivergenceError) as err:
        evolve(build_ensemble(sc, grid), build_model(sc, grid), sc.solver)
    assert err.value.step_index == kept
    assert err.value.partial.n_samples == kept


FLAT_10 = """\
[scenario]
name = flat
seed = 3
[grid]
points = 4096
length = 40.0
[model]
n = 4
coupling = 1.0
[initial]
kind = perturbed_gaussians
[solver]
dt = 0.01
t_end = 2.0
snapshot_stride = 10
[outputs]
formats = ndjson, csv
[verify]
checks = mass:1e-9, order_identity:1e-10
"""

PAIR_10 = """\
[scenario]
name = pair
seed = 3
[grid]
points = 256
length = 20.0
[model]
n = 2
coupling = 1.0
lam = 0.75
[initial]
kind = perturbed_gaussians
[solver]
dt = 0.01
t_end = 10.0
snapshot_stride = 10
[outputs]
formats = ndjson, csv
[verify]
checks = mass:1e-9, order_identity:1e-10
"""


def test_simulate_memory_is_flat_in_the_sample_count(tmp_path):
    # 10 and 100 samples of the same 99 steps: simulate keeps a few numbers
    # per sample, far less than one sample's fields (2 x 4096 complex)
    import tracemalloc

    def run(command, text, out):
        cfg = tmp_path / "flat.cfg"
        cfg.write_text(text)
        assert run_cli(command, "--scenario", str(cfg), "--out", str(tmp_path / out)) == 0

    def peak(command, text, out):
        tracemalloc.start()
        try:
            run(command, text, out)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    flat = (
        "[scenario]\nname = flat\nseed = 5\n[grid]\npoints = 4096\nlength = 40.0\n"
        "[model]\nn = 2\ncoupling = 1.0\nlam = 0.5\n[initial]\nkind = perturbed_gaussians\n"
        "[solver]\ndt = 0.01\nt_end = 0.99\nsnapshot_stride = {stride}\n"
        "[outputs]\nformats = ndjson, csv\nfinal_snapshot = true\n"
    )
    run("simulate", flat.format(stride=11), "o11")  # caches and first-call allocations
    short = peak("simulate", flat.format(stride=11), "o11")
    long = peak("simulate", flat.format(stride=1), "o1")
    assert json.loads((tmp_path / "o1" / "summary.json").read_text())["samples"] == 100
    one_sample = 2 * 4096 * 16
    assert long - short < one_sample, (short, long)

    # simulate streams its samples: 201 samples of a 1-D/4096, N = 4 run
    # against 21 (a stored state is 256 kB, so 180 of them would add 46 MB).
    # Those samples make one-sample record blocks, so a 1-D/256, N = 2 run
    # (16-sample blocks) also runs 1001 samples against 101 (900 stored 8 kB
    # states would add 7 MB). verify keeps one record per sample, so either
    # command may grow by the extra samples' records, plus less than one
    # sample's fields. A record is weighed as a one-sample block makes it,
    # which holds at least a sample's share of a larger block
    for text in (FLAT_10, PAIR_10):
        dense = text.replace("snapshot_stride = 10", "snapshot_stride = 1")
        sc = parse_scenario(text)
        extra = parse_scenario(dense).solver.n_samples - sc.solver.n_samples
        grid = build_grid(sc)
        state, config = build_ensemble(sc, grid), build_model(sc, grid)
        compute_record(state, config)  # caches and first-call allocations
        tracemalloc.start()
        try:
            records = [compute_record(state, config) for _ in range(10)]
            bound = state.psi.nbytes + extra * tracemalloc.get_traced_memory()[0] / 10
        finally:
            tracemalloc.stop()
        del records
        for command in ("simulate", "verify"):
            run(command, text, f"{sc.name}-{command}-warm")
            short = peak(command, text, f"{sc.name}-{command}-10")
            long = peak(command, dense, f"{sc.name}-{command}-1")
            assert long - short < bound, (sc.name, command, short, long, bound)


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_command_line_pins_blas_to_one_thread_before_numpy_loads():
    # BLAS reads its thread count once, when numpy loads: the entry point
    # must have set it to 1 by then, whatever the caller asked for
    code = (
        "import os, sys\n"
        "seen = []\n"
        "def hook(event, args):\n"
        "    if event == 'import' and args[0] == 'numpy' and not seen:\n"
        f"        seen.append([os.environ.get(v) for v in {_BLAS_VARS!r}])\n"
        "sys.addaudithook(hook)\n"
        "from lohe_sync.__main__ import main\n"
        "try:\n"
        "    main(['simulate', '--help'])\n"
        "except SystemExit:\n"
        "    pass\n"
        "assert seen == [['1', '1', '1']], seen\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    env.update({var: "2" for var in _BLAS_VARS})
    subprocess.run([sys.executable, "-c", code], check=True, env=env, stdout=subprocess.DEVNULL)


BLAS_2D = """\
[scenario]
name = blas_2d
seed = 673916727
[grid]
dim = 2
points = 128
length = 20.0
[model]
n = 4
coupling = 1.0
[initial]
kind = perturbed_gaussians
epsilon = 0.25
[solver]
dt = 0.001
t_end = 0.1
snapshot_stride = 50
[outputs]
formats = ndjson
"""

BLAS_3D = """\
[scenario]
name = blas_3d
seed = 4
[grid]
dim = 3
points = 32
length = 12.0
[model]
n = 4
coupling = 1.0
[initial]
kind = perturbed_gaussians
epsilon = 0.25
[solver]
scheme = span
dt = 0.005
t_end = 0.5
snapshot_stride = 10
[outputs]
formats = ndjson, csv
"""


@pytest.mark.parametrize("text", [BLAS_2D, BLAS_3D], ids=["2d", "3d"])
def test_simulate_writes_the_same_bytes_at_1_and_2_blas_threads(tmp_path, text):
    # the command line runs BLAS on one thread whatever the environment
    # says, so a run's bytes do not depend on OPENBLAS_NUM_THREADS: a 2-D
    # 128^2 run shaped like the benchmark's pde_grid and a 3-D/32^3 span
    # run, whose matrix products are large enough for OpenBLAS to split
    # across two threads, must write the same files at 1 and 2 threads.
    # A fresh process each: the variable is read when numpy loads
    cfg = tmp_path / "blas.cfg"
    cfg.write_text(text)
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path), OPENBLAS_NUM_THREADS=threads)
        argv = [sys.executable, "-m", "lohe_sync", "simulate", "--scenario", str(cfg)]
        argv += ["--out", str(tmp_path / threads)]
        subprocess.run(argv, check=True, env=env, stdout=subprocess.DEVNULL, timeout=300)
    assert_same_files(tmp_path / "1", tmp_path / "2")


def test_cli_module_run_as_a_script_refuses():
    # python -m lohe_sync.cli has loaded numpy before it could pin BLAS
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run(
        [sys.executable, "-m", "lohe_sync.cli", "simulate"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 2
    assert "python -m lohe_sync" in done.stderr


@pytest.mark.parametrize(
    "command, body",
    [
        (
            "simulate",
            "[grid]\npoints = 64\n[initial]\nkind = gaussian_pair\n"
            "[solver]\ndt = 0.01\nt_end = 30.0\nsnapshot_stride = 10\n",
        ),
        ("ode", "[ode]\nsystem = two\nz0 = 0.2+0.1j\ndt = 0.01\nt_end = 30.0\nsample_stride = 10\n"),
    ],
    ids=["simulate", "ode"],
)
def test_sync_rate_fit_stops_above_roundoff(tmp_path, command, body):
    # a lam = 0 pair's squared distance falls to ~1e-13 by t = 30; a fit
    # that reaches those samples is off by ~1e-4, one that stops above
    # them recovers mu = K
    cfg = tmp_path / "fit.cfg"
    cfg.write_text("[scenario]\nname = fit\n[model]\nn = 2\ncoupling = 1.0\nlam = 0.0\n" + body)
    out = tmp_path / "o"
    assert run_cli(command, "--scenario", str(cfg), "--out", str(out)) == 0
    two = json.loads((out / "summary.json").read_text())["two_oscillator"]
    assert two["rate"] == 1.0
    assert abs(two["sync_rate_fitted"] - 1.0) <= 1e-6, two


def test_sweep_cell_synchronized_from_the_start_reports_no_rate(tmp_path):
    # two copies of one field: 1 - r sits at roundoff from t = 0, so there
    # is no decay to fit; the cell is ok and its rate is empty
    cfg = tmp_path / "same.cfg"
    cfg.write_text(
        "[scenario]\nname = same\n[grid]\npoints = 64\n"
        "[initial]\nkind = perturbed_gaussians\nepsilon = 0.0\n"
        "[sweep]\nmode = pde\nn = 2\nomega = 0.0\nt_end = 2.0\ndt = 0.01\n"
    )
    assert run_cli("sweep", "--scenario", str(cfg), "--out", str(tmp_path / "o")) == 0
    with open(tmp_path / "o" / "sweep.csv") as fh:
        (row,) = csv.DictReader(fh)
    assert (row["status"], row["classification"], row["rate_fitted"]) == ("ok", "phase_sync", "")


def test_uncentered_pair_reports_like_the_centered_one(tmp_path):
    # a mean detuning turns both fields by one common phase, so z_01, the
    # energies and every pair quantity match those of the centered pair
    runs = {}
    for tag, frequencies in (("centered", "0.1875, -0.1875"), ("shifted", "0.5, 0.125")):
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(
            f"[scenario]\nname = {tag}\n[grid]\npoints = 128\n"
            f"[model]\nn = 2\ncoupling = 1.0\nfrequencies = {frequencies}\n"
            "[initial]\nkind = gaussian_pair\n[solver]\nt_end = 10.0\nsnapshot_stride = 20\n"
        )
        out = tmp_path / tag
        assert run_cli("simulate", "--scenario", str(cfg), "--out", str(out)) == 0
        two = json.loads((out / "summary.json").read_text())["two_oscillator"]
        lines = (out / "diagnostics.ndjson").read_text().splitlines()
        runs[tag] = two, np.array([json.loads(line)["energy_diff_two"] for line in lines])
    (two, energy), (two_shifted, energy_shifted) = runs["centered"], runs["shifted"]
    assert two["regime"] == two_shifted["regime"] == "underdamped_sync"
    assert two.keys() == two_shifted.keys()
    for key in ("lam", "phi", "rate", "distance_limit", "distance_tail_measured", "sync_rate_fitted"):
        assert two_shifted[key] == pytest.approx(two[key], abs=1e-12), key
    assert len(energy) == len(energy_shifted) == 501
    assert energy[-1] > 1e-5
    assert float(np.max(np.abs(energy - energy_shifted))) <= 1e-12


OWN_FRAME = """\
[scenario]
name = own_frame
[model]
n = 2
coupling = 1.0
frequencies = -0.375, 0.375
[ode]
system = two
z0 = 0.2+0.1j
dt = 0.002
t_end = 40.0
sample_stride = 100
"""


def test_pair_listed_in_either_order_reports_like_its_twin(tmp_path):
    # (-Omega, Omega) is (Omega, -Omega) with its labels swapped, which
    # conjugates z_01; with the mirror-symmetric gaussian_pair and a
    # conjugated z0 the two runs are mirror images, so every check passes
    # for both with one value. Each regime is read in its own labels: Omega,
    # phi and the fixed points carry the sign of w0 - w1, so the oracle and
    # the summaries conjugate (negate) those between the twins, and agree on
    # everything else
    checks = "two_exact:1e-6, sync_rate:0.02, distance_limit:5e-3, pde_ode_closure:1e-6"
    reads = {}
    pairs = (("twin", "0.375, -0.375", "0.2+0.1j"), ("swapped", "-0.375, 0.375", "0.2-0.1j"))
    for tag, frequencies, z0 in pairs:
        text = (
            f"[scenario]\nname = pair\n[grid]\npoints = 128\n"
            f"[model]\nn = 2\ncoupling = 1.0\nfrequencies = {frequencies}\n"
            "[initial]\nkind = gaussian_pair\n[solver]\nt_end = 10.0\nsnapshot_stride = 20\n"
            f"[ode]\nsystem = two\nz0 = {z0}\nt_end = 20.0\nsample_stride = 20\n"
        )
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(text + f"[verify]\nchecks = {checks}\n")
        out = tmp_path / tag
        for command in ("verify", "oracle", "ode", "simulate"):
            assert run_cli(command, "--scenario", str(cfg), "--out", str(out / command)) == 0
        # the repelling point of z0 = unstable is the scenario's own
        unstable = tmp_path / f"{tag}-unstable.cfg"
        unstable.write_text(
            text.replace(f"z0 = {z0}", "z0 = unstable") + "[verify]\nchecks = stationary:1e-8\n"
        )
        assert run_cli("verify", "--scenario", str(unstable), "--out", str(out / "unstable")) == 0
        report = json.loads((out / "verify" / "report.json").read_text())
        lines = (out / "simulate" / "diagnostics.ndjson").read_text().splitlines()
        reads[tag] = {
            "measured": [check["measured"] for check in report["checks"]],
            "oracle": json.loads((out / "oracle" / "oracle.json").read_text()),
            "z_exact": [
                json.loads(line)
                for line in (out / "oracle" / "z_exact.ndjson").read_text().splitlines()
            ],
            "ode": json.loads((out / "ode" / "summary.json").read_text())["two_oscillator"],
            "simulate": json.loads((out / "simulate" / "summary.json").read_text())[
                "two_oscillator"
            ],
            "energy_diff_two": [json.loads(line)["energy_diff_two"] for line in lines],
        }
    twin, swapped = reads["twin"], reads["swapped"]
    mirrored = json.loads(json.dumps(twin["oracle"]))
    mirrored["omega"] = -0.375
    mirrored["regime"]["phi"] *= -1
    mirrored["limits"]["phase_offset"] *= -1
    for point in ("stable_point", "unstable_point"):
        mirrored["regime"][point]["im"] *= -1
    assert twin["oracle"]["omega"] == 0.375 and twin["oracle"]["regime"]["phi"] > 0
    assert swapped["oracle"] == mirrored
    # the closed form is written in the scenario's labels: z_01 conjugated
    assert len(swapped["z_exact"]) == len(twin["z_exact"]) > 1
    for a, b in zip(swapped["z_exact"], twin["z_exact"]):
        assert a["r"] == b["r"]
        assert a["s"] == [[-v for v in row] for row in b["s"]]
    assert swapped["measured"] == pytest.approx(twin["measured"], rel=1e-9, abs=1e-12)
    for level in ("ode", "simulate"):
        assert swapped[level].keys() == twin[level].keys()
        assert swapped[level]["phi"] == -twin[level]["phi"]
        for key, value in twin[level].items():
            if key != "phi":
                assert swapped[level][key] == pytest.approx(value, rel=1e-9), (level, key)
    assert None not in twin["energy_diff_two"]
    assert swapped["energy_diff_two"] == pytest.approx(twin["energy_diff_two"], abs=1e-12)
    # a pair listed as (w0, w1) = (-Omega, Omega) is read in its own labels:
    # the oracle's stable point is where the ode's z_01 ends up, in the lower
    # half plane, and phi < 0. The swapped twin's z_01 is still 1.8e-6 away
    # at t = 20, so this run goes on to t = 40
    cfg = tmp_path / "own_frame.cfg"
    cfg.write_text(OWN_FRAME)
    for command in ("oracle", "ode"):
        assert run_cli(command, "--scenario", str(cfg), "--out", str(tmp_path / command)) == 0
    regime = json.loads((tmp_path / "oracle" / "oracle.json").read_text())["regime"]
    final = json.loads((tmp_path / "ode" / "correlations.ndjson").read_text().splitlines()[-1])
    point = complex(regime["stable_point"]["re"], regime["stable_point"]["im"])
    z01 = complex(final["r"][0][1], final["s"][0][1])
    assert abs(point - z01) <= 1e-6, (point, z01)
    assert regime["phi"] < 0


def test_unstable_z0_needs_a_pair(tmp_path, capsys):
    cfg = tmp_path / "three.cfg"
    cfg.write_text(
        "[scenario]\nname = three\n[model]\nn = 3\ncoupling = 1.0\n"
        "[ode]\nsystem = two\nz0 = unstable\nt_end = 1.0\n[verify]\nchecks = stationary:1e-8\n"
    )
    assert run_cli("ode", "--scenario", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == "error: z0 = unstable needs n = 2, got n = 3\n"
    # verify reports the check it could not run, with the same reason
    assert run_cli("verify", "--scenario", str(cfg), "--out", str(tmp_path / "v")) == 1
    (check,) = json.loads((tmp_path / "v" / "report.json").read_text())["checks"]
    assert check["detail"] == "check could not run: z0 = unstable needs n = 2, got n = 3"


# -- scenario features that only the shipped scenarios reached ----------------


def test_simulate_without_diagnostics_writes_only_summary_and_snapshot(tmp_path):
    # diagnostics = false steps the run without records: the summary counts
    # its samples but classifies nothing, and the final fields are the ones
    # the recording run ends on
    text = (
        "[scenario]\nname = quiet\nseed = 3\n[grid]\npoints = 64\n"
        "[model]\nn = 3\ncoupling = 1.0\nfrequencies = 0.2, 0.0, -0.2\n"
        "[initial]\nkind = perturbed_gaussians\n"
        "[solver]\ndt = 0.01\nt_end = 0.5\nsnapshot_stride = 5\n"
        "[outputs]\nfinal_snapshot = true\n"
    )
    for diagnostics in ("true", "false"):
        cfg = tmp_path / f"{diagnostics}.cfg"
        cfg.write_text(text + f"diagnostics = {diagnostics}\n")
        assert run_cli("simulate", "--scenario", str(cfg), "--out", str(tmp_path / diagnostics)) == 0
    quiet = tmp_path / "false"
    assert sorted(os.listdir(quiet)) == ["final.slw", "manifest.cfg", "summary.json"]
    summary = json.loads((quiet / "summary.json").read_text())
    assert summary["samples"] == 11
    assert "classification" not in summary and "final" not in summary
    loud = tmp_path / "true"
    assert "classification" in json.loads((loud / "summary.json").read_text())
    assert (quiet / "final.slw").read_bytes() == (loud / "final.slw").read_bytes()
    assert read_snapshot(str(quiet / "final.slw")).time == pytest.approx(0.5)


def test_barrier_potential_scenario_verifies(tmp_path, capsys):
    text = (
        "[scenario]\nname = barrier\n[grid]\npoints = 64\n"
        "[model]\nn = 2\ncoupling = 1.0\nlam = 0.5\npotential = barrier\n"
        "potential.height = 0.5\npotential.width = {width}\n"
        "[initial]\nkind = gaussian_pair\n"
        "[solver]\ndt = 0.005\nt_end = 1.0\nsnapshot_stride = 10\n"
        "[verify]\nchecks = mass:1e-12, energy_decomposition:1e-12, pde_ode_closure:1e-9\n"
    )
    cfg = tmp_path / "barrier.cfg"
    cfg.write_text(text.format(width=1.5))
    assert run_cli("verify", "--scenario", str(cfg), "--out", str(tmp_path / "v")) == 0
    capsys.readouterr()
    cfg.write_text(text.format(width=0))
    for command in ("verify", "simulate"):
        assert run_cli(command, "--scenario", str(cfg), "--out", str(tmp_path / command)) == 2
        assert capsys.readouterr().err == "error: barrier width must be positive, got 0.0\n"


ODE_START = (
    "[scenario]\nname = start\nseed = 5\n[grid]\npoints = 64\n[model]\nn = 3\ncoupling = 1.0\n"
    "[ode]\nsystem = {system}\ndt = 0.01\nt_end = 1.0\nsample_stride = 10\n"
)


def _first_correlation(tmp_path, text, tag):
    cfg = tmp_path / f"{tag}.cfg"
    cfg.write_text(text)
    assert run_cli("ode", "--scenario", str(cfg), "--out", str(tmp_path / tag)) == 0
    first = json.loads((tmp_path / tag / "correlations.ndjson").read_text().splitlines()[0])
    return np.array(first["r"]) + 1j * np.array(first["s"]), load_scenario(str(cfg))


@pytest.mark.parametrize("system", ["full", "fg"])
def test_ode_starts_from_the_scenarios_gram_choice(tmp_path, system):
    # full and fg start from gram = ones, from gram = random at the scenario's
    # seed and coherence, or from the Gram matrix of the [initial] ensemble;
    # fg steps F = 1 - z but writes z0 itself as its first sample
    base = ODE_START.format(system=system)
    z, _ = _first_correlation(tmp_path, base + "gram = ones\n", "ones")
    assert np.array_equal(z, np.ones((3, 3)))
    z, _ = _first_correlation(tmp_path, base + "gram = random\ncoherence = 0.5\n", "random")
    assert np.array_equal(z, random_correlation_matrix(3, 5, coherence=0.5))
    assert np.max(np.abs(z - random_correlation_matrix(3, 5))) > 0.1
    text = base + "[initial]\nkind = perturbed_gaussians\n"
    z, sc = _first_correlation(tmp_path, text, "initial")
    gram = CorrelationState.from_ensemble(build_ensemble(sc, build_grid(sc))).z
    assert np.array_equal(z, gram)


def test_ode_refuses_a_full_start_it_cannot_build(tmp_path, capsys):
    cfg = tmp_path / "bare.cfg"
    cfg.write_text(ODE_START.format(system="full"))
    assert run_cli("ode", "--scenario", str(cfg), "--out", str(tmp_path / "o")) == 2
    assert capsys.readouterr().err == (
        "error: [ode] needs z0, gram, or an [initial] ensemble to start from\n"
    )


PAIR_ODE = (
    "[scenario]\nname = pair\n[model]\nn = 2\ncoupling = 1.0\nlam = {lam}\n"
    "[ode]\nsystem = two\nz0 = 0.2+0.1j\ndt = 0.002\nt_end = {t_end}\nsample_stride = 10\n"
)


def test_critical_pair_distance_limit_is_extrapolated(tmp_path):
    # at lam = 1 the pair distance approaches sqrt(2) like 1/t, so the check
    # extrapolates the tail instead of averaging it
    cfg = tmp_path / "critical.cfg"
    cfg.write_text(PAIR_ODE.format(lam=1.0, t_end=40.0) + "[verify]\nchecks = distance_limit:1e-3\n")
    assert run_cli("verify", "--scenario", str(cfg), "--out", str(tmp_path / "v")) == 0
    (check,) = json.loads((tmp_path / "v" / "report.json").read_text())["checks"]
    assert check["detail"] == "1/t extrapolation of the tail"
    assert check["expected"] == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert abs(check["measured"] - check["expected"]) <= 1e-3


def test_ode_summary_reports_the_period_and_the_richardson_error(tmp_path):
    cfg = tmp_path / "periodic.cfg"
    cfg.write_text(PAIR_ODE.format(lam=2.0, t_end=20.0) + "self_check = true\n")
    assert run_cli("ode", "--scenario", str(cfg), "--out", str(tmp_path / "o")) == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    two = summary["two_oscillator"]
    assert two["regime"] == "periodic"
    assert two["period_detected"] == pytest.approx(two["period"], rel=1e-3)
    config = ModelConfig(coupling=1.0, frequencies=(1.0, -1.0))
    series = integrate("two", 0.2 + 0.1j, config, 0.002, 20.0, sample_stride=10, self_check=True)
    assert summary["richardson_error"] == series.richardson_error
    assert 0.0 < summary["richardson_error"] < 1e-8
