"""Self-tests of the benchmark harness (not part of the tier-1 suite).

    python -m pytest -q bench/test_bench.py

The corrupted-output tests run each subcommand once and check that a
deliberately broken copy of its output is counted as failed. The smoke test
runs every workload at --seconds 1, untraced and traced, and checks that every
metric is printed with its unit and that no op fails. Takes about two minutes
on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from checks import check_op  # noqa: E402
from run import END_TO_END, PER_LAYER, Launcher, cli_args  # noqa: E402
from workloads import NAMES, generate  # noqa: E402

SCRATCH = BENCH / "out" / "selftest"
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _cli_output(workload: str) -> tuple:
    """Run the workload's subcommand once for seed 0; return (spec, dir, stdout)."""
    spec = generate(workload, 0)
    run_dir = SCRATCH / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    scenario = run_dir / "scenario.cfg"
    scenario.write_text(spec.text, encoding="utf-8")
    out = run_dir / "op"
    with Launcher() as launch:
        _, _, code, text = launch.run(["-m", "lohe_sync", *cli_args(spec, scenario, out)],
                                      run_dir / "log")
    assert code == 0, text
    assert check_op(spec, str(out), code, text) == (spec.cells, 0, [])
    return spec, out, text


def _rewrite(path: Path, edit) -> None:
    path.write_text(edit(path.read_text(encoding="utf-8")), encoding="utf-8")


def _edit_record(index: int, edit):
    def apply(text: str) -> str:
        lines = text.splitlines(keepends=True)
        rec = json.loads(lines[index])
        edit(rec)
        lines[index] = json.dumps(rec) + "\n"
        return "".join(lines)

    return apply


@pytest.fixture(scope="module")
def ensemble_output():
    return _cli_output("pde_ensemble")


@pytest.mark.parametrize("corruption", ["mass", "closure", "gram0", "truncated", "csv"])
def test_corrupted_simulate_output_counts_as_failed(ensemble_output, corruption):
    spec, out, text = ensemble_output
    bad = out.parent / f"bad-{corruption}"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(out, bad)
    ndjson = bad / "diagnostics.ndjson"
    if corruption == "mass":
        _rewrite(ndjson, _edit_record(3, lambda r: r["mass_drift"].__setitem__(0, 2e-9)))
    elif corruption == "closure":
        _rewrite(ndjson, _edit_record(-1, lambda r: r["r"][0].__setitem__(1, r["r"][0][1] + 1e-5)))
    elif corruption == "gram0":  # no longer Hermitian: the ODE refuses it
        _rewrite(ndjson, _edit_record(0, lambda r: r["s"][0].__setitem__(1, 0.5)))
    elif corruption == "truncated":
        _rewrite(ndjson, lambda t: "".join(t.splitlines(keepends=True)[:-1]))
    else:
        (bad / "diagnostics.csv").unlink()
    attempted, failed, problems = check_op(spec, str(bad), 0, text)
    assert (attempted, failed) == (1, 1) and problems


def test_failed_exit_code_counts_every_op_as_failed(ensemble_output):
    spec, out, text = ensemble_output
    assert check_op(spec, str(out), 3, text)[:2] == (1, 1)
    sweep = generate("ode_sweep", 0)
    assert check_op(sweep, str(out), 1, "")[:2] == (sweep.cells, sweep.cells)


def test_corrupted_verify_report_counts_as_failed():
    spec, out, text = _cli_output("verify_pair")

    def fail_one(doc: str) -> str:
        report = json.loads(doc)
        report["checks"][2]["passed"] = False
        return json.dumps(report)

    _rewrite(out / "report.json", fail_one)
    assert check_op(spec, str(out), 0, text)[:2] == (1, 1)


def test_corrupted_sweep_cell_counts_as_failed():
    spec, out, text = _cli_output("ode_sweep")
    _rewrite(out / "sweep.csv", lambda t: t.replace(",periodic,", ",critical,", 1))
    assert check_op(spec, str(out), 0, text)[:2] == (spec.cells, 1)


def test_generator_is_seeded():
    for name in NAMES:
        assert generate(name, 3).text == generate(name, 3).text
        assert generate(name, 3).text != generate(name, 4).text


def test_contract_matches_harness():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(NAMES)
    assert {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in CONTRACT["per_layer"]} == PER_LAYER


def test_refuses_to_run_without_the_program():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        [sys.executable, *CONTRACT["command"], "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# every metric the benchmark prints, per workload: name -> unit
PRINTED_METRICS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ops": "count",
                 "ops_failed": "count", "verification.run_checks_s": "s", **PER_LAYER}
THROUGHPUT = {"pde_grid": ["field_steps_per_s"], "pde_ensemble": ["field_steps_per_s"],
              "verify_pair": ["field_steps_per_s", "cell_steps_per_s"],
              "ode_sweep": ["cell_steps_per_s"]}


@pytest.mark.parametrize("workload", NAMES)
def test_smoke(workload):
    printed = {}
    for trace, units in ((0, END_TO_END), (1, PER_LAYER)):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
             "--seconds", "1", "--trace", str(trace)],
            capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        for line in lines[:-1]:
            name, sep, rest = line.partition(" = ")
            if sep:
                printed[name] = rest.split()[1]
    for name in THROUGHPUT[workload]:
        assert printed[name] == "1/s"
    for name, unit in PRINTED_METRICS.items():
        assert printed.get(name) == unit, name
    assert printed["ops_failed"] == "count"
