#!/usr/bin/env python3
"""lohe-sync benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload pde_grid --seed 1 --seconds 15 --trace 0

Run from anywhere; the repository root is this file's parent directory, and
the program under test is its src/lohe_sync, run from source. A run

  1. writes the workload's scenario for --seed (bench/out/<run>/scenario.cfg,
     replayable with `python -m lohe_sync <subcommand> --scenario ...`);
  2. for --seconds, runs the real CLI subcommand in a fresh process, one
     after another (a closed loop with one client), checking every output;
  3. times set-up: a fresh process that imports lohe_sync, loads the
     scenario and builds the inputs, SETUP_REPEATS times before the ops
     (after one warm-up) and once after each op;
  4. with --trace 1, also replays the subcommand after each of the first
     REPLAYS ops, in a fresh process that runs the CLI in-process with a span
     around every call into each layer; then probes each layer's public
     functions and measures the solver's temporal order.

Every metric is printed by name with its unit; the last stdout line is one
JSON object with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). Exit code 2 when src/lohe_sync is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

NPROC = len(os.sched_getaffinity(0))
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
REPLAYS = 3
CHILD_TIMEOUT_S = 60.0

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "scenario.load_ms": "ms",
    "scenario.build_ms": "ms",
    "solver.step_us": "us",
    "solver.field_steps_per_s": "1/s",
    "solver.fft_floor_us": "us",
    "solver.states_mb": "MB",
    "solver.gram_series_ms": "ms",
    "solver.order_strang_rk4": "order",
    "solver.order_full_rk4": "order",
    "core.gram_us": "us",
    "diagnostics.record_ms": "ms",
    "diagnostics.records": "count",
    "diagnostics.classify_ms": "ms",
    "emit.ndjson_ms": "ms",
    "emit.csv_ms": "ms",
    "emit.bytes": "bytes",
    "correlations.step_us": "us",
    "correlations.cell_steps_per_s": "1/s",
    "correlations.two_step_us": "us",
    "oracles.z_exact_us": "us",
    "oracles.classify_two_us": "us",
    "verification.checks": "count",
    "verification.checks_failed": "count",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    **{f"{layer}.share": "ratio" for layer in LAYERS},
}


class Launcher:
    """Runs `python args...` from the repository root through launcher.py,
    which is started before this process loads numpy (see launcher.py)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)

    def run(self, args: list, log_path: Path) -> tuple[float, float, int, str]:
        """(wall seconds, peak RSS of that one process in MB, exit code, output)."""
        env = dict(os.environ, PYTHONPATH=str(SRC))  # BLAS caps set by main()
        # import from bytecode caches, as an installed package does, whatever
        # the caller's setting; the set-up warm-up writes them
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        request = {"argv": [sys.executable, *map(str, args)], "cwd": str(ROOT), "env": env,
                   "log": str(log_path), "timeout": CHILD_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the process launcher exited")
        r = json.loads(reply)
        return r["wall"], r["rss_mb"], r["code"], log_path.read_text(encoding="utf-8")


def cli_args(spec, scenario: Path, out_dir: Path) -> list:
    return [spec.command, "--scenario", scenario, "--out", out_dir, "--threads", "1"]


def emitted(out_dir: Path) -> tuple[int, int]:
    """(bytes written, diagnostics records written), both counted."""
    files = [p for p in out_dir.iterdir() if p.is_file()] if out_dir.is_dir() else []
    records = 0
    if (out_dir / "diagnostics.ndjson").is_file():
        with open(out_dir / "diagnostics.ndjson", encoding="utf-8") as fh:
            records = sum(1 for _ in fh)
    return sum(p.stat().st_size for p in files), records


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    return f"n={len(values)} q1={q1:.6g} q3={q3:.6g} min={min(values):.6g} max={max(values):.6g}"


def context() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    src_lines = 0
    for path in sorted((SRC / "lohe_sync").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "machine": f"{platform.machine()} {cpu}",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": NPROC,
        "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
        "src_lines": src_lines,
    }


def measure(launch: Launcher, spec, scenario: Path, run_dir: Path, seconds: float,
            replays: Replays | None = None) -> dict:
    """CLI ops for `seconds`, every output checked. A set-up probe follows
    each op, and with tracing a replay too, so that set-up samples and
    replays cover the same stretch of time as the ops; the replays' time is
    added to the window."""
    from checks import check_op

    log = run_dir / "child.log"
    probe = [BENCH / "setup_probe.py", scenario]

    def setup() -> float:
        wall, _, code, text = launch.run(probe, log)
        if code != 0:
            raise RuntimeError(f"set-up probe failed:\n{text}")
        return wall

    setup()  # warm-up: bytecode and file caches
    setups = [setup() for _ in range(SETUP_REPEATS)]
    walls, rss, problems = [], [], []
    attempted = failed = emitted_bytes = records = 0
    op_dir = run_dir / "op"
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        shutil.rmtree(op_dir, ignore_errors=True)
        wall, peak, code, text = launch.run(["-m", "lohe_sync", *cli_args(spec, scenario, op_dir)], log)
        a, f, why = check_op(spec, str(op_dir), code, text)
        attempted, failed = attempted + a, failed + f
        problems += why
        walls.append(wall)
        rss.append(peak)
        emitted_bytes, records = emitted(op_dir)
        shutil.rmtree(op_dir, ignore_errors=True)
        setups.append(setup())
        if replays is not None and len(replays.runs) < REPLAYS:
            started = time.perf_counter()
            replays.run_one()
            deadline += time.perf_counter() - started
    return {
        "setups": setups, "walls": walls, "rss": rss, "attempted": attempted,
        "failed": failed, "problems": problems, "emitted_bytes": emitted_bytes,
        "records": records,
    }


class Replays:
    """Traced replays of the workload's subcommand (replay.py), each in a
    fresh process, with their outputs checked like any op."""

    def __init__(self, launch: Launcher, spec, scenario: Path, run_dir: Path):
        self.launch, self.spec, self.scenario, self.run_dir = launch, spec, scenario, run_dir
        self.runs: list[dict] = []
        self.spans: dict[str, list] = {}
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def run_one(self) -> None:
        from checks import check_op
        from tracing import self_times, totals

        out_dir = self.run_dir / "replay"
        shutil.rmtree(out_dir, ignore_errors=True)
        spans_path = self.run_dir / "spans-replay.json"
        wall, _, code, text = self.launch.run(
            [BENCH / "replay.py", spans_path, *cli_args(self.spec, self.scenario, out_dir)],
            self.run_dir / "replay.log")
        a, f, why = check_op(self.spec, str(out_dir), code, text)
        self.attempted, self.failed = self.attempted + a, self.failed + f
        self.problems += why
        spans = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        self.spans[f"replay{len(self.runs)}"] = spans
        layer_s = self_times(spans)
        layer_s["cli"] = wall - sum(v for k, v in layer_s.items() if k != "cli")
        checks = []
        if self.spec.command == "verify" and code == 0:
            checks = json.loads((out_dir / "report.json").read_text(encoding="utf-8"))["checks"]
        self.runs.append({
            "wall": wall,
            "layer_s": layer_s,
            "records": totals(spans, "diagnostics.compute_record")[0],
            "run_checks_s": totals(spans, "verification.run_checks")[1],
            "bytes": emitted(out_dir)[0],
            "checks": len(checks),
            "checks_failed": sum(1 for c in checks if not c["passed"]),
        })
        shutil.rmtree(out_dir, ignore_errors=True)


def traced(replays: Replays, wall_s: float) -> dict:
    """Per-layer metrics: the replays' spans, layer probes, temporal order."""
    import probes
    from tracing import Tracer

    while len(replays.runs) < REPLAYS:
        replays.run_one()
    runs, spec = replays.runs, replays.spec

    def med(key):
        return statistics.median(r[key] for r in runs)

    def layer_med(layer, per=lambda r: 1.0):
        return statistics.median(r["layer_s"][layer] / per(r) for r in runs)

    traced_wall = med("wall")
    out = {f"{layer}.share": layer_med(layer, per=lambda r: r["wall"]) for layer in LAYERS}
    out["cli.self_s"] = wall_s - statistics.median(
        sum(v for k, v in r["layer_s"].items() if k != "cli") for r in runs)
    out["trace.overhead_s"] = traced_wall - wall_s
    out["diagnostics.records"] = med("records")
    out["emit.bytes"] = med("bytes")
    out["verification.checks"] = med("checks")
    out["verification.checks_failed"] = med("checks_failed")
    out["solver.states_mb"] = spec.trajectory_bytes / 1e6

    tracer = Tracer("probe")
    out.update(probes.probe_layers(spec, str(replays.scenario), tracer))
    order_tracer = Tracer("order")
    out["solver.order_strang_rk4"] = probes.temporal_order(order_tracer, "strang_rk4")
    out["solver.order_full_rk4"] = probes.temporal_order(order_tracer, "full_rk4")
    spans = {**replays.spans, "probe": tracer.spans, "order": order_tracer.spans}
    (replays.run_dir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")

    extra = {
        "traced_wall_s": traced_wall,
        "layer_self_s": {layer: layer_med(layer) for layer in LAYERS},
        "verification.run_checks_s": med("run_checks_s"),
    }
    return {"metrics": out, "extra": extra, "attempted": replays.attempted,
            "failed": replays.failed, "problems": replays.problems}


def counters(spec, m: dict) -> dict:
    """Work per op, each labelled as counted (from the outputs) or computed."""
    if spec.command == "simulate":
        records = (m["records"], "counted")
    else:
        records = (spec.samples if spec.command == "verify" else 0, "computed")
    return {
        "field_steps": (spec.field_steps, "computed"),
        "cell_steps": (spec.cell_steps, "computed"),
        "records": records,
        "emitted_bytes": (m["emitted_bytes"], "counted"),
        "trajectory_bytes": (spec.trajectory_bytes, "computed"),
    }


def main(argv=None) -> int:
    from workloads import NAMES, generate

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "lohe_sync" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'lohe_sync'} is missing", file=sys.stderr)
        return 2
    # before numpy loads here, and inherited by every child process
    os.environ.update({var: str(NPROC) for var in BLAS_VARS})
    sys.path.insert(0, str(SRC))

    with Launcher() as launch:
        return run(launch, generate(args.workload, args.seed), args)


def run(launch: Launcher, spec, args) -> int:
    from workloads import WHY

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    scenario = run_dir / "scenario.cfg"
    scenario.write_text(spec.text, encoding="utf-8")
    print(f"workload {args.workload} seed {args.seed}: lohe-sync {spec.command}, "
          f"scenario {scenario.relative_to(ROOT)}")
    print(f"why: {WHY[args.workload]}")
    ctx = context()
    for key, value in ctx.items():
        print(f"context {key}: {value}")

    replays = Replays(launch, spec, scenario, run_dir) if args.trace else None
    m = measure(launch, spec, scenario, run_dir, args.seconds, replays)
    wall_s = statistics.median(m["walls"])
    work = spec.cell_steps if spec.command == "sweep" else spec.field_steps
    e2e = {
        "wall_s": wall_s,
        "setup_s": statistics.median(m["setups"]),
        "steps_per_s": work / wall_s,
        "peak_rss_mb": statistics.median(m["rss"]),
    }
    print(f"wall_s = {wall_s:.6g} s  (median; {quartiles(m['walls'])})")
    print(f"setup_s = {e2e['setup_s']:.6g} s  (median; {quartiles(m['setups'])})")
    print(f"peak_rss_mb = {e2e['peak_rss_mb']:.6g} MB  (median; {quartiles(m['rss'])})")
    print(f"steps_per_s = {e2e['steps_per_s']:.6g} steps/s  "
          f"({'cell' if spec.command == 'sweep' else 'field'}-steps per wall second)")
    if spec.field_steps:
        print(f"field_steps_per_s = {spec.field_steps / wall_s:.6g} 1/s")
    if spec.cell_steps:
        print(f"cell_steps_per_s = {spec.cell_steps / wall_s:.6g} 1/s")
    work_done = counters(spec, m)
    for key, (value, how) in work_done.items():
        print(f"counter {key} = {value} count ({how}, per op)")

    attempted, failed, problems = m["attempted"], m["failed"], m["problems"]
    result = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "context": ctx, "end_to_end": e2e, "counters": work_done,
              "samples": {k: m[k] for k in ("walls", "setups", "rss")}}
    metrics, units = e2e, END_TO_END
    if args.trace:
        t = traced(replays, wall_s)
        attempted, failed, problems = (attempted + t["attempted"], failed + t["failed"],
                                       problems + t["problems"])
        metrics, units = t["metrics"], PER_LAYER
        for name, unit in PER_LAYER.items():
            print(f"{name} = {metrics[name]:.6g} {unit}")
        x = t["extra"]
        print(f"verification.run_checks_s = {x['verification.run_checks_s']:.6g} s")
        print(f"trace: traced wall {x['traced_wall_s']:.6g} s vs untraced wall_s {wall_s:.6g} s; "
              "layer self times (s): "
              + ", ".join(f"{k} {v:.4g}" for k, v in x["layer_self_s"].items()))
        result.update(per_layer=metrics, trace=x)
    print(f"ops = {attempted} count")
    print(f"ops_failed = {failed} count")
    for why in problems[:20]:
        print(f"FAILED CHECK: {why}")
    result.update(ops=attempted, ops_failed=failed, problems=problems)
    (run_dir / "results.json").write_text(json.dumps(result, indent=1), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
