"""Layer probes for the traced run: each layer's public functions called in
turn on the workload's own inputs, one span per call, reported as medians.

A workload without fields (ode_sweep) probes the field layers on the input
its pde-mode cells would use: 1-D/256, perturbed_gaussians, N = 2.
"""

from __future__ import annotations

import io
import statistics

import numpy as np

from lohe_sync.core import GridSpec, ModelConfig, gram_matrix
from lohe_sync.correlations import CorrelationState, integrate
from lohe_sync.diagnostics import classify_sync, compute_record
from lohe_sync.emit import write_diagnostics_csv, write_diagnostics_ndjson
from lohe_sync.initial_data import gaussian_pair, perturbed_gaussians
from lohe_sync.oracles import classify_two, z_exact
from lohe_sync.potentials import cosine_potential
from lohe_sync.scenario import build_ensemble, build_grid, build_model, load_scenario
from lohe_sync.solver import SolverParams, Trajectory, evolve

from setup_probe import build_inputs

PAIR = ModelConfig(coupling=1.0, frequencies=(0.375, -0.375))  # lam = 0.75
ODE_STEPS = 2000
EMIT_RECORDS = 20


def _median_call(tracer, name: str, layer: str, fn, repeats: int, inner: int = 1) -> float:
    """Median seconds of one fn() call, over `repeats` spans of `inner` calls."""
    durations = []
    for _ in range(repeats):
        with tracer.span(name, layer) as rec:
            for _ in range(inner):
                fn()
        durations.append((rec["end"] - rec["start"]) / inner)
    return statistics.median(durations)


def _fields(spec, sc):
    if sc.initial_kind is not None:
        grid = build_grid(sc)
        return grid, build_model(sc, grid), build_ensemble(sc, grid)
    grid = GridSpec(dim=1, points=256, length=20.0)
    return grid, PAIR, perturbed_gaussians(grid, 2, spec.sweep_seeds[0])


def probe_layers(spec, scenario_path: str, tracer) -> dict[str, float]:
    sc = load_scenario(scenario_path)
    grid, config, initial = _fields(spec, sc)
    n, m = initial.n_oscillators, grid.size
    out: dict[str, float] = {}

    out["scenario.load_ms"] = 1e3 * _median_call(
        tracer, "scenario.load_scenario", "scenario", lambda: load_scenario(scenario_path), 5)
    out["scenario.build_ms"] = 1e3 * _median_call(
        tracer, "scenario.build", "scenario", lambda: build_inputs(sc), 5)

    steps = int(np.clip(3e6 // (n * m), 20, 3000))
    params = SolverParams(dt=spec.dt, t_end=steps * spec.dt, snapshot_stride=steps)
    step_s = _median_call(
        tracer, "solver.evolve", "solver",
        lambda: evolve(initial, config, params, collect_diagnostics=False), 3) / steps
    out["solver.step_us"] = 1e6 * step_s
    out["solver.field_steps_per_s"] = n * m / step_s
    axes = tuple(range(1, grid.dim + 1))
    psi = initial.psi
    out["solver.fft_floor_us"] = 1e6 * _median_call(
        tracer, "numpy.fftn_ifftn", "solver",
        lambda: np.fft.ifftn(np.fft.fftn(psi, axes=axes), axes=axes), 5, inner=20)

    samples = spec.samples if spec.command != "sweep" else 201
    trajectory = Trajectory(np.arange(samples) * spec.dt, [initial] * samples)
    out["solver.gram_series_ms"] = 1e3 * _median_call(
        tracer, "solver.gram_series", "solver", trajectory.gram_series, 3)
    out["core.gram_us"] = 1e6 * _median_call(
        tracer, "core.gram_matrix", "core", lambda: gram_matrix(initial), 5, inner=20)

    record = compute_record(initial, config)
    out["diagnostics.record_ms"] = 1e3 * _median_call(
        tracer, "diagnostics.compute_record", "diagnostics",
        lambda: compute_record(initial, config), 5)
    out["diagnostics.classify_ms"] = 1e3 * _median_call(
        tracer, "diagnostics.classify_sync", "diagnostics",
        lambda: classify_sync([record] * max(samples, 50), 1e-3), 5)
    records = [record] * EMIT_RECORDS
    out["emit.ndjson_ms"] = 1e3 * _median_call(
        tracer, "emit.write_diagnostics_ndjson", "emit",
        lambda: write_diagnostics_ndjson(io.StringIO(), records), 5) / EMIT_RECORDS
    out["emit.csv_ms"] = 1e3 * _median_call(
        tracer, "emit.write_diagnostics_csv", "emit",
        lambda: write_diagnostics_csv(io.StringIO(), records), 5) / EMIT_RECORDS

    z0 = CorrelationState.from_ensemble(initial)
    t_end = ODE_STEPS * spec.dt
    out["correlations.step_us"] = 1e6 * _median_call(
        tracer, "correlations.integrate_full", "correlations",
        lambda: integrate("full", z0, config, spec.dt, t_end, sample_stride=20), 3) / ODE_STEPS
    out["correlations.cell_steps_per_s"] = 1e6 / out["correlations.step_us"]
    out["correlations.two_step_us"] = 1e6 * _median_call(
        tracer, "correlations.integrate_two", "correlations",
        lambda: integrate("two", 0.3 + 0.2j, PAIR, spec.dt, t_end, sample_stride=20), 3) / ODE_STEPS

    regime = classify_two(PAIR.coupling, 0.375)
    times = np.arange(samples) * spec.dt * spec.stride
    out["oracles.z_exact_us"] = 1e6 * _median_call(
        tracer, "oracles.z_exact", "oracles", lambda: z_exact(0.3 + 0.2j, times, regime), 5,
        inner=20)
    out["oracles.classify_two_us"] = 1e6 * _median_call(
        tracer, "oracles.classify_two", "oracles", lambda: classify_two(1.0, 0.375), 5,
        inner=200)
    return out


def temporal_order(tracer, scheme: str) -> float:
    """Measured order of a scheme: 1-D/128, cosine potential, detuned kicked
    pair, t = 2, each run against the same scheme at dt = 2.5e-4. Returns
    log2 of the error ratio between dt = 2e-3 and dt = 1e-3."""
    grid = GridSpec(dim=1, points=128, length=20.0)
    config = ModelConfig(coupling=1.0, frequencies=(0.375, -0.375),
                         potential=cosine_potential(grid))
    initial = gaussian_pair(grid, separation=2.0, sigma=1.5, momentum_kick=1.0)

    def final(dt: float) -> np.ndarray:
        params = SolverParams(dt=dt, t_end=2.0, scheme=scheme, snapshot_stride=round(2.0 / dt))
        with tracer.span(f"solver.evolve[{scheme},dt={dt:g}]", "solver"):
            return evolve(initial, config, params, collect_diagnostics=False).final.psi

    ref = final(2.5e-4)
    coarse, fine = (float(np.max(np.abs(final(dt) - ref))) for dt in (2e-3, 1e-3))
    return float(np.log2(coarse / fine))
