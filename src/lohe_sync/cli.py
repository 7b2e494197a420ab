"""Batch command-line front door.

Subcommands:

  simulate   run the coupled PDE system from a scenario; writes diagnostics
             (ndjson/csv), an optional final snapshot, and a summary JSON
  ode        integrate a correlation-level system (full / two / fg)
  oracle     evaluate the closed-form two-oscillator layer for the scenario's
             parameters: regime record, limits, and an exact series when z0
             and a time window are given
  verify     run the scenario's [verify] checks and write a report; exits 1
             if any check fails
  sweep      grid over (coupling, omega, n, seed); one aggregated CSV row
             per run, sorted by the parameter tuple

Artifacts land under --out if given, otherwise under
$LOHE_SYNC_OUT (or ./runs) in a directory named <scenario>-<timestamp>.
File contents are byte-deterministic for a fixed scenario and seed; the
timestamp lives only in the default directory name. Every run writes
manifest.cfg, the resolved scenario, which can be fed back to --scenario to
reproduce the other artifacts byte for byte.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from contextlib import ExitStack, closing
from dataclasses import asdict, replace
from typing import NamedTuple

import numpy as np

from .core import ModelConfig
from .correlations import (
    CorrelationSeries,
    integrate_batch,
    pair_distance,
    random_correlation_matrix,
    step_count,
)
from .diagnostics import (
    CLASSIFY_MIN_SAMPLES,
    classify_correlation_sync,
    classify_sync,
    detect_period,
    fit_decay,
    tail_samples,
)
from .emit import dump_json, write_diagnostics_files, write_series, write_sweep_csv
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DivergenceError,
    LoheSyncError,
)
from .oracles import classify_pair, sync_distance_sq, sync_limits_two, z_exact
from .scenario import (
    Scenario,
    build_ensemble,
    build_grid,
    build_model,
    integrate_ode,
    load_scenario,
    render_scenario,
    resolved_frequencies,
)
from .snapshots import write_snapshot
from .solver import SolverParams, samples, with_records
from .verification import VerifyContext, run_checks

__all__ = ["main"]

# classification tolerance for summary reporting; verify checks carry their own
CLASSIFY_TOL = 1e-3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lohe-sync",
        description="Coupled Schrodinger oscillator simulator and verification harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run the PDE system from a scenario"),
        ("ode", "integrate a correlation-level system"),
        ("oracle", "evaluate the closed-form two-oscillator layer"),
        ("verify", "run the scenario's checks and report pass/fail"),
        ("sweep", "grid over parameters, one CSV row per run"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--scenario", required=True, help="scenario config file")
        cmd.add_argument("--out", help="output directory (default: per-run timestamped dir)")
        cmd.add_argument("--seed", type=int, help="override the scenario seed")
        cmd.add_argument("--dt", type=float, help="override the time step")
        cmd.add_argument("--t-end", type=float, dest="t_end", help="override the end time")
        cmd.add_argument(
            "--format",
            choices=("ndjson", "csv"),
            help="emit only this format, overriding [outputs]",
        )
        cmd.add_argument(
            "--threads", type=int, choices=(1,), help="only 1: no subcommand runs workers"
        )
    return parser


def _apply_overrides(sc: Scenario, args) -> Scenario:
    if args.seed is not None:
        sc = replace(sc, seed=args.seed)
    if args.dt is not None or args.t_end is not None:
        for section in ("solver", "ode", "sweep"):
            params = getattr(sc, section)
            if params is not None:
                params = replace(
                    params,
                    dt=args.dt if args.dt is not None else params.dt,
                    t_end=args.t_end if args.t_end is not None else params.t_end,
                )
                sc = replace(sc, **{section: params})
    if args.format is not None:
        sc = replace(sc, outputs=replace(sc.outputs, formats=(args.format,)))
    return sc


def _run_dir(args, name: str) -> str:
    if args.out:
        path = args.out
    else:
        root = os.environ.get("LOHE_SYNC_OUT", "runs")
        path = os.path.join(root, f"{name}-{time.strftime('%Y%m%d-%H%M%S')}")
    os.makedirs(path, exist_ok=True)
    return path


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _write_formats(run_dir: str, stem: str, formats, write, data) -> None:
    """<stem>.<format> for every requested format, all written by one
    write(handles, data) call."""
    with ExitStack() as stack:
        handles = {
            fmt: stack.enter_context(
                open(os.path.join(run_dir, f"{stem}.{fmt}"), "w", encoding="utf-8", newline="")
            )
            for fmt in dict.fromkeys(formats)
        }
        write(handles, data)


def _write_manifest(run_dir: str, sc: Scenario) -> None:
    _write(os.path.join(run_dir, "manifest.cfg"), render_scenario(sc))


def _instant_classification(pair_max: float, zeta_norm: float) -> dict:
    kind = "phase_sync" if pair_max <= CLASSIFY_TOL and abs(zeta_norm - 1.0) <= CLASSIFY_TOL else "none"
    return {
        "kind": kind,
        "evidence": {
            "instantaneous": True,
            "pair_distance_max": pair_max,
            "zeta_norm": zeta_norm,
        },
    }


def _two_oscillator_block(config: ModelConfig, times, pair_z) -> dict | None:
    """Regime record plus measured tail quantities for N = 2 runs."""
    if config.n_oscillators != 2 or config.coupling <= 0:
        return None
    regime = classify_pair(config.coupling, config.frequencies)
    block: dict = {
        "lam": regime.lam,
        "regime": regime.regime,
        "phi": regime.phi,
        "rate": regime.rate,
        "period": regime.period,
    }
    if regime.regime != "periodic":
        limits = sync_limits_two(regime)
        block["distance_limit"] = limits.distance_limit
        dist = pair_distance(pair_z)
        block["distance_tail_measured"] = float(dist[-tail_samples(len(dist)) :].mean())
        if regime.regime == "underdamped_sync" and len(times) >= 8:
            try:
                fit = fit_decay(times, sync_distance_sq(pair_z, regime.phi))
                block["sync_rate_fitted"] = fit.rate
                block["sync_rate_r_squared"] = fit.r_squared
            except LoheSyncError:
                block["sync_rate_fitted"] = None
    else:
        try:
            z = np.asarray(pair_z)
            block["period_detected"] = detect_period(np.asarray(times), np.abs(z - z[0]))
        except LoheSyncError:
            block["period_detected"] = None
    return block


class _Sample(NamedTuple):
    """What simulate's summary reads of one diagnostics record; classify_sync
    takes these in place of the records."""

    time: float
    pair_l2: np.ndarray
    zeta_norm: float
    z_01: complex


def cmd_simulate(sc: Scenario, args) -> int:
    if sc.solver is None:
        raise ConfigurationError("simulate needs a [solver] section")
    grid = build_grid(sc)
    config = build_model(sc, grid)
    initial = build_ensemble(sc, grid)
    stream = samples(initial, config, sc.solver)

    run_dir = _run_dir(args, sc.name)
    _write_manifest(run_dir, sc)

    # each record is written as the run makes it, then dropped; on divergence
    # the files keep the finite samples and no summary is written
    kept: list[_Sample] = []
    last: dict = {}  # the newest state and record

    def records():
        for state, rec in with_records(stream, config):
            last["state"], last["record"] = state, rec
            kept.append(_Sample(rec.time, rec.pair_l2, rec.zeta_norm, rec.z[0, 1]))
            yield rec

    # closed on the way out, so a stepping child never outlives the run
    with closing(stream):
        if sc.outputs.diagnostics:
            paths = {
                fmt: os.path.join(run_dir, f"diagnostics.{fmt}")
                for fmt in dict.fromkeys(sc.outputs.formats)
            }
            write_diagnostics_files(paths, records(), config.n_oscillators, sc.solver.n_samples)
            n_samples = len(kept)
        else:
            n_samples = 0
            for state in stream:
                n_samples += 1
            last["state"] = state
    if sc.outputs.final_snapshot:
        write_snapshot(os.path.join(run_dir, "final.slw"), last["state"])

    summary: dict = {
        "scenario": sc.name,
        "seed": sc.seed,
        "kind": "pde",
        "scheme": sc.solver.scheme,
        "grid": {"dim": grid.dim, "points": grid.points, "length": grid.length},
        "model": {
            "n": config.n_oscillators,
            "coupling": config.coupling,
            "frequencies": list(config.frequencies),
            "potential": sc.potential_kind,
        },
        "dt": sc.solver.dt,
        "t_end": sc.solver.t_end,
        "samples": n_samples,
    }
    if kept:
        final = last["record"]
        if len(kept) >= CLASSIFY_MIN_SAMPLES:
            result = classify_sync(kept, CLASSIFY_TOL)
            summary["classification"] = {"kind": result.kind, "evidence": result.evidence}
        else:
            summary["classification"] = _instant_classification(
                float(final.pair_l2.max()), final.zeta_norm
            )
        summary["final"] = {
            "t": final.time,
            "zeta_norm": final.zeta_norm,
            "pair_l2_max": float(final.pair_l2.max()),
            "mass_drift_max": float(np.max(np.abs(final.mass_drift))),
            "energy_total": final.energies.total,
            "energy_relative": final.energies.relative,
        }
        two = _two_oscillator_block(
            config,
            np.array([sample.time for sample in kept]),
            np.array([sample.z_01 for sample in kept]),
        )
        if two is not None:
            summary["two_oscillator"] = two
    _write(os.path.join(run_dir, "summary.json"), dump_json(summary))
    kind = summary.get("classification", {}).get("kind", "n/a")
    print(f"simulate: {sc.name} -> {run_dir} (classification: {kind})")
    return 0


def cmd_ode(sc: Scenario, args) -> int:
    if sc.ode is None:
        raise ConfigurationError("ode needs an [ode] section")
    grid_free_config = ModelConfig(coupling=sc.coupling, frequencies=resolved_frequencies(sc))
    series = integrate_ode(sc, grid_free_config)

    run_dir = _run_dir(args, sc.name)
    _write_manifest(run_dir, sc)
    _write_formats(run_dir, "correlations", sc.outputs.formats, write_series, series)

    summary: dict = {
        "scenario": sc.name,
        "seed": sc.seed,
        "kind": "ode",
        "system": sc.ode.system,
        "model": {
            "n": series.n_oscillators,
            "coupling": sc.coupling,
            "frequencies": list(grid_free_config.frequencies),
        },
        "dt": sc.ode.dt,
        "t_end": sc.ode.t_end,
        "samples": len(series.times),
    }
    if series.richardson_error is not None:
        summary["richardson_error"] = series.richardson_error
    if len(series.times) >= CLASSIFY_MIN_SAMPLES:
        result = classify_correlation_sync(series, CLASSIFY_TOL)
        summary["classification"] = {"kind": result.kind, "evidence": result.evidence}
    else:
        iu = np.triu_indices(series.n_oscillators, k=1)
        dist = pair_distance(series.z[-1])
        summary["classification"] = _instant_classification(
            float(dist[iu].max()) if iu[0].size else 0.0,
            float(np.sqrt(max(0.0, series.zeta_norm_sq[-1]))),
        )
    summary["lyapunov_final"] = float(series.lyapunov[-1])
    summary["lyapunov_monotone"] = bool(np.all(np.diff(series.lyapunov) <= 1e-12))
    two = _two_oscillator_block(grid_free_config, series.times, series.z[:, 0, 1])
    if two is not None:
        summary["two_oscillator"] = two
    _write(os.path.join(run_dir, "summary.json"), dump_json(summary))
    kind = summary["classification"]["kind"]
    print(f"ode: {sc.name} ({sc.ode.system}) -> {run_dir} (classification: {kind})")
    return 0


def cmd_oracle(sc: Scenario, args) -> int:
    freqs = resolved_frequencies(sc)
    if len(freqs) != 2:
        raise ConfigurationError("oracle evaluation is defined for n = 2")
    # unlike ode, oracle takes a t_end that is not a multiple of dt
    ode = sc.ode
    if ode is not None and not (
        0 < ode.dt < np.inf and 0 <= ode.t_end < np.inf and ode.sample_stride >= 1
    ):
        raise ConfigurationError(
            "[ode] needs a finite dt > 0 and t_end >= 0 and sample_stride >= 1, got "
            f"dt = {ode.dt!r}, t_end = {ode.t_end!r}, sample_stride = {ode.sample_stride}"
        )
    regime = classify_pair(sc.coupling, freqs)
    doc: dict = {
        "scenario": sc.name,
        "coupling": sc.coupling,
        "omega": regime.omega,
        "regime": {
            "lam": regime.lam,
            "regime": regime.regime,
            "phi": regime.phi,
            "rate": regime.rate,
            "period": regime.period,
            "stable_point": regime.stable_point,
            "unstable_point": regime.unstable_point,
        },
    }
    if regime.regime != "periodic":
        limits = sync_limits_two(regime)
        doc["limits"] = {
            "phase_offset": limits.phase_offset,
            "distance_limit": limits.distance_limit,
            "rate": limits.rate,
        }
    else:
        doc["limits"] = None

    run_dir = _run_dir(args, sc.name)
    _write_manifest(run_dir, sc)

    wrote_series = False
    if (
        sc.ode is not None
        and isinstance(sc.ode.z0, complex)
        and regime.regime != "periodic"
    ):
        # the whole steps inside [0, t_end], with step_count's tolerance, so
        # that t_end itself closes an increasing series
        ratio = sc.ode.t_end / sc.ode.dt
        steps = int(np.floor(ratio + 1e-6 * max(1.0, ratio)))
        times = np.minimum(np.arange(0, steps + 1) * sc.ode.dt, sc.ode.t_end)
        times = times[:: sc.ode.sample_stride]
        if times[-1] != sc.ode.t_end:
            times = np.append(times, sc.ode.t_end)
        series = CorrelationSeries.from_pair(times, z_exact(sc.ode.z0, times, regime))
        _write_formats(run_dir, "z_exact", sc.outputs.formats, write_series, series)
        wrote_series = True
    doc["series_written"] = wrote_series
    _write(os.path.join(run_dir, "oracle.json"), dump_json(doc))
    print(f"oracle: {sc.name} -> {run_dir} (regime: {regime.regime})")
    return 0


def cmd_verify(sc: Scenario, args) -> int:
    results = run_checks(sc)
    run_dir = _run_dir(args, sc.name)
    _write_manifest(run_dir, sc)
    report = {
        "scenario": sc.name,
        "passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
    _write(os.path.join(run_dir, "report.json"), dump_json(report))
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: measured={r.measured} expected={r.expected} tol={r.tol:g}")
    print(f"verify: {sc.name} -> {run_dir} ({'ok' if report['passed'] else 'FAILED'})")
    return 0 if report["passed"] else 1


def _cell_config(coupling: float, omega: float, n: int) -> ModelConfig:
    if n == 2:
        frequencies = (omega, -omega)
    elif omega == 0.0:
        frequencies = (0.0,) * n
    else:
        raise ConfigurationError("omega sweeps with n > 2 need omega = 0")
    return ModelConfig(coupling=coupling, frequencies=frequencies)


def _sweep_stride(sc: Scenario) -> int:
    """The sample stride of every sweep cell: about 200 samples a cell."""
    return max(1, step_count(sc.sweep.dt, sc.sweep.t_end) // 200)


def _ode_series(sc: Scenario, cells: list) -> list:
    """Correlation series, or the error that stops it, for each (coupling,
    omega, n, seed) cell of an ode sweep, from random_correlation_matrix(n,
    seed, coherence = 0.5). Cells that share n go to one integrate_batch
    call: n = 2 cells step one at a time through the scalar pair loop, and
    n >= 3 cells step as one stack."""
    dt, t_end = sc.sweep.dt, sc.sweep.t_end
    outcomes: list = [None] * len(cells)
    groups: dict = {}
    for i, (coupling, omega, n, seed) in enumerate(cells):
        try:
            groups.setdefault(n, []).append((i, _cell_config(coupling, omega, n), seed))
        except ConfigurationError as exc:
            outcomes[i] = exc
    for n, members in groups.items():
        z0s = [random_correlation_matrix(n, seed, coherence=0.5) for _, _, seed in members]
        try:
            configs = [config for _, config, _ in members]
            results = integrate_batch(z0s, configs, dt, t_end, sample_stride=_sweep_stride(sc))
        except ConfigurationError as exc:
            results = [exc] * len(members)
        for (i, _, _), result in zip(members, results):
            outcomes[i] = result
    return outcomes


def _pde_cell(sc: Scenario, coupling: float, omega: float, n: int, seed: int):
    """A pde cell's correlation series and classification, from verify's
    records loop on the cell's own scenario (see the scenario module)."""
    config = _cell_config(coupling, omega, n)
    dt, t_end = sc.sweep.dt, sc.sweep.t_end
    solver = replace(
        sc.solver or SolverParams(dt, t_end), dt=dt, t_end=t_end, snapshot_stride=_sweep_stride(sc)
    )
    cell = replace(sc, n=n, seed=seed, coupling=coupling, frequencies=config.frequencies, lam=None)
    kind = cell.initial_kind or "perturbed_gaussians"
    ctx = VerifyContext(replace(cell, initial_kind=kind, solver=solver, checks=()))
    return ctx.gram_series, classify_sync(ctx.trajectory.diagnostics_stream, CLASSIFY_TOL)


def _sweep_row(sc: Scenario, cell: tuple, series) -> dict:
    """One sweep row, for ode and pde cells alike, from the cell's correlation
    series and classification: an ode cell's series (or the error that
    stopped it) from _ode_series, a pde cell's (series None) from _pde_cell.
    zeta_norm_final is ||zeta|| of the unit-normalized correlations z, not
    simulate's final.zeta_norm of the fields; they differ by at most the
    run's mass drift."""
    coupling, omega, n, seed = cell
    row: dict = {
        "coupling": coupling,
        "omega": omega,
        "n": n,
        "seed": seed,
        "status": "ok",
        "detail": "",
    }
    try:
        if isinstance(series, LoheSyncError):
            raise series
        if series is None:
            series, result = _pde_cell(sc, *cell)
        else:
            result = classify_correlation_sync(series, CLASSIFY_TOL)
        row["classification"] = result.kind

        zeta_sq = series.zeta_norm_sq
        row["zeta_norm_final"] = float(np.sqrt(max(0.0, zeta_sq[-1])))
        iu = np.triu_indices(n, k=1)
        dist = pair_distance(series.z)
        tail = tail_samples(len(series.times))
        row["distance_tail"] = float(dist[-tail:, iu[0], iu[1]].max(axis=0).mean())

        if coupling > 0 and n == 2:
            regime = classify_pair(coupling, (omega, -omega))
            row["lam"] = regime.lam
            row["regime"] = regime.regime
            if regime.regime != "periodic":
                row["distance_limit"] = sync_limits_two(regime).distance_limit
        # the slowest pair sets the reported rate, expected >= coupling for
        # identical oscillators; none when a decay falls to fit_decay's
        # roundoff floor too soon to fit
        decays = []
        if result.kind == "phase_sync":
            decays = [1.0 - series.z.real[:, j, k] for j, k in zip(*iu)]
        elif row.get("regime") == "underdamped_sync":
            decays = [sync_distance_sq(series.z[:, 0, 1], regime.phi)]
        if decays:
            try:
                row["rate_fitted"] = min(fit_decay(series.times, y).rate for y in decays)
            except ContractViolationError:
                row["rate_fitted"] = None
    except DivergenceError as exc:
        row["status"] = "divergence"
        row["detail"] = str(exc)
        if sc.sweep.mode == "ode":  # a pde cell's solver message names its step
            row["detail"] += f" at step {exc.step_index} (t = {exc.time:g})"
    except LoheSyncError as exc:
        row["status"] = "config_error"
        row["detail"] = str(exc)
    return row


def cmd_sweep(sc: Scenario, args) -> int:
    if sc.sweep is None:
        raise ConfigurationError("sweep needs a [sweep] section")
    spec = sc.sweep
    cells = [
        (k, w, n, seed)
        for k in sorted(spec.coupling)
        for w in sorted(spec.omega)
        for n in sorted(spec.n)
        for seed in sorted(spec.seeds)
    ]
    series = _ode_series(sc, cells) if spec.mode == "ode" else [None] * len(cells)
    # the cells, and so the rows, are in the order of their parameter tuples
    rows = [_sweep_row(sc, cell, s) for cell, s in zip(cells, series)]

    run_dir = _run_dir(args, sc.name)
    _write_manifest(run_dir, sc)
    with open(os.path.join(run_dir, "sweep.csv"), "w", encoding="utf-8", newline="") as fh:
        write_sweep_csv(fh, rows)
    failures = sum(1 for r in rows if r["status"] != "ok")
    print(f"sweep: {sc.name} -> {run_dir} ({len(rows)} runs, {failures} failed)")
    return 0


_COMMANDS = {
    "simulate": cmd_simulate,
    "ode": cmd_ode,
    "oracle": cmd_oracle,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        sc = _apply_overrides(load_scenario(args.scenario), args)
        return _COMMANDS[args.command](sc, args)
    except (ConfigurationError, ContractViolationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"numerical divergence: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # numpy is loaded by now, too late to pin BLAS
    print("error: run the command line as `python -m lohe_sync` or `lohe-sync`", file=sys.stderr)
    sys.exit(2)
