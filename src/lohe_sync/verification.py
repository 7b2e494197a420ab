"""Named cross-level verification checks behind the `verify` subcommand.

Each check compares a measured quantity from an actual run against an
independent reference: a conserved quantity, a closed form, a fitted rate
against the predicted contraction, or a classification against the regime
the parameters dictate. Checks are looked up by name from scenario
[verify] sections, so the set of names below is a stable interface:

  mass                   max |  ||psi_j|| - 1  | over the PDE run
  order_identity         residual of 1 - ||zeta||^2 = mean pair distance^2 / 2,
                         read from each record's zeta_norm and pair_l2
  energy_decomposition   residual of E = E_zeta + E_rel per sample
  pde_ode_closure        max |z_pde - z_ode| between measured and integrated
                         (the closure theorem on a grid scheme; under span,
                         which is built on the closure, the implementation)
  two_exact              max |z - z_exact| on PDE and/or ODE trajectories
  sync_rate              fitted rate of the squared sync distance vs
                         sqrt(K^2 - 4 Omega^2), relative tolerance
  distance_limit         tail pair distance vs 2 sin(phi/2) (1/t
                         extrapolation at the critical point)
  periodicity            detected period vs 2 pi / sqrt(4 Omega^2 - K^2)
  stationary             max |z(t) - z(0)| on the ODE trajectory
  lyapunov_monotone      largest uphill step of the Lyapunov series
  phase_sync / frequency_sync / no_sync
                         classification of the run matches the name
  scattering             ||exp(iHt) psi_1(t) - psi~|| decreasing, final <= tol

All checks return a CheckResult; nothing raises on a mere failure, so a
verify pass always produces a complete report. Every check but scattering
reads the PDE run's diagnostics records, so only scattering makes the run
keep its sampled fields. Its asymptotic profile, scattering_state, is built
here: it consumes a solver trajectory, but applies only exact linear
propagators to it.
"""

from __future__ import annotations

from contextlib import closing
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import ModelConfig, WaveField, mixing_flow
from .correlations import CorrelationSeries, integrate, pair_distance
from .diagnostics import (
    classify_correlation_sync,
    classify_sync,
    detect_period,
    fit_algebraic_limit,
    fit_decay,
    tail_samples,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    LoheSyncError,
    SeriesTooShortError,
    UnsupportedRegimeError,
)
from .oracles import classify_pair, sync_distance_sq, sync_limits_two, z_exact
from .scenario import Scenario, build_ensemble, build_grid, build_model, integrate_ode
from .solver import Trajectory, propagate_linear, samples, with_records

__all__ = [
    "CheckResult",
    "VerifyContext",
    "ScatteringResult",
    "run_checks",
    "scattering_state",
    "CHECK_NAMES",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: float | str | None
    expected: float | str | None
    tol: float
    detail: str = ""


# the checks that read the sampled fields; every other check reads records
_STATE_CHECKS = frozenset({"scattering"})


class VerifyContext:
    """Runs and caches whatever artifacts the selected checks need, on first
    use, so one scenario drives many checks without repeating the simulation.
    The PDE run (a pde sweep cell's too) keeps a diagnostics record per
    sample, and its states only when a requested check reads them."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.grid = build_grid(scenario)
        self.config: ModelConfig = build_model(scenario, self.grid)
        self.keep_states = any(name in _STATE_CHECKS for name, _ in scenario.checks)

    @cached_property
    def trajectory(self) -> Trajectory:
        if self.scenario.solver is None:
            raise ConfigurationError("this check needs a [solver] section (PDE run)")
        initial = build_ensemble(self.scenario, self.grid)
        states, records = [], []
        with closing(samples(initial, self.config, self.scenario.solver)) as stream:
            for state, record in with_records(stream, self.config):
                records.append(record)
                if self.keep_states:
                    states.append(state)
        return Trajectory(np.array([rec.time for rec in records]), states, records)

    @property
    def state_trajectory(self) -> Trajectory:
        """The PDE run with its states, for the checks in _STATE_CHECKS."""
        if not self.keep_states:
            raise ConfigurationError("this context keeps no states; no requested check reads them")
        return self.trajectory

    @cached_property
    def gram_series(self) -> CorrelationSeries:
        return self.trajectory.gram_series()

    @cached_property
    def ode_series(self) -> CorrelationSeries:
        if self.scenario.ode is None:
            raise ConfigurationError("this check needs an [ode] section")
        return integrate_ode(self.scenario, self.config)

    def pair_regime(self):
        """classify_pair of the scenario's pair, which describes its z_01."""
        w = self.config.frequencies
        if len(w) != 2:
            raise ConfigurationError("this check is defined for two oscillators")
        return classify_pair(self.config.coupling, w)

    def pair_z_series(self, prefer: str = "pde"):
        """(times, z_01) from whichever level the scenario runs.

        prefer="ode" flips the choice when both levels are configured; rate
        fits want the ODE series, whose tail is not polluted by the PDE
        splitting-error floor.
        """
        has_pde = self.scenario.solver is not None
        has_ode = self.scenario.ode is not None
        use_pde = has_pde and not (prefer == "ode" and has_ode)
        series = self.gram_series if use_pde else self.ode_series
        return series.times, series.z[:, 0, 1]


def _check_mass(ctx: VerifyContext, tol: float) -> CheckResult:
    drift = max(float(np.max(np.abs(r.mass_drift))) for r in ctx.trajectory.diagnostics_stream)
    return CheckResult("mass", drift <= tol, drift, 0.0, tol, "max | ||psi_j|| - 1 |")


def _check_order_identity(ctx: VerifyContext, tol: float) -> CheckResult:
    n = ctx.config.n_oscillators
    worst = max(
        abs(1.0 - r.zeta_norm**2 - float(np.sum(r.pair_l2**2)) / (2.0 * n * n))
        for r in ctx.trajectory.diagnostics_stream
    )
    return CheckResult(
        "order_identity", worst <= tol, worst, 0.0, tol, "1 - ||zeta||^2 vs mean pair distance"
    )


def _check_energy_decomposition(ctx: VerifyContext, tol: float) -> CheckResult:
    worst = 0.0
    for rec in ctx.trajectory.diagnostics_stream:
        en = rec.energies
        worst = max(worst, abs(en.total - (en.zeta_energy + en.relative)))
    return CheckResult(
        "energy_decomposition", worst <= tol, worst, 0.0, tol, "E - (E_zeta + E_rel)"
    )


def _check_pde_ode_closure(ctx: VerifyContext, tol: float) -> CheckResult:
    measured = ctx.gram_series
    params = ctx.scenario.solver
    ode = integrate(
        "full",
        measured.z[0],
        ctx.config,
        params.dt,
        params.t_end,
        sample_stride=params.snapshot_stride,
    )
    if len(ode.times) != len(measured.times):
        raise ConfigurationError("sampling mismatch between PDE and ODE series")
    err = float(np.max(np.abs(measured.z - ode.z)))
    return CheckResult("pde_ode_closure", err <= tol, err, 0.0, tol, "max |z_pde - z_ode|")


def _check_two_exact(ctx: VerifyContext, tol: float) -> CheckResult:
    regime = ctx.pair_regime()
    runs = []
    if ctx.scenario.solver is not None:
        runs.append(ctx.gram_series)
    if ctx.scenario.ode is not None:
        runs.append(ctx.ode_series)
    if not runs:
        raise ConfigurationError("two_exact needs a [solver] or [ode] section")
    pairs = [(s.times, s.z[:, 0, 1]) for s in runs]
    err = max(float(np.max(np.abs(z - z_exact(z[0], times, regime)))) for times, z in pairs)
    return CheckResult("two_exact", err <= tol, err, 0.0, tol, "max |z - closed form|")


def _check_sync_rate(ctx: VerifyContext, tol: float) -> CheckResult:
    regime = ctx.pair_regime()
    if regime.regime != "underdamped_sync":
        raise ConfigurationError("sync_rate applies below the critical coupling ratio")
    times, z = ctx.pair_z_series(prefer="ode")
    fit = fit_decay(times, sync_distance_sq(z, regime.phi))
    rel = abs(fit.rate - regime.rate) / regime.rate
    return CheckResult(
        "sync_rate",
        rel <= tol,
        fit.rate,
        regime.rate,
        tol,
        f"relative error {rel:.3e}, r^2 = {fit.r_squared:.6f}",
    )


def _check_distance_limit(ctx: VerifyContext, tol: float) -> CheckResult:
    regime = ctx.pair_regime()
    limits = sync_limits_two(regime)
    times, z = ctx.pair_z_series()
    dist = pair_distance(z)
    if regime.regime == "critical":
        fitted = fit_algebraic_limit(times, dist)
        measured = fitted.limit
        how = "1/t extrapolation of the tail"
    else:
        measured = float(dist[-tail_samples(len(dist)) :].mean())
        how = "final-quarter mean"
    err = abs(measured - limits.distance_limit)
    return CheckResult(
        "distance_limit", err <= tol, measured, limits.distance_limit, tol, how
    )


def _check_periodicity(ctx: VerifyContext, tol: float) -> CheckResult:
    regime = ctx.pair_regime()
    if regime.regime != "periodic":
        raise ConfigurationError("periodicity applies to the lam > 1 regime")
    times, z = ctx.pair_z_series()
    period = detect_period(times, np.abs(z - z[0]))
    rel = abs(period - regime.period) / regime.period
    return CheckResult(
        "periodicity",
        rel <= tol,
        period,
        regime.period,
        tol,
        f"relative error {rel:.3e}",
    )


def _check_stationary(ctx: VerifyContext, tol: float) -> CheckResult:
    z = ctx.ode_series.z
    drift = float(np.max(np.abs(z - z[0])))
    return CheckResult("stationary", drift <= tol, drift, 0.0, tol, "max |z(t) - z(0)|")


def _check_lyapunov_monotone(ctx: VerifyContext, tol: float) -> CheckResult:
    series = ctx.ode_series if ctx.scenario.ode is not None else ctx.gram_series
    lyap = series.lyapunov
    worst = float(np.max(np.diff(lyap))) if len(lyap) > 1 else 0.0
    return CheckResult(
        "lyapunov_monotone", worst <= tol, worst, 0.0, tol, "largest uphill step"
    )


def _classification_of(ctx: VerifyContext, tol: float):
    if ctx.scenario.solver is not None:
        return classify_sync(ctx.trajectory.diagnostics_stream, tol)
    return classify_correlation_sync(ctx.ode_series, tol)


def _check_classified(ctx: VerifyContext, tol: float, expected: str, name: str) -> CheckResult:
    result = _classification_of(ctx, tol)
    return CheckResult(
        name,
        result.kind == expected,
        result.kind,
        expected,
        tol,
        f"tail from t = {result.evidence['tail_start_time']:g}",
    )


@dataclass(frozen=True)
class ScatteringResult:
    """Output of scattering_state: the asymptotic profile plus the error
    budget of the truncated time integral."""

    field: WaveField
    tail_bound: float
    rate: float
    final_integrand_norm: float


def scattering_state(
    trajectory: Trajectory,
    config: ModelConfig,
    oscillator: int,
    tail_tol: float = 1e-3,
) -> ScatteringResult:
    """Asymptotic free profile psi~ with psi_j(t) ~ exp(-iHt) psi~, H = -1/2 Lap + V.

    Duhamel gives psi~ = psi_j(0) + integral_0^inf exp(iHs) G(s) ds with
    G = -i Omega_j psi_j + (K/2)(zeta - <zeta, psi_j> psi_j), row j of the
    model's one coupling right-hand side (core.mixing_flow), and ||G(s)||
    decays like e^{-rate s} in the synchronizing regime. The integral is
    evaluated by composite trapezoid over the stored samples; a backward
    recursion applies exp(iHh) once per sample instead of building each
    exp(iHs_n) anew. The neglected tail is bounded by the measured final
    integrand norm divided by the contraction rate and must come in under
    tail_tol, otherwise the trajectory is too short to certify. The pair may
    be listed in either order, but must be centered.
    """
    if config.n_oscillators != 2:
        raise ContractViolationError("scattering profile is defined for the pair system")
    if oscillator not in (0, 1):
        raise ContractViolationError(f"oscillator index must be 0 or 1, got {oscillator}")
    w0, w1 = config.frequencies
    if abs(w0 + w1) > 1e-12 * max(abs(w0), abs(w1), 1.0):
        raise ContractViolationError(
            "scattering needs centered frequencies (w0 + w1 = 0): the pulled-back "
            "fields of an uncentered pair rotate and have no limit"
        )
    regime = classify_pair(config.coupling, config.frequencies)
    if regime.lam >= 1.0:
        raise UnsupportedRegimeError(
            f"scattering requires lam < 1 (exponential tail), got lam = {regime.lam}"
        )
    times = np.asarray(trajectory.times, dtype=float)
    if times.size < 2:
        raise SeriesTooShortError("trajectory has fewer than 2 samples")
    if abs(times[0]) > 1e-12:
        raise ContractViolationError("trajectory must start at t = 0")
    h = times[1] - times[0]
    if np.max(np.abs(np.diff(times) - h)) > 1e-9 * max(h, 1.0):
        raise ContractViolationError("scattering quadrature needs uniformly spaced samples")

    grid = trajectory.states[0].grid
    dv = grid.dv
    flow = mixing_flow(config.frequencies, config.coupling, dv)
    integrands = [flow(s.psi)[oscillator] for s in trajectory.states]
    final_norm = float(np.sqrt(dv * np.sum(np.abs(integrands[-1]) ** 2)))
    tail = final_norm / regime.rate
    if tail > tail_tol:
        raise SeriesTooShortError(
            f"tail bound {tail:.3e} exceeds {tail_tol:.3e}; integrand norm is still "
            f"{final_norm:.3e} at t = {times[-1]:g}"
        )

    # J_n = exp(-iH s_n) * (trapezoid sum over [s_n, s_end]); recurse backwards
    acc = np.zeros(grid.shape, dtype=np.complex128)
    for n in range(len(integrands) - 2, -1, -1):
        acc = propagate_linear(grid, config.potential, acc + 0.5 * h * integrands[n + 1], -h)
        acc += 0.5 * h * integrands[n]

    profile = trajectory.states[0].psi[oscillator] + acc
    return ScatteringResult(
        field=WaveField(grid, profile),
        tail_bound=tail,
        rate=regime.rate,
        final_integrand_norm=final_norm,
    )


def _check_scattering(ctx: VerifyContext, tol: float) -> CheckResult:
    trajectory = ctx.state_trajectory
    result = scattering_state(trajectory, ctx.config, 0, tail_tol=tol)
    profile = result.field.values
    times = trajectory.times
    # probing ~16 samples is enough to certify monotone approach
    stride = max(1, (len(times) - 1) // 16)
    idx = list(range(0, len(times), stride))
    if idx[-1] != len(times) - 1:
        idx.append(len(times) - 1)
    errs = []
    for i in idx:
        state = trajectory.states[i]
        pulled = propagate_linear(ctx.grid, ctx.config.potential, state.psi[0], -float(times[i]))
        errs.append(float(np.sqrt(ctx.grid.dv * np.sum(np.abs(pulled - profile) ** 2))))
    errs_arr = np.array(errs)
    decreasing = bool(np.all(np.diff(errs_arr) <= 1e-10))
    final_ok = errs_arr[-1] <= tol
    return CheckResult(
        "scattering",
        decreasing and final_ok,
        float(errs_arr[-1]),
        0.0,
        tol,
        f"monotone: {decreasing}; tail bound {result.tail_bound:.3e}",
    )


_CHECKS = {
    "mass": _check_mass,
    "order_identity": _check_order_identity,
    "energy_decomposition": _check_energy_decomposition,
    "pde_ode_closure": _check_pde_ode_closure,
    "two_exact": _check_two_exact,
    "sync_rate": _check_sync_rate,
    "distance_limit": _check_distance_limit,
    "periodicity": _check_periodicity,
    "stationary": _check_stationary,
    "lyapunov_monotone": _check_lyapunov_monotone,
    "phase_sync": lambda ctx, tol: _check_classified(ctx, tol, "phase_sync", "phase_sync"),
    "frequency_sync": lambda ctx, tol: _check_classified(
        ctx, tol, "frequency_sync", "frequency_sync"
    ),
    "no_sync": lambda ctx, tol: _check_classified(ctx, tol, "none", "no_sync"),
    "scattering": _check_scattering,
}

CHECK_NAMES = tuple(sorted(_CHECKS))


def run_checks(scenario: Scenario) -> list[CheckResult]:
    """Evaluate every check the scenario requests, in the order written."""
    if not scenario.checks:
        raise ConfigurationError("scenario has no [verify] checks")
    ctx = VerifyContext(scenario)
    results = []
    for name, tol in scenario.checks:
        fn = _CHECKS.get(name)
        if fn is None:
            raise ConfigurationError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
        try:
            results.append(fn(ctx, tol))
        except LoheSyncError as exc:
            results.append(
                CheckResult(name, False, None, None, tol, f"check could not run: {exc}")
            )
    return results
