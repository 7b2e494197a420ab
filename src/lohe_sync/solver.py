"""Time stepping for the coupled wave system.

Two schemes share one driver:

  strang_rk4   exact kinetic half-steps in Fourier space around one RK4 step
               of the local sub-flow d psi_j/dt = -i (V + Omega_j) psi_j
               + (K/2)(zeta - <zeta, psi_j> psi_j). Second order overall; the
               kinetic part carries no step-size restriction at all.
  full_rk4     classical RK4 on the complete right-hand side with the
               Laplacian applied spectrally inside every stage. Reference
               mode for cross-checking the splitting error; it must respect
               the usual imaginary-axis stability limit.

The coupling sub-flow has no closed form (the inner products make it
nonlocal), so it rides along with the potential inside RK4; its magnitude is
bounded by K, which keeps that sub-step mild. Inner products are recomputed
from the stage fields at every stage; lagging them would break the mass-flux
identity at O(dt).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import EnsembleState, GridSpec, ModelConfig, k_squared
from .correlations import CorrelationSeries, CorrelationState, rk4_step, step_count
from .diagnostics import DiagnosticsRecord, compute_record
from .errors import ConfigurationError, DivergenceError

__all__ = [
    "SolverParams",
    "StabilityReport",
    "Trajectory",
    "step",
    "evolve",
    "propagate_linear",
    "stability_report",
]

_SCHEMES = ("strang_rk4", "full_rk4")


@dataclass(frozen=True)
class SolverParams:
    """Time-stepping controls. t_end must be an integer number of dt steps."""

    dt: float
    t_end: float
    scheme: str = "strang_rk4"
    renormalize_each_step: bool = False
    snapshot_stride: int = 1

    def __post_init__(self):
        step_count(self.dt, self.t_end)
        if self.scheme not in _SCHEMES:
            raise ConfigurationError(f"scheme must be one of {_SCHEMES}, got {self.scheme!r}")
        if not isinstance(self.snapshot_stride, int) or self.snapshot_stride < 1:
            raise ConfigurationError("snapshot_stride must be an integer >= 1")

    @property
    def n_steps(self) -> int:
        return step_count(self.dt, self.t_end)


@dataclass(frozen=True)
class StabilityReport:
    """Advisory step-size bounds for a grid/config pair.

    potential_dt keeps the local sub-flow phases per step below 0.1 rad;
    kinetic_dt keeps the kinetic phase per half-step below pi (only binding
    for full_rk4, where it also sits inside the RK4 stability region).
    """

    recommended_dt: float
    potential_dt: float
    kinetic_dt: float
    max_wavenumber: float


def stability_report(grid: GridSpec, config: ModelConfig) -> StabilityReport:
    v_max = 0.0 if config.potential is None else float(np.max(np.abs(config.potential)))
    w_max = max(abs(w) for w in config.frequencies)
    k2_max = float(k_squared(grid).max())
    local_scale = v_max + w_max + config.coupling
    potential_dt = np.inf if local_scale == 0.0 else 0.1 / local_scale
    kinetic_dt = 4.0 * np.pi / k2_max
    return StabilityReport(
        recommended_dt=float(min(potential_dt, kinetic_dt)),
        potential_dt=float(potential_dt),
        kinetic_dt=float(kinetic_dt),
        max_wavenumber=float(np.sqrt(k2_max)),
    )


@dataclass
class Trajectory:
    """Sampled PDE run: states every snapshot_stride steps plus the endpoint."""

    times: np.ndarray
    states: list[EnsembleState]
    diagnostics_stream: list[DiagnosticsRecord] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return len(self.states)

    @property
    def final(self) -> EnsembleState:
        return self.states[-1]

    def gram_series(self) -> CorrelationSeries:
        """Measured correlations of every stored state, as one series."""
        z = np.stack([CorrelationState.from_ensemble(s).z for s in self.states])
        return CorrelationSeries(times=self.times.copy(), z=z)


@lru_cache(maxsize=16)
def _half_kinetic(dim: int, points: int, length: float, dt: float) -> np.ndarray:
    k2 = k_squared(GridSpec(dim, points, length))
    mult = np.exp(-0.25j * dt * k2)
    mult.flags.writeable = False
    return mult


class _Stepper:
    """Per-run kernel holding the cached multipliers and config views."""

    def __init__(self, grid: GridSpec, config: ModelConfig, params: SolverParams):
        if config.potential is not None and config.potential.shape != grid.shape:
            raise ConfigurationError("potential shape does not match the grid")
        self.grid = grid
        self.axes = tuple(range(1, grid.dim + 1))
        self.dv = grid.dv
        self.dt = params.dt
        self.scheme = params.scheme
        self.renormalize = params.renormalize_each_step
        self.coupling = config.coupling
        self.omega = np.asarray(config.frequencies).reshape((-1,) + (1,) * grid.dim)
        self.potential = config.potential
        if params.scheme == "strang_rk4":
            self.half_kinetic = _half_kinetic(grid.dim, grid.points, grid.length, params.dt)
        else:
            self.k2 = k_squared(grid)

    def _local_rhs(self, psi: np.ndarray) -> np.ndarray:
        zeta = psi.mean(axis=0)
        overlaps = self.dv * np.sum(np.conj(zeta) * psi, axis=self.axes)
        out = -1j * (self.omega * psi)
        if self.potential is not None:
            out -= 1j * (self.potential * psi)
        shape = (-1,) + (1,) * self.grid.dim
        out += 0.5 * self.coupling * (zeta - overlaps.reshape(shape) * psi)
        return out

    def _full_rhs(self, psi: np.ndarray) -> np.ndarray:
        psi_hat = np.fft.fftn(psi, axes=self.axes)
        kinetic = np.fft.ifftn(-0.5j * self.k2 * psi_hat, axes=self.axes)
        return kinetic + self._local_rhs(psi)

    def advance(self, psi: np.ndarray) -> np.ndarray:
        # blow-up is detected by the caller's isfinite check; silence the
        # transient nan/inf arithmetic warnings on the way there
        with np.errstate(invalid="ignore", over="ignore"):
            if self.scheme == "strang_rk4":
                psi = np.fft.ifftn(self.half_kinetic * np.fft.fftn(psi, axes=self.axes), axes=self.axes)
                psi = rk4_step(psi, self._local_rhs, self.dt)
                psi = np.fft.ifftn(self.half_kinetic * np.fft.fftn(psi, axes=self.axes), axes=self.axes)
            else:
                psi = rk4_step(psi, self._full_rhs, self.dt)
            if self.renormalize:
                norms = np.sqrt(self.dv * np.sum(np.abs(psi) ** 2, axis=self.axes))
                psi = psi / norms.reshape((-1,) + (1,) * self.grid.dim)
        return psi


def propagate_linear(
    grid: GridSpec,
    potential: np.ndarray | None,
    values: np.ndarray,
    time: float,
    substeps: int | None = None,
) -> np.ndarray:
    """Apply the linear group exp(-i t (-1/2 Laplacian + V)) to values.

    Negative time gives the adjoint (backward) propagator. With no potential
    the result is an exact spectral multiplier, valid for arbitrarily large
    |time|; with a potential it falls back to Strang substeps, by default
    enough of them to keep the potential phase per substep below 0.1 rad.

    values may be a single field of grid.shape or a stack (n, *grid.shape).
    """
    values = np.asarray(values, dtype=np.complex128)
    axes = tuple(range(values.ndim - grid.dim, values.ndim))
    if values.shape[values.ndim - grid.dim :] != grid.shape:
        raise ConfigurationError("values shape does not match the grid")
    if time == 0.0:
        return values.copy()
    k2 = k_squared(grid)
    if potential is None:
        return np.fft.ifftn(
            np.exp(-0.5j * time * k2) * np.fft.fftn(values, axes=axes), axes=axes
        )
    if potential.shape != grid.shape:
        raise ConfigurationError("potential shape does not match the grid")
    if substeps is None:
        v_max = float(np.max(np.abs(potential)))
        substeps = max(1, int(np.ceil(abs(time) * v_max / 0.1)))
    h = time / substeps
    half = np.exp(-0.25j * h * k2)
    phase = np.exp(-1j * h * potential)
    out = values
    for _ in range(substeps):
        out = np.fft.ifftn(half * np.fft.fftn(out, axes=axes), axes=axes)
        out = phase * out
        out = np.fft.ifftn(half * np.fft.fftn(out, axes=axes), axes=axes)
    return out


def step(state: EnsembleState, config: ModelConfig, params: SolverParams) -> EnsembleState:
    """Advance one step of params.dt. See evolve for whole trajectories."""
    stepper = _Stepper(state.grid, config, params)
    psi = stepper.advance(state.psi)
    if not np.all(np.isfinite(psi.view(np.float64))):
        raise DivergenceError(
            "time step produced non-finite values", step_index=1, time=state.time + params.dt
        )
    return EnsembleState(state.grid, psi, state.time + params.dt)


def evolve(
    initial: EnsembleState,
    config: ModelConfig,
    params: SolverParams,
    collect_diagnostics: bool = True,
) -> Trajectory:
    """Run the system over [0, t_end], sampling every snapshot_stride steps.

    Every sample is stored as a full EnsembleState; diagnostics records ride
    along unless collect_diagnostics is False. On blow-up the partial
    trajectory up to the last finite sample is attached to the error.
    """
    if config.n_oscillators != initial.n_oscillators:
        raise ConfigurationError(
            f"config holds {config.n_oscillators} frequencies but the ensemble has "
            f"{initial.n_oscillators} fields"
        )
    report = stability_report(initial.grid, config)
    if params.scheme == "full_rk4":
        bound = report.recommended_dt
    else:
        bound = report.potential_dt
    if params.dt > 0.5 * bound:
        warnings.warn(
            f"dt = {params.dt} exceeds half the advisory bound {bound:.3g} "
            f"for scheme {params.scheme}",
            stacklevel=2,
        )

    stepper = _Stepper(initial.grid, config, params)
    n_steps = params.n_steps
    t0 = initial.time

    times = [t0]
    states = [initial.copy()]
    records: list[DiagnosticsRecord] = []
    if collect_diagnostics:
        records.append(compute_record(states[0], config))

    psi = initial.psi.copy()
    for n in range(1, n_steps + 1):
        psi = stepper.advance(psi)
        t = t0 + n * params.dt
        if not np.all(np.isfinite(psi.view(np.float64))):
            raise DivergenceError(
                f"solver diverged at step {n} (t = {t:g})",
                step_index=n,
                time=t,
                partial=Trajectory(np.array(times), states, records),
            )
        if n % params.snapshot_stride == 0 or n == n_steps:
            snap = EnsembleState(initial.grid, psi.copy(), t)
            times.append(t)
            states.append(snap)
            if collect_diagnostics:
                records.append(compute_record(snap, config))

    return Trajectory(np.array(times), states, records)
