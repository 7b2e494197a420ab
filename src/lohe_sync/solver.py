"""Time stepping for the coupled wave system.

Every oscillator has the same linear part H = -Laplacian/2 + V, and the
coupling and detuning only mix the N fields: psi' = -i H psi + M(z) psi with
M as in correlations.mixing_flow. The linear flow U(t) = exp(-i t H) is
unitary and commutes with any mixing of the fields, so the semidiscrete system
is exactly psi(t) = U(t - t0) D(t) q, where q holds r <= N orthonormal basis
fields of span(psi0), psi0 = D(t0) q, and the N x r coefficient matrix obeys
D' = M(conj(D) D^T) D. Three schemes share one sampling loop, samples:

  span         the default. RK4 steps D alone; the linear flow is applied to
               the r basis fields only between samples, where the fields are
               D U q. With V = 0 that flow is one exact Fourier multiplier per
               sample interval and the scheme is fourth order; with a potential
               it is Strang kinetic-potential-kinetic substeps of dt (adjacent
               kinetic half-steps merged, one FFT pair per step), the splitting
               strang_rk4 uses, and second order. No RK4 stage touches the grid.
               At N = 2, D is four Python complexes (a zero column pads
               r = 1) stepped by correlations.pair_mixing_step, with Python's
               rounding (no fused multiply-add); N >= 3 steps the numpy D
               through mixing_flow.
  strang_rk4   grid reference: exact kinetic half-steps in Fourier space
               around one RK4 step of the local sub-flow d psi_j/dt =
               -i (V + Omega_j) psi_j + (K/2)(zeta - <zeta, psi_j> psi_j).
               The closing half-step of one step is merged with the opening
               one of the next, so a step costs one FFT pair; fields() pays
               the owed half-step at samples. Second order with a potential;
               with V = 0 the kinetic flow commutes with the local one and it
               is fourth order. The kinetic part carries no step-size
               restriction at all.
  full_rk4     grid reference: classical RK4 on the complete right-hand side
               with the Laplacian applied spectrally inside every stage, for
               cross-checking the splitting error; it must respect the usual
               imaginary-axis stability limit.

The grid references do not use the correlation closure, so they are what
tests it. In them the coupling sub-flow, (K/2) core.coupling_term, which has
no closed form (the inner products make it nonlocal), rides along with the
potential inside RK4; its magnitude is bounded by K, which keeps that
sub-step mild. Inner products are recomputed from the stage fields at every
stage; lagging them would break the mass-flux identity at O(dt).

samples loops over sample intervals, not steps: a stepper advances a whole
interval per call, checking every step for non-finite values, and forms the
fields only at its end.

samples yields the sampled states one at a time and keeps none, so a
consumer that reduces each state (a diagnostics record, a Gram matrix, a
line of output) and drops it holds one sample's fields however many samples
the run takes. with_records pairs each state with its diagnostics record,
made a block of samples at a time, and holds at most one block. evolve is
the library's collector over them: a Trajectory that stores every state
and, by default, its diagnostics record. The command-line front end streams:
simulate writes the records as they are made and keeps only what its
summary reads, verify keeps states only for the scattering check, the one
check that reads fields, and pde sweep cells keep none.
"""

from __future__ import annotations

import cmath
import math
import warnings
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .core import EnsembleState, GridSpec, ModelConfig, coupling_term, fourier_transforms, k_squared
from .correlations import (
    CorrelationSeries,
    CorrelationState,
    mixing_flow,
    pair_mixing_step,
    rk4_step,
    step_count,
)
from .diagnostics import DiagnosticsRecord, compute_records
from .errors import ConfigurationError, DivergenceError

__all__ = [
    "SolverParams",
    "StabilityReport",
    "Trajectory",
    "step",
    "evolve",
    "samples",
    "with_records",
    "propagate_linear",
    "stability_report",
]

_SCHEMES = ("span", "strang_rk4", "full_rk4")

# sample fields that with_records takes into one compute_records call (at
# least one sample): 16 samples at N = 2 on 256 points, one at N = 40
_RECORD_BLOCK_BYTES = 1 << 17


@dataclass(frozen=True)
class SolverParams:
    """Time-stepping controls. t_end must be an integer number of dt steps."""

    dt: float
    t_end: float
    scheme: str = "span"
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
    """Sampled PDE run: states every snapshot_stride steps plus the endpoint.

    evolve stores every state. A run that only needs its records (verify
    without the scattering check, a pde sweep cell) holds an empty states
    list."""

    times: np.ndarray
    states: list[EnsembleState]
    diagnostics_stream: list[DiagnosticsRecord] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return len(self.times)

    @property
    def final(self) -> EnsembleState:
        return self.states[-1]

    def gram_series(self) -> CorrelationSeries:
        """Measured correlations of every sample, as one series. When every
        sample has a diagnostics record, the records' correlations are those
        values already, and are read instead of recomputed from the states."""
        if len(self.diagnostics_stream) == len(self.times):
            z = np.stack([rec.correlations.z for rec in self.diagnostics_stream])
        else:
            z = np.stack([CorrelationState.from_ensemble(s).z for s in self.states])
        return CorrelationSeries(times=self.times.copy(), z=z)


@lru_cache(maxsize=16)
def _kinetic(dim: int, points: int, length: float, h: float) -> np.ndarray:
    """Fourier multiplier of the exact kinetic flow over time h."""
    k2 = k_squared(GridSpec(dim, points, length))
    mult = np.exp(-0.5j * h * k2)
    mult.flags.writeable = False
    return mult


class _Stepper:
    def advance(self, count: int) -> int:
        """Take count steps; returns the first one after which the state was
        not finite, where stepping stopped, or 0 when every one stayed
        finite."""
        for n in range(1, count + 1):
            if not self.step():
                return n
        return 0


class _GridStepper(_Stepper):
    """strang_rk4 and full_rk4: the fields themselves are stepped, with the
    multipliers and config views cached per run.

    strang_rk4 merges the closing kinetic half-step of one step with the
    opening one of the next, so a step costs one FFT pair: pending records
    that the closing half-step is owed, and fields() pays it."""

    def __init__(self, initial: EnsembleState, config: ModelConfig, params: SolverParams):
        grid = initial.grid
        self.grid = grid
        self.axes = tuple(range(1, grid.dim + 1))
        self.fft, self.ifft = fourier_transforms(grid.dim)
        self.dv = grid.dv
        self.dt = params.dt
        self.scheme = params.scheme
        self.renormalize = params.renormalize_each_step
        self.gain = 0.5 * config.coupling
        linear = np.asarray(config.frequencies).reshape((-1,) + (1,) * grid.dim)
        if config.potential is not None:
            linear = linear + config.potential
        self.linear = -1j * linear  # -i (Omega_j + V)
        if params.scheme == "strang_rk4":
            self.half = _kinetic(grid.dim, grid.points, grid.length, 0.5 * params.dt)
            self.whole = _kinetic(grid.dim, grid.points, grid.length, params.dt)
        else:
            self.k2 = k_squared(grid)
        self.psi = initial.psi
        self.pending = False  # strang_rk4 owes psi its closing kinetic half-step

    def _local_rhs(self, psi: np.ndarray) -> np.ndarray:
        return self.linear * psi + self.gain * coupling_term(psi, self.dv)

    def _full_rhs(self, psi: np.ndarray) -> np.ndarray:
        kinetic = self.ifft(-0.5j * self.k2 * self.fft(psi))
        return kinetic + self._local_rhs(psi)

    def _kinetic_step(self, mult: np.ndarray) -> np.ndarray:
        return self.ifft(mult * self.fft(self.psi))

    def step(self) -> bool:
        """Advance one dt; returns whether the fields stayed finite."""
        # blow-up shows as non-finite fields; silence the transient nan/inf
        # arithmetic warnings on the way there
        with np.errstate(invalid="ignore", over="ignore"):
            if self.scheme == "strang_rk4":
                psi = self._kinetic_step(self.whole if self.pending else self.half)
                psi = rk4_step(psi, self._local_rhs, self.dt)
                self.pending = True
            else:
                psi = rk4_step(self.psi, self._full_rhs, self.dt)
            if self.renormalize:
                # the owed kinetic half-step is unitary, so it keeps these norms
                norms = np.sqrt(self.dv * np.sum(np.abs(psi) ** 2, axis=self.axes))
                psi = psi / norms.reshape((-1,) + (1,) * self.grid.dim)
        self.psi = psi
        return bool(np.all(np.isfinite(psi.view(np.float64))))

    def fields(self) -> np.ndarray:
        if self.pending:
            self.psi = self._kinetic_step(self.half)
            self.pending = False
        return self.psi.copy()


class _SpanStepper(_Stepper):
    """span: psi0 = D q for r <= N orthonormal basis fields q (one thin SVD,
    dropping directions at roundoff level), and the fields stay U D q. RK4
    steps the N x r matrix D alone, and U is caught up on the r basis fields
    only when the fields are asked for, as propagate_linear does in substeps
    of dt, with the multipliers of each lag formed once per run. Dependent
    fields (r < N) need no special case: D has no null space for the flow to
    grow."""

    def __init__(self, initial: EnsembleState, config: ModelConfig, params: SolverParams):
        self.grid = grid = initial.grid
        self.potential = config.potential
        n = initial.n_oscillators
        left, sing, right = np.linalg.svd(initial.psi.reshape(n, -1), full_matrices=False)
        r = int(np.count_nonzero(sing > n * np.finfo(float).eps * sing[0]))
        scale = np.sqrt(grid.dv)
        self.d = left[:, :r] * (scale * sing[:r])
        basis = right[:r]
        basis /= scale
        self.phi = basis.reshape((r,) + grid.shape)  # U(t - t0) q at the last formed sample
        self.lag = 0  # steps taken since then
        self.flows = {}  # lag -> the linear flow over lag steps
        omega = np.asarray(config.frequencies, dtype=float)
        self.dt = params.dt
        self.renormalize = params.renormalize_each_step
        self.pair = n == 2
        if self.pair:  # four Python complexes; zero columns pad r < 2
            self.d = tuple(np.pad(self.d, ((0, 0), (0, 2 - r))).ravel().tolist())
            self.pair_step = pair_mixing_step(omega, config.coupling, params.dt)
        else:
            self.deriv = mixing_flow(omega, config.coupling)

    def advance(self, count: int) -> int:
        """_Stepper.advance. q is orthonormal, so under renormalization the
        field norms are the row norms of D. The pair's D is stepped here, in
        one local loop over the four complexes."""
        self.lag += count
        if not self.pair:
            return super().advance(count)
        step, renormalize, d = self.pair_step, self.renormalize, self.d
        isfinite, hypot, nan = cmath.isfinite, math.hypot, math.nan
        bad = 0
        for n in range(1, count + 1):
            a0, a1, b0, b1 = d = step(d)
            if renormalize:  # a zero row gives nan, as 0 / 0 does in step
                na = hypot(a0.real, a0.imag, a1.real, a1.imag) or nan
                nb = hypot(b0.real, b0.imag, b1.real, b1.imag) or nan
                a0, a1, b0, b1 = d = (a0 / na, a1 / na, b0 / nb, b1 / nb)
            if not (isfinite(a0) and isfinite(a1) and isfinite(b0) and isfinite(b1)):
                bad = n
                break
        self.d = d
        return bad

    def step(self) -> bool:
        """One step of the numpy D (N >= 3); returns whether it stayed finite."""
        with np.errstate(invalid="ignore", over="ignore"):
            d = rk4_step(self.d, self.deriv, self.dt)
            if self.renormalize:
                d = d / np.linalg.norm(d, axis=1)[:, None]
        self.d = d
        return bool(np.all(np.isfinite(d.view(np.float64))))

    def fields(self) -> np.ndarray:
        flow = self.flows.get(self.lag)
        if flow is None:
            flow = self.flows[self.lag] = _linear_flow(
                self.grid, self.potential, self.lag * self.dt, self.lag
            )
        self.phi = flow(self.phi)
        self.lag = 0
        r = len(self.phi)
        d = np.array(self.d).reshape(2, 2)[:, :r] if self.pair else self.d
        return (d @ self.phi.reshape(r, -1)).reshape((len(d),) + self.grid.shape)


def _stepper(initial: EnsembleState, config: ModelConfig, params: SolverParams):
    if config.potential is not None and config.potential.shape != initial.grid.shape:
        raise ConfigurationError("potential shape does not match the grid")
    if params.scheme == "span":
        return _SpanStepper(initial, config, params)
    return _GridStepper(initial, config, params)


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
    |time|; with a potential it is Strang kinetic-potential-kinetic substeps,
    by default enough of them to keep the potential phase per substep below
    0.1 rad. Adjacent kinetic half-steps are merged, so a substep costs one
    FFT pair.

    values may be a single field of grid.shape or a stack (n, *grid.shape).
    """
    values = np.asarray(values, dtype=np.complex128)
    if values.shape[values.ndim - grid.dim :] != grid.shape:
        raise ConfigurationError("values shape does not match the grid")
    if time == 0.0:
        return values.copy()
    if potential is not None:
        if potential.shape != grid.shape:
            raise ConfigurationError("potential shape does not match the grid")
        if substeps is None:
            v_max = float(np.max(np.abs(potential)))
            substeps = max(1, int(np.ceil(abs(time) * v_max / 0.1)))
    return _linear_flow(grid, potential, time, substeps)(values)


def _linear_flow(grid: GridSpec, potential: np.ndarray | None, time: float, substeps: int):
    """propagate_linear over time as a function of the values, with its
    multipliers formed once: one exact multiplier with no potential, else
    substeps Strang substeps."""
    fft, ifft = fourier_transforms(grid.dim)
    k2 = k_squared(grid)
    if potential is None:
        mult = np.exp(-0.5j * time * k2)
        return lambda values: ifft(mult * fft(values))
    h = time / substeps
    half = np.exp(-0.25j * h * k2)
    whole = np.exp(-0.5j * h * k2)
    phase = np.exp(-1j * h * potential)

    def flow(values):
        hat = half * fft(values)
        for n in range(1, substeps + 1):
            hat = fft(phase * ifft(hat))
            hat *= whole if n < substeps else half
        return ifft(hat)

    return flow


def step(state: EnsembleState, config: ModelConfig, params: SolverParams) -> EnsembleState:
    """Advance one step of params.dt. See evolve for whole trajectories."""
    stepper = _stepper(state, config, params)
    if stepper.advance(1):
        raise DivergenceError(
            "time step produced non-finite values", step_index=1, time=state.time + params.dt
        )
    return EnsembleState(state.grid, stepper.fields(), state.time + params.dt)


def _checked_stepper(initial: EnsembleState, config: ModelConfig, params: SolverParams):
    """The stepper of one run, after the checks every run makes. A dt above
    half the advisory bound warns at the caller of samples or evolve."""
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
            stacklevel=3,
        )
    return _stepper(initial, config, params)


def _norms_finite(psi: np.ndarray, dv: float) -> bool:
    """Whether every field's squared norm, the diagonal of its Gram matrix,
    is finite: fields can be finite while it overflows."""
    flat = psi.reshape(len(psi), -1).view(np.float64)
    return all(math.isfinite(dv * s) for s in np.einsum("ij,ij->i", flat, flat).tolist())


def _stream(stepper, initial: EnsembleState, params: SolverParams) -> Iterator[EnsembleState]:
    """The run's samples: one stepper.advance per sample interval."""
    yield initial.copy()
    n_steps, stride = params.n_steps, params.snapshot_stride
    for start in range(0, n_steps, stride):
        count = min(stride, n_steps - start)
        bad = stepper.advance(count)
        n = start + (bad or count)
        t = initial.time + n * params.dt
        if not bad:
            psi = stepper.fields()
            bad = not _norms_finite(psi, initial.grid.dv)
        if bad:
            raise DivergenceError(f"solver diverged at step {n} (t = {t:g})", step_index=n, time=t)
        yield EnsembleState(initial.grid, psi, t)


def samples(
    initial: EnsembleState, config: ModelConfig, params: SolverParams
) -> Iterator[EnsembleState]:
    """The sampled states of a run over [0, t_end], one at a time: a copy of
    initial, then one every snapshot_stride steps and the endpoint.

    The run's checks (and the advisory dt warning) happen at the call; the
    stepping happens as the states are taken, so a consumer that reduces
    each state and drops it holds one sample's fields at a time. On blow-up
    (non-finite fields, or a sample whose squared field norms overflow) the
    iteration raises DivergenceError with the step index and time.
    """
    return _stream(_checked_stepper(initial, config, params), initial, params)


def with_records(
    states, config: ModelConfig
) -> Iterator[tuple[EnsembleState, DiagnosticsRecord]]:
    """(state, diagnostics record) for each state of a sample stream, in
    order. The records are made a block of consecutive samples at a time,
    as many as fit _RECORD_BLOCK_BYTES of fields, so at most one block of
    states is held. When the stream raises DivergenceError, the finite
    samples of the open block come out with their records first; a sample
    whose record is not finite raises it too, after the samples before it."""

    def made(block):
        # a block that fails the record checks, or holds a non-finite
        # record, is redone a sample at a time, so the samples before the
        # bad one still come out
        try:
            records = compute_records(block, config) if block else []
        except (ConfigurationError, DivergenceError):
            records = (compute_records([state], config)[0] for state in block)
        yield from zip(block, records)

    block: list[EnsembleState] = []
    try:
        for state in states:
            block.append(state)
            if (len(block) + 1) * state.psi.nbytes > _RECORD_BLOCK_BYTES:
                full, block = block, []
                yield from made(full)
    except DivergenceError:
        yield from made(block)
        raise
    yield from made(block)


def evolve(
    initial: EnsembleState,
    config: ModelConfig,
    params: SolverParams,
    collect_diagnostics: bool = True,
) -> Trajectory:
    """Collect samples into a Trajectory.

    Every sample is stored as a full EnsembleState; diagnostics records ride
    along unless collect_diagnostics is False. On blow-up the partial
    trajectory up to the last finite sample is attached to the error.
    """
    stream = _stream(_checked_stepper(initial, config, params), initial, params)
    pairs = with_records(stream, config) if collect_diagnostics else ((s, None) for s in stream)
    times: list[float] = []
    states: list[EnsembleState] = []
    records: list[DiagnosticsRecord] = []
    try:
        for state, record in pairs:
            times.append(state.time)
            states.append(state)
            if record is not None:
                records.append(record)
    except DivergenceError as exc:
        exc.partial = Trajectory(np.array(times), states, records)
        raise
    return Trajectory(np.array(times), states, records)
