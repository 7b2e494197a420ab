"""Time stepping for the coupled wave system.

Every oscillator has the same linear part H = -Laplacian/2 + V, and the
coupling and detuning only mix the N fields: psi' = -i H psi + M(z) psi with
M as in core.mixing_flow. The linear flow U(t) = exp(-i t H) is unitary and
commutes with any mixing of the fields, so the semidiscrete system is exactly
psi(t) = U(t - t0) D(t) q, where q holds r <= N orthonormal basis fields of
span(psi0), psi0 = D(t0) q, and the N x r coefficient matrix obeys
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
               through core.mixing_flow with dv = 1. When r < N, each
               sample carries D and the r caught-up basis fields as its
               factors, from which diagnostics.compute_records forms its
               record.
  strang_rk4   grid reference: exact kinetic half-steps, the V = 0 linear
               flow of span and propagate_linear (one Fourier multiplier),
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
tests it. In them the coupling and detuning sub-flow, core.mixing_flow on
the fields, which has no closed form (the inner products make it nonlocal),
rides along with the potential inside RK4; its magnitude is bounded by K,
which keeps that sub-step mild. Inner products are recomputed from the stage
fields at every stage; lagging them would break the mass-flux identity at
O(dt).

samples loops over sample intervals, not steps: a stepper advances a whole
interval per call, checking every step for non-finite values, and forms the
fields only at its end. A long pair run under span steps its D in a forked
child (see forked), which sends D's exact bits after each interval while
this process forms the fields and records of the intervals already sent:
the same loop on the same numbers, so the samples do not depend on where
D was stepped. The child is reaped when the stream ends or is closed, so a
consumer that may stop early closes it (contextlib.closing).

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
import os
import struct
import warnings
from collections.abc import Iterator
from contextlib import closing, contextmanager
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import forked
from .core import (
    EnsembleState,
    GridSpec,
    ModelConfig,
    fourier_transforms,
    gram_matrix,
    k_squared,
    mixing_flow,
)
from .correlations import (
    CorrelationSeries,
    pair_mixing_step,
    rk4_step,
    sample_intervals,
    step_count,
    unit_correlations,
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

# A pair's span run steps its D in a forked child, while this process forms
# the fields and records of the samples already stepped, once it takes this
# many steps and samples. A fork and reap cost about 1.5 ms, about 400 pair
# steps at 3.5 us each, and the child saves at most the shorter of the
# stepping and this process's work on the samples, about 35 us a sample at
# 1-D/64 and 60 us at 1-D/256. Measured on those grids: 2000 steps in 101
# samples gain 1.6 and 4.5 ms, 20 000 steps in 101 samples 1.8 and 5.4 ms;
# 21 samples lose up to 1.4 ms, and 41 samples of 20 000 steps lose 0.9 ms
# at 1-D/64. The child is not started on a single CPU, where it lost 3.6 to
# 5.6 ms of 20 000 steps; nor beside another child such as emit's render
# child, where it lost 1.7% of a 2000-step, 2001-sample simulate.
_STEP_CHILD_STEPS = 2000
_STEP_CHILD_SAMPLES = 100

# what the stepping child sends after each sample interval: the step after
# which D stopped being finite (0 when none) and D's four complexes as
# eight doubles, their exact bits
_INTERVAL = struct.Struct("=q8d")


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

    @property
    def n_samples(self) -> int:
        """The samples of a whole run: the initial one, then one per sample
        interval (every snapshot_stride steps and the endpoint)."""
        return 1 + len(sample_intervals(self.n_steps, self.snapshot_stride))


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
            z = np.stack([rec.z for rec in self.diagnostics_stream])
        else:
            z = unit_correlations(np.stack([gram_matrix(s) for s in self.states]))
        return CorrelationSeries(times=self.times.copy(), z=z)


class _Stepper:
    factors = None  # (D, phi) of the last formed sample, span with r < N only
    pair = False  # span at N = 2: D is four Python complexes

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

    strang_rk4's kinetic half and whole steps are _linear_flow's exact
    multipliers at V = 0. It merges the closing half-step of one step with
    the opening one of the next, so a step costs one FFT pair: pending
    records that the closing half-step is owed, and fields() pays it."""

    def __init__(self, initial: EnsembleState, config: ModelConfig, params: SolverParams):
        grid = initial.grid
        self.grid = grid
        self.axes = tuple(range(1, grid.dim + 1))
        self.dv = grid.dv
        self.dt = params.dt
        self.scheme = params.scheme
        self.renormalize = params.renormalize_each_step
        self.mixing = mixing_flow(config.frequencies, config.coupling, grid.dv)
        self.minus_iv = None if config.potential is None else -1j * config.potential
        if params.scheme == "strang_rk4":
            self.half = _linear_flow(grid, None, 0.5 * params.dt, 1)
            self.whole = _linear_flow(grid, None, params.dt, 1)
        else:
            self.fft, self.ifft = fourier_transforms(grid.dim)
            self.k2 = k_squared(grid)
        self.psi = initial.psi
        self.pending = False  # strang_rk4 owes psi its closing kinetic half-step

    def _local_rhs(self, psi: np.ndarray) -> np.ndarray:
        """-i (V + Omega_j) psi_j + (K/2)(zeta - <zeta, psi_j> psi_j): the
        mixing flow, and -i V psi as its own term."""
        rhs = self.mixing(psi)
        if self.minus_iv is not None:
            rhs += self.minus_iv * psi
        return rhs

    def _full_rhs(self, psi: np.ndarray) -> np.ndarray:
        kinetic = self.ifft(-0.5j * self.k2 * self.fft(psi))
        return kinetic + self._local_rhs(psi)

    def step(self) -> bool:
        """Advance one dt; returns whether the fields stayed finite."""
        # blow-up shows as non-finite fields; silence the transient nan/inf
        # arithmetic warnings on the way there
        with np.errstate(invalid="ignore", over="ignore"):
            if self.scheme == "strang_rk4":
                psi = (self.whole if self.pending else self.half)(self.psi)
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
            self.psi = self.half(self.psi)
            self.pending = False
        return self.psi.copy()


class _SpanStepper(_Stepper):
    """span: psi0 = D q for r <= N orthonormal basis fields q (one thin SVD,
    dropping directions at roundoff level), and the fields stay U D q. RK4
    steps the N x r matrix D alone, and U is caught up on the r basis fields
    only when the fields are asked for, as propagate_linear does in substeps
    of dt, with the multipliers of each lag formed once per run. Dependent
    fields (r < N) need no special case: D has no null space for the flow to
    grow. When r < N, factors holds D and the caught-up basis fields of the
    last formed sample (the initial one, D0 and q, until then); the records
    are made from them. At r = N nothing reads them, so none are kept."""

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
            self.deriv = mixing_flow(omega, config.coupling, 1.0)
        self.dependent = r < n
        if self.dependent:
            self.factors = (self._coefficients(), self.phi)

    def _coefficients(self) -> np.ndarray:
        """D as an N x r array (the pair's four complexes cut to r columns)."""
        if self.pair:
            return np.array(self.d).reshape(2, 2)[:, : len(self.phi)]
        return self.d

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

    def received(self, pipe, count: int) -> int:
        """advance's stand-in while a stepping child steps the pair's D: take
        what the child sent on pipe after its next count steps, and return
        the bad step it names. EOFError when the child sent nothing more."""
        data = pipe.read(_INTERVAL.size)
        if len(data) < _INTERVAL.size:
            raise EOFError
        bad, a0r, a0i, a1r, a1i, b0r, b0i, b1r, b1i = _INTERVAL.unpack(data)
        self.lag += count
        # a tuple display: tuple() of an iterator would leave every old D in
        # CPython's free list of 4-tuples, up to 144 kB
        self.d = (complex(a0r, a0i), complex(a1r, a1i), complex(b0r, b0i), complex(b1r, b1i))
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
        d = self._coefficients()
        if self.dependent:
            self.factors = (d, self.phi)
        psi = d @ self.phi.reshape(len(self.phi), -1)
        return psi.reshape((len(d),) + self.grid.shape)


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
    stepper = _checked_stepper(state, config, params)
    if stepper.advance(1):
        raise DivergenceError(
            "time step produced non-finite values", step_index=1, time=state.time + params.dt
        )
    return EnsembleState(state.grid, stepper.fields(), state.time + params.dt)


def _checked_stepper(initial: EnsembleState, config: ModelConfig, params: SolverParams):
    """The stepper of one run, after the checks every run makes. A dt above
    half the advisory bound warns at the caller of step, samples or evolve."""
    if config.n_oscillators != initial.n_oscillators:
        raise ConfigurationError(
            f"config holds {config.n_oscillators} frequencies but the ensemble has "
            f"{initial.n_oscillators} fields"
        )
    if config.potential is not None and config.potential.shape != initial.grid.shape:
        raise ConfigurationError("potential shape does not match the grid")
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
    if params.scheme == "span":
        return _SpanStepper(initial, config, params)
    return _GridStepper(initial, config, params)


def _norms_finite(psi: np.ndarray, dv: float) -> bool:
    """Whether every field's squared norm, the diagonal of its Gram matrix,
    is finite: fields can be finite while it overflows."""
    flat = psi.reshape(len(psi), -1).view(np.float64)
    return all(math.isfinite(dv * s) for s in np.einsum("ij,ij->i", flat, flat).tolist())


def _stream(stepper, initial: EnsembleState, params: SolverParams) -> Iterator[EnsembleState]:
    """The run's samples: one advance per sample interval, each state
    carrying the stepper's factors."""
    yield EnsembleState(initial.grid, initial.psi.copy(), initial.time, 0, stepper.factors)
    n = 0
    with _advancing(stepper, params) as advance:
        for count in sample_intervals(params.n_steps, params.snapshot_stride):
            bad = advance(count)
            n += bad or count
            t = initial.time + n * params.dt
            if not bad:
                psi = stepper.fields()
                bad = not _norms_finite(psi, initial.grid.dv)
            if bad:
                raise DivergenceError(
                    f"solver diverged at step {n} (t = {t:g})", step_index=n, time=t
                )
            yield EnsembleState(initial.grid, psi, t, n, stepper.factors)


def _step_child_pays(stepper, params: SolverParams) -> bool:
    """Whether a forked child stepping D pays for itself (see
    _STEP_CHILD_STEPS): a pair's span run of _STEP_CHILD_STEPS steps and
    _STEP_CHILD_SAMPLES samples or more, with a second CPU that no other
    process of the run takes, so not beside another child of this process
    (emit's render child)."""
    return (
        stepper.pair
        and params.n_steps >= _STEP_CHILD_STEPS
        and params.n_samples >= _STEP_CHILD_SAMPLES
        and not forked.running
        and len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) >= 2
    )


@contextmanager
def _advancing(stepper, params: SolverParams):
    """stepper.advance, or, when _step_child_pays, its stand-in that reads
    each interval's D from a forked child stepping ahead. The child is
    always reaped: on a normal end, raising any error it reported; when the
    run leaves early (an error, a divergence, close), after killing it."""
    if not _step_child_pays(stepper, params):
        yield stepper.advance
        return
    data_r, data_w = os.pipe()
    pid, report = forked.start(partial(_step_child, stepper, params, data_w), keep=(data_w,))
    os.close(data_w)
    try:
        with open(data_r, "rb") as pipe:
            yield partial(stepper.received, pipe)
    except EOFError:
        # the child ended without sending every interval: raise its error
        forked.reap(pid, report, "stepping child")
        raise RuntimeError("the stepping child ended early") from None
    except BaseException:
        forked.reap(pid, report, "stepping child", kill=True)
        raise
    forked.reap(pid, report, "stepping child")


def _step_child(stepper: _SpanStepper, params: SolverParams, fd: int) -> None:
    """The stepping child of _advancing: the pair loop of stepper.advance
    over every interval of the run, each sent down fd, up to the first that
    is not finite."""
    for count in sample_intervals(params.n_steps, params.snapshot_stride):
        bad = stepper.advance(count)
        os.write(fd, _INTERVAL.pack(bad, *(x for c in stepper.d for x in (c.real, c.imag))))
        if bad:
            return


def samples(
    initial: EnsembleState, config: ModelConfig, params: SolverParams
) -> Iterator[EnsembleState]:
    """The sampled states of a run over [0, t_end], one at a time: a copy of
    initial, then one every snapshot_stride steps and the endpoint, each
    carrying its step (so a record that is not finite names it too) and,
    under span with r < N, its factors (D, phi) with psi = D phi; the copy
    of initial carries D0 and the basis q of the initial fields.

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
        with closing(stream):
            for state, record in pairs:
                times.append(state.time)
                states.append(state)
                if record is not None:
                    records.append(record)
    except DivergenceError as exc:
        exc.partial = Trajectory(np.array(times), states, records)
        raise
    return Trajectory(np.array(times), states, records)
