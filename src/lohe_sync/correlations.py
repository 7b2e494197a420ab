"""Exact finite-dimensional reductions of the coupled-wavefunction dynamics.

The pairwise correlations z_jk = <psi_j, psi_k> close on themselves: along
any solution of the wave system,

    dz_jk/dt = i (Omega_j - Omega_k) z_jk
               + (K/2N) sum_l (z_jl + z_lk) (1 - z_jk)

with z_jj = 1 frozen and Hermitian symmetry preserved. This module integrates
that system (and its two-oscillator, macroscopic, and identical-frequency
specializations) independently of any PDE machinery, so the two levels can be
checked against each other.

One instant of the correlations is a plain N x N complex array z: the
paper's right-hand sides (full_rhs, macro_rhs, zeta_norm_rhs, fg_rhs) take
one and return (r, s) split derivatives, matching the emitted file schemas,
and a diagnostics record carries one as rec.z (unit_correlations). The one
container is CorrelationSeries, a (S, N, N) stack with r_tilde, s_tilde and
the rest read off z (MacroCorrelation is gone); CorrelationState is only
integrate's checked start.

The full system has one cell runner, _cells: integrate runs one cell of it
for "full" and "two", integrate_batch the B cells of one N. N >= 3 cells
step together as a stack of complex matrices whose lower triangles are
mirrored from the upper ones every step, so r_jk - r_kj and s_jk + s_kj are
exactly zero along trajectories. At N = 2 the system is the
single pair correlation z_01, which each cell steps alone through
_pair_samples, one loop that carries z_01 as two Python floats, writes RK4's
four stages out as the component formulas of CPython's complex arithmetic,
samples as it goes and gives the bits of rk4_step over two_rhs; it returns
2 x 2 series. The "fg" system steps F = 1 - z as a stack of one.

The solver's span scheme steps the fields' coefficients D over an
orthonormal basis through core.mixing_flow; at N = 2, pair_mixing_step steps
D as four Python complexes, with Python's rounding (no fused multiply-add).
"""

from __future__ import annotations

import cmath
import math
import warnings
from dataclasses import dataclass
from functools import cache

import numpy as np

from .core import EnsembleState, ModelConfig, gram_matrix
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DivergenceError,
)

__all__ = [
    "CorrelationState",
    "CorrelationSeries",
    "full_rhs",
    "two_rhs",
    "macro_rhs",
    "fg_rhs",
    "zeta_norm_rhs",
    "random_correlation_matrix",
    "unit_correlations",
    "pair_mixing_step",
    "pair_distance",
    "rk4_step",
    "integrate",
    "integrate_batch",
    "step_count",
    "sample_intervals",
]

_HERMITIAN_TOL = 1e-9


def step_count(dt: float, t_end: float) -> int:
    """Number of fixed steps covering [0, t_end]; t_end/dt must be integral."""
    if not (np.isfinite(dt) and dt > 0):
        raise ConfigurationError(f"dt must be positive, got {dt!r}")
    if not (np.isfinite(t_end) and t_end >= 0):
        raise ConfigurationError(f"t_end must be >= 0, got {t_end!r}")
    steps = t_end / dt
    n = int(round(steps))
    if abs(steps - n) > 1e-6 * max(1.0, abs(steps)):
        raise ConfigurationError(f"t_end = {t_end} is not an integer multiple of dt = {dt}")
    return n


def sample_intervals(n_steps: int, stride: int) -> list[int]:
    """The step count of each sample interval of an n_steps run sampled every
    stride steps and at its end: stride, ..., stride, then the remainder."""
    full, rest = divmod(n_steps, stride)
    return [stride] * full + [rest] * (rest > 0)


def rk4_step(y, deriv, dt: float):
    """One classical RK4 step of dy/dt = deriv(y). y is an array of any shape
    or a Python complex; every fixed-step integration in the package goes
    through this one combination, except two that write the same one out:
    span's pair D (pair_mixing_step) on four Python complexes, and the pair
    correlation z_01 (_pair_samples) on two Python floats."""
    k1 = deriv(y)
    k2 = deriv(y + 0.5 * dt * k1)
    k3 = deriv(y + 0.5 * dt * k2)
    k4 = deriv(y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def pair_distance(z):
    """||psi_j - psi_k|| implied by the correlation z_jk of unit-norm fields,
    sqrt(2 (1 - Re z_jk)), elementwise over any array of correlations."""
    return np.sqrt(np.maximum(0.0, 2.0 * (1.0 - np.asarray(z).real)))


@cache
def _upper(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the strict upper triangle of an n x n matrix."""
    rows, cols = np.triu_indices(n, k=1)
    rows.flags.writeable = cols.flags.writeable = False
    return rows, cols


def _mirror(z: np.ndarray) -> np.ndarray:
    """Copy the upper triangle onto the lower as its conjugate, in place, for
    every matrix of a (..., N, N) stack."""
    rows, cols = _upper(z.shape[-1])
    z[..., cols, rows] = np.conj(z[..., rows, cols])
    return z


def _admissible(z) -> np.ndarray:
    """The checked copy a CorrelationState or unit_correlations holds, for
    every matrix of a (..., N, N) stack at once: each check runs once on the
    whole stack (one batched eigvalsh for the warning). The copy is
    symmetrized, mirrored and given an exact unit diagonal."""
    z = np.asarray(z, dtype=np.complex128)
    if z.ndim < 2 or z.shape[-2] != z.shape[-1] or z.shape[-1] < 2:
        raise ConfigurationError(f"z must be square with N >= 2, got shape {z.shape}")
    if not np.all(np.isfinite(z.view(np.float64))):
        raise ConfigurationError("z must be finite")
    adjoint = np.conj(np.swapaxes(z, -1, -2))
    if np.max(np.abs(z - adjoint)) > _HERMITIAN_TOL:
        raise ConfigurationError("z is not Hermitian within tolerance")
    if np.max(np.abs(np.diagonal(z, axis1=-2, axis2=-1) - 1.0)) > _HERMITIAN_TOL:
        raise ConfigurationError("diagonal of z must be 1 (unit-norm states)")
    if np.max(np.abs(z)) > 1.0 + _HERMITIAN_TOL:
        raise ConfigurationError("|z_jk| must be <= 1 (Cauchy-Schwarz)")
    z = 0.5 * (z + adjoint)
    eigs = np.linalg.eigvalsh(z)
    if np.any(eigs[..., 0] < -1e-9 * np.maximum(1.0, eigs[..., -1])):
        warnings.warn(
            "correlation matrix is not positive semidefinite; "
            "no unit-vector ensemble realizes it",
            stacklevel=3,
        )
    _mirror(z)
    diagonal = range(z.shape[-1])
    z[..., diagonal, diagonal] = 1.0
    return z


def unit_correlations(gram) -> np.ndarray:
    """The correlations of measured Gram matrices of near-unit states, for
    every matrix of a (..., N, N) stack: each divided by the square roots of
    its diagonal, so the mass drift is rescaled away, then checked and
    copied by _admissible once for the whole stack."""
    d = np.sqrt(np.abs(np.diagonal(gram, axis1=-2, axis2=-1)))
    return _admissible(gram / (d[..., :, None] * d[..., None, :]))


@dataclass
class CorrelationState:
    """The checked start of integrate: an N x N correlation matrix z at one
    instant.

    The constructor symmetrizes within a small tolerance and pins the
    diagonal to exactly 1; matrices further than that from admissibility are
    rejected. Gram matrices of non-unit vectors are not meaningful here.
    """

    time: float
    z: np.ndarray

    def __post_init__(self):
        if np.ndim(self.z) != 2:
            raise ConfigurationError(f"z must be square with N >= 2, got shape {np.shape(self.z)}")
        self.z = _admissible(self.z)

    @classmethod
    def from_ensemble(cls, state: EnsembleState) -> "CorrelationState":
        """The unit_correlations of an ensemble's Gram matrix."""
        return cls(state.time, unit_correlations(gram_matrix(state)))


def _checked(initial) -> np.ndarray:
    """The z of an initial CorrelationState, or of one made from a raw matrix."""
    if not isinstance(initial, CorrelationState):
        initial = CorrelationState(0.0, initial)
    return initial.z


def _require_n(config: ModelConfig, n: int) -> None:
    if config.n_oscillators != n:
        raise ConfigurationError(
            f"config holds {config.n_oscillators} frequencies but z is {n} x {n}"
        )


def _correlation_flow(omega: np.ndarray, coupling):
    """dz/dt = conj(M) z + z M^T (M as in core.mixing_flow) as a function of a
    (..., N, N) stack, with the detuning matrix and the gain built once;
    omega is (..., N) and coupling a scalar or (..., 1, 1)."""
    detune = 1j * (omega[..., :, None] - omega[..., None, :])
    gain = 0.5 * coupling / omega.shape[-1]

    def dz(z):
        row = z.sum(axis=-1)
        col = z.sum(axis=-2)
        return detune * z + gain * (row[..., :, None] + col[..., None, :]) * (1.0 - z)

    return dz


def pair_mixing_step(omega, coupling: float, dt: float):
    """The RK4 step of core.mixing_flow (dv = 1) over dt at N = 2, as a
    function of D held as four Python complex numbers (a0, a1, b0, b1), row
    by row. With s = a + b and g = K/4:

        row_j' = c_j row_j + g s,  c_j = -i Omega_j - g (row_j . conj(s)).

    Unrolled, it rounds as Python does (no fused multiply-add), at a fraction
    of the cost of the numpy calls at this size. A zero column of D stays
    exactly zero, since its column sum is zero.
    """
    r0, r1 = (-1j * float(w) for w in omega)
    g, dt = 0.25 * float(coupling), float(dt)
    h, w = 0.5 * dt, dt / 6.0

    def deriv(a0, a1, b0, b1):
        s0, s1 = a0 + b0, a1 + b1
        t0, t1 = s0.conjugate(), s1.conjugate()
        ca = r0 - g * (a0 * t0 + a1 * t1)
        cb = r1 - g * (b0 * t0 + b1 * t1)
        s0, s1 = g * s0, g * s1
        return ca * a0 + s0, ca * a1 + s1, cb * b0 + s0, cb * b1 + s1

    def step(d):
        a0, a1, b0, b1 = d
        p0, p1, p2, p3 = deriv(a0, a1, b0, b1)
        q0, q1, q2, q3 = deriv(a0 + h * p0, a1 + h * p1, b0 + h * p2, b1 + h * p3)
        u0, u1, u2, u3 = deriv(a0 + h * q0, a1 + h * q1, b0 + h * q2, b1 + h * q3)
        v0, v1, v2, v3 = deriv(a0 + dt * u0, a1 + dt * u1, b0 + dt * u2, b1 + dt * u3)
        return (
            a0 + w * (p0 + 2.0 * q0 + 2.0 * u0 + v0), a1 + w * (p1 + 2.0 * q1 + 2.0 * u1 + v1),
            b0 + w * (p2 + 2.0 * q2 + 2.0 * u2 + v2), b1 + w * (p3 + 2.0 * q3 + 2.0 * u3 + v3),
        )

    return step


def full_rhs(z: np.ndarray, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative of the full pairwise system at the N x N correlation
    matrix z, split as (dr, ds)."""
    _require_n(config, len(z))
    dz = _correlation_flow(np.asarray(config.frequencies), config.coupling)(z)
    return dz.real, dz.imag


def two_rhs(z: complex, omega: float, k_coupling: float) -> complex:
    """Scalar pair correlation: dz/dt = 2 i Omega z + (K/2)(1 - z^2).

    omega is the half-difference of the two detunings (frequencies are
    (Omega, -Omega) after centering). Fixed points for 2 Omega <= K sit at
    +-sqrt(1 - Lambda^2) + i Lambda with Lambda = 2 Omega / K.
    """
    return 2j * omega * z + 0.5 * k_coupling * (1.0 - z * z)


def macro_rhs(z: np.ndarray, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative of (r_tilde, s_tilde), r_tilde_j + i s_tilde_j =
    (1/N) sum_l z_lj = <zeta, psi_j>, at the N x N correlation matrix z.

    The macroscopic system is not closed; pairwise entries are read from z.
    Equals the row average of full_rhs identically.
    """
    n = len(z)
    _require_n(config, n)
    omega = np.asarray(config.frequencies)
    w = z.mean(axis=0)
    dw = (
        -1j * omega * w
        + 1j * (omega @ z) / n
        + 0.5
        * config.coupling
        * (w * (1.0 - w) + (np.conj(w) @ (1.0 - z)) / n)
    )
    return dw.real, dw.imag


def fg_rhs(z: np.ndarray, k_coupling: float, frequencies=None) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative of the decay variables f_j = 1 - r_tilde_j, g_j =
    -s_tilde_j of identical oscillators at the N x N correlation matrix z.

    Valid only when every detuning vanishes; pass the config frequencies to
    have that checked. The pairwise f_pair = 1 - r, g_pair = -s are read
    from z.
    """
    if frequencies is not None and np.max(np.abs(np.asarray(frequencies))) > 0.0:
        raise ContractViolationError("the f/g reduction requires zero frequencies")
    w = z.mean(axis=0)
    f, g = 1.0 - w.real, -w.imag
    f_pair, g_pair = 1.0 - z.real, -z.imag
    cross_f = np.mean(f[:, None] * f_pair + g[:, None] * g_pair, axis=0)
    cross_g = np.mean(f[:, None] * g_pair - g[:, None] * f_pair, axis=0)
    df = -0.5 * k_coupling * (2.0 * f - (f**2 - g**2) - cross_f)
    dg = -0.5 * k_coupling * (2.0 * g - 2.0 * f * g - cross_g)
    return df, dg


def zeta_norm_rhs(z: np.ndarray, config: ModelConfig) -> float:
    """Time derivative of the squared order-parameter norm (1/N) sum r_tilde
    at the N x N correlation matrix z."""
    _require_n(config, len(z))
    omega = np.asarray(config.frequencies)
    w = z.mean(axis=0)
    return float(
        2.0 * np.mean(omega * w.imag)
        + config.coupling * (w.real.mean() - np.mean(w.real**2 - w.imag**2))
    )


def random_correlation_matrix(n: int, seed: int, coherence: float = 0.0) -> np.ndarray:
    """Gram matrix of n random unit vectors in C^(4n): always a valid
    initial z.

    coherence > 0 biases all vectors toward a common direction, raising every
    r_tilde_j above zero (the generic basin of the synchronization results).
    """
    if n < 2:
        raise ConfigurationError("need n >= 2")
    m = 4 * n
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, m, 2))
    v = v[..., 0] + 1j * v[..., 1]
    if coherence > 0.0:
        v[:, 0] += coherence * np.sqrt(2.0 * m)
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    z = v.conj() @ v.T
    _mirror(z)
    np.fill_diagonal(z, 1.0)
    return z


def _pair_matrices(z) -> np.ndarray:
    """The 2 x 2 correlation matrices of an array of pair correlations z_01,
    shape z.shape + (2, 2)."""
    z = np.asarray(z)
    pair = np.empty(z.shape + (2, 2), dtype=np.complex128)
    pair[..., 0, 0] = 1.0
    pair[..., 1, 1] = 1.0
    pair[..., 0, 1] = z
    pair[..., 1, 0] = np.conj(z)
    return pair


@dataclass
class CorrelationSeries:
    """Sampled trajectory of the pairwise system: times (S,), z (S, N, N).

    The two-oscillator system is the N = 2 case; from_pair builds it from
    samples of the single correlation z = <psi_1, psi_2>.
    """

    times: np.ndarray
    z: np.ndarray
    richardson_error: float | None = None

    @classmethod
    def from_pair(cls, times, z) -> "CorrelationSeries":
        return cls(times=np.asarray(times), z=_pair_matrices(z))

    @property
    def n_oscillators(self) -> int:
        return self.z.shape[1]

    @property
    def macroscopic(self) -> np.ndarray:
        """w_j(t) = (1/N) sum_l z_lj, shape (S, N)."""
        return self.z.mean(axis=1)

    @property
    def r_tilde(self) -> np.ndarray:
        return self.macroscopic.real

    @property
    def s_tilde(self) -> np.ndarray:
        return self.macroscopic.imag

    @property
    def zeta_norm_sq(self) -> np.ndarray:
        return self.z.mean(axis=(1, 2)).real

    @property
    def lyapunov(self) -> np.ndarray:
        w = self.macroscopic
        return 0.5 * np.mean((1.0 - w.real) ** 2 + w.imag**2, axis=1)


@np.errstate(over="ignore", invalid="ignore")
def _rk4_samples(y0, deriv, dt, n_steps, sample_stride):
    """Fixed-step RK4 from y0, sampled every sample_stride steps plus the end.

    y0 is a (B, N, N) stack of B cells, whose lower triangles are mirrored
    from the upper ones after every step. Returns the sampled steps (S,),
    the samples (S, B, N, N) and, per cell, the first sampled step at which
    it held a non-finite value, 0 when it stayed finite; a cell's samples
    from that step on are not meaningful. Stepping stops once every cell has
    diverged. Blow-up shows as non-finite samples, so the overflow and
    invalid-value warnings on the way there are silenced.
    """
    y = y0.copy()
    first_bad = np.zeros(len(y0), dtype=np.int64)
    samples = [y]
    sample_steps = [0]
    step = 0
    for count in sample_intervals(n_steps, sample_stride):
        for _ in range(count):
            y = _mirror(rk4_step(y, deriv, dt))
        step += count
        finite = np.isfinite(y).all(axis=(1, 2))
        first_bad[~finite & (first_bad == 0)] = step
        if first_bad.all():
            break
        samples.append(y)
        sample_steps.append(step)
    return np.array(sample_steps), np.array(samples), first_bad


def _pair_samples(z: complex, omega: float, coupling: float, dt, n_steps, sample_stride):
    """RK4 on two_rhs from the pair correlation z, sampled every
    sample_stride steps plus the end, with the bits rk4_step(z, two_rhs)
    gives. Returns the sampled steps (S,), the samples (S,) and the first
    sampled step at which z was not finite, 0 when it stayed finite;
    stepping stops there.

    z is carried as two floats, x + i y. Each stage is the component
    formulas CPython's complex arithmetic evaluates for two_rhs and
    rk4_step, in their order ((ac - bd, ad + bc) for a product, a real
    operand promoted to (v, 0.0)), rewritten only where the sign of a zero
    is all that can change: the products with a zero that the promotions and
    2i Omega's zero real part add are left out, a b + b a is p + p with
    p = a b, and gain * (0.0 - w) is a negation of gain * w. A product's
    magnitude, and its sign when it is nonzero, do not depend on the sign
    of a zero, and adding a zero to a nonzero number leaves it, so every
    value the loop forms has the complex loop's magnitude, and its sign
    when nonzero; an overflow happens at the same operation in both, and a
    non-finite z stays non-finite, so both stop at the same sample. A zero
    sample component is +0 in both if its last step moved it (a
    cancellation). One that stayed still takes its sign from the complex
    loop's zeros: on the real axis at Omega = 0 and K >= +0 every stage's
    imaginary part is +0, so a still imaginary part is +0; any other still
    zero re-steps the interval through rk4_step over two_rhs from the
    previous sample."""
    omega, coupling, dt = float(omega), float(coupling), float(dt)
    spin, gain, half, sixth = 2.0 * omega, 0.5 * coupling, 0.5 * dt, dt / 6.0
    real_axis = omega == 0.0 and math.copysign(1.0, gain) > 0.0
    x, y = z.real, z.imag
    sample_steps, samples = [0], [z]
    bad = step = 0
    for count in sample_intervals(n_steps, sample_stride):
        for _ in range(count):
            p = x * y
            k1r = gain * (1.0 - (x * x - y * y)) - spin * y
            k1i = spin * x - gain * (p + p)
            a, b = x + half * k1r, y + half * k1i
            p = a * b
            k2r = gain * (1.0 - (a * a - b * b)) - spin * b
            k2i = spin * a - gain * (p + p)
            a, b = x + half * k2r, y + half * k2i
            p = a * b
            k3r = gain * (1.0 - (a * a - b * b)) - spin * b
            k3i = spin * a - gain * (p + p)
            a, b = x + dt * k3r, y + dt * k3i
            p = a * b
            k4r = gain * (1.0 - (a * a - b * b)) - spin * b
            k4i = spin * a - gain * (p + p)
            dx = sixth * (k1r + 2.0 * k2r + 2.0 * k3r + k4r)
            dy = sixth * (k1i + 2.0 * k2i + 2.0 * k3i + k4i)
            x += dx
            y += dy
        if (x or dx) and (y or dy or real_axis):
            z = complex(x, y or 0.0)
        else:
            z = samples[-1]
            for _ in range(count):
                z = rk4_step(z, lambda u: two_rhs(u, omega, coupling), dt)
            x, y = z.real, z.imag
        step += count
        if not cmath.isfinite(z):
            bad = step
            break
        samples.append(z)
        sample_steps.append(step)
    return np.array(sample_steps), np.array(samples), bad


def _outcome(sample_steps, samples, bad_step, dt):
    """A cell's CorrelationSeries, or, when it went non-finite at bad_step,
    the DivergenceError carrying its samples from before that step."""
    if not bad_step:
        return CorrelationSeries(times=sample_steps * dt, z=samples)
    keep = sample_steps < bad_step
    return DivergenceError(
        "correlation integration produced non-finite values",
        step_index=int(bad_step),
        time=int(bad_step) * dt,
        partial={"times": sample_steps[keep] * dt, "values": samples[keep]},
    )


def _cells(z0, omega, coupling, dt, n_steps, stride):
    """The full system for B cells of one N: z0 is their (B, N, N) stack of
    initial states, omega their (B, N) detunings, coupling their B gains.
    Returns each cell's outcome, in order (see _outcome); a diverging cell
    does not stop the others. N = 2 cells step one at a time through the
    scalar pair loop, under a microsecond per cell-step, where a (B,) vector
    of pairs pays numpy's per-call overhead, tens of microseconds a step,
    and wins only above about 30 cells. N >= 3 cells step together as one
    stack."""
    omega, coupling = np.asarray(omega, dtype=float), np.asarray(coupling, dtype=float)
    if z0.shape[-1] == 2:
        # Python scalars: numpy scalars would round alike but cost several
        # times more per step
        half_gaps = (0.5 * (omega[:, 0] - omega[:, 1])).tolist()
        pairs = zip(z0[:, 0, 1].tolist(), half_gaps, coupling.tolist())
        runs = [_pair_samples(z, w, k, dt, n_steps, stride) for z, w, k in pairs]
        return [_outcome(steps, _pair_matrices(z), bad, dt) for steps, z, bad in runs]
    deriv = _correlation_flow(omega, coupling.reshape(-1, 1, 1))
    steps, samples, bad = _rk4_samples(z0, deriv, dt, n_steps, stride)
    stack = np.ascontiguousarray(np.swapaxes(samples, 0, 1))
    return [_outcome(steps, z, step, dt) for z, step in zip(stack, bad)]


def integrate(
    system: str,
    initial,
    config: ModelConfig,
    dt: float,
    t_end: float,
    sample_stride: int = 1,
    self_check: bool = False,
) -> CorrelationSeries:
    """Fixed-step RK4 integration of one of the reduced systems.

    system is "full" (N x N pairwise), "two" (the pair correlation z_01; the
    config must hold two frequencies), or "fg" (pairwise system under
    identical oscillators, stepped in the decay variables F = 1 - z).
    initial is a CorrelationState or raw matrix for "full"/"fg", a complex
    number for "two", which is not checked; every system returns an N x N
    series, whose first sample is the start itself (fg's too). "full" and
    "two" run as one cell of integrate_batch, so at N = 2 both step z_01
    through the pair loop and give the same series bit for bit. Samples
    land every sample_stride steps plus the final time. A
    non-finite value raises DivergenceError. self_check = True repeats the
    run at twice the step and attaches a Richardson estimate of the terminal
    error.
    """
    if sample_stride < 1:
        raise ConfigurationError("sample_stride must be >= 1")
    n_steps = step_count(dt, t_end)
    k = config.coupling
    omega = np.asarray(config.frequencies, dtype=float)
    if system == "two":
        z0 = _pair_matrices(complex(initial))
        if config.n_oscillators != 2:
            raise ConfigurationError("the two-oscillator system needs exactly 2 frequencies")
    elif system in ("full", "fg"):
        z0 = _checked(initial)
        _require_n(config, len(z0))
    else:
        raise ConfigurationError(f"unknown system {system!r}; expected full, two, or fg")
    if system == "fg":
        if np.max(np.abs(omega)) > 0.0:
            raise ContractViolationError("the f/g reduction requires zero frequencies")

        def deriv(big_f):
            phi = big_f.mean(axis=-2)
            return -0.5 * k * (2.0 - np.conj(phi)[..., :, None] - phi[..., None, :]) * big_f

    def run(step_dt, steps, stride):
        if system == "fg":
            sample_steps, f, (bad,) = _rk4_samples(1.0 - z0[None], deriv, step_dt, steps, stride)
            z = 1.0 - f[:, 0]
            z[0] = z0  # the start itself, not 1 - (1 - z0)
            outcome = _outcome(sample_steps, z, bad, step_dt)
        else:
            (outcome,) = _cells(z0[None], omega[None], [k], step_dt, steps, stride)
        if isinstance(outcome, DivergenceError):
            raise outcome
        return outcome

    series = run(dt, n_steps, sample_stride)
    if self_check:
        if n_steps % 2:
            warnings.warn("self_check needs an even step count; estimate skipped")
        elif n_steps >= 2:
            half = n_steps // 2
            last = run(2.0 * dt, half, half).z[-1]
            series.richardson_error = float(np.max(np.abs(series.z[-1] - last)) / 15.0)
    return series


def integrate_batch(z0s, configs, dt: float, t_end: float, sample_stride: int = 1):
    """integrate("full") for B cells of one N: z0s holds B initial states
    (CorrelationStates or raw matrices), configs their B ModelConfigs. The
    cells step through one runner: N = 2 cells one at a time through the
    scalar pair loop, N >= 3 cells together as one (B, N, N) stack. Returns
    one entry per cell, in order: its CorrelationSeries, bit for bit what
    integrate("full") gives for that cell alone, or the DivergenceError that
    call would raise. A diverging cell does not stop the others."""
    if sample_stride < 1:
        raise ConfigurationError("sample_stride must be >= 1")
    n_steps = step_count(dt, t_end)
    z0s = [_checked(z) for z in z0s]
    n = len(z0s[0]) if z0s else 0
    if not z0s or len(configs) != len(z0s) or any(len(z) != n for z in z0s):
        raise ConfigurationError(
            f"need B >= 1 initial states of one N and a config for each; got "
            f"{len(z0s)} states and {len(configs)} configs"
        )
    for config in configs:
        _require_n(config, n)
    omega = [config.frequencies for config in configs]
    coupling = [config.coupling for config in configs]
    return _cells(np.array(z0s), omega, coupling, dt, n_steps, sample_stride)
