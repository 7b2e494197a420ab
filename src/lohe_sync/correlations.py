"""Exact finite-dimensional reductions of the coupled-wavefunction dynamics.

The pairwise correlations z_jk = <psi_j, psi_k> close on themselves: along
any solution of the wave system,

    dz_jk/dt = i (Omega_j - Omega_k) z_jk
               + (K/2N) sum_l (z_jl + z_lk) (1 - z_jk)

with z_jj = 1 frozen and Hermitian symmetry preserved. This module integrates
that system (and its two-oscillator, macroscopic, and identical-frequency
specializations) independently of any PDE machinery, so the two levels can be
checked against each other.

Derivatives are exposed in real/imaginary split form (r, s), matching the
emitted file schemas; the integrator works on a stack of complex matrices
and mirrors the lower triangles from the upper ones every step, so
r_jk - r_kj and s_jk + s_kj are exactly zero along trajectories. A single
run is a stack of one; integrate_batch steps many runs of one N together.
At N = 2 the system is the single pair correlation z_01: the two-oscillator
system, a "full" run and a batch of pairs all step z_01 alone, with one
rounding (a Python complex, or a vector of them rounded alike), and return
2 x 2 series. A single pair is stepped by _pair_samples, one loop that
writes RK4's four stages out on the Python complex and samples as it goes.

mixing_flow is the coupling on the fields' coefficients D over an orthonormal
basis, which the solver's span scheme steps; at N = 2, pair_mixing_step steps
D as four Python complexes, with Python's rounding (no fused multiply-add).
"""

from __future__ import annotations

import cmath
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
    "MacroCorrelation",
    "CorrelationSeries",
    "full_rhs",
    "two_rhs",
    "macro_rhs",
    "fg_rhs",
    "zeta_norm_rhs",
    "random_correlation_matrix",
    "mixing_flow",
    "pair_mixing_step",
    "pair_distance",
    "rk4_step",
    "integrate",
    "integrate_batch",
    "step_count",
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


def rk4_step(y, deriv, dt: float):
    """One classical RK4 step of dy/dt = deriv(y). y is an array of any shape
    or a Python complex; every fixed-step integration in the package goes
    through this one combination, except two that write the same one out on
    Python complexes: span's pair D (pair_mixing_step) and the pair
    correlation z_01 (_pair_samples)."""
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
    """The checked copy a CorrelationState holds, for every matrix of a
    (..., N, N) stack at once: each check runs once on the whole stack (one
    batched eigvalsh for the warning). The copy is symmetrized, mirrored
    and given an exact unit diagonal."""
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


@dataclass
class CorrelationState:
    """N x N correlation matrix z_jk = r_jk + i s_jk at one instant.

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
    def from_gram(cls, time: float, z: np.ndarray) -> "CorrelationState":
        """Correlations from the measured Gram matrix of near-unit states,
        with the diagonal drift rescaled away."""
        return cls.from_grams([time], np.asarray(z)[None])[0]

    @classmethod
    def from_grams(cls, times, z: np.ndarray) -> list["CorrelationState"]:
        """from_gram of each matrix of a (B, N, N) stack: the constructor's
        checks run once on the whole stack, then each matrix is wrapped
        without checking it again."""
        d = np.sqrt(np.abs(np.diagonal(z, axis1=-2, axis2=-1)))
        z = _admissible(z / (d[..., :, None] * d[..., None, :]))
        states = []
        for time, zb in zip(times, z):
            state = cls.__new__(cls)
            state.time, state.z = time, zb
            states.append(state)
        return states

    @classmethod
    def from_ensemble(cls, state: EnsembleState) -> "CorrelationState":
        return cls.from_gram(state.time, gram_matrix(state))

    @property
    def n_oscillators(self) -> int:
        return self.z.shape[0]

    @property
    def r(self) -> np.ndarray:
        return self.z.real

    @property
    def s(self) -> np.ndarray:
        return self.z.imag


@dataclass
class MacroCorrelation:
    """Row-averaged correlations and their decay variables.

    r_tilde_j + i s_tilde_j = (1/N) sum_l z_lj = <zeta, psi_j>; the decay
    variables are f_j = 1 - r_tilde_j, g_j = -s_tilde_j, and pairwise
    f_pair = 1 - r, g_pair = -s.
    """

    r_tilde: np.ndarray
    s_tilde: np.ndarray
    f: np.ndarray
    g: np.ndarray
    f_pair: np.ndarray
    g_pair: np.ndarray

    @classmethod
    def from_correlation(cls, state: CorrelationState) -> "MacroCorrelation":
        w = state.z.mean(axis=0)
        return cls(
            r_tilde=w.real.copy(),
            s_tilde=w.imag.copy(),
            f=1.0 - w.real,
            g=-w.imag,
            f_pair=1.0 - state.z.real,
            g_pair=-state.z.imag,
        )

    @property
    def zeta_norm_sq(self) -> float:
        return float(self.r_tilde.mean())

    @property
    def lyapunov(self) -> float:
        return float(0.5 * np.mean(self.f**2 + self.g**2))


def _require_n(config: ModelConfig, n: int) -> None:
    if config.n_oscillators != n:
        raise ConfigurationError(
            f"config holds {config.n_oscillators} frequencies but z is {n} x {n}"
        )


def _correlation_flow(omega: np.ndarray, coupling):
    """dz/dt = conj(M) z + z M^T (M as in mixing_flow) as a function of a
    (..., N, N) stack, with the detuning matrix and the gain built once;
    omega is (..., N) and coupling a scalar or (..., 1, 1)."""
    detune = 1j * (omega[..., :, None] - omega[..., None, :])
    gain = 0.5 * coupling / omega.shape[-1]

    def dz(z):
        row = z.sum(axis=-1)
        col = z.sum(axis=-2)
        return detune * z + gain * (row[..., :, None] + col[..., None, :]) * (1.0 - z)

    return dz


def mixing_flow(omega: np.ndarray, coupling: float):
    """dD/dt = M(conj(D) D^T) D as a function of an N x r coefficient matrix D.

    The coupling and detuning flow of the fields is psi' = M(z) psi, row j of
    psi being oscillator j, with M(z) = -i diag(Omega) + (K/2)((1/N) 1 1^T -
    diag(w)), w_j = (1/N) sum_l z_lj; it only mixes the fields, which is why
    the correlations close on themselves. Fields psi = D q over r orthonormal
    basis fields q have the Gram matrix conj(D) D^T, so this is that flow
    written on D. With s = 1^T D (the sum of D's rows) and g = K / (2N),
    N w = D conj(s) and M D = (-i Omega - g N w)[:, None] D + g s: two
    broadcasts, with no N x N Gram matrix, diagonal or product.
    """
    rotation = -1j * np.asarray(omega)
    gain = 0.5 * coupling / rotation.shape[-1]

    def deriv(d):
        s = d.sum(axis=0)
        return (rotation - gain * (d @ np.conj(s)))[:, None] * d + gain * s

    return deriv


def pair_mixing_step(omega, coupling: float, dt: float):
    """The RK4 step of mixing_flow over dt at N = 2, as a function of D held as
    four Python complex numbers (a0, a1, b0, b1), row by row. With s = a + b
    and g = K/4:

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


def full_rhs(state: CorrelationState, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative of the full pairwise system, split as (dr, ds)."""
    _require_n(config, state.n_oscillators)
    dz = _correlation_flow(np.asarray(config.frequencies), config.coupling)(state.z)
    return dz.real, dz.imag


def two_rhs(z: complex, omega: float, k_coupling: float) -> complex:
    """Scalar pair correlation: dz/dt = 2 i Omega z + (K/2)(1 - z^2).

    omega is the half-difference of the two detunings (frequencies are
    (Omega, -Omega) after centering). Fixed points for 2 Omega <= K sit at
    +-sqrt(1 - Lambda^2) + i Lambda with Lambda = 2 Omega / K.
    """
    return 2j * omega * z + 0.5 * k_coupling * (1.0 - z * z)


def _pair_flow(omega: np.ndarray, coupling: np.ndarray):
    """two_rhs over a (B,) array of pair correlations, with B half-detunings
    and B gains, rounded as two_rhs rounds one Python complex.

    numpy may fuse the parts of a complex product (FMA), so z^2 is formed
    from the real and imaginary parts in Python's order; every other product
    has a real or purely imaginary factor, which rounds alike either way.
    """
    rotation = 2.0 * omega
    gain = 0.5 * coupling

    def dz(z):
        x, y = z.real, z.imag
        out = np.empty_like(z)
        out.real = gain * (1.0 - (x * x - y * y)) - rotation * y
        out.imag = rotation * x - gain * (x * y + y * x)
        return out

    return dz


def macro_rhs(state: CorrelationState, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative of (r_tilde, s_tilde).

    The macroscopic system is not closed; pairwise entries are read from the
    state. Equals the row average of full_rhs identically.
    """
    _require_n(config, state.n_oscillators)
    z = state.z
    n = state.n_oscillators
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


def fg_rhs(
    macro: MacroCorrelation,
    k_coupling: float,
    frequencies=None,
) -> tuple[np.ndarray, np.ndarray]:
    """Time derivative of the decay variables (f_j, g_j), identical oscillators.

    Valid only when every detuning vanishes; pass the config frequencies to
    have that checked. Pairwise f_pair, g_pair are read from the input.
    """
    if frequencies is not None and np.max(np.abs(np.asarray(frequencies))) > 0.0:
        raise ContractViolationError("the f/g reduction requires zero frequencies")
    f, g = macro.f, macro.g
    cross_f = np.mean(f[:, None] * macro.f_pair + g[:, None] * macro.g_pair, axis=0)
    cross_g = np.mean(f[:, None] * macro.g_pair - g[:, None] * macro.f_pair, axis=0)
    df = -0.5 * k_coupling * (2.0 * f - (f**2 - g**2) - cross_f)
    dg = -0.5 * k_coupling * (2.0 * g - 2.0 * f * g - cross_g)
    return df, dg


def zeta_norm_rhs(state: CorrelationState, config: ModelConfig) -> float:
    """Time derivative of the squared order-parameter norm (1/N) sum r_tilde."""
    _require_n(config, state.n_oscillators)
    omega = np.asarray(config.frequencies)
    macro = MacroCorrelation.from_correlation(state)
    zeta_sq = macro.zeta_norm_sq
    return float(
        2.0 * np.mean(omega * macro.s_tilde)
        + config.coupling * (zeta_sq - np.mean(macro.r_tilde**2 - macro.s_tilde**2))
    )


def random_correlation_matrix(
    n: int,
    seed: int,
    ambient_dim: int | None = None,
    coherence: float = 0.0,
) -> np.ndarray:
    """Gram matrix of n random unit vectors: always a valid initial z.

    coherence > 0 biases all vectors toward a common direction, raising every
    r_tilde_j above zero (the generic basin of the synchronization results).
    """
    if n < 2:
        raise ConfigurationError("need n >= 2")
    m = ambient_dim if ambient_dim is not None else 4 * n
    if m < n:
        raise ConfigurationError("ambient_dim must be >= n for a full-rank Gram matrix")
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
    def r(self) -> np.ndarray:
        return self.z.real

    @property
    def s(self) -> np.ndarray:
        return self.z.imag

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

    def state_at(self, index: int) -> CorrelationState:
        return CorrelationState(time=float(self.times[index]), z=self.z[index].copy())


def _rk4_samples(y0, deriv, dt, n_steps, sample_stride, self_check_every=0):
    """Fixed-step RK4 from y0, sampled every sample_stride steps plus the end.

    y0 is a stack of B cells: a (B, N, N) array, whose lower triangles are
    mirrored from the upper ones after every step, or a (B,) array of pair
    correlations. Returns the sampled steps (S,), the samples (S, *y0.shape)
    and, per cell, the first sampled step at which it held a non-finite
    value, 0 when it stayed finite; a cell's samples from that step on are
    not meaningful. Stepping stops once every cell has diverged.
    """
    matrix = y0.ndim == 3
    y = y0.copy()
    first_bad = np.zeros(len(y0), dtype=np.int64)
    samples = [y]
    sample_steps = [0]
    for step in range(1, n_steps + 1):
        y = rk4_step(y, deriv, dt)
        if matrix:
            _mirror(y)
        if step % sample_stride == 0 or step == n_steps:
            finite = np.isfinite(y).reshape(len(first_bad), -1).all(axis=1)
            first_bad[~finite & (first_bad == 0)] = step
            if first_bad.all():
                break
            if matrix and self_check_every and (step // sample_stride) % self_check_every == 0:
                drift = np.max(np.abs(y - np.conj(np.swapaxes(y, -1, -2))))
                if drift > 1e-12:
                    raise ContractViolationError(
                        f"Hermitian drift {drift:.2e} at step {step}"
                    )
            if step % sample_stride == 0:
                samples.append(y)
                sample_steps.append(step)
    else:
        if sample_steps[-1] != n_steps:
            samples.append(y)
            sample_steps.append(n_steps)
    return np.array(sample_steps), np.array(samples), first_bad


def _pair_samples(z: complex, omega: float, coupling: float, dt, n_steps, sample_stride):
    """RK4 on two_rhs from the pair correlation z, sampled every
    sample_stride steps plus the end. The four stages are written out on one
    Python complex, in rk4_step's and two_rhs's order, so the samples are
    the bits rk4_step(z, two_rhs) gives. Returns the sampled steps (S,), the
    samples (S,) and the first sampled step at which z was not finite, 0
    when it stayed finite; stepping stops there."""
    rotation, gain = 2j * omega, 0.5 * coupling
    half, sixth = 0.5 * dt, dt / 6.0
    sample_steps, samples = [0], [z]
    bad = 0
    for start in range(0, n_steps, sample_stride):
        for _ in range(min(sample_stride, n_steps - start)):
            k1 = rotation * z + gain * (1.0 - z * z)
            u = z + half * k1
            k2 = rotation * u + gain * (1.0 - u * u)
            u = z + half * k2
            k3 = rotation * u + gain * (1.0 - u * u)
            u = z + dt * k3
            k4 = rotation * u + gain * (1.0 - u * u)
            z = z + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        step = min(start + sample_stride, n_steps)
        if not cmath.isfinite(z):
            bad = step
            break
        samples.append(z)
        sample_steps.append(step)
    return np.array(sample_steps), np.array(samples), bad


def _divergence(sample_steps, samples, bad_step, dt) -> DivergenceError:
    """The error for one cell that went non-finite at bad_step, carrying its
    samples from before that step."""
    keep = sample_steps < bad_step
    return DivergenceError(
        "correlation integration produced non-finite values",
        step_index=int(bad_step),
        time=int(bad_step) * dt,
        partial={"times": sample_steps[keep] * dt, "values": samples[keep]},
    )


def _two_omega(config: ModelConfig) -> float:
    if config.n_oscillators != 2:
        raise ConfigurationError("the two-oscillator system needs exactly 2 frequencies")
    w1, w2 = config.frequencies
    return 0.5 * (w1 - w2)


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

    system is "full" (N x N pairwise), "two" (the pair correlation z_01,
    stepped as one complex number; the config must hold two frequencies), or
    "fg" (pairwise system under identical oscillators, stepped in the decay
    variables F = 1 - z). initial is a CorrelationState or raw matrix for
    "full"/"fg", a complex number for "two"; every system returns an N x N
    series. At N = 2, "full" steps z_01 alone through "two", so both give
    the same series bit for bit. Samples land every sample_stride steps plus
    the final time. self_check = True repeats the run at twice the step and
    attaches a Richardson estimate of the terminal error.
    """
    if sample_stride < 1:
        raise ConfigurationError("sample_stride must be >= 1")
    n_steps = step_count(dt, t_end)
    k = config.coupling

    if system == "two":
        y0 = complex(initial)
    elif system in ("full", "fg"):
        state = initial if isinstance(initial, CorrelationState) else CorrelationState(0.0, initial)
        omega = np.asarray(config.frequencies, dtype=float)
        _require_n(config, state.n_oscillators)
        if system == "fg":
            if np.max(np.abs(omega)) > 0.0:
                raise ContractViolationError("the f/g reduction requires zero frequencies")

            def deriv(big_f):
                phi = big_f.mean(axis=-2)
                return -0.5 * k * (2.0 - np.conj(phi)[..., :, None] - phi[..., None, :]) * big_f

            y0 = 1.0 - state.z[None]  # a stack of one cell

            def to_z(big_f):
                return 1.0 - big_f[:, 0]
        elif state.n_oscillators == 2:
            y0 = complex(state.z[0, 1])
        else:
            deriv = _correlation_flow(omega, k)
            y0 = state.z[None]

            def to_z(z):
                return z[:, 0]
    else:
        raise ConfigurationError(f"unknown system {system!r}; expected full, two, or fg")

    pair = isinstance(y0, complex)
    if pair:
        omega = _two_omega(config)
        to_z = _pair_matrices

    def run(step_dt, steps, stride, check_every=0):
        if pair:
            sample_steps, samples, bad = _pair_samples(y0, omega, k, step_dt, steps, stride)
        else:
            sample_steps, samples, (bad,) = _rk4_samples(
                y0, deriv, step_dt, steps, stride, check_every
            )
        samples = to_z(samples)
        if bad:
            raise _divergence(sample_steps, samples, bad, step_dt)
        return sample_steps, samples

    steps, samples = run(dt, n_steps, sample_stride, 8 if self_check else 0)
    richardson = None
    if self_check:
        if n_steps % 2:
            warnings.warn("self_check needs an even step count; estimate skipped")
        elif n_steps >= 2:
            half = n_steps // 2
            last = run(2.0 * dt, half, half)[1][-1]
            richardson = float(np.max(np.abs(samples[-1] - last)) / 15.0)
    return CorrelationSeries(times=steps * dt, z=samples, richardson_error=richardson)


def integrate_batch(z0s, couplings, frequencies, dt: float, t_end: float, sample_stride: int = 1):
    """integrate("full") for B cells of one N at once, stepped as one
    (B, N, N) stack, or at N = 2 as the (B,) pair correlations z_01: z0s
    holds B initial states (CorrelationStates or raw matrices), couplings B
    gains, frequencies B rows of N detunings. Returns one entry per cell, in
    order: its CorrelationSeries, bit for bit what integrate("full") gives
    for that cell alone, or the DivergenceError that call would raise. A
    diverging cell does not stop the others."""
    if sample_stride < 1:
        raise ConfigurationError("sample_stride must be >= 1")
    n_steps = step_count(dt, t_end)
    states = [z if isinstance(z, CorrelationState) else CorrelationState(0.0, z) for z in z0s]
    omega = np.asarray(frequencies, dtype=float)
    k = np.asarray(couplings, dtype=float)
    n = states[0].n_oscillators if states else 0
    if not states or omega.shape != (len(states), n) or k.shape != (len(states),) or any(
        state.n_oscillators != n for state in states
    ):
        raise ConfigurationError(
            f"need B >= 1 initial states of one N, B couplings and B x N frequencies; got "
            f"{len(states)} states, {k.size} couplings and frequencies of shape {omega.shape}"
        )
    if n == 2:
        z0 = np.array([state.z[0, 1] for state in states])
        deriv = _pair_flow(0.5 * (omega[:, 0] - omega[:, 1]), k)
        to_z = _pair_matrices
    else:
        z0 = np.array([state.z for state in states])
        deriv = _correlation_flow(omega, k.reshape(-1, 1, 1))
        to_z = np.ascontiguousarray
    steps, samples, bad = _rk4_samples(z0, deriv, dt, n_steps, sample_stride)
    cells = to_z(np.swapaxes(samples, 0, 1))
    return [
        _divergence(steps, cell, step, dt)
        if step
        else CorrelationSeries(times=steps * dt, z=cell)
        for cell, step in zip(cells, bad)
    ]
