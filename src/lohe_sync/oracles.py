"""Closed-form references for the two-oscillator system and stationary states.

The pair correlation z = <psi_1, psi_2> obeys the scalar Riccati flow
dz/dt = 2i Omega z + (K/2)(1 - z^2), whose behaviour is governed by
Lambda = 2 Omega / K:

  Lambda < 1   two fixed points on the unit circle; the flow is a Moebius
               contraction onto e^{i phi}, phi = arcsin Lambda, at rate
               mu = sqrt(K^2 - 4 Omega^2)
  Lambda = 1   the fixed points merge at i; algebraic 1/t approach
  Lambda > 1   no fixed points; closed periodic orbits

Everything here is independent of the integrators, so it can sit in judgment
over them. The scattering construction at the bottom is the one exception:
it consumes a solver trajectory, but applies only exact linear propagators
to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EnsembleState,
    ModelConfig,
    WaveField,
    coupling_term,
    inner_product,
    order_parameter,
)
from .errors import (
    ContractViolationError,
    ExcludedInitialStateError,
    SeriesTooShortError,
    UnsupportedRegimeError,
)
from .solver import Trajectory, propagate_linear

__all__ = [
    "TwoOscRegime",
    "SyncLimits",
    "FixedPointClass",
    "ScatteringResult",
    "classify_two",
    "classify_pair",
    "z_exact",
    "sync_limits_two",
    "sync_distance_sq",
    "classify_fixed_point",
    "scattering_state",
]

_REGIMES = ("underdamped_sync", "critical", "periodic")


@dataclass(frozen=True)
class TwoOscRegime:
    """Classification record for one (K, Omega) pair.

    Fields that only exist on one side of the Lambda = 1 threshold are None
    on the other side: phi/stable_point/unstable_point/rate for the periodic
    regime, period for the synchronizing ones. At Lambda = 1 the two fixed
    points coincide at i and rate degenerates to 0.
    """

    coupling: float
    omega: float
    lam: float
    regime: str
    phi: float | None
    stable_point: complex | None
    unstable_point: complex | None
    rate: float | None
    period: float | None


def classify_two(k_coupling: float, omega: float) -> TwoOscRegime:
    """Place a two-oscillator parameter pair in the trichotomy. K > 0, Omega >= 0.

    The rate sqrt(K^2 - 4 Omega^2) and the period's sqrt(4 Omega^2 - K^2)
    are formed from (K - 2 Omega)(K + 2 Omega), whose first factor is exact
    near Lambda = 1, so they keep full precision there; so do the fixed
    points' real part sqrt(1 - Lambda^2) = rate / K and phi = arcsin Lambda,
    taken as atan2(Lambda, rate / K)."""
    if not (k_coupling > 0):
        raise ContractViolationError(f"coupling must be positive, got {k_coupling}")
    if not (omega >= 0):
        raise ContractViolationError(f"frequency parameter must be >= 0, got {omega}")
    lam = 2.0 * omega / k_coupling
    gap = (k_coupling - 2.0 * omega) * (k_coupling + 2.0 * omega)  # K^2 - 4 Omega^2
    if lam <= 1.0:
        rate = float(np.sqrt(max(0.0, gap)))
        root = rate / k_coupling  # sqrt(1 - Lambda^2)
        return TwoOscRegime(
            coupling=k_coupling,
            omega=omega,
            lam=lam,
            regime="critical" if lam == 1.0 else "underdamped_sync",
            phi=float(np.arctan2(lam, root)),
            stable_point=complex(root, lam),
            unstable_point=complex(-root, lam),
            rate=rate,
            period=None,
        )
    return TwoOscRegime(
        coupling=k_coupling,
        omega=omega,
        lam=lam,
        regime="periodic",
        phi=None,
        stable_point=None,
        unstable_point=None,
        rate=None,
        period=float(2.0 * np.pi / np.sqrt(-gap)),
    )


def classify_pair(k_coupling: float, frequencies) -> tuple[TwoOscRegime, bool]:
    """classify_two for a pair of detunings (w0, w1) listed in either order.

    The pair is read through Omega = |w0 - w1|/2: a mean detuning only turns
    both fields by a common phase. When w0 < w1 the regime describes the pair
    with its labels swapped, whose correlation is conj(z_01); the flag says
    so, and a caller conjugates z_01 into that frame, or a point of the
    regime out of it.
    """
    w0, w1 = frequencies
    return classify_two(k_coupling, 0.5 * abs(w0 - w1)), bool(w0 < w1)


def z_exact(z0: complex, t, regime: TwoOscRegime):
    """Closed-form pair correlation at time(s) t. Vectorized over t.

    Underdamped: the Moebius form through the two fixed points
    z1,2 = +-r + i Lambda, r = sqrt(1 - Lambda^2), at mu = K r,
        z(t) = z1 + d e^{-mu t} / (1 + d (1 - e^{-mu t}) / (2 r)),
        d = z0 - z1,
    which is stationary at z1 and blows through the excluded point z2.
    1 - e^{-mu t} is taken through expm1 and mu from the same r as z1, so
    the form stays accurate as Lambda -> 1, where z1 and z2 merge and it
    tends to the critical one: z(t) = i + 1/(K t / 2 + 1/(z0 - i)).
    The periodic regime has no printed solution; integrate the ODE instead.
    """
    if regime.regime == "periodic":
        raise UnsupportedRegimeError(
            "no closed form for lam > 1; use the ODE integrator (system='two')"
        )
    t = np.asarray(t, dtype=float)
    z0 = complex(z0)
    if regime.regime == "critical":
        if z0 == 1j:
            raise ExcludedInitialStateError("z0 = i is the merged fixed point; excluded")
        return 1j + 1.0 / (0.5 * regime.coupling * t + 1.0 / (z0 - 1j))
    z1 = regime.stable_point
    z2 = regime.unstable_point
    if z0 == z2:
        raise ExcludedInitialStateError(
            "z0 equals the repelling fixed point; the closed form is singular there"
        )
    root = z1.real
    rate = regime.coupling * root
    d = z0 - z1
    return z1 + d * np.exp(-rate * t) / (1.0 - d * np.expm1(-rate * t) / (2.0 * root))


@dataclass(frozen=True)
class SyncLimits:
    phase_offset: float
    distance_limit: float
    rate: float


def sync_limits_two(regime: TwoOscRegime) -> SyncLimits:
    """Asymptotic phase offset, pair-distance limit, and contraction rate.

    distance_limit = |1 - e^{i phi}| = 2 sin(phi/2); at the critical point
    phi = pi/2 this evaluates to sqrt(2). rate is 0 there: the approach is
    algebraic, not exponential.
    """
    if regime.regime == "periodic":
        raise UnsupportedRegimeError("no synchronization limits for lam > 1")
    phi = regime.phi
    return SyncLimits(
        phase_offset=phi,
        distance_limit=float(2.0 * np.sin(0.5 * phi)),
        rate=regime.rate,
    )


def sync_distance_sq(z, phi: float):
    """Squared synchronized-pair distance ||e^{i phi} psi_1 - psi_2||^2
    expressed through the correlation: 2(1 - Re(e^{-i phi} z)) for unit-norm
    fields. Linear in the deviation z - e^{i phi}, so it decays at the full
    contraction rate where |z - e^{i phi}|^2 would show twice that."""
    z = np.asarray(z)
    return 2.0 * (1.0 - (np.exp(-1j * phi) * z).real)


@dataclass(frozen=True)
class FixedPointClass:
    """Stationary ensemble taxonomy: zeta = 0, or a +/- split along one
    profile with k_positive members on the + side and |zeta| = 2k/N - 1."""

    kind: str
    k_positive: int | None
    zeta_norm: float


def classify_fixed_point(state: EnsembleState, tol: float) -> FixedPointClass | None:
    """Test whether the coupling term vanishes on every member; None if not.

    The coupling fixes psi_j when zeta - <zeta, psi_j> psi_j = 0 for all j,
    which (for unit-norm members) happens exactly for zero-mean ensembles
    and for +/- splits of a common profile. Stationarity here is relative to
    the coupling only; frequency terms rotate phases without moving either
    class off its orbit.
    """
    op = order_parameter(state)
    n = state.n_oscillators
    residual = coupling_term(state.psi, state.grid.dv)
    axes = tuple(range(1, residual.ndim))
    res_norms = np.sqrt(state.grid.dv * np.sum(np.abs(residual) ** 2, axis=axes))
    if float(res_norms.max()) > tol:
        return None
    if op.norm <= tol:
        return FixedPointClass(kind="incoherent", k_positive=None, zeta_norm=0.0)
    direction = WaveField(state.grid, op.zeta).normalized()
    signs = np.array(
        [inner_product(direction, WaveField(state.grid, state.psi[j])).real for j in range(n)]
    )
    k = int(np.sum(signs > 0.0))
    return FixedPointClass(kind="split_sync", k_positive=k, zeta_norm=2.0 * k / n - 1.0)


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
    G = -i Omega_j psi_j + (K/2)(zeta - <zeta, psi_j> psi_j), the model's own
    coupling term (core.coupling_term), and ||G(s)|| decays like e^{-rate s}
    in the synchronizing regime. The integral is evaluated by composite
    trapezoid over the stored samples; a backward recursion applies exp(iHh)
    once per sample instead of building each exp(iHs_n) anew. The neglected
    tail is bounded by the measured final integrand norm divided by the
    contraction rate and must come in under tail_tol, otherwise the
    trajectory is too short to certify. The pair may be listed in either
    order (classify_pair reads it), but must be centered.
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
    regime = classify_pair(config.coupling, config.frequencies)[0]
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
    k = config.coupling
    omega_j = config.frequencies[oscillator]

    integrands = [
        0.5 * k * coupling_term(s.psi, dv)[oscillator] - 1j * omega_j * s.psi[oscillator]
        for s in trajectory.states
    ]
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
