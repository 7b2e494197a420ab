"""Closed-form references for the two-oscillator system and stationary states.

The pair correlation z = <psi_1, psi_2> obeys the scalar Riccati flow
dz/dt = 2i Omega z + (K/2)(1 - z^2), Omega = (w0 - w1)/2 the signed half-gap
of the pair as listed, whose behaviour is governed by Lambda = 2|Omega|/K:

  Lambda < 1   two fixed points on the unit circle; the flow is a Moebius
               contraction onto e^{i phi}, phi = arcsin(2 Omega/K), at rate
               mu = sqrt(K^2 - 4 Omega^2)
  Lambda = 1   the fixed points merge at sign(Omega) i; algebraic 1/t approach
  Lambda > 1   no fixed points; closed periodic orbits

Listing the pair the other way round flips Omega's sign and conjugates z,
so a regime is read in the scenario's own labels. Nothing here imports the
integrators (only core), so it can sit in judgment over them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import EnsembleState, WaveField, inner_product, mixing_flow, order_parameter
from .errors import ContractViolationError, ExcludedInitialStateError, UnsupportedRegimeError

__all__ = [
    "TwoOscRegime",
    "SyncLimits",
    "FixedPointClass",
    "classify_two",
    "classify_pair",
    "z_exact",
    "sync_limits_two",
    "sync_distance_sq",
    "classify_fixed_point",
]

@dataclass(frozen=True)
class TwoOscRegime:
    """Classification record for one (K, Omega) pair.

    Fields that only exist on one side of the Lambda = 1 threshold are None
    on the other side: phi/stable_point/unstable_point/rate for the periodic
    regime, period for the synchronizing ones. At Lambda = 1 the two fixed
    points coincide at sign(Omega) i and rate degenerates to 0. lam, regime,
    rate and period depend on |Omega| only; omega, phi and the fixed points'
    imaginary parts carry Omega's sign.
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
    """Place a two-oscillator parameter pair in the trichotomy. K > 0, Omega
    finite, of either sign: Omega < 0 gives the conjugate of -Omega's regime.

    The rate sqrt(K^2 - 4 Omega^2) and the period's sqrt(4 Omega^2 - K^2)
    are formed from (K - 2 Omega)(K + 2 Omega), one of whose factors is
    exact near Lambda = 1, so they keep full precision there; so do the
    fixed points' real part sqrt(1 - Lambda^2) = rate / K and
    phi = arcsin(2 Omega/K), taken as atan2(2 Omega/K, rate / K)."""
    if not (k_coupling > 0):
        raise ContractViolationError(f"coupling must be positive, got {k_coupling}")
    if not math.isfinite(omega):
        raise ContractViolationError(f"frequency parameter must be finite, got {omega}")
    signed = 2.0 * omega / k_coupling
    lam = abs(signed)
    gap = (k_coupling - 2.0 * omega) * (k_coupling + 2.0 * omega)  # K^2 - 4 Omega^2
    if lam <= 1.0:
        rate = float(np.sqrt(max(0.0, gap)))
        root = rate / k_coupling  # sqrt(1 - Lambda^2)
        return TwoOscRegime(
            coupling=k_coupling,
            omega=omega,
            lam=lam,
            regime="critical" if lam == 1.0 else "underdamped_sync",
            phi=float(np.arctan2(signed, root)),
            stable_point=complex(root, signed),
            unstable_point=complex(-root, signed),
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


def classify_pair(k_coupling: float, frequencies) -> TwoOscRegime:
    """classify_two for a pair of detunings (w0, w1), at Omega = (w0 - w1)/2:
    a mean detuning only turns both fields by a common phase. The regime
    describes z_01 of the pair in the order listed."""
    w0, w1 = frequencies
    return classify_two(k_coupling, 0.5 * (w0 - w1))


def z_exact(z0: complex, t, regime: TwoOscRegime):
    """Closed-form pair correlation at time(s) t. Vectorized over t.

    Underdamped: the Moebius form through the two fixed points
    z1,2 = +-r + i 2 Omega/K, r = sqrt(1 - Lambda^2), at mu = K r,
        z(t) = z1 + d e^{-mu t} / (1 + d (1 - e^{-mu t}) / (2 r)),
        d = z0 - z1,
    which is stationary at z1 and blows through the excluded point z2.
    1 - e^{-mu t} is taken through expm1 and mu from the same r as z1, so
    the form stays accurate as Lambda -> 1, where z1 and z2 merge and it
    tends to the critical one: z(t) = z1 + 1/(K t / 2 + 1/(z0 - z1)),
    z1 = sign(Omega) i.
    The periodic regime has no printed solution; integrate the ODE instead.
    """
    if regime.regime == "periodic":
        raise UnsupportedRegimeError(
            "no closed form for lam > 1; use the ODE integrator (system='two')"
        )
    t = np.asarray(t, dtype=float)
    z0 = complex(z0)
    z1 = regime.stable_point
    if regime.regime == "critical":
        if z0 == z1:
            raise ExcludedInitialStateError("z0 equals the merged fixed point; excluded")
        return z1 + 1.0 / (0.5 * regime.coupling * t + 1.0 / (z0 - z1))
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

    distance_limit = |1 - e^{i phi}| = 2 sin(|phi|/2); at the critical point
    |phi| = pi/2 this evaluates to sqrt(2). phase_offset is phi, with Omega's
    sign. rate is 0 at the critical point: the approach is algebraic, not
    exponential.
    """
    if regime.regime == "periodic":
        raise UnsupportedRegimeError("no synchronization limits for lam > 1")
    phi = regime.phi
    return SyncLimits(
        phase_offset=phi,
        distance_limit=float(2.0 * np.sin(0.5 * abs(phi))),
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
    # zero detuning and K = 2: the bare term zeta - <zeta, psi_j> psi_j
    residual = mixing_flow(np.zeros(n), 2.0, state.grid.dv)(state.psi)
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

