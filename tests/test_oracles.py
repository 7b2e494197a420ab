"""Closed-form layer: regimes, the exact pair correlation, fixed-point
taxonomy, and the asymptotic free profile."""

import decimal
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lohe_sync import (
    ContractViolationError,
    EnsembleState,
    ExcludedInitialStateError,
    ModelConfig,
    SeriesTooShortError,
    SolverParams,
    UnsupportedRegimeError,
    classify_fixed_point,
    classify_two,
    evolve,
    integrate,
    propagate_linear,
    scattering_state,
    sync_distance_sq,
    sync_limits_two,
    two_rhs,
    z_exact,
)
from lohe_sync.core import WaveField, gram_matrix
from lohe_sync.diagnostics import fit_rate
from lohe_sync.initial_data import gaussian, gaussian_pair, incoherent_pair, overlap_pair

from conftest import assert_close

# reference values for the workhorse pair K = 1, Omega = 0.375 (lam = 0.75),
# frozen from high-precision evaluation of sqrt(1 - lam^2), arcsin(lam),
# 2 sin(arcsin(lam)/2); independent of any code under test
LAM_075 = {
    "rate": 0.6614378277661477,
    "phi": 0.848062078981481,
    "distance_limit": 0.8228756555322954,
}
PERIOD_LAM2_K1 = 3.627598728468436  # 2 pi / sqrt(4 omega^2 - 1) at omega = 1


# -- regime classification ----------------------------------------------------


def test_classify_two_trichotomy():
    under = classify_two(1.0, 0.375)
    assert under.regime == "underdamped_sync"
    assert under.lam == pytest.approx(0.75)
    assert under.rate == pytest.approx(LAM_075["rate"], abs=1e-15)
    assert under.phi == pytest.approx(LAM_075["phi"], abs=1e-15)
    assert under.stable_point == pytest.approx(complex(LAM_075["rate"], 0.75))
    assert under.unstable_point == pytest.approx(complex(-LAM_075["rate"], 0.75))
    assert under.period is None

    crit = classify_two(1.0, 0.5)
    assert crit.regime == "critical"
    assert crit.rate == 0.0
    assert crit.stable_point == crit.unstable_point == 1j
    assert classify_two(1.0, -0.5).stable_point == -1j

    per = classify_two(1.0, 1.0)
    assert per.regime == "periodic"
    assert per.stable_point is None
    assert per.period == pytest.approx(PERIOD_LAM2_K1, abs=1e-14)


@pytest.mark.parametrize("k", [0.2, 1.0, 3.0])
@pytest.mark.parametrize("gap", [1e-9, 1e-12])
def test_rate_and_period_are_exact_near_lam_one(k, gap):
    # K^2 - 4 Omega^2 cancels as lam -> 1, (K - 2 Omega)(K + 2 Omega) does
    # not: both are checked against 50 digits from the same binary K, Omega
    def exact(a, b):
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            k_, w_ = decimal.Decimal(a), decimal.Decimal(b)
            return abs(k_ * k_ - 4 * w_ * w_).sqrt()

    below, above = 0.5 * (1.0 - gap) * k, 0.5 * (1.0 + gap) * k
    rate = classify_two(k, below).rate
    period = classify_two(k, above).period
    assert abs(rate - float(exact(k, below))) <= 1e-15 * rate
    reference = float(2 * decimal.Decimal(math.pi) / exact(k, above))
    assert abs(period - reference) <= 1e-15 * period


def _decimal_arcsin(x):
    """arcsin of a Decimal |x| <= 1/2 by its Taylor series, to the context's
    precision."""
    total = term = x
    n = 0
    while abs(term) > total * decimal.Decimal(10) ** -60:
        term *= x * x * (2 * n + 1) ** 2 / ((2 * n + 2) * (2 * n + 3))
        total += term
        n += 1
    return total


@pytest.mark.parametrize("k", [0.2, 3.0])
@pytest.mark.parametrize("gap", [1e-9, 1e-12])
def test_fixed_points_are_exact_near_lam_one(k, gap):
    # 1 - Lambda^2 cancels as lam -> 1 and arcsin is ill-conditioned there;
    # root = sqrt((K - 2 Omega)(K + 2 Omega)) / K and phi = arcsin Lambda are
    # checked against 50 digits from the same binary K, Omega, with
    # arcsin Lambda = pi/2 - arcsin(root) and pi/2 = 3 arcsin(1/2)
    omega = 0.5 * (1.0 - gap) * k
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        k_, w_ = decimal.Decimal(k), decimal.Decimal(omega)
        root_ = ((k_ - 2 * w_) * (k_ + 2 * w_)).sqrt() / k_
        phi_ = 3 * _decimal_arcsin(decimal.Decimal("0.5")) - _decimal_arcsin(root_)
    regime = classify_two(k, omega)
    root = regime.stable_point.real
    assert regime.unstable_point.real == -root
    assert abs(root - float(root_)) <= 1e-15 * root
    assert abs(regime.phi - float(phi_)) <= 1e-15 * regime.phi


def test_classify_two_rejects_bad_parameters():
    with pytest.raises(ContractViolationError):
        classify_two(0.0, 0.1)
    # Omega takes either sign, but must be finite
    for omega in (math.nan, math.inf, -math.inf):
        with pytest.raises(ContractViolationError):
            classify_two(1.0, omega)


@settings(max_examples=300, deadline=None)
@given(
    lam=st.one_of(
        st.sampled_from([math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 2.0]),
        st.floats(0.0, 2.5, exclude_min=True),
    ),
    k=st.floats(0.2, 3.0),
    radius=st.floats(0.0, 1.0),
    angle=st.floats(-math.pi, math.pi),
)
def test_negative_omega_is_the_conjugate_regime(lam, k, radius, angle):
    # listing a pair the other way round turns Omega into -Omega and z_01
    # into its conjugate: the regime at -Omega is the conjugate of the one at
    # Omega, and its closed form is the conjugated path, bit for bit but for
    # the sign of a zero (z0 = 0 at t = 0 conjugates to -0j)
    omega = 0.5 * lam * k
    assume(omega > 0.0)
    pos, neg = classify_two(k, omega), classify_two(k, -omega)
    assert neg.omega == -pos.omega
    assert (neg.coupling, neg.lam, neg.regime, neg.rate, neg.period) == (
        pos.coupling,
        pos.lam,
        pos.regime,
        pos.rate,
        pos.period,
    )
    if pos.regime == "periodic":
        assert neg.phi is neg.stable_point is neg.unstable_point is None
        return
    assert neg.phi == -pos.phi
    assert neg.stable_point == pos.stable_point.conjugate()
    assert neg.unstable_point == pos.unstable_point.conjugate()
    limits, mirrored = sync_limits_two(neg), sync_limits_two(pos)
    assert limits.phase_offset == -mirrored.phase_offset
    assert (limits.distance_limit, limits.rate) == (mirrored.distance_limit, mirrored.rate)

    z0 = complex(radius * math.cos(angle), radius * math.sin(angle))
    assume(z0 not in (neg.stable_point, neg.unstable_point))
    t = np.linspace(0.0, 8.0, 17)
    z = z_exact(z0, t, neg)
    assert np.array_equal(z, np.conj(z_exact(z0.conjugate(), t, pos)))
    distance = sync_distance_sq(z, neg.phi)
    assert np.array_equal(distance, sync_distance_sq(np.conj(z), pos.phi))


def test_sync_limits():
    limits = sync_limits_two(classify_two(1.0, 0.375))
    assert limits.phase_offset == pytest.approx(LAM_075["phi"], abs=1e-15)
    assert limits.distance_limit == pytest.approx(LAM_075["distance_limit"], abs=1e-15)
    assert limits.rate == pytest.approx(LAM_075["rate"], abs=1e-15)

    crit = sync_limits_two(classify_two(1.0, 0.5))
    assert crit.distance_limit == pytest.approx(np.sqrt(2.0), abs=1e-15)
    assert crit.rate == 0.0

    with pytest.raises(UnsupportedRegimeError):
        sync_limits_two(classify_two(1.0, 1.0))


# -- the closed-form correlation ----------------------------------------------


def test_z_exact_satisfies_the_ode():
    # finite-difference derivative of the closed form against the rhs
    h = 1e-4
    for k, omega, z0 in [(1.0, 0.375, 0.2 + 0.1j), (1.0, 0.5, -0.3 + 0.4j), (2.0, 0.0, 0.1j)]:
        regime = classify_two(k, omega)
        for t in (0.1, 1.0, 4.0):
            zm, z, zp = z_exact(z0, [t - h, t, t + h], regime)
            assert abs((zp - zm) / (2 * h) - two_rhs(z, omega, k)) <= 1e-8


def test_z_exact_initial_value_and_limit():
    regime = classify_two(1.0, 0.375)
    z0 = 0.3 - 0.2j
    assert abs(z_exact(z0, 0.0, regime) - z0) <= 1e-14
    assert abs(z_exact(z0, 60.0, regime) - regime.stable_point) <= 1e-14
    crit = classify_two(1.0, 0.5)
    assert abs(z_exact(z0, 0.0, crit) - z0) <= 1e-14
    # algebraic approach to the merged point i
    assert abs(z_exact(z0, 1e6, crit) - 1j) <= 1e-5


@settings(max_examples=300, deadline=None)
@given(
    lam=st.one_of(
        st.sampled_from([0.0, math.nextafter(1.0, 0.0), 1.0]),
        st.floats(0.0, 1.0, exclude_max=True),
    ),
    k=st.floats(0.2, 3.0),
    radius=st.floats(0.0, 1.0),
    angle=st.floats(-math.pi, math.pi),
)
def test_z_exact_is_the_two_ode(lam, k, radius, angle):
    # the closed form against the integrator on random cases: lam in [0, 1]
    # (0, up to just below 1 where the fixed points all but merge, and the
    # critical 1), z0 in the closed unit disk at least 0.1 from the
    # repelling point (i at lam = 1); RK4 at dt = 1e-3 is good to about
    # 1e-12 over t = 3
    omega = 0.5 * lam * k
    regime = classify_two(k, omega)
    z0 = complex(radius * math.cos(angle), radius * math.sin(angle))
    assume(abs(z0 - regime.unstable_point) >= 0.1)
    config = ModelConfig(coupling=k, frequencies=(omega, -omega))
    series = integrate("two", z0, config, 1e-3, 3.0, sample_stride=100)
    exact = z_exact(z0, series.times, regime)
    assert_close(series.z[:, 0, 1], exact, 1e-9, f"z_exact at lam = {lam!r}, K = {k!r}")


def test_z_exact_excluded_and_unsupported():
    regime = classify_two(1.0, 0.375)
    with pytest.raises(ExcludedInitialStateError):
        z_exact(regime.unstable_point, 1.0, regime)
    with pytest.raises(ExcludedInitialStateError):
        z_exact(1j, 1.0, classify_two(1.0, 0.5))
    with pytest.raises(ExcludedInitialStateError):
        z_exact(-1j, 1.0, classify_two(1.0, -0.5))
    assert np.isfinite(z_exact(1j, 1.0, classify_two(1.0, -0.5)))
    with pytest.raises(UnsupportedRegimeError):
        z_exact(0.0, 1.0, classify_two(1.0, 1.0))


def test_closed_form_decay_rate_is_mu():
    # the squared sync distance decays at mu, not 2 mu: its leading term is
    # the norm deficit 1 - |z|^2
    regime = classify_two(1.0, 0.375)
    t = np.linspace(0.0, 20.0, 400)
    z = z_exact(0.1 + 0.05j, t, regime)
    y = sync_distance_sq(z, regime.phi)
    fit = fit_rate(t, np.maximum(y, 1e-300))
    assert abs(fit.rate - regime.rate) / regime.rate <= 0.02
    # while the literal squared modulus decays at 2 mu
    fit2 = fit_rate(t, np.abs(z - np.exp(1j * regime.phi)) ** 2)
    assert abs(fit2.rate - 2 * regime.rate) / (2 * regime.rate) <= 0.02


def test_distance_identity_on_fields(grid64):
    # ||e^{i phi} psi_1 - psi_2||^2 == 2 (1 - Re(e^{-i phi} z)) for unit norms
    state = overlap_pair(grid64, overlap=0.35 + 0.2j)
    z = gram_matrix(state)[0, 1]
    for phi in (0.0, 0.4, LAM_075["phi"]):
        diff = WaveField(grid64, np.exp(1j * phi) * state.psi[0] - state.psi[1])
        assert abs(diff.norm() ** 2 - sync_distance_sq(z, phi)) <= 1e-12


# -- fixed-point taxonomy -----------------------------------------------------


def test_classify_fixed_point_examples(grid64):
    sync = EnsembleState.from_fields([gaussian(grid64, sigma=1.5)] * 3)
    result = classify_fixed_point(sync, 1e-12)
    assert result.kind == "split_sync"
    assert result.k_positive == 3
    assert result.zeta_norm == pytest.approx(1.0)

    anti = incoherent_pair(grid64)
    result = classify_fixed_point(anti, 1e-12)
    assert result.kind == "incoherent"
    assert result.zeta_norm == 0.0

    g = gaussian(grid64, sigma=1.5)
    split = EnsembleState.from_fields(
        [g, g, WaveField(grid64, -g.values)]
    )
    result = classify_fixed_point(split, 1e-12)
    assert result.kind == "split_sync"
    assert result.k_positive == 2
    assert result.zeta_norm == pytest.approx(2 / 3 - 1 / 3)

    moving = overlap_pair(grid64, overlap=0.5)
    assert classify_fixed_point(moving, 1e-8) is None


# -- scattering profile -------------------------------------------------------


def test_scattering_trivial_on_synchronized_data(grid64):
    # identical fields, zero detuning: the coupling term vanishes for all
    # time, so the profile is exactly the initial datum
    g = gaussian(grid64, sigma=1.5)
    state = EnsembleState.from_fields([g, g])
    config = ModelConfig(coupling=1.0, frequencies=(0.0, 0.0))
    trajectory = evolve(
        state, config, SolverParams(dt=1e-2, t_end=3.0, snapshot_stride=10),
        collect_diagnostics=False,
    )
    result = scattering_state(trajectory, config, 0)
    assert_close(result.field.values, g.values, 1e-10, "trivial profile")
    assert result.tail_bound <= 1e-10


def test_scattering_pulled_back_states_converge(grid64, pair_config):
    state = gaussian_pair(grid64, separation=2.0, sigma=1.5)
    trajectory = evolve(
        state, pair_config, SolverParams(dt=1e-2, t_end=25.0, snapshot_stride=10),
        collect_diagnostics=False,
    )
    result = scattering_state(trajectory, pair_config, 0)
    assert result.rate == pytest.approx(LAM_075["rate"], abs=1e-12)
    assert result.tail_bound <= 1e-3
    profile_norm = result.field.norm()
    # unitary up to the truncated tail and the O(h^2) quadrature error
    assert abs(profile_norm - 1.0) <= 5e-4

    errs = []
    for s in trajectory.states[:: max(1, len(trajectory.states) // 8)]:
        pulled = propagate_linear(grid64, None, s.psi[0], -s.time)
        errs.append(
            float(np.sqrt(grid64.dv * np.sum(np.abs(pulled - result.field.values) ** 2)))
        )
    assert all(b <= a + 1e-9 for a, b in zip(errs, errs[1:]))
    assert errs[-1] <= 2e-3


def test_scattering_contract_errors(grid64, pair_config):
    state = gaussian_pair(grid64)
    short = evolve(
        state, pair_config, SolverParams(dt=1e-2, t_end=1.0, snapshot_stride=10),
        collect_diagnostics=False,
    )
    with pytest.raises(SeriesTooShortError):
        scattering_state(short, pair_config, 0)
    with pytest.raises(ContractViolationError):
        scattering_state(short, pair_config, 2)
    periodic_config = ModelConfig(coupling=1.0, frequencies=(1.0, -1.0))
    with pytest.raises(UnsupportedRegimeError):
        scattering_state(short, periodic_config, 0)
    uncentered = ModelConfig(coupling=1.0, frequencies=(0.3, -0.1))
    with pytest.raises(ContractViolationError, match="centered frequencies"):
        scattering_state(short, uncentered, 0)
