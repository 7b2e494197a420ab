"""Correlation-level dynamics against closed forms and structure invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lohe_sync import (
    ConfigurationError,
    CorrelationState,
    DivergenceError,
    MacroCorrelation,
    ModelConfig,
    integrate,
    integrate_batch,
    random_correlation_matrix,
    two_rhs,
)
from lohe_sync.correlations import (
    _correlation_flow,
    _pair_matrices,
    fg_rhs,
    full_rhs,
    macro_rhs,
    mixing_flow,
    rk4_step,
    step_count,
    zeta_norm_rhs,
)

from conftest import assert_close


def config_for(n, coupling=1.0, omega=0.0):
    if n == 2:
        return ModelConfig(coupling=coupling, frequencies=(omega, -omega))
    assert omega == 0.0
    return ModelConfig(coupling=coupling, frequencies=(0.0,) * n)


# -- scalar pair system -------------------------------------------------------


def test_tanh_solution():
    # Omega = 0, K = 2, z(0) = 0: dz/dt = 1 - z^2, so z(t) = tanh(t)
    config = config_for(2, coupling=2.0)
    series = integrate("two", 0.0, config, 1e-3, 5.0, sample_stride=100)
    assert_close(series.z[:, 0, 1], np.tanh(series.times), 1e-10, "tanh")


def test_two_rhs_fixed_points():
    k, omega = 1.0, 0.375
    lam = 2 * omega / k
    root = np.sqrt(1 - lam**2)
    assert abs(two_rhs(complex(root, lam), omega, k)) <= 1e-14
    assert abs(two_rhs(complex(-root, lam), omega, k)) <= 1e-14
    assert abs(two_rhs(1.0, 0.0, k)) == 0.0


def test_unit_circle_is_invariant():
    # on |z| = 1 the pair system is the classical phase model
    # theta' = 2 Omega - K sin(theta)
    k, omega, theta0 = 1.3, 0.25, 2.0
    dt, t_end = 1e-3, 5.0
    config = config_for(2, coupling=k, omega=omega)
    series = integrate("two", np.exp(1j * theta0), config, dt, t_end, sample_stride=100)
    assert float(np.max(np.abs(np.abs(series.z[:, 0, 1]) - 1.0))) <= 1e-9

    theta = theta0
    thetas = [theta]
    deriv = lambda th: 2 * omega - k * np.sin(th)
    for _ in range(step_count(dt, t_end)):
        k1 = deriv(theta)
        k2 = deriv(theta + 0.5 * dt * k1)
        k3 = deriv(theta + 0.5 * dt * k2)
        k4 = deriv(theta + dt * k3)
        theta += (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        thetas.append(theta)
    assert_close(series.z[:, 0, 1], np.exp(1j * np.array(thetas))[::100], 1e-9, "phase model")


def test_richardson_estimate():
    config = config_for(2, coupling=2.0)
    series = integrate("two", 0.2 + 0.1j, config, 1e-2, 4.0, self_check=True)
    assert series.richardson_error is not None
    # z is smooth here, so the estimate must be tiny but nonzero
    assert 0.0 < series.richardson_error < 1e-8


def test_richardson_skipped_on_odd_steps():
    config = config_for(2, coupling=2.0)
    with pytest.warns(UserWarning):
        series = integrate("two", 0.2, config, 1e-3, 0.005, self_check=True)
    assert series.richardson_error is None


# -- full pairwise system -----------------------------------------------------


def _coupling_generator(z, omega, coupling):
    """Reference: M = -i diag(Omega) + (K/2)((1/N) 1 1^T - diag(w)), with
    w_j = (1/N) sum_l z_lj, so that the fields' coupling and detuning flow
    is psi' = M psi, row j of psi being oscillator j."""
    n = len(omega)
    w = z.sum(axis=0) / n
    return -1j * np.diag(omega) + 0.5 * coupling * (np.ones((n, n)) / n - np.diag(w))


def test_full_structure_preserved():
    z0 = random_correlation_matrix(4, seed=9, coherence=0.3)
    config = config_for(4)
    series = integrate("full", z0, config, 1e-3, 3.0, sample_stride=50, self_check=True)
    for z in series.z[:: len(series.z) // 5]:
        assert np.array_equal(z, z.conj().T)
        assert_close(np.diag(z), np.ones(4), 0.0)
    assert float(np.max(np.abs(series.z))) <= 1.0 + 1e-9
    assert series.richardson_error < 1e-10


def test_fg_matches_full_for_identical_oscillators():
    # F = 1 - z is an affine change of variables, so RK4 commutes with it
    z0 = random_correlation_matrix(3, seed=21, coherence=0.4)
    config = config_for(3, coupling=1.5)
    a = integrate("full", z0, config, 1e-3, 2.0, sample_stride=200)
    b = integrate("fg", z0, config, 1e-3, 2.0, sample_stride=200)
    assert_close(a.z, b.z, 1e-12, "fg vs full")


def test_fg_divergence_reports_correlations():
    # fg steps F = 1 - z; the partial samples of a blow-up must still be z
    z0 = random_correlation_matrix(3, seed=21, coherence=0.4)
    config = config_for(3, coupling=1000.0)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        integrate("fg", z0, config, 1.0, 10.0)
    first = info.value.partial["values"][0]
    assert np.array_equal(np.diag(first), np.ones(3))
    assert_close(first, z0, 1e-15, "partial first sample")


@pytest.mark.parametrize("n", [2, 3, 5])
def test_integrate_batch_matches_solo_runs(n):
    # one (B, N, N) stack, mixed gains and detunings: every cell equals its
    # own integrate("full") run bit for bit
    rng = np.random.default_rng(n)
    couplings = [0.0, 0.7, 1.9, 3.2]
    frequencies = rng.normal(scale=0.5, size=(len(couplings), n))
    z0s = [random_correlation_matrix(n, seed, coherence=0.5) for seed in range(len(couplings))]
    batch = integrate_batch(z0s, couplings, frequencies, 0.01, 1.5, sample_stride=7)
    for z0, k, w, series in zip(z0s, couplings, frequencies, batch):
        solo = integrate("full", z0, ModelConfig(coupling=k, frequencies=w), 0.01, 1.5, 7)
        assert np.array_equal(series.times, solo.times)
        assert np.array_equal(series.z, solo.z)


@pytest.mark.parametrize("n", [2, 3])
def test_integrate_batch_isolates_a_diverging_cell(n):
    # K dt = 50 leaves the RK4 stability region; only that cell may fail,
    # with the error, step and partial samples its solo run reports, which
    # are correlation matrices even where the run steps z_01 alone
    z0s = [random_correlation_matrix(n, seed, coherence=0.4) for seed in (1, 2, 3)]
    couplings = [0.5, 1000.0, 1.0]
    frequencies = np.zeros((3, n))
    with np.errstate(all="ignore"):
        batch = integrate_batch(z0s, couplings, frequencies, 0.05, 5.0, sample_stride=10)
        with pytest.raises(DivergenceError) as info:
            integrate("full", z0s[1], config_for(n, 1000.0), 0.05, 5.0, sample_stride=10)
    solo = info.value
    error = batch[1]
    assert isinstance(error, DivergenceError)
    assert str(error) == str(solo) == "correlation integration produced non-finite values"
    assert error.step_index == solo.step_index == 10
    assert error.time == solo.time
    assert np.array_equal(error.partial["times"], solo.partial["times"])
    assert np.array_equal(error.partial["values"], solo.partial["values"])
    assert solo.partial["values"].shape == (1, n, n)
    assert np.array_equal(solo.partial["values"][0], z0s[1])
    for cell in (0, 2):
        alone = integrate("full", z0s[cell], config_for(n, couplings[cell]), 0.05, 5.0, 10)
        assert np.array_equal(batch[cell].z, alone.z)


def test_full_at_two_oscillators_is_the_pair_system():
    # at N = 2 the pairwise system is z_01 alone; an uncentered pair, with
    # the Richardson repeat
    z0 = random_correlation_matrix(2, seed=5, coherence=0.5)
    config = ModelConfig(coupling=1.3, frequencies=(0.7, -0.1))
    full = integrate("full", z0, config, 1e-3, 4.0, sample_stride=30, self_check=True)
    two = integrate("two", z0[0, 1], config, 1e-3, 4.0, sample_stride=30, self_check=True)
    assert np.array_equal(full.times, two.times)
    assert np.array_equal(full.z, two.z)
    assert full.richardson_error == two.richardson_error > 0.0


def _generic_pair_run(z, omega, coupling, dt, n_steps, stride):
    """Reference for the pair loop: rk4_step over two_rhs on one Python
    complex, sampled as _rk4_samples samples a stack (every stride steps and
    the end, finiteness checked at those steps only, stopping at the first
    non-finite one). Returns the sampled steps, the 2 x 2 samples and the
    first non-finite sampled step, 0 when there is none."""
    steps, values = [0], [z]
    for step in range(1, n_steps + 1):
        z = rk4_step(z, lambda y: two_rhs(y, omega, coupling), dt)
        if step % stride == 0 or step == n_steps:
            if not np.isfinite(z):
                return np.array(steps), _pair_matrices(values), step
            steps.append(step)
            values.append(z)
    return np.array(steps), _pair_matrices(values), 0


def _pair_initial(system, z0):
    return z0 if system == "two" else np.array([[1.0, z0], [np.conj(z0), 1.0]])


@pytest.mark.parametrize("stride", [1, 10])
@pytest.mark.parametrize("lam", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("system", ["two", "full"])
def test_pair_loop_matches_the_generic_rk4_loop(system, lam, stride):
    # 702 steps: a stride of 10 does not divide them, and half of them
    # make the Richardson repeat
    k, dt, t_end = 1.2, 0.01, 7.02
    omega = 0.5 * lam * k
    config = ModelConfig(coupling=k, frequencies=(omega, -omega))
    z0 = 0.3 - 0.4j
    series = integrate(system, _pair_initial(system, z0), config, dt, t_end, stride, True)
    n_steps = step_count(dt, t_end)
    steps, z, bad = _generic_pair_run(z0, omega, k, dt, n_steps, stride)
    assert bad == 0 and steps[-1] == n_steps and n_steps % stride == (0 if stride == 1 else 2)
    assert np.array_equal(series.times, steps * dt)
    assert np.array_equal(series.z, z)
    half = n_steps // 2
    last = _generic_pair_run(z0, omega, k, 2.0 * dt, half, half)[1][-1]
    assert series.richardson_error == float(np.max(np.abs(z[-1] - last)) / 15.0) > 0.0


@pytest.mark.parametrize("system", ["two", "full"])
def test_pair_loop_diverges_where_the_generic_loop_does(system):
    # K dt = 3.5 leaves the RK4 stability region around z = 1; the run
    # overflows at step 12, after four finite samples
    k, dt = 70.0, 0.05
    config = ModelConfig(coupling=k, frequencies=(0.1, -0.2))
    z0 = 0.1 + 0.2j
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        integrate(system, _pair_initial(system, z0), config, dt, 5.0, sample_stride=3)
    steps, z, bad = _generic_pair_run(z0, 0.15, k, dt, 100, 3)
    assert bad == 12 and len(steps) == 4
    assert info.value.step_index == bad
    assert info.value.time == bad * dt
    assert np.array_equal(info.value.partial["times"], steps * dt)
    assert np.array_equal(info.value.partial["values"], z)


def test_integrate_batch_validation():
    z0s = [random_correlation_matrix(3, 0), random_correlation_matrix(3, 1)]
    with pytest.raises(ConfigurationError, match="frequencies"):
        integrate_batch(z0s, [1.0, 1.0], np.zeros((2, 2)), 0.01, 0.1)
    with pytest.raises(ConfigurationError, match="not an integer multiple"):
        integrate_batch(z0s, [1.0, 1.0], np.zeros((2, 3)), 0.03, 0.1)


def test_dz_is_the_coupling_generator_seen_through_z():
    # psi' = M psi gives z' = conj(M) z + z M^T for z_jk = <psi_j, psi_k>
    z = random_correlation_matrix(6, seed=21)
    omega = np.random.default_rng(21).uniform(-1.0, 1.0, 6)
    m = _coupling_generator(z, omega, 1.7)
    dz = _correlation_flow(omega, 1.7)(z)
    assert_close(dz, np.conj(m) @ z + z @ m.T, 1e-14, "generator")


def test_fg_rejects_detuning():
    z0 = random_correlation_matrix(2, seed=3)
    config = ModelConfig(coupling=1.0, frequencies=(0.1, -0.1))
    with pytest.raises(Exception):
        integrate("fg", z0, config, 1e-3, 0.1)


def test_lyapunov_descends_for_identical_oscillators():
    z0 = random_correlation_matrix(5, seed=17, coherence=0.5)
    config = config_for(5, coupling=1.0)
    series = integrate("full", z0, config, 1e-3, 10.0, sample_stride=100)
    lyap = series.lyapunov
    assert float(np.max(np.diff(lyap))) <= 1e-12
    assert lyap[-1] < lyap[0]


def test_zeta_norm_rhs_matches_difference_quotient():
    z0 = random_correlation_matrix(4, seed=2, coherence=0.3)
    config = config_for(4, coupling=0.9)
    dt = 1e-4
    series = integrate("full", z0, config, dt, 10 * dt)
    zeta_sq = series.zeta_norm_sq
    mid = series.state_at(5)
    fd = (zeta_sq[6] - zeta_sq[4]) / (2 * dt)
    assert abs(zeta_norm_rhs(mid, config) - fd) <= 1e-6


def test_macro_rhs_is_row_average_of_full():
    z0 = random_correlation_matrix(4, seed=31, coherence=0.2)
    config = ModelConfig(coupling=1.1, frequencies=(0.3, -0.1, 0.2, -0.4))
    state = CorrelationState(0.0, z0)
    dr, ds = full_rhs(state, config)
    dz = dr + 1j * ds
    dw_r, dw_s = macro_rhs(state, config)
    assert_close(dw_r + 1j * dw_s, dz.mean(axis=0), 1e-13, "macro vs full")


def test_fg_rhs_matches_full_rhs_algebra():
    z0 = random_correlation_matrix(3, seed=8, coherence=0.4)
    state = CorrelationState(0.0, z0)
    config = config_for(3, coupling=1.5)
    macro = MacroCorrelation.from_correlation(state)
    df, dg = fg_rhs(macro, config.coupling, config.frequencies)
    dw_r, dw_s = macro_rhs(state, config)
    # f = 1 - r_tilde, g = -s_tilde
    assert_close(df, -dw_r, 1e-13)
    assert_close(dg, -dw_s, 1e-13)


# -- construction and validation ----------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000), st.floats(0.0, 1.0))
def test_random_correlation_matrix_is_admissible(n, seed, coherence):
    z = random_correlation_matrix(n, seed, coherence=coherence)
    assert np.array_equal(z, z.conj().T)
    assert np.array_equal(np.diag(z), np.ones(n))
    assert float(np.max(np.abs(z))) <= 1.0 + 1e-12
    assert float(np.linalg.eigvalsh(z).min()) >= -1e-12


def test_random_correlation_matrix_deterministic():
    a = random_correlation_matrix(3, seed=5, coherence=0.2)
    b = random_correlation_matrix(3, seed=5, coherence=0.2)
    c = random_correlation_matrix(3, seed=6, coherence=0.2)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_coherence_bias():
    flat = random_correlation_matrix(6, seed=1, coherence=0.0)
    biased = random_correlation_matrix(6, seed=1, coherence=2.0)
    assert biased.real.mean() > flat.real.mean()


def test_correlation_state_validation():
    with pytest.raises(ConfigurationError):
        CorrelationState(0.0, np.array([[1.0, 0.5], [0.9, 1.0]]))  # not Hermitian
    with pytest.raises(ConfigurationError):
        CorrelationState(0.0, np.array([[2.0, 0.0], [0.0, 1.0]]))  # bad diagonal
    with pytest.raises(ConfigurationError):
        CorrelationState(0.0, np.eye(1))  # too small
    state = CorrelationState(0.0, np.array([[1.0, 0.5j], [-0.5j, 1.0]]))
    assert state.z[1, 0] == np.conj(state.z[0, 1])


# one inadmissible 3 x 3 matrix per check of the constructor, each failing
# that check alone
_BAD = {
    "non-finite": np.array([[1, np.nan, 0], [np.nan, 1, 0], [0, 0, 1]], dtype=complex),
    "non-Hermitian": np.array([[1, 0.5, 0], [0.9, 1, 0], [0, 0, 1]], dtype=complex),
    "off-unit diagonal": np.array([[-1, 0, 0], [0, 1, 0], [0, 0, 1]], dtype=complex),
    "|z| > 1": np.array([[1, 2, 0], [2, 1, 0], [0, 0, 1]], dtype=complex),
}


@pytest.mark.parametrize("bad", list(_BAD), ids=list(_BAD))
def test_stack_validation_raises_what_one_matrix_raises(bad):
    good = random_correlation_matrix(3, seed=1)
    stack = np.stack([good, _BAD[bad], good])
    with pytest.raises(ConfigurationError) as one:
        CorrelationState(0.0, _BAD[bad])
    with pytest.raises(ConfigurationError) as gram:
        CorrelationState.from_gram(0.0, _BAD[bad])
    with pytest.raises(ConfigurationError) as block:
        CorrelationState.from_grams([0.0, 1.0, 2.0], stack)
    assert str(block.value) == str(gram.value) == str(one.value)


def test_stack_validation_warns_on_a_non_psd_matrix_and_keeps_the_rest():
    # unit diagonal, |z| <= 1 and Hermitian, but z_01 = z_12 = 0.9 = -z_02
    # has a negative eigenvalue
    bad = np.array([[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]], dtype=complex)
    good = random_correlation_matrix(3, seed=1)
    with pytest.warns(UserWarning, match="not positive semidefinite") as one:
        expected = CorrelationState(0.0, bad).z
    with pytest.warns(UserWarning) as block:
        states = CorrelationState.from_grams([0.0, 1.0, 2.0], np.stack([good, bad, good]))
    assert [str(w.message) for w in block] == [str(w.message) for w in one]
    assert [s.time for s in states] == [0.0, 1.0, 2.0]
    assert np.array_equal(states[1].z, expected)
    for state in (states[0], states[2]):
        assert np.array_equal(state.z, CorrelationState.from_gram(0.0, good).z)


def test_step_count_validation():
    assert step_count(1e-3, 2.0) == 2000
    assert step_count(0.1, 0.0) == 0
    with pytest.raises(ConfigurationError):
        step_count(1e-3, 0.0015)
    with pytest.raises(ConfigurationError):
        step_count(-1.0, 1.0)


def test_integrate_rejects_unknown_system():
    config = config_for(2)
    with pytest.raises(ConfigurationError):
        integrate("macro", 0.0, config, 1e-3, 1.0)


@pytest.mark.parametrize("n, r", [(2, 2), (5, 5), (40, 40), (2, 1), (5, 3), (40, 13)])
def test_mixing_flow_is_the_coupling_generator_applied_to_d(n, r):
    # D' = M(conj(D) D^T) D for fields psi = D q over r orthonormal q
    rng = np.random.default_rng(10 * n + r)
    d = rng.normal(size=(n, r)) + 1j * rng.normal(size=(n, r))
    d /= np.linalg.norm(d, axis=1)[:, None]
    omega = rng.uniform(-1.0, 1.0, n)
    expected = _coupling_generator(np.conj(d) @ d.T, omega, 1.7) @ d
    assert_close(mixing_flow(omega, 1.7)(d), expected, 1e-14, "mixing flow")
