"""Correlation-level dynamics against closed forms and structure invariants."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lohe_sync import (
    ConfigurationError,
    CorrelationState,
    DivergenceError,
    ModelConfig,
    SolverParams,
    integrate,
    integrate_batch,
    random_correlation_matrix,
    two_rhs,
)
from lohe_sync.core import mixing_flow
from lohe_sync.correlations import (
    _correlation_flow,
    _pair_matrices,
    fg_rhs,
    full_rhs,
    macro_rhs,
    rk4_step,
    sample_intervals,
    step_count,
    unit_correlations,
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
    # every sample is exactly Hermitian with an exactly unit diagonal, for
    # identical (N = 4) and detuned (N = 3, 5) full runs and for fg runs
    # (N = 3, 5), the last two stepped as F = 1 - z
    runs = [("full", config_for(4))]
    for n in (3, 5):
        detuned = ModelConfig(coupling=1.3, frequencies=tuple(np.linspace(0.6, -0.4, n)))
        runs += [("full", detuned), ("fg", config_for(n, coupling=1.3))]
    for system, config in runs:
        n = config.n_oscillators
        z0 = random_correlation_matrix(n, seed=9, coherence=0.3)
        series = integrate(system, z0, config, 1e-3, 3.0, sample_stride=50, self_check=True)
        for z in series.z:
            assert np.array_equal(z, z.conj().T)
            assert np.array_equal(np.diag(z), np.ones(n))
        assert float(np.max(np.abs(series.z))) <= 1.0 + 1e-9
        assert series.richardson_error < 1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 6), st.integers(0, 10_000), st.floats(0.0, 0.9), st.floats(0.0, 4.0))
@example(3, 21, 0.4, 1.5)
def test_fg_matches_full_for_identical_oscillators(n, seed, coherence, coupling):
    # F = 1 - z is an affine change of variables, so RK4 commutes with it, at
    # any N: N = 2 full runs step the pair loop, fg the stack
    z0 = random_correlation_matrix(n, seed, coherence=coherence)
    config = config_for(n, coupling=coupling)
    a = integrate("full", z0, config, 1e-2, 3.0, sample_stride=30)
    b = integrate("fg", z0, config, 1e-2, 3.0, sample_stride=30)
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
    configs = [ModelConfig(coupling=k, frequencies=w) for k, w in zip(couplings, frequencies)]
    batch = integrate_batch(z0s, configs, 0.01, 1.5, sample_stride=7)
    for z0, config, series in zip(z0s, configs, batch):
        solo = integrate("full", z0, config, 0.01, 1.5, 7)
        assert np.array_equal(series.times, solo.times)
        assert np.array_equal(series.z, solo.z)


@pytest.mark.parametrize("n", [2, 3])
def test_integrate_batch_isolates_a_diverging_cell(n):
    # K dt = 50 leaves the RK4 stability region; only that cell may fail,
    # with the error, step and partial samples its solo run reports, which
    # are correlation matrices even where the run steps z_01 alone
    z0s = [random_correlation_matrix(n, seed, coherence=0.4) for seed in (1, 2, 3)]
    couplings = [0.5, 1000.0, 1.0]
    configs = [config_for(n, k) for k in couplings]
    with np.errstate(all="ignore"):
        batch = integrate_batch(z0s, configs, 0.05, 5.0, sample_stride=10)
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


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_integrate_batch_is_solo_runs_bit_for_bit(data):
    # any N and B, mixed gains and detunings, and sometimes one cell whose
    # K dt = 50 leaves RK4's stability region: each entry is what the cell's
    # own integrate("full") run returns or raises, times and partials alike
    n = data.draw(st.integers(2, 5), label="n")
    b = data.draw(st.integers(1, 40), label="b")
    couplings = data.draw(st.lists(st.floats(0.0, 4.0), min_size=b, max_size=b))
    if data.draw(st.booleans(), label="blown"):
        couplings[data.draw(st.integers(0, b - 1), label="cell")] = 1000.0
    frequencies = np.array(
        data.draw(st.lists(st.floats(-1.0, 1.0), min_size=b * n, max_size=b * n))
    ).reshape(b, n)
    configs = [ModelConfig(coupling=k, frequencies=w) for k, w in zip(couplings, frequencies)]
    seeds = data.draw(st.lists(st.integers(0, 10_000), min_size=b, max_size=b))
    z0s = [random_correlation_matrix(n, seed, coherence=0.5) for seed in seeds]
    dt, steps = 0.05, data.draw(st.integers(1, 30), label="steps")
    stride = data.draw(st.integers(1, 7), label="stride")
    with np.errstate(all="ignore"):
        batch = integrate_batch(z0s, configs, dt, steps * dt, stride)
        for z0, config, got in zip(z0s, configs, batch):
            try:
                solo = integrate("full", z0, config, dt, steps * dt, stride)
            except DivergenceError as err:
                assert isinstance(got, DivergenceError)
                assert (str(got), got.step_index, got.time) == (
                    str(err), err.step_index, err.time
                )
                for key in ("times", "values"):
                    assert np.array_equal(got.partial[key], err.partial[key])
            else:
                assert not isinstance(got, DivergenceError)
                assert np.array_equal(got.times, solo.times)
                assert np.array_equal(got.z, solo.z)


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


def _pair_part(bound):
    return st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-bound, bound))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_pair_loop_is_the_generic_rk4_loop_for_any_draw(data):
    # the float pair loop against rk4_step over two_rhs on a Python complex,
    # compared by repr so that signed zeros count: z0 with |z0| <= 1.5 (real,
    # imaginary and zero parts of either sign, subnormals), Omega of either
    # sign and zero, K >= 0 (K dt up to 4 leaves RK4's stability region) and
    # strides that need not divide the steps; a diverging run must stop at
    # the same step with the same partial samples
    x = data.draw(_pair_part(1.5), label="x")
    y = data.draw(_pair_part((2.25 - x * x) ** 0.5), label="y")
    omega = data.draw(_pair_part(3.0), label="omega")
    k = data.draw(st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 80.0)), label="k")
    dt = data.draw(st.sampled_from([0.01, 0.05]), label="dt")
    n_steps = data.draw(st.integers(1, 40), label="steps")
    stride = data.draw(st.integers(1, 9), label="stride")
    z0 = complex(x, y)
    config = ModelConfig(coupling=k, frequencies=(omega, -omega))
    steps, z, bad = _generic_pair_run(z0, omega, k, dt, n_steps, stride)
    want = [repr(complex(v)) for v in z[:, 0, 1]]
    try:
        series = integrate("two", z0, config, dt, n_steps * dt, stride)
    except DivergenceError as err:
        assert bad and err.step_index == bad
        assert np.array_equal(err.partial["times"], steps * dt)
        assert [repr(complex(v)) for v in err.partial["values"][:, 0, 1]] == want
    else:
        assert not bad
        assert np.array_equal(series.times, steps * dt)
        assert [repr(complex(v)) for v in series.z[:, 0, 1]] == want


def test_integrate_batch_validation():
    z0s = [random_correlation_matrix(3, 0), random_correlation_matrix(3, 1)]
    configs = [config_for(3), config_for(3)]
    # a config of the wrong N, for stacks and pairs alike
    with pytest.raises(ConfigurationError, match=re.escape("holds 2 frequencies but z is 3 x 3")):
        integrate_batch(z0s, [config_for(3), config_for(2)], 0.01, 0.1)
    pairs = [random_correlation_matrix(2, 0), random_correlation_matrix(2, 1)]
    with pytest.raises(ConfigurationError, match=re.escape("holds 3 frequencies but z is 2 x 2")):
        integrate_batch(pairs, [config_for(2), config_for(3)], 0.01, 0.1)
    # config and state counts that differ, no cells, and states of two N
    for states, cell_configs in (
        (z0s, configs[:1]),
        (z0s[:1], configs),
        ([], []),
        ([z0s[0], pairs[0]], [config_for(3), config_for(2)]),
    ):
        with pytest.raises(ConfigurationError, match="need B >= 1 initial states of one N"):
            integrate_batch(states, cell_configs, 0.01, 0.1)
    with pytest.raises(ConfigurationError, match="not an integer multiple"):
        integrate_batch(z0s, configs, 0.03, 0.1)


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
    fd = (zeta_sq[6] - zeta_sq[4]) / (2 * dt)
    assert abs(zeta_norm_rhs(series.z[5], config) - fd) <= 1e-6


def test_macro_rhs_is_row_average_of_full():
    z0 = random_correlation_matrix(4, seed=31, coherence=0.2)
    config = ModelConfig(coupling=1.1, frequencies=(0.3, -0.1, 0.2, -0.4))
    dr, ds = full_rhs(z0, config)
    dz = dr + 1j * ds
    dw_r, dw_s = macro_rhs(z0, config)
    assert_close(dw_r + 1j * dw_s, dz.mean(axis=0), 1e-13, "macro vs full")


def test_fg_rhs_matches_full_rhs_algebra():
    z0 = random_correlation_matrix(3, seed=8, coherence=0.4)
    config = config_for(3, coupling=1.5)
    df, dg = fg_rhs(z0, config.coupling, config.frequencies)
    dw_r, dw_s = macro_rhs(z0, config)
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
        unit_correlations(_BAD[bad])
    with pytest.raises(ConfigurationError) as block:
        unit_correlations(stack)
    assert str(block.value) == str(gram.value) == str(one.value)


def test_stack_validation_warns_on_a_non_psd_matrix_and_keeps_the_rest():
    # unit diagonal, |z| <= 1 and Hermitian, but z_01 = z_12 = 0.9 = -z_02
    # has a negative eigenvalue
    bad = np.array([[1, 0.9, -0.9], [0.9, 1, 0.9], [-0.9, 0.9, 1]], dtype=complex)
    good = random_correlation_matrix(3, seed=1)
    with pytest.warns(UserWarning, match="not positive semidefinite") as one:
        expected = CorrelationState(0.0, bad).z
    with pytest.warns(UserWarning) as block:
        z = unit_correlations(np.stack([good, bad, good]))
    assert [str(w.message) for w in block] == [str(w.message) for w in one]
    assert np.array_equal(z[1], expected)
    for zb in (z[0], z[2]):
        assert np.array_equal(zb, unit_correlations(good))


def test_step_count_validation():
    assert step_count(1e-3, 2.0) == 2000
    assert step_count(0.1, 0.0) == 0
    with pytest.raises(ConfigurationError):
        step_count(1e-3, 0.0015)
    with pytest.raises(ConfigurationError):
        step_count(-1.0, 1.0)


def test_sample_intervals():
    # every stride steps, then the remainder; the solver and both cell
    # runners sample on this schedule
    assert sample_intervals(10, 3) == [3, 3, 3, 1]
    assert sample_intervals(9, 3) == [3, 3, 3]
    assert sample_intervals(2, 5) == [2]
    assert sample_intervals(0, 4) == []
    series = integrate("two", 0.2 + 0.1j, config_for(2), 0.1, 1.0, sample_stride=3)
    assert np.allclose(series.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    assert SolverParams(0.1, 1.0, snapshot_stride=3).n_samples == 5


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
    z = np.conj(d) @ d.T
    d_dot = mixing_flow(omega, 1.7, 1.0)(d)
    assert_close(d_dot, _coupling_generator(z, omega, 1.7) @ d, 1e-14, "mixing flow")
    # one level up: z' = conj(D') D^T + conj(D) D'^T is the correlation ODE at z
    dr, ds = full_rhs(z, ModelConfig(coupling=1.7, frequencies=tuple(omega)))
    z_dot = np.conj(d_dot) @ d.T + np.conj(d) @ d_dot.T
    assert_close(z_dot, dr + 1j * ds, 1e-13, "D flow vs correlation ODE")
