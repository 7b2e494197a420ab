"""Per-sample observables, energies, classification, and the fit helpers."""

import numpy as np
import pytest

from lohe_sync import (
    ContractViolationError,
    CorrelationSeries,
    EnsembleState,
    GridSpec,
    ModelConfig,
    SeriesTooShortError,
    SolverParams,
    WaveField,
    classify_correlation_sync,
    compute_record,
    compute_records,
    detect_period,
    evolve,
    fit_algebraic_limit,
    fit_rate,
    interpolate_series,
    samples,
    with_records,
)
from lohe_sync.core import spectral_gradient
from lohe_sync.initial_data import gaussian, overlap_pair, perturbed_gaussians, plane_waves
from lohe_sync.potentials import cosine_potential
from lohe_sync.solver import _RECORD_BLOCK_BYTES

from conftest import assert_close


def zero_config(n):
    return ModelConfig(coupling=1.0, frequencies=(0.0,) * n)


# -- compute_record on states with known observables ---------------------------


def test_identical_ensemble_record(grid64):
    state = EnsembleState.from_fields([gaussian(grid64, sigma=1.5)] * 3)
    rec = compute_record(state, zero_config(3))
    assert float(np.max(rec.pair_l2)) <= 1e-13
    assert float(np.max(rec.pair_h1)) <= 1e-12
    assert rec.zeta_norm == pytest.approx(1.0, abs=1e-13)
    assert rec.energies.relative == pytest.approx(0.0, abs=1e-14)
    assert float(np.max(np.abs(rec.mass_drift))) <= 1e-14
    assert float(np.max(rec.madelung_rho_l1)) <= 1e-13
    assert float(np.max(rec.madelung_current_l1)) <= 1e-13


def test_orthogonal_pair_record(grid64):
    state = overlap_pair(grid64, overlap=0.0)
    rec = compute_record(state, zero_config(2))
    # <psi_1, psi_2> = 0: ||zeta||^2 = 1/2 and the distance is sqrt(2)
    assert rec.zeta_norm == pytest.approx(np.sqrt(0.5), abs=1e-12)
    assert rec.pair_l2[0, 1] == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert rec.correlations.z[0, 1] == pytest.approx(0.0, abs=1e-12)


def test_plane_wave_energies():
    grid = GridSpec(dim=1, points=64, length=8.0)
    state = plane_waves(grid, [1, 3])
    rec = compute_record(state, zero_config(2))
    k1 = 2 * np.pi / 8.0
    k3 = 2 * np.pi * 3 / 8.0
    assert rec.energies.per_osc[0] == pytest.approx(0.5 * k1**2, abs=1e-12)
    assert rec.energies.per_osc[1] == pytest.approx(0.5 * k3**2, abs=1e-12)
    # orthogonal modes: E_jk = E_j + E_k, so E~ = sum E_jk / (2 N^2)
    expected_pair = rec.energies.per_osc[0] + rec.energies.per_osc[1]
    assert rec.energies.pair[0, 1] == pytest.approx(expected_pair, abs=1e-12)
    # current density of exp(i k x)/sqrt(L) is k/L, uniform; the pairwise
    # L1 difference integrates |k1 - k3| / L over the box
    assert rec.madelung_current_l1[0, 1] == pytest.approx(abs(k1 - k3), abs=1e-10)
    # the densities are both 1/L, so the rho difference vanishes
    assert rec.madelung_rho_l1[0, 1] <= 1e-12


def test_energy_decomposition_with_potential(grid64):
    config = ModelConfig(
        coupling=1.0,
        frequencies=(0.0, 0.0),
        potential=cosine_potential(grid64, amplitude=1.0, offset=1.0),
    )
    state = overlap_pair(grid64, overlap=0.3 + 0.4j)
    rec = compute_record(state, config)
    e = rec.energies
    assert abs(e.total - (e.zeta_energy + e.relative)) <= 1e-10
    # polarization: pair energy computed from the bilinear form must equal
    # the direct H1 energy of the difference field
    from lohe_sync.core import spectral_gradient

    diff = state.psi[0] - state.psi[1]
    (grad,) = spectral_gradient(grid64, diff)
    direct = grid64.dv * (
        0.5 * np.sum(np.abs(grad) ** 2) + np.sum(config.potential * np.abs(diff) ** 2)
    )
    assert abs(e.pair[0, 1] - direct) <= 1e-10


def test_record_inequalities(grid64):
    state = overlap_pair(grid64, overlap=0.2 - 0.3j)
    rec = compute_record(state, zero_config(2))
    # H1 dominates L2, and the density L1 difference is Cauchy-Schwarz
    # bounded by twice the L2 distance
    assert rec.pair_h1[0, 1] >= rec.pair_l2[0, 1]
    assert rec.madelung_rho_l1[0, 1] <= 2.0 * rec.pair_l2[0, 1] + 1e-12


def test_real_fields_carry_no_current(grid64):
    state = overlap_pair(grid64, overlap=0.5)  # built from real profiles
    assert float(np.max(np.abs(state.psi.imag))) == 0.0
    rec = compute_record(state, zero_config(2))
    assert float(np.max(rec.madelung_current_l1)) <= 1e-13


def _madelung_pair_loop(state):
    """The Madelung L1 matrices one pair at a time, on the grid's own shape."""
    n = state.n_oscillators
    psi = state.psi
    dv = state.grid.dv
    rho = np.abs(psi) ** 2
    currents = [np.imag(np.conj(psi) * g) for g in spectral_gradient(state.grid, psi)]
    rho_l1 = np.zeros((n, n))
    cur_l1 = np.zeros((n, n))
    for j in range(n):
        for k in range(j + 1, n):
            rho_l1[j, k] = rho_l1[k, j] = dv * np.sum(np.abs(rho[j] - rho[k]))
            diff_sq = np.zeros(state.grid.shape)
            for cur in currents:
                diff_sq = diff_sq + (cur[j] - cur[k]) ** 2
            cur_l1[j, k] = cur_l1[k, j] = dv * np.sum(np.sqrt(diff_sq))
    return rho_l1, cur_l1


@pytest.mark.parametrize(
    "dim, points, n, potential",
    [(1, 256, 7, True), (2, 32, 4, False)],
    ids=["1d_n7_cosine", "2d_n4_free"],
)
def test_madelung_rows_match_pair_loop_bitwise(dim, points, n, potential):
    # a short detuned run gives every field its own density and current
    grid = GridSpec(dim=dim, points=points, length=20.0)
    config = ModelConfig(
        coupling=1.0,
        frequencies=tuple(np.linspace(-0.3, 0.3, n)),
        potential=cosine_potential(grid, amplitude=1.0, offset=1.0) if potential else None,
    )
    state = evolve(perturbed_gaussians(grid, n, seed=3), config, SolverParams(0.01, 0.5)).final
    rec = compute_record(state, config)
    rho_l1, cur_l1 = _madelung_pair_loop(state)
    assert float(cur_l1.min(initial=np.inf, where=~np.eye(n, dtype=bool))) > 0.0
    assert np.array_equal(rec.madelung_rho_l1, rho_l1)
    assert np.array_equal(rec.madelung_current_l1, cur_l1)


def _record_values(rec):
    """Every number a diagnostics record holds, field by field."""
    en = rec.energies
    values = [rec.time, rec.pair_l2, rec.pair_h1, rec.zeta_norm, rec.correlations.time]
    values += [rec.correlations.z, en.total, en.per_osc, en.pair, en.relative, en.zeta_energy]
    values += [en.diff_energy_two, rec.mass_drift, rec.madelung_rho_l1, rec.madelung_current_l1]
    return [None if v is None else np.asarray(v) for v in values]


def _same_bits(a, b):
    return all(
        (x is None and y is None)
        or (x is not None and y is not None and x.tobytes() == y.tobytes())
        for x, y in zip(_record_values(a), _record_values(b))
    )


@pytest.mark.parametrize("scheme", ["span", "strang_rk4", "full_rk4"])
@pytest.mark.parametrize("potential", [False, True], ids=["free", "cosine"])
@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 5])
def test_records_do_not_depend_on_their_block(n, dim, potential, scheme):
    # 256 grid points either way, so with_records' field budget makes blocks
    # of 16, 10 and 6 samples; 31 samples end on a partial block
    grid = GridSpec(dim=dim, points=256 if dim == 1 else 16, length=20.0)
    config = ModelConfig(
        coupling=1.0,
        frequencies=tuple(np.linspace(-0.375, 0.375, n)),
        potential=cosine_potential(grid, amplitude=1.0, offset=1.0) if potential else None,
    )
    params = SolverParams(0.002, 0.06, scheme=scheme)
    initial = perturbed_gaussians(grid, n, seed=7)
    assert _RECORD_BLOCK_BYTES // initial.psi.nbytes > 3
    pairs = list(with_records(samples(initial, config, params), config))
    states = [state for state, _ in pairs]
    assert len(states) == 31
    assert all(_same_bits(rec, compute_record(state, config)) for state, rec in pairs)
    for size in (1, 3):
        blocks = [compute_records(states[i : i + size], config) for i in range(0, 31, size)]
        records = [rec for block in blocks for rec in block]
        assert all(_same_bits(a, b) for (_, a), b in zip(pairs, records))
    assert (pairs[0][1].energies.diff_energy_two is None) == (n != 2)


# -- classification ------------------------------------------------------------


def synthetic_series(z_offdiag, times):
    z = np.empty((len(times), 2, 2), dtype=np.complex128)
    z[:, 0, 0] = z[:, 1, 1] = 1.0
    z[:, 0, 1] = z_offdiag
    z[:, 1, 0] = np.conj(z_offdiag)
    return CorrelationSeries(times=np.asarray(times), z=z)


def test_classify_phase_sync():
    t = np.linspace(0.0, 30.0, 200)
    series = synthetic_series(1.0 - 0.5 * np.exp(-t), t)
    result = classify_correlation_sync(series, 1e-3)
    assert result.kind == "phase_sync"
    assert result.evidence["pair_distance_max"] <= 1e-3


def test_classify_frequency_sync():
    t = np.linspace(0.0, 30.0, 200)
    phi = 0.848
    z_inf = np.exp(1j * phi)
    series = synthetic_series(z_inf + (0.2 - 0.5j) * np.exp(-0.66 * t), t)
    result = classify_correlation_sync(series, 1e-3)
    assert result.kind == "frequency_sync"


def test_classify_none_on_wandering_correlations():
    t = np.linspace(0.0, 30.0, 200)
    series = synthetic_series(0.9 * np.exp(1j * 2.0 * t), t)
    result = classify_correlation_sync(series, 1e-3)
    assert result.kind == "none"


def test_classify_requires_enough_samples():
    t = np.linspace(0.0, 1.0, 10)
    series = synthetic_series(np.ones_like(t), t)
    with pytest.raises(SeriesTooShortError):
        classify_correlation_sync(series, 1e-3)
    # but the floor is adjustable
    result = classify_correlation_sync(series, 1e-3, min_samples=10)
    assert result.kind == "phase_sync"


# -- fits, interpolation, period detection --------------------------------------


def test_fit_rate_exponential_exact():
    t = np.linspace(0.0, 10.0, 101)
    fit = fit_rate(t, 3.0 * np.exp(-1.7 * t))
    assert fit.rate == pytest.approx(1.7, abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)


def test_fit_rate_algebraic_exact():
    t = np.linspace(1.0, 50.0, 200)
    fit = fit_rate(t, 2.0 * t**-0.8, kind="algebraic")
    assert fit.rate == pytest.approx(-0.8, abs=1e-10)


def test_fit_rate_window_and_errors():
    t = np.linspace(0.0, 10.0, 101)
    y = np.exp(-t)
    fit = fit_rate(t, y, window=(2.0, 8.0))
    assert fit.window == (2.0, 8.0)
    assert fit.n_points == 61
    with pytest.raises(ContractViolationError):
        fit_rate(t, y, window=(9.99, 10.0))
    with pytest.raises(ContractViolationError):
        fit_rate(t, y - 0.5)
    with pytest.raises(ContractViolationError):
        fit_rate(t, y, kind="parabolic")


def test_fit_algebraic_limit_exact():
    t = np.linspace(5.0, 40.0, 100)
    fit = fit_algebraic_limit(t, 1.25 + 3.0 / t)
    assert fit.limit == pytest.approx(1.25, abs=1e-10)
    assert fit.coefficient == pytest.approx(3.0, abs=1e-8)


def test_interpolate_series_exact_on_cubics():
    t = np.linspace(0.0, 5.0, 26)
    y = 2.0 - t + 0.5 * t**2 - 0.125 * t**3
    for t_query in (0.33, 2.5, 4.87):
        exact = 2.0 - t_query + 0.5 * t_query**2 - 0.125 * t_query**3
        assert interpolate_series(t, y, t_query) == pytest.approx(exact, abs=1e-12)
    with pytest.raises(ContractViolationError):
        interpolate_series(t, y, 5.5)
    with pytest.raises(SeriesTooShortError):
        interpolate_series(t[:3], y[:3], 0.1)


def test_interpolate_series_complex_values():
    t = np.linspace(0.0, 5.0, 26)
    y = np.exp(1j * t)
    out = interpolate_series(t, y, 2.34)
    assert abs(out - np.exp(2.34j)) <= 1e-4


def test_detect_period():
    t = np.linspace(0.0, 20.0, 2001)
    # |sin| dips to zero every pi; the signal period is pi
    period = detect_period(t, np.abs(np.sin(t)))
    assert period == pytest.approx(np.pi, rel=1e-4)
    with pytest.raises(ContractViolationError):
        detect_period(t, np.ones_like(t))  # no dips at all
