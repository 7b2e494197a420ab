"""Grid, field, and right-hand-side invariants, mostly property-based."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lohe_sync import (
    ConfigurationError,
    EnsembleState,
    GridSpec,
    GridMismatchError,
    ModelConfig,
    SolverParams,
    WaveField,
    coupling_term,
    evolve,
    gram_matrix,
    inner_product,
    order_parameter,
)
from lohe_sync.core import (
    fourier_transforms,
    k_squared,
    spectral_gradient,
    spectral_laplacian,
    wavenumbers,
)
from lohe_sync.initial_data import gaussian, perturbed_gaussians
from lohe_sync.solver import _GridStepper

from conftest import assert_close

GRID = GridSpec(dim=1, points=32, length=10.0)


def random_ensemble(n, seed, grid=GRID):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=(n, *grid.shape)) + 1j * rng.normal(size=(n, *grid.shape))
    return EnsembleState(grid, psi, 0.0).normalized()


def random_config(n, seed, coupling=1.0):
    rng = np.random.default_rng(seed + 10_000)
    return ModelConfig(coupling=coupling, frequencies=tuple(rng.normal(size=n)))


ensembles = st.builds(random_ensemble, st.integers(2, 5), st.integers(0, 10_000))


# -- grids and spectral operators ------------------------------------------


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        GridSpec(dim=4, points=32, length=1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(dim=1, points=48, length=1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(dim=1, points=8, length=1.0)
    with pytest.raises(ConfigurationError):
        GridSpec(dim=1, points=32, length=0.0)


def test_grid_geometry():
    g = GridSpec(dim=2, points=16, length=4.0)
    assert g.shape == (16, 16)
    assert g.dx == 0.25
    assert g.dv == 0.0625
    assert g.size == 256
    x = g.axis_coordinates()
    assert x[0] == 0.0 and x[-1] == pytest.approx(4.0 - 0.25)


def test_wavenumbers_match_fft_convention():
    k = wavenumbers(GRID)[0]
    assert_close(k, 2 * np.pi * np.fft.fftfreq(GRID.points, GRID.dx), 1e-14)
    assert_close(k_squared(GRID), k**2, 1e-14)


def test_spectral_derivatives_on_plane_wave():
    # exact for any resolved Fourier mode
    x = GRID.coordinates()[0]
    k = 2 * np.pi * 3 / GRID.length
    f = np.exp(1j * k * x)
    (grad,) = spectral_gradient(GRID, f)
    assert_close(grad, 1j * k * f, 1e-12)
    assert_close(spectral_laplacian(GRID, f), -(k**2) * f, 1e-11)


@pytest.mark.parametrize("dim", [1, 2])
def test_fourier_transforms_match_fftn_over_the_trailing_axes(dim):
    # in 1-D the transforms are numpy's one-axis fft and ifft: on a stack
    # they, and the gradient built on them, give fftn's bits
    grid = GridSpec(dim=dim, points=64 if dim == 1 else 16, length=20.0)
    stack = perturbed_gaussians(grid, 3, seed=2).psi
    axes = tuple(range(1, dim + 1))
    fft, ifft = fourier_transforms(dim)
    assert np.array_equal(fft(stack), np.fft.fftn(stack, axes=axes))
    assert np.array_equal(ifft(stack), np.fft.ifftn(stack, axes=axes))
    k = wavenumbers(grid)[0].copy()
    k[grid.points // 2] = 0.0
    hat = np.fft.fftn(stack, axes=axes)
    for axis, grad in enumerate(spectral_gradient(grid, stack)):
        shape = [1] * dim
        shape[axis] = grid.points
        assert np.array_equal(grad, np.fft.ifftn(1j * k.reshape(shape) * hat, axes=axes))


def test_inner_product_conventions():
    x = GRID.coordinates()[0]
    a = WaveField(GRID, np.exp(-((x - 5) ** 2))).normalized()
    b = WaveField(GRID, np.exp(-((x - 6) ** 2))).normalized()
    zab = inner_product(a, b)
    zba = inner_product(b, a)
    assert zab == pytest.approx(np.conj(zba))
    # conjugate linear in the first slot
    assert inner_product(WaveField(GRID, 1j * a.values), b) == pytest.approx(-1j * zab)
    assert inner_product(a, WaveField(GRID, 1j * b.values)) == pytest.approx(1j * zab)
    other = WaveField(GridSpec(dim=1, points=64, length=10.0), np.zeros(64))
    with pytest.raises(GridMismatchError):
        inner_product(a, other)


# -- ensemble-level identities ----------------------------------------------


@settings(max_examples=40, deadline=None)
@given(ensembles)
def test_gram_matrix_hermitian_unit_diagonal(state):
    z = gram_matrix(state)
    assert np.array_equal(z, z.conj().T)
    assert_close(np.diag(z), np.ones(state.n_oscillators), 1e-12)
    assert float(np.max(np.abs(z))) <= 1.0 + 1e-12


@settings(max_examples=40, deadline=None)
@given(ensembles)
def test_order_parameter_identity(state):
    # 1 - ||zeta||^2 == (1/2N^2) sum_{jk} ||psi_j - psi_k||^2 for unit norms
    op = order_parameter(state)
    z = gram_matrix(state)
    n = state.n_oscillators
    dist_sq = 2.0 * (1.0 - z.real)
    assert abs((1.0 - op.norm**2) - dist_sq.sum() / (2 * n * n)) <= 1e-12
    assert abs(op.overlaps.real.mean() - op.norm**2) <= 1e-12
    assert abs(op.overlaps.imag.mean()) <= 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_rhs_conserves_mass(n, seed):
    # d/dt ||psi_j||^2 = 2 Re <psi_j, rhs_j> must vanish on unit-norm data;
    # the right-hand side is the one full_rk4 integrates
    state = random_ensemble(n, seed)
    config = random_config(n, seed)
    stepper = _GridStepper(state, config, SolverParams(dt=1e-3, t_end=1e-3, scheme="full_rk4"))
    rhs = stepper._full_rhs(state.psi)
    flux = GRID.dv * np.sum(np.conj(state.psi) * rhs, axis=tuple(range(1, state.psi.ndim)))
    assert float(np.max(np.abs(flux.real))) <= 1e-12


def _pairwise_coupling(state):
    """Reference: (1/N) sum_l (psi_l - <psi_l, psi_j> psi_j), pair by pair."""
    n = state.n_oscillators
    z = gram_matrix(state)
    out = np.zeros_like(state.psi)
    for j in range(n):
        for l in range(n):
            out[j] += state.psi[l] - z[l, j] * state.psi[j]
    return out / n


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000))
def test_rhs_forms_agree(n, seed):
    state = random_ensemble(n, seed)
    a = coupling_term(state.psi, state.grid.dv)
    assert_close(a, _pairwise_coupling(state), 1e-13, "coupling forms")


@settings(max_examples=25, deadline=None)
@given(ensembles, st.floats(-np.pi, np.pi))
def test_gram_invariant_under_common_phase(state, theta):
    rotated = EnsembleState(state.grid, np.exp(1j * theta) * state.psi, state.time)
    assert_close(gram_matrix(rotated), gram_matrix(state), 1e-13)


def test_rhs_rejects_mismatched_config(pair_state):
    config = ModelConfig(coupling=1.0, frequencies=(0.1, 0.2, 0.3))
    with pytest.raises(ConfigurationError):
        evolve(pair_state, config, SolverParams(dt=1e-3, t_end=1e-3))


def _low_mode_field_by_modes(grid, rng, max_mode):
    """Reference: the perturbation summed one full-grid exponential per mode."""
    side = 2 * max_mode + 1
    coeffs = rng.standard_normal((side,) * grid.dim + (2,))
    coeffs = (coeffs[..., 0] + 1j * coeffs[..., 1]) / np.sqrt(2.0)
    u = np.zeros(grid.shape, dtype=np.complex128)
    xs = grid.coordinates()
    for idx in np.ndindex(*coeffs.shape):
        m = np.array(idx) - max_mode
        phase = np.zeros(grid.shape)
        for axis in range(grid.dim):
            phase = phase + m[axis] * xs[axis]
        u = u + coeffs[idx] * np.exp(2j * np.pi * phase / grid.length)
    return u / np.sqrt(coeffs.size)


@pytest.mark.parametrize(
    "dim, points, n, max_mode",
    [(1, 256, 40, 6), (2, 64, 4, 6), (3, 16, 3, 3)],
    ids=["1d", "2d", "3d"],
)
def test_perturbed_gaussians_match_the_mode_by_mode_sum(dim, points, n, max_mode):
    grid = GridSpec(dim=dim, points=points, length=20.0)
    ensemble = perturbed_gaussians(grid, n, seed=9, max_mode=max_mode)
    base = gaussian(grid, sigma=1.5)
    rng = np.random.default_rng(9)
    for psi in ensemble.psi:
        u = _low_mode_field_by_modes(grid, rng, max_mode)
        expected = WaveField(grid, base.values * (1.0 + 0.25 * u)).normalized().values
        assert np.max(np.abs(psi - expected)) <= 1e-15
