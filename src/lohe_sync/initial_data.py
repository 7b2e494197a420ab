"""Initial data constructors.

Everything returned here is numerically normalized on its grid, so downstream
norm checks start from exactly 1 (up to rounding) rather than from the
truncation error of an analytic normalization constant.

The random constructors draw from numpy's Generator seeded explicitly; the
perturbation coefficients live on a fixed low-mode lattice, so the same seed
reproduces the same continuum datum at any resolution.
"""

from __future__ import annotations

import numpy as np

from .core import EnsembleState, GridSpec, WaveField, inner_product
from .errors import ConfigurationError

__all__ = [
    "gaussian",
    "plane_wave",
    "plane_waves",
    "gaussian_pair",
    "overlap_pair",
    "incoherent_pair",
    "perturbed_gaussians",
]


def _per_axis(value, dim: int, name: str) -> tuple[float, ...]:
    if np.isscalar(value):
        return (float(value),) * dim
    out = tuple(float(v) for v in value)
    if len(out) != dim:
        raise ConfigurationError(f"{name} must be a scalar or one value per axis")
    return out


def gaussian(
    grid: GridSpec,
    center=None,
    sigma=1.0,
    momentum=0.0,
    phase: float = 0.0,
) -> WaveField:
    """Normalized Gaussian wave packet exp(-(x-c)^2/(2 sigma^2) + i k (x-c) + i phase).

    center defaults to the box midpoint. sigma should be well inside the box
    (a few sigma of clearance) or the periodic images overlap.
    """
    if center is None:
        center = grid.length / 2.0
    centers = _per_axis(center, grid.dim, "center")
    sigmas = _per_axis(sigma, grid.dim, "sigma")
    kicks = _per_axis(momentum, grid.dim, "momentum")
    if any(s <= 0 for s in sigmas):
        raise ConfigurationError("sigma must be positive")

    values = np.full(grid.shape, np.exp(1j * phase), dtype=np.complex128)
    for x, c, s, k in zip(grid.coordinates(), centers, sigmas, kicks):
        values = values * np.exp(-((x - c) ** 2) / (2.0 * s**2) + 1j * k * (x - c))
    return WaveField(grid, values).normalized()


def plane_wave(grid: GridSpec, mode=1) -> WaveField:
    """Normalized plane wave exp(2 pi i m . x / L); m integer per axis."""
    modes = _per_axis(mode, grid.dim, "mode")
    if any(m != int(m) for m in modes):
        raise ConfigurationError("plane-wave modes must be integers")
    if any(abs(m) >= grid.points // 2 for m in modes):
        raise ConfigurationError("plane-wave mode is not resolved on this grid")
    values = np.ones(grid.shape, dtype=np.complex128)
    for x, m in zip(grid.coordinates(), modes):
        values = values * np.exp(2j * np.pi * m * x / grid.length)
    return WaveField(grid, values).normalized()


def plane_waves(grid: GridSpec, modes) -> EnsembleState:
    """One plane wave per oscillator; modes is a sequence of mode numbers."""
    return EnsembleState.from_fields([plane_wave(grid, m) for m in modes])


def gaussian_pair(
    grid: GridSpec,
    separation: float = 2.0,
    sigma: float = 1.5,
    momentum_kick: float = 0.0,
) -> EnsembleState:
    """Two Gaussians straddling the box midpoint, kicks +-momentum_kick/2.

    With zero kick the overlap <psi_1, psi_2> is real positive,
    exp(-separation^2 / (4 sigma^2)) up to periodization.
    """
    mid = grid.length / 2.0
    shift = separation / 2.0
    kick = momentum_kick / 2.0
    first = gaussian(grid, center=(mid - shift,) * grid.dim, sigma=sigma, momentum=kick)
    second = gaussian(grid, center=(mid + shift,) * grid.dim, sigma=sigma, momentum=-kick)
    return EnsembleState.from_fields([first, second])


def overlap_pair(grid: GridSpec, overlap: complex = 0.5, sigma: float = 1.5) -> EnsembleState:
    """Two-oscillator ensemble with <psi_1, psi_2> = overlap to rounding.

    psi_1 is a centered Gaussian; psi_2 = overlap * psi_1 + sqrt(1-|overlap|^2) * chi
    with chi an orthonormalized odd partner, so the target correlation is hit
    exactly rather than hunted for via separations. |overlap| must be <= 1.
    """
    z0 = complex(overlap)
    if abs(z0) > 1.0:
        raise ConfigurationError(f"overlap magnitude must be <= 1, got {abs(z0)}")
    base = gaussian(grid, sigma=sigma)

    mid = grid.length / 2.0
    odd = np.ones(grid.shape, dtype=np.complex128)
    for x in grid.coordinates():
        odd = odd * (x - mid)
    odd = odd * base.values
    chi = WaveField(grid, odd)
    # Gram-Schmidt in fp; the analytic overlap is already ~0 by parity
    chi = WaveField(grid, chi.values - inner_product(base, chi) * base.values).normalized()

    second = z0 * base.values + np.sqrt(max(0.0, 1.0 - abs(z0) ** 2)) * chi.values
    return EnsembleState.from_fields([base, WaveField(grid, second).normalized()])


def incoherent_pair(grid: GridSpec, sigma: float = 1.5) -> EnsembleState:
    """psi_2 = -psi_1: the order parameter is exactly zero and stays zero."""
    base = gaussian(grid, sigma=sigma)
    return EnsembleState.from_fields([base, WaveField(grid, -base.values)])


def _random_low_mode_fields(
    grid: GridSpec, rng: np.random.Generator, n: int, max_mode: int
) -> np.ndarray:
    """n trigonometric polynomials with modes |m_a| <= max_mode and unit mean
    square, shape (n, *grid.shape). The mode lattice is a product of axes, so
    the sum is contracted one axis at a time against exp(2 pi i m x_a / L)."""
    side = 2 * max_mode + 1
    coeffs = rng.standard_normal((n,) + (side,) * grid.dim + (2,))
    u = (coeffs[..., 0] + 1j * coeffs[..., 1]) / np.sqrt(2.0)
    m = np.arange(-max_mode, max_mode + 1)
    factor = np.exp(2j * np.pi * np.outer(m, grid.axis_coordinates()) / grid.length)
    for _ in range(grid.dim):
        u = np.tensordot(u, factor, axes=([1], [0]))
    return u / np.sqrt(side**grid.dim)


def perturbed_gaussians(
    grid: GridSpec,
    n: int,
    seed: int,
    sigma: float = 1.5,
    epsilon: float = 0.25,
    max_mode: int = 6,
) -> EnsembleState:
    """N copies of a Gaussian, each shaped by its own random smooth factor.

    psi_j = normalize(base * (1 + epsilon u_j)) with u_j a random trig
    polynomial. Moderate epsilon keeps the ensemble coherent (all overlaps
    near 1), which the identical-oscillator synchronization scenarios need.
    """
    if n < 2:
        raise ConfigurationError("need at least 2 oscillators")
    if not (0 <= epsilon < 1):
        raise ConfigurationError("epsilon must be in [0, 1)")
    if max_mode < 1 or max_mode >= grid.points // 2:
        raise ConfigurationError("max_mode must be >= 1 and resolved on the grid")
    base = gaussian(grid, sigma=sigma)
    perturbations = _random_low_mode_fields(grid, np.random.default_rng(seed), n, max_mode)
    return EnsembleState.from_fields(
        [WaveField(grid, base.values * (1.0 + epsilon * u)).normalized() for u in perturbations]
    )
