"""Core state containers and operators for coupled Schrodinger-Lohe dynamics.

The model couples N wave functions psi_1 .. psi_N on a periodic box. Each one
evolves under its own detuned Hamiltonian H_j = -(1/2) Laplacian + V + Omega_j
while a mean-field term pulls the ensemble toward a common profile:

    d psi_j / dt = -i H_j psi_j + (K/2) (zeta - <zeta, psi_j> psi_j)

where zeta = (1/N) sum_l psi_l is the ensemble average and <f, g> is the L2
inner product, conjugate linear in the first slot. The coupling term is
tangent to the unit sphere, so every L2 norm is conserved exactly and
unit-norm ensembles stay on the product of spheres.

All spatial operators here are pseudospectral on the uniform periodic grid;
wavenumber tables are cached per grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .errors import ConfigurationError, ContractViolationError, GridMismatchError

__all__ = [
    "GridSpec",
    "WaveField",
    "ModelConfig",
    "EnsembleState",
    "OrderParameterState",
    "inner_product",
    "order_parameter",
    "gram_matrix",
    "gram_matrices",
    "coupling_term",
    "wavenumbers",
    "k_squared",
    "fourier_transforms",
    "spectral_gradient",
    "spectral_laplacian",
]


def _is_power_of_two(n: int) -> bool:
    return n > 0 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: `points` samples per axis on a box of side `length`.

    dim must be 1, 2, or 3. points must be a power of two and at least 16 so
    the FFT stack stays in its fast paths and the dealiasing margins quoted in
    the solver docs hold.
    """

    dim: int
    points: int
    length: float

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise ConfigurationError(f"dim must be 1, 2, or 3, got {self.dim}")
        if not isinstance(self.points, int) or not _is_power_of_two(self.points) or self.points < 16:
            raise ConfigurationError(
                f"points must be a power of two >= 16, got {self.points!r}"
            )
        if not (np.isfinite(self.length) and self.length > 0):
            raise ConfigurationError(f"length must be positive and finite, got {self.length!r}")

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.points,) * self.dim

    @property
    def dx(self) -> float:
        return self.length / self.points

    @property
    def dv(self) -> float:
        """Volume element of one cell."""
        return self.dx**self.dim

    @property
    def size(self) -> int:
        return self.points**self.dim

    def axis_coordinates(self) -> np.ndarray:
        """Sample positions along one axis, [0, length)."""
        return np.arange(self.points) * self.dx

    def coordinates(self) -> tuple[np.ndarray, ...]:
        """Per-axis coordinate arrays, broadcastable to `shape`."""
        x = self.axis_coordinates()
        return tuple(np.meshgrid(*([x] * self.dim), indexing="ij", sparse=True))


@lru_cache(maxsize=32)
def _axis_wavenumbers(points: int, length: float) -> np.ndarray:
    k = 2.0 * np.pi * np.fft.fftfreq(points, d=length / points)
    k.flags.writeable = False
    return k


def wavenumbers(grid: GridSpec) -> tuple[np.ndarray, ...]:
    """Angular wavenumbers along each axis, in FFT order. Read-only views."""
    k = _axis_wavenumbers(grid.points, grid.length)
    return (k,) * grid.dim


def _axis_shaped(k: np.ndarray, axis: int, dim: int) -> np.ndarray:
    shape = [1] * dim
    shape[axis] = k.size
    return k.reshape(shape)


@lru_cache(maxsize=32)
def _k_squared(dim: int, points: int, length: float) -> np.ndarray:
    k = _axis_wavenumbers(points, length)
    total = np.zeros((points,) * dim)
    for axis in range(dim):
        total = total + _axis_shaped(k, axis, dim) ** 2
    total.flags.writeable = False
    return total


def k_squared(grid: GridSpec) -> np.ndarray:
    """|k|^2 on the full grid, FFT order, read only."""
    return _k_squared(grid.dim, grid.points, grid.length)


def fourier_transforms(dim: int):
    """(forward, inverse) FFT over the trailing dim axes of a field or a stack
    of fields. In 1-D these are numpy's one-axis fft and ifft, which give
    fftn's bits without its argument handling (a few microseconds a call)."""
    if dim == 1:
        return np.fft.fft, np.fft.ifft
    axes = tuple(range(-dim, 0))
    return partial(np.fft.fftn, axes=axes), partial(np.fft.ifftn, axes=axes)


def spectral_gradient(grid: GridSpec, values: np.ndarray) -> tuple[np.ndarray, ...]:
    """Gradient of a periodic field, one array per axis.

    values may be a single field of grid.shape or a stack (n, *grid.shape);
    the transform runs over the trailing grid.dim axes.

    The Nyquist mode is dropped: under the one-sided i k multiplier it would
    turn the (real) Nyquist cosine into a spurious imaginary component, which
    ruins currents of real fields. Dropping it keeps gradients of real fields
    real and is exact for any resolved signal.
    """
    fft, ifft = fourier_transforms(grid.dim)
    fhat = fft(np.asarray(values))
    k = _axis_wavenumbers(grid.points, grid.length).copy()
    k[grid.points // 2] = 0.0
    return tuple(ifft(1j * _axis_shaped(k, axis, grid.dim) * fhat) for axis in range(grid.dim))


def spectral_laplacian(grid: GridSpec, values: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(-k_squared(grid) * np.fft.fftn(values))


def _as_complex_field(grid: GridSpec, values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.complex128)
    if arr.shape != grid.shape:
        raise GridMismatchError(f"field shape {arr.shape} does not match grid shape {grid.shape}")
    return arr


@dataclass
class WaveField:
    """One complex amplitude sampled on its grid."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        self.values = _as_complex_field(self.grid, self.values)

    def norm(self) -> float:
        return float(np.sqrt(self.grid.dv * np.sum(np.abs(self.values) ** 2)))

    def normalized(self) -> "WaveField":
        n = self.norm()
        if n == 0.0:
            raise ContractViolationError("cannot normalize the zero field")
        return WaveField(self.grid, self.values / n)


def inner_product(a: WaveField, b: WaveField) -> complex:
    """L2 inner product <a, b>, conjugate linear in the first argument."""
    if a.grid != b.grid:
        raise GridMismatchError("inner product requires a common grid")
    return complex(a.grid.dv * np.vdot(a.values, b.values))


@dataclass(frozen=True, eq=False)
class ModelConfig:
    """Static model parameters.

    coupling is the gain K >= 0 in front of the mean-field term (K = 0 is the
    decoupled reference configuration). frequencies are the per-oscillator
    detunings Omega_j; their length fixes the ensemble size N >= 2. potential
    is a real array on the grid, or None for free motion.
    """

    coupling: float
    frequencies: tuple[float, ...]
    potential: np.ndarray | None = None

    def __post_init__(self):
        freqs = tuple(float(w) for w in self.frequencies)
        object.__setattr__(self, "frequencies", freqs)
        if len(freqs) < 2:
            raise ConfigurationError(f"need at least 2 oscillators, got {len(freqs)}")
        if not all(np.isfinite(freqs)):
            raise ConfigurationError("frequencies must be finite")
        if not (np.isfinite(self.coupling) and self.coupling >= 0):
            raise ConfigurationError(f"coupling must be finite and >= 0, got {self.coupling!r}")
        if self.potential is not None:
            pot = np.asarray(self.potential, dtype=np.float64)
            if not np.all(np.isfinite(pot)):
                raise ConfigurationError("potential must be finite everywhere")
            object.__setattr__(self, "potential", pot)

    @property
    def n_oscillators(self) -> int:
        return len(self.frequencies)


@dataclass
class EnsembleState:
    """N wave functions on a shared grid at one instant.

    psi is stacked as (N, *grid.shape) complex128; row j is oscillator j.
    """

    grid: GridSpec
    psi: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.psi, dtype=np.complex128)
        if arr.ndim != self.grid.dim + 1 or arr.shape[1:] != self.grid.shape:
            raise GridMismatchError(
                f"ensemble shape {arr.shape} does not match (N, *{self.grid.shape})"
            )
        if arr.shape[0] < 1:
            raise ConfigurationError("ensemble must hold at least one field")
        self.psi = arr

    @classmethod
    def from_fields(cls, fields, time: float = 0.0) -> "EnsembleState":
        fields = list(fields)
        if not fields:
            raise ConfigurationError("ensemble must hold at least one field")
        grid = fields[0].grid
        for f in fields[1:]:
            if f.grid != grid:
                raise GridMismatchError("all fields must share one grid")
        return cls(grid, np.stack([f.values for f in fields]), time)

    @property
    def n_oscillators(self) -> int:
        return self.psi.shape[0]

    def fields(self) -> list[WaveField]:
        return [WaveField(self.grid, row) for row in self.psi]

    def norms(self) -> np.ndarray:
        axes = tuple(range(1, self.psi.ndim))
        return np.sqrt(self.grid.dv * np.sum(np.abs(self.psi) ** 2, axis=axes))

    def normalized(self) -> "EnsembleState":
        norms = self.norms()
        if np.any(norms == 0.0):
            raise ContractViolationError("cannot normalize a zero field")
        shape = (-1,) + (1,) * self.grid.dim
        return EnsembleState(self.grid, self.psi / norms.reshape(shape), self.time)

    def copy(self) -> "EnsembleState":
        return EnsembleState(self.grid, self.psi.copy(), self.time)


@dataclass(frozen=True)
class OrderParameterState:
    """Ensemble average zeta, its norm, and its overlaps with each member.

    overlaps[j] = <zeta, psi_j>; its real part averages to norm**2 and its
    imaginary part averages to zero over the ensemble, which the diagnostics
    use as a consistency check.
    """

    zeta: np.ndarray
    norm: float
    overlaps: np.ndarray

    @property
    def norm_sq(self) -> float:
        return self.norm * self.norm


def _batch_inner(dv: float, stacked: np.ndarray, field: np.ndarray) -> np.ndarray:
    # <psi_j, field> for every row j; conjugate on the stacked side
    axes = tuple(range(1, stacked.ndim))
    return dv * np.sum(np.conj(stacked) * field, axis=axes)


def order_parameter(state: EnsembleState) -> OrderParameterState:
    zeta = state.psi.mean(axis=0)
    overlaps = np.conj(_batch_inner(state.grid.dv, state.psi, zeta))
    norm_sq = float(state.grid.dv * np.sum(np.abs(zeta) ** 2))
    return OrderParameterState(zeta=zeta, norm=float(np.sqrt(norm_sq)), overlaps=overlaps)


def gram_matrix(state: EnsembleState) -> np.ndarray:
    """Pairwise correlations z[j, k] = <psi_j, psi_k>, exactly Hermitian.

    Only the upper triangle is computed; the lower one is its conjugate
    mirror, so z and z.conj().T are bit-identical and the diagonal is real.
    """
    return gram_matrices(state.psi[None], state.grid.dv)[0]


def gram_matrices(psi: np.ndarray, dv: float) -> np.ndarray:
    """gram_matrix of every ensemble of a (B, N, *grid) stack, as (B, N, N):
    row j of all B at once, so each matrix has the same bits in any stack."""
    b, n = psi.shape[:2]
    flat = psi.reshape(b, n, -1)
    z = np.empty((b, n, n), dtype=np.complex128)
    for j in range(n):
        row = dv * (np.conj(flat[:, j, None]) @ np.swapaxes(flat[:, j:], 1, 2))[:, 0]
        z[:, j, j:] = row
        z[:, j, j] = row[:, 0].real
        z[:, j + 1 :, j] = np.conj(row[:, 1:])
    return z


def coupling_term(psi: np.ndarray, dv: float) -> np.ndarray:
    """The mean-field pull zeta - <zeta, psi_j> psi_j on every member of an
    (N, *grid) stack, without its gain K/2; the model's only nonlinearity.
    The N overlaps <zeta, psi_j> are one conj(zeta) @ psi^T."""
    zeta = psi.mean(axis=0)
    flat = psi.reshape(psi.shape[0], -1)
    overlaps = dv * (np.conj(zeta.reshape(-1)) @ flat.T)
    return zeta - overlaps.reshape((-1,) + (1,) * (psi.ndim - 1)) * psi
