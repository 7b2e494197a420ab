"""Built-in external potentials sampled on a grid.

Three families cover the test matrix: free motion (zero), a cosine profile,
and a smooth periodized barrier. All are bounded and smooth on the torus, so
energies stay finite and the spectral solver sees no Gibbs artifacts.
"""

from __future__ import annotations

import inspect

import numpy as np

from .core import GridSpec
from .errors import ConfigurationError

__all__ = ["zero_potential", "cosine_potential", "barrier_potential", "build_potential"]


def zero_potential(grid: GridSpec) -> None:
    """Free motion. Returned as None so the solver can skip the multiply."""
    return None


def cosine_potential(grid: GridSpec, amplitude: float = 1.0, offset: float = 0.0) -> np.ndarray:
    """V(x) = offset + amplitude * sum_axes cos(2 pi x_a / L).

    offset = 0 gives the plain cosine profile; offset = amplitude * dim gives
    a nonnegative well, which the energy-bound checks use so that E(0) > 0.
    """
    v = np.full(grid.shape, float(offset))
    for axis, x in enumerate(grid.coordinates()):
        v = v + amplitude * np.cos(2.0 * np.pi * x / grid.length)
    return v


def barrier_potential(
    grid: GridSpec,
    height: float = 1.0,
    width: float = 1.0,
    center: float | tuple[float, ...] | None = None,
) -> np.ndarray:
    """Smooth periodic bump of the given height centered in the box.

    Shape is exp(kappa (cos(2 pi (x - c)/L) - 1)) per axis, a periodized
    near-Gaussian whose width parameter matches the Gaussian sigma near the
    peak: kappa = L^2 / (4 pi^2 width^2).
    """
    if not (np.isfinite(width) and width > 0):
        raise ConfigurationError(f"barrier width must be positive, got {width!r}")
    if center is None:
        centers = (grid.length / 2.0,) * grid.dim
    elif np.isscalar(center):
        centers = (float(center),) * grid.dim
    else:
        centers = tuple(float(c) for c in center)
        if len(centers) != grid.dim:
            raise ConfigurationError("barrier center must give one value per axis")
    kappa = grid.length**2 / (4.0 * np.pi**2 * width**2)
    v = np.full(grid.shape, float(height))
    for x, c in zip(grid.coordinates(), centers):
        v = v * np.exp(kappa * (np.cos(2.0 * np.pi * (x - c) / grid.length) - 1.0))
    return v


_BUILTINS = {
    "zero": zero_potential,
    "cosine": cosine_potential,
    "barrier": barrier_potential,
}


def build_potential(grid: GridSpec, kind: str, **params) -> np.ndarray | None:
    """Look up a builtin potential by name and sample it on the grid."""
    try:
        builder = _BUILTINS[kind]
    except KeyError:
        raise ConfigurationError(
            f"unknown potential {kind!r}; builtins are {sorted(_BUILTINS)}"
        ) from None
    unknown = params.keys() - (inspect.signature(builder).parameters.keys() - {"grid"})
    if unknown:
        raise ConfigurationError(f"potential {kind!r} takes no parameter {', '.join(sorted(unknown))}")
    return builder(grid, **params)
