"""Observables, synchronization classification, and rate fitting.

Everything the qualitative statements are written in lives here: pairwise
L2/H1 distances, the quadratic energy functionals and their decomposition,
Madelung density/current alignment, tail-window classification into
phase/frequency synchronization, and least-squares decay-rate fits.

All quadratic quantities are computed through one Hermitian bilinear form
B_jk = integral of (1/2) grad psi_j~ grad psi_k + V psi_j~ psi_k, so the
identities E = E_zeta + E_rel and the polarization rule hold to rounding
rather than to quadrature mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    EnsembleState,
    ModelConfig,
    gram_matrices,
    spectral_gradient,
)
from .correlations import CorrelationSeries, CorrelationState, pair_distance
from .errors import ContractViolationError, DivergenceError, SeriesTooShortError

__all__ = [
    "CLASSIFY_MIN_SAMPLES",
    "EnergyReport",
    "DiagnosticsRecord",
    "SyncClassification",
    "FitResult",
    "LimitFit",
    "compute_record",
    "compute_records",
    "classify_sync",
    "classify_correlation_sync",
    "fit_rate",
    "fit_decay",
    "fit_algebraic_limit",
    "detect_period",
    "interpolate_series",
    "tail_samples",
]

# fewest samples a tail-window classification accepts
CLASSIFY_MIN_SAMPLES = 50


@dataclass(frozen=True)
class EnergyReport:
    """Quadratic energies of one ensemble snapshot.

    total      E = (1/N) sum_j E_j
    per_osc    E_j = int (1/2)|grad psi_j|^2 + V |psi_j|^2
    pair       E_jk, same functional applied to psi_j - psi_k
    relative   (1/(2N^2)) sum_jk E_jk
    zeta_energy  the functional applied to the order parameter
    diff_energy_two  functional of e^{i phi} psi_1 - psi_2 when the
                 two-oscillator phase offset phi is defined, else None
    """

    total: float
    per_osc: np.ndarray
    pair: np.ndarray
    relative: float
    zeta_energy: float
    diff_energy_two: float | None


@dataclass(frozen=True)
class DiagnosticsRecord:
    time: float
    pair_l2: np.ndarray
    pair_h1: np.ndarray
    zeta_norm: float
    correlations: CorrelationState
    energies: EnergyReport
    mass_drift: np.ndarray
    madelung_rho_l1: np.ndarray
    madelung_current_l1: np.ndarray


def compute_record(state: EnsembleState, config: ModelConfig) -> DiagnosticsRecord:
    """All observables of one snapshot: compute_records of a one-sample block."""
    return compute_records([state], config)[0]


@np.errstate(over="ignore", invalid="ignore")
def compute_records(states, config: ModelConfig) -> list[DiagnosticsRecord]:
    """compute_record of each of B snapshots of one run, in one vectorized
    pass over a leading sample axis: N FFT gradients, N x N Gram products,
    and the pairwise Madelung L1 distances in O(B N^2 M) time (M grid
    points). Those are reduced one row at a time, oscillator j against every
    later one, so the extra memory is O(B N M), not O(B N^2 M), and
    solver.with_records keeps B N M under a fixed field budget. Every sample
    goes through the same arithmetic in any block, so its record has the
    same bits whichever block it is computed in.

    Fields can be finite while a quadratic or quartic form of them
    overflows: a sample whose record would hold a non-finite value raises
    DivergenceError at its time, found in one pass over the block, with the
    arithmetic warnings on the way there silenced."""
    grid = states[0].grid
    n = states[0].n_oscillators
    dv = grid.dv
    # a one-sample block (the large fields) is read in place, not copied
    psi = states[0].psi[None] if len(states) == 1 else np.stack([s.psi for s in states])
    count = len(states)
    flat = psi.reshape(count, n, -1)

    mass_drift = np.sqrt(dv * np.sum(np.abs(flat) ** 2, axis=2)) - 1.0
    raw_gram = gram_matrices(psi, dv)

    # spectral gradients of all fields at once, one array per axis
    grads = spectral_gradient(grid, psi)

    grad_gram = np.zeros((count, n, n), dtype=np.complex128)
    for g in grads:
        gf = g.reshape(count, n, -1)
        grad_gram += dv * (np.conj(gf) @ np.swapaxes(gf, 1, 2))

    if config.potential is not None:
        vflat = config.potential.reshape(-1)
        pot_gram = dv * (np.conj(flat) * vflat) @ np.swapaxes(flat, 1, 2)
    else:
        pot_gram = np.zeros((count, n, n), dtype=np.complex128)

    b = 0.5 * grad_gram + pot_gram

    diag_b = np.diagonal(b, axis1=1, axis2=2).real
    pair_energy = diag_b[:, :, None] + diag_b[:, None, :] - 2.0 * b.real
    total = diag_b.mean(axis=1)
    relative = pair_energy.sum(axis=(1, 2)) / (2.0 * n * n)
    zeta_energy = b.mean(axis=(1, 2)).real

    # a pair's phase offset is read in the frame of classify_pair (imported
    # here: oracles imports solver, which imports this module); Re(e^{-i phi}
    # b01) is spelled out in real arithmetic, so no fused multiply-add enters
    diff_energy_two = np.zeros(0)  # no phase offset: None in every record
    if n == 2 and config.coupling > 0:
        from .oracles import classify_pair

        regime, swapped = classify_pair(config.coupling, config.frequencies)
        if regime.phi is not None:
            b01 = np.conj(b[:, 0, 1]) if swapped else b[:, 0, 1]
            rot = np.exp(-1j * regime.phi)
            rotated = rot.real * b01.real - rot.imag * b01.imag
            diff_energy_two = diag_b[:, 0] + diag_b[:, 1] - 2.0 * rotated

    diag_g = np.diagonal(raw_gram, axis1=1, axis2=2).real
    l2_sq = np.maximum(0.0, diag_g[:, :, None] + diag_g[:, None, :] - 2.0 * raw_gram.real)
    pair_l2 = np.sqrt(l2_sq)
    diag_gg = np.diagonal(grad_gram, axis1=1, axis2=2).real
    h1_sq = l2_sq + np.maximum(
        0.0, diag_gg[:, :, None] + diag_gg[:, None, :] - 2.0 * grad_gram.real
    )
    pair_h1 = np.sqrt(h1_sq)

    # row j against every later oscillator at once: (B, n - j - 1, M) temporaries
    rho = (np.abs(psi) ** 2).reshape(count, n, -1)
    currents = [np.imag(np.conj(psi) * g).reshape(count, n, -1) for g in grads]
    rho_l1 = np.zeros((count, n, n))
    cur_l1 = np.zeros((count, n, n))
    for j in range(n - 1):
        rho_l1[:, j, j + 1 :] = dv * np.sum(np.abs(rho[:, j, None] - rho[:, j + 1 :]), axis=2)
        if grid.dim == 1:  # |dj|, the sqrt of dj^2 without its overflow
            diff = np.abs(currents[0][:, j, None] - currents[0][:, j + 1 :])
        else:
            diff = np.zeros((count, n - j - 1, rho.shape[2]))
            for cur in currents:
                diff = diff + (cur[:, j, None] - cur[:, j + 1 :]) ** 2
            diff = np.sqrt(diff)
        cur_l1[:, j, j + 1 :] = dv * np.sum(diff, axis=2)
    rho_l1 = rho_l1 + np.swapaxes(rho_l1, 1, 2)
    cur_l1 = cur_l1 + np.swapaxes(cur_l1, 1, 2)

    # the order parameter's norm, as core.order_parameter forms it
    zeta_norm = np.sqrt(dv * np.sum(np.abs(flat.mean(axis=1)) ** 2, axis=1))

    times = [state.time for state in states]
    values = (pair_l2, pair_h1, zeta_norm, total, diag_b, pair_energy, relative, zeta_energy)
    values += (diff_energy_two, mass_drift, rho_l1, cur_l1)
    finite = np.isfinite(np.concatenate([v.reshape(count, -1) for v in values], axis=1))
    if not finite.all():
        t = times[int(np.argmin(finite.all(axis=1)))]
        raise DivergenceError(f"the diagnostics record at t = {t:g} is not finite", time=t)
    total, relative, zeta_energy, zeta_norm = (
        v.tolist() for v in (total, relative, zeta_energy, zeta_norm)
    )
    diff_energy_two = diff_energy_two.tolist() or [None] * count
    correlations = CorrelationState.from_grams(times, raw_gram)
    return [
        DiagnosticsRecord(
            time=times[i],
            pair_l2=pair_l2[i],
            pair_h1=pair_h1[i],
            zeta_norm=zeta_norm[i],
            correlations=correlations[i],
            energies=EnergyReport(
                total=total[i],
                per_osc=diag_b[i],
                pair=pair_energy[i],
                relative=relative[i],
                zeta_energy=zeta_energy[i],
                diff_energy_two=diff_energy_two[i],
            ),
            mass_drift=mass_drift[i],
            madelung_rho_l1=rho_l1[i],
            madelung_current_l1=cur_l1[i],
        )
        for i in range(count)
    ]


@dataclass(frozen=True)
class SyncClassification:
    kind: str
    evidence: dict


def tail_samples(n_samples: int) -> int:
    """Length of the final-quarter window every tail statistic is read from
    (at least 2 samples)."""
    return max(2, n_samples // 4)


def _classify(times, pair_dist, zeta, tol, min_samples):
    n_samples = len(times)
    if n_samples < min_samples:
        raise SeriesTooShortError(
            f"classification needs at least {min_samples} samples, got {n_samples}"
        )
    tail = tail_samples(n_samples)
    d_tail = pair_dist[-tail:]
    z_tail = zeta[-tail:]

    iu = np.triu_indices(pair_dist.shape[1], k=1)
    d_max = float(d_tail[:, iu[0], iu[1]].max()) if iu[0].size else 0.0
    d_mean = d_tail[:, iu[0], iu[1]].mean(axis=0) if iu[0].size else np.zeros(0)
    d_var = (
        d_tail[:, iu[0], iu[1]].max(axis=0) - d_tail[:, iu[0], iu[1]].min(axis=0)
        if iu[0].size
        else np.zeros(0)
    )
    z_mean = float(z_tail.mean())
    z_dev_one = float(np.max(np.abs(z_tail - 1.0)))

    evidence = {
        "tail_start_time": float(times[-tail]),
        "tail_samples": int(tail),
        "pair_distance_max": d_max,
        "pair_distance_mean": d_mean,
        "pair_distance_variation": d_var,
        "zeta_norm_mean": z_mean,
        "zeta_norm_deviation_from_one": z_dev_one,
    }

    if d_max <= tol and z_dev_one <= tol:
        return SyncClassification("phase_sync", evidence)
    if (
        d_var.size
        and float(d_var.max()) <= tol
        and float(d_mean.max()) > tol
        and tol < z_mean < 1.0 - tol
        and float(np.ptp(z_tail)) <= tol
    ):
        return SyncClassification("frequency_sync", evidence)
    return SyncClassification("none", evidence)


def classify_sync(
    series, tol: float, min_samples: int = CLASSIFY_MIN_SAMPLES
) -> SyncClassification:
    """Tail-window trichotomy over a stream of DiagnosticsRecord, of which it
    reads only time, pair_l2 and zeta_norm.

    phase_sync: every pair distance and |zeta_norm - 1| stay within tol over
    the final quarter. frequency_sync: pair distances settle (variation
    within tol) at nonzero values with zeta_norm strictly inside (tol,
    1 - tol). Anything else: none.
    """
    records = list(series)
    times = np.array([rec.time for rec in records])
    pair = np.stack([rec.pair_l2 for rec in records]) if records else np.zeros((0, 0, 0))
    zeta = np.array([rec.zeta_norm for rec in records])
    return _classify(times, pair, zeta, tol, min_samples)


def classify_correlation_sync(
    series: CorrelationSeries, tol: float, min_samples: int = CLASSIFY_MIN_SAMPLES
) -> SyncClassification:
    """Same trichotomy evaluated on a correlation-level trajectory."""
    n = series.n_oscillators
    dist = pair_distance(series.z)
    for j in range(n):
        dist[:, j, j] = 0.0
    zeta = np.sqrt(np.maximum(0.0, series.zeta_norm_sq))
    return _classify(series.times, dist, zeta, tol, min_samples)


@dataclass(frozen=True)
class FitResult:
    rate: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


def _default_window(times) -> tuple[float, float]:
    # asymptotic statements: last half of the span, minus its leading 10%
    t0, t1 = float(times[0]), float(times[-1])
    start = t1 - 0.5 * (t1 - t0)
    return (start + 0.1 * (t1 - start), t1)


def _windowed(times, values, window, positive_times: bool = False):
    """(t, y, (ta, tb)): the samples inside the window (by default
    _default_window), and only those at t > 0 when positive_times is set."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if window is None:
        window = _default_window(times)
    ta, tb = float(window[0]), float(window[1])
    mask = (times >= ta) & (times <= tb)
    if positive_times:
        mask &= times > 0.0
    return times[mask], values[mask], (ta, tb)


def _line_fit(x, y) -> tuple[np.ndarray, float]:
    """Least-squares coefficients (c0, c1) of y = c0 + c1 x, and r^2."""
    design = np.column_stack([np.ones_like(x), x])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    pred = design @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    return coef, 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot


def fit_rate(times, values, window=None, kind: str = "exponential") -> FitResult:
    """Least-squares decay fit over a time window.

    kind "exponential": fit log y = c - rate * t; rate is positive for decay.
    kind "algebraic": fit log y = c + rate * log t; a t^(-1) tail gives
    rate = -1. Values must be strictly positive inside the window (and times
    positive for the algebraic kind).
    """
    t, y, (ta, tb) = _windowed(times, values, window)
    if len(t) < 3:
        raise ContractViolationError(f"fit window [{ta}, {tb}] holds {len(t)} samples; need >= 3")
    if np.any(y <= 0.0):
        raise ContractViolationError("fit requires strictly positive values in the window")
    if kind == "exponential":
        x = t
        sign = -1.0
    elif kind == "algebraic":
        if np.any(t <= 0.0):
            raise ContractViolationError("algebraic fit requires positive times")
        x = np.log(t)
        sign = 1.0
    else:
        raise ContractViolationError(f"unknown fit kind {kind!r}")
    coef, r2 = _line_fit(x, np.log(y))
    return FitResult(rate=float(sign * coef[1]), r_squared=r2, window=(ta, tb), n_points=len(t))


# A decay series such as 2(1 - Re(e^{-i phi} z)) is a difference of O(1)
# numbers and levels off at their roundoff (near 1e-13, a few hundred ulps,
# after scattering_pair's 30 000 steps), where a fit bends in the fifth digit.
# Ending it below a million ulps keeps that roundoff under 0.1% of each value.
DECAY_FLOOR = 1e6 * np.finfo(float).eps


def fit_decay(times, values) -> FitResult:
    """fit_rate's exponential fit of a decaying series, over the samples
    before the series first falls below DECAY_FLOOR."""
    values = np.asarray(values, dtype=float)
    below = np.flatnonzero(values < DECAY_FLOOR)
    end = below[0] if below.size else len(values)
    if end < 3:
        raise SeriesTooShortError(f"the series is below {DECAY_FLOOR:.1e} from sample {end} on")
    return fit_rate(np.asarray(times)[:end], values[:end])


@dataclass(frozen=True)
class LimitFit:
    limit: float
    coefficient: float
    r_squared: float
    window: tuple[float, float]


def fit_algebraic_limit(times, values, window=None) -> LimitFit:
    """Fit y(t) = limit + coefficient / t on the window; the t -> infinity
    extrapolation for quantities with a verified 1/t approach."""
    t, y, window = _windowed(times, values, window, positive_times=True)
    if len(t) < 3:
        raise ContractViolationError("limit fit needs >= 3 positive-time samples in the window")
    coef, r2 = _line_fit(1.0 / t, y)
    return LimitFit(limit=float(coef[0]), coefficient=float(coef[1]), r_squared=r2, window=window)


def interpolate_series(times, values, t: float):
    """Cubic Lagrange interpolation through the 4 samples nearest t."""
    times = np.asarray(times, dtype=float)
    values = np.asarray(values)
    if len(times) < 4:
        raise SeriesTooShortError("interpolation needs at least 4 samples")
    if not (times[0] <= t <= times[-1]):
        raise ContractViolationError(f"t = {t} outside the sampled span")
    idx = int(np.searchsorted(times, t))
    lo = min(max(idx - 2, 0), len(times) - 4)
    ts = times[lo : lo + 4]
    ys = values[lo : lo + 4]
    out = 0.0
    for i in range(4):
        weight = 1.0
        for m in range(4):
            if m != i:
                weight *= (t - ts[m]) / (ts[i] - ts[m])
        out = out + weight * ys[i]
    return out


def detect_period(times, values, threshold: float | None = None) -> float:
    """Period of a nonnegative signal that dips to ~0 once per cycle.

    Finds all interior local minima below threshold (default: a tenth of the
    signal maximum), refines each by parabolic interpolation, and returns the
    median spacing. Needs at least two qualifying minima.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 5:
        raise SeriesTooShortError("period detection needs at least 5 samples")
    if threshold is None:
        threshold = 0.1 * float(values.max())
    minima = []
    for i in range(1, len(values) - 1):
        if values[i] <= values[i - 1] and values[i] < values[i + 1] and values[i] < threshold:
            y0, y1, y2 = values[i - 1 : i + 2]
            denom = y0 - 2.0 * y1 + y2
            shift = 0.0 if denom == 0.0 else 0.5 * (y0 - y2) / denom
            shift = float(np.clip(shift, -1.0, 1.0))
            dt_local = 0.5 * (times[i + 1] - times[i - 1])
            minima.append(times[i] + shift * dt_local)
    if len(minima) < 2:
        raise ContractViolationError("fewer than two sub-threshold minima; no period visible")
    return float(np.median(np.diff(minima)))
