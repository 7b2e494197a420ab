"""The twelve headline guarantees, end to end at desk scale.

One test per criterion, so `pytest -v` on this file reads as the acceptance
checklist. Each test also prints a PASS/FAIL line with measured vs expected
(visible under -s or on failure) and asserts at the stated tolerance, never
at the tighter values we happen to measure.

Scale: one dimension, 256 points on a length-20 torus, N <= 5 fields,
dt = 1e-3, horizons <= 40. Shared trajectories are module fixtures; the
whole file runs in about a minute.
"""

import numpy as np
import pytest

from lohe_sync import (
    CorrelationState,
    GridSpec,
    ModelConfig,
    SolverParams,
    classify_sync,
    classify_two,
    cosine_potential,
    detect_period,
    evolve,
    fit_algebraic_limit,
    fit_rate,
    gaussian_pair,
    incoherent_pair,
    integrate,
    interpolate_series,
    overlap_pair,
    perturbed_gaussians,
    propagate_linear,
    scattering_state,
    z_exact,
)

K = 1.0
# frozen two-oscillator constants, evaluated independently (see test_oracles)
MU = 0.6614378277661477  # sqrt(K^2 - 4 Omega^2) at lam = 0.75, K = 1
DIST_LIMIT = 0.8228756555322954  # 2 sin(arcsin(0.75) / 2)
PERIOD_LAM2 = 3.627598728468436  # 2 pi / sqrt(3) at lam = 2, K = 1
SQRT2 = 1.4142135623730951


def line(label, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}  {label}: {detail}")
    assert ok, f"{label}: {detail}"


def _evolve(init, cfg, t_end, stride=20):
    return evolve(
        init, cfg, SolverParams(dt=1e-3, t_end=t_end, scheme="strang_rk4", snapshot_stride=stride)
    )


@pytest.fixture(scope="module")
def grid():
    return GridSpec(dim=1, points=256, length=20.0)


@pytest.fixture(scope="module")
def run_identical(grid):
    cfg = ModelConfig(coupling=K, frequencies=(0.0,) * 5)
    return cfg, _evolve(perturbed_gaussians(grid, 5, seed=2024), cfg, 20.0)


@pytest.fixture(scope="module")
def run_pair(grid):
    # lam = 0.75, the underdamped workhorse
    cfg = ModelConfig(coupling=K, frequencies=(0.375, -0.375))
    return cfg, _evolve(gaussian_pair(grid, separation=2.0, sigma=1.5), cfg, 20.0)


@pytest.fixture(scope="module")
def run_cosine(grid):
    v = cosine_potential(grid, amplitude=1.0, offset=1.0)  # V in [0, 2]
    cfg = ModelConfig(coupling=K, frequencies=(0.0,) * 5, potential=v)
    return cfg, _evolve(perturbed_gaussians(grid, 5, seed=2025), cfg, 20.0)


@pytest.fixture(scope="module")
def run_pair_cosine(grid):
    v = cosine_potential(grid, amplitude=1.0, offset=1.0)
    cfg = ModelConfig(coupling=K, frequencies=(0.375, -0.375), potential=v)
    return cfg, _evolve(gaussian_pair(grid, separation=2.0, sigma=1.5), cfg, 20.0)


@pytest.fixture(scope="module")
def run_scattering(grid):
    cfg = ModelConfig(coupling=K, frequencies=(0.0, 0.0))
    # h = 0.1 sampling keeps the trapezoid error of the profile integral
    # well under the 1e-3 certification
    return cfg, _evolve(gaussian_pair(grid, separation=2.0, sigma=1.5), cfg, 30.0, stride=100)


@pytest.fixture(scope="module")
def run_critical(grid):
    cfg = ModelConfig(coupling=K, frequencies=(0.5, -0.5))  # lam = 1
    return cfg, _evolve(overlap_pair(grid, overlap=-0.2, sigma=1.5), cfg, 40.0, stride=40)


@pytest.fixture(scope="module")
def run_periodic_pde(grid):
    cfg = ModelConfig(coupling=K, frequencies=(1.0, -1.0))  # lam = 2
    return cfg, _evolve(gaussian_pair(grid, separation=2.0, sigma=1.5), cfg, 20.0)


@pytest.fixture(scope="module")
def run_three(grid):
    cfg = ModelConfig(coupling=K, frequencies=(0.25, 0.0, -0.25))
    return cfg, _evolve(perturbed_gaussians(grid, 3, seed=11), cfg, 10.0, stride=10)


ALL_PDE_RUNS = (
    "run_identical",
    "run_pair",
    "run_cosine",
    "run_pair_cosine",
    "run_scattering",
    "run_critical",
    "run_periodic_pde",
    "run_three",
)


def test_criterion_01_mass_conservation(request):
    worst = 0.0
    for name in ALL_PDE_RUNS:
        _, traj = request.getfixturevalue(name)
        for rec in traj.diagnostics_stream:
            worst = max(worst, float(np.max(np.abs(rec.mass_drift))))
    line(
        "criterion 1, mass conservation",
        worst <= 1e-9,
        f"max | ||psi_j|| - 1 | = {worst:.3e} <= 1e-9 over {len(ALL_PDE_RUNS)} PDE runs",
    )


def test_criterion_02_order_parameter_identity(run_identical, run_cosine):
    worst = 0.0
    for _, traj in (run_identical, run_cosine):
        for rec in traj.diagnostics_stream:
            n = rec.pair_l2.shape[0]
            mean_dist = float(np.sum(rec.pair_l2**2)) / (2.0 * n * n)
            worst = max(worst, abs((1.0 - rec.zeta_norm**2) - mean_dist))
    line(
        "criterion 2, order-parameter identity",
        worst <= 1e-12,
        f"max |(1 - ||zeta||^2) - mean pair dist^2| = {worst:.3e} <= 1e-12, two random N = 5 runs",
    )


def test_criterion_03_pde_ode_closure(run_three):
    cfg, traj = run_three
    gs = traj.gram_series()
    ode = integrate(
        "full", CorrelationState(0.0, gs.z[0].copy()), cfg, 1e-3, 10.0, sample_stride=10
    )
    err = float(np.max(np.abs(gs.z - ode.z)))
    line(
        "criterion 3, correlation closure",
        err <= 1e-6,
        f"max |z_pde - z_ode| = {err:.3e} <= 1e-6, N = 3 mixed frequencies over [0, 10]",
    )


def test_criterion_04_underdamped_pair(run_pair):
    cfg, traj = run_pair
    regime = classify_two(K, 0.375)
    gs = traj.gram_series()
    z = gs.z[:, 0, 1]

    err_pde = float(np.max(np.abs(z - z_exact(complex(z[0]), gs.times, regime))))
    ode = integrate("two", complex(z[0]), cfg, 1e-3, 20.0, sample_stride=20)
    err_ode = float(np.max(np.abs(ode.z[:, 0, 1] - z_exact(complex(ode.z[0, 0, 1]), ode.times, regime))))
    line(
        "criterion 4a, closed form",
        err_pde <= 1e-6 and err_ode <= 1e-6,
        f"max |z - z_exact| = {err_pde:.3e} (PDE), {err_ode:.3e} (ODE) <= 1e-6",
    )

    # the squared synchronization distance 2(1 - Re(e^{-i phi} z)) contracts
    # at mu; it dominates the literal |z - e^{i phi}|^2, which goes at 2 mu
    y = 2.0 * (1.0 - (np.exp(-1j * regime.phi) * z).real)
    fit = fit_rate(gs.times, np.maximum(y, 1e-300))
    rel = abs(fit.rate - MU) / MU
    line(
        "criterion 4b, decay rate",
        rel <= 0.03,
        f"fitted rate {fit.rate:.6f} vs mu = {MU:.6f}, relative error {rel:.2e} <= 3%",
    )

    dist = np.array([rec.pair_l2[0, 1] for rec in traj.diagnostics_stream])
    tail = float(dist[-(len(dist) // 4) :].mean())
    line(
        "criterion 4c, distance limit",
        abs(tail - DIST_LIMIT) <= 1e-3,
        f"tail ||psi_1 - psi_2|| = {tail:.6f} vs 2 sin(phi/2) = {DIST_LIMIT:.6f}, diff {abs(tail - DIST_LIMIT):.2e} <= 1e-3",
    )


def test_criterion_05_critical_pair(run_critical):
    cfg, traj = run_critical
    gs = traj.gram_series()
    z = gs.z[:, 0, 1]
    fit = fit_rate(
        gs.times, np.maximum(np.abs(z - 1j), 1e-300), window=(5.0, 40.0), kind="algebraic"
    )
    line(
        "criterion 5, algebraic approach",
        abs(fit.rate + 1.0) <= 0.05,
        f"log-log slope of |z - i| over [5, 40] = {fit.rate:.4f}, within -1 +- 0.05",
    )
    dist = np.array([rec.pair_l2[0, 1] for rec in traj.diagnostics_stream])
    times = np.array([rec.time for rec in traj.diagnostics_stream])
    lf = fit_algebraic_limit(times, dist)
    line(
        "criterion 5, distance limit",
        abs(lf.limit - SQRT2) <= 1e-2,
        f"1/t extrapolated tail ||psi_1 - psi_2|| = {lf.limit:.6f} vs sqrt(2), diff {abs(lf.limit - SQRT2):.2e} <= 1e-2",
    )


def test_criterion_06_periodic_orbit():
    cfg = ModelConfig(coupling=K, frequencies=(1.0, -1.0))  # lam = 2
    series = integrate("two", 0.3 + 0.2j, cfg, 1e-3, 20.0, sample_stride=1)
    period = detect_period(series.times, np.abs(series.z[:, 0, 1] - series.z[0, 0, 1]))
    rel = abs(period - PERIOD_LAM2) / PERIOD_LAM2
    line(
        "criterion 6, period",
        rel <= 0.01,
        f"detected period {period:.6f} vs 2 pi / sqrt(3) = {PERIOD_LAM2:.6f}, relative error {rel:.2e} <= 1%",
    )
    returns = [
        abs(interpolate_series(series.times, series.z[:, 0, 1], n * PERIOD_LAM2) - series.z[0, 0, 1])
        for n in range(1, 6)
    ]
    line(
        "criterion 6, return map",
        max(returns) <= 1e-4,
        f"max |z(nT) - z(0)| = {max(returns):.3e} <= 1e-4 for n = 1..5",
    )


def test_criterion_07_unstable_point_stationary():
    lam = 0.75
    z0 = complex(-np.sqrt(1.0 - lam * lam), lam)  # the repelling fixed point
    cfg = ModelConfig(coupling=K, frequencies=(0.375, -0.375))
    series = integrate("two", z0, cfg, 1e-3, 5.0, sample_stride=1)
    drift = float(np.max(np.abs(series.z[:, 0, 1] - z0)))
    line(
        "criterion 7, unstable point",
        drift <= 1e-8,
        f"max |z(t) - z0| = {drift:.3e} <= 1e-8 over [0, 5] starting exactly on the fixed point",
    )


def test_criterion_08_scattering(run_scattering):
    cfg, traj = run_scattering
    result = scattering_state(traj, cfg, 0, tail_tol=1e-3)
    profile = result.field.values
    grid = traj.states[0].grid

    def pulled_err(i):
        pulled = propagate_linear(grid, None, traj.states[i].psi[0], -float(traj.times[i]))
        return float(np.sqrt(grid.dv * np.sum(np.abs(pulled - profile) ** 2)))

    idx = list(range(0, len(traj.times), 25))
    if idx[-1] != len(traj.times) - 1:
        idx.append(len(traj.times) - 1)
    errs = np.array([pulled_err(i) for i in idx])
    line(
        "criterion 8, approach",
        bool(np.all(np.diff(errs) <= 1e-9)),
        f"||exp(iHt) psi_1(t) - profile|| decreasing at {len(idx)} probes over [0, 30]",
    )
    i15 = int(np.argmin(np.abs(traj.times - 15.0)))
    e15 = pulled_err(i15)
    line(
        "criterion 8, distance at t = 15",
        e15 <= 1e-3,
        f"measured {e15:.3e} <= 1e-3",
    )
    line(
        "criterion 8, tail bound",
        result.tail_bound <= 1e-3,
        f"reported tail bound {result.tail_bound:.3e} consistent with the certification",
    )


def test_criterion_09_identical_ensemble(run_identical):
    cfg, traj = run_identical
    gs = traj.gram_series()
    assert np.all(gs.r_tilde[0] > 0.0)  # descent needs r_tilde_j(0) > 0

    uphill = float(np.max(np.diff(gs.lyapunov)))
    line(
        "criterion 9a, Lyapunov descent",
        uphill <= 1e-12,
        f"largest uphill step of (1/2N) sum (f^2 + g^2) = {uphill:.3e}",
    )

    # the tail is governed by the slowest linearized mode, whose rate is K
    # itself (not 2K); faster transients only raise a fitted slope, so the
    # >= K assertion is structurally safe, not a rounding accident
    rates = [
        fit_rate(gs.times, np.maximum(1.0 - gs.z[:, j, k].real, 1e-300)).rate
        for j in range(5)
        for k in range(j + 1, 5)
    ]
    line(
        "criterion 9b, pair decay rates",
        min(rates) >= K,
        f"fitted rates of 1 - r_jk in [{min(rates):.7f}, {max(rates):.7f}], all >= K = {K}",
    )

    cls = classify_sync(traj.diagnostics_stream, 1e-3)
    line("criterion 9c, classification", cls.kind == "phase_sync", f"classified {cls.kind}")


def test_criterion_10_energy(run_cosine, run_pair_cosine):
    cfg, traj = run_cosine
    recs = traj.diagnostics_stream
    worst = max(
        abs(r.energies.total - (r.energies.zeta_energy + r.energies.relative)) for r in recs
    )
    line(
        "criterion 10, decomposition",
        worst <= 1e-10,
        f"max |E - (E_zeta + E_rel)| = {worst:.3e} <= 1e-10",
    )

    e = np.array([r.energies.total for r in recs])
    c = float(e.max() / e[0])
    line(
        "criterion 10, energy bound",
        np.isfinite(c) and c <= 1.0 + 1e-6,
        f"max E(t)/E(0) = {c:.9f} over [0, 20] (nonincreasing here)",
    )

    times = np.array([r.time for r in recs])
    e_rel = np.array([r.energies.relative for r in recs])
    fit = fit_rate(times, np.maximum(e_rel, 1e-300))
    line(
        "criterion 10, relative energy rate",
        fit.rate >= 0.8 * K,
        f"fitted decay rate {fit.rate:.4f} >= 0.8 K = {0.8 * K}",
    )

    _, trajd = run_pair_cosine
    td = np.array([r.time for r in trajd.diagnostics_stream])
    e_d = np.array([r.energies.diff_energy_two for r in trajd.diagnostics_stream])
    fit_d = fit_rate(td, np.maximum(e_d, 1e-300))
    line(
        "criterion 10, pair difference energy",
        fit_d.rate > 0.0,
        f"E_d of e^(i phi) psi_1 - psi_2 decays at fitted rate {fit_d.rate:.4f} > 0 (r^2 = {fit_d.r_squared:.6f})",
    )


def test_criterion_11_madelung_momenta(run_identical, run_cosine):
    worst_rho = 0.0
    worst_cur = 0.0
    for _, traj in (run_identical, run_cosine):
        assert classify_sync(traj.diagnostics_stream, 1e-3).kind == "phase_sync"
        fin = traj.diagnostics_stream[-1]
        worst_rho = max(worst_rho, float(np.max(fin.madelung_rho_l1)))
        worst_cur = max(worst_cur, float(np.max(fin.madelung_current_l1)))
    line(
        "criterion 11, Madelung momenta",
        worst_rho <= 1e-3 and worst_cur <= 1e-3,
        f"L1 pair differences at t_end: density {worst_rho:.3e}, current {worst_cur:.3e} <= 1e-3",
    )


def test_criterion_12_negative_controls(run_periodic_pde, grid):
    cfg, traj = run_periodic_pde
    cls = classify_sync(traj.diagnostics_stream, 1e-3)
    line("criterion 12, no sync at lam = 2", cls.kind == "none", f"classified {cls.kind}")

    cfg2 = ModelConfig(coupling=K, frequencies=(0.0, 0.0))
    traj2 = evolve(
        incoherent_pair(grid, sigma=1.5),
        cfg2,
        SolverParams(dt=1e-3, t_end=10.0, scheme="strang_rk4", snapshot_stride=20),
    )
    zmax = max(r.zeta_norm for r in traj2.diagnostics_stream)
    line(
        "criterion 12, incoherent point",
        zmax <= 1e-8,
        f"psi_2 = -psi_1 stays on the zero-mean manifold: max ||zeta|| = {zmax:.3e} <= 1e-8 over [0, 10]",
    )
