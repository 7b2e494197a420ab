"""Time integration against closed forms the solver does not know about."""

import os
import signal
import sys
import warnings
from functools import partial

import numpy as np
import pytest

from lohe_sync import (
    ConfigurationError,
    CorrelationState,
    DivergenceError,
    EnsembleState,
    GridSpec,
    ModelConfig,
    SolverParams,
    WaveField,
    evolve,
    propagate_linear,
    samples,
    stability_report,
)
from lohe_sync import solver
from lohe_sync.core import k_squared, mixing_flow
from lohe_sync.correlations import rk4_step
from lohe_sync.diagnostics import compute_records
from lohe_sync.emit import _diagnostics_vector
from lohe_sync.initial_data import gaussian_pair, incoherent_pair, perturbed_gaussians
from lohe_sync.potentials import cosine_potential
from lohe_sync.solver import _checked_stepper, _norms_finite, step

from conftest import assert_close, assert_no_child_left, force_step_child


def free_gaussian(grid, t, center, sigma):
    """Dispersive spreading of a Gaussian on the line.

    psi(x, 0) = (pi sigma^2)^{-1/4} exp(-(x - c)^2 / (2 sigma^2)) evolves under
    i d_t psi = -psi''/2 into the same form with sigma^2 -> sigma^2 + i t.
    Valid on the torus while the tails stay far below roundoff.
    """
    x = grid.coordinates()[0]
    s2 = sigma**2 + 1j * t
    return (np.pi * sigma**2) ** -0.25 * np.sqrt(sigma**2 / s2) * np.exp(
        -((x - center) ** 2) / (2 * s2)
    )


# -- the linear propagator ---------------------------------------------------


def test_propagate_linear_plane_wave_phase(grid64):
    x = grid64.coordinates()[0]
    k = 2 * np.pi * 4 / grid64.length
    f = np.exp(1j * k * x) / np.sqrt(grid64.length)
    out = propagate_linear(grid64, None, f, 2.5)
    assert_close(out, np.exp(-0.5j * k**2 * 2.5) * f, 1e-13, "plane wave phase")


def test_propagate_linear_free_gaussian(grid64):
    # t short enough that the periodic image tails stay below roundoff
    f = free_gaussian(grid64, 0.0, 10.0, 1.0)
    out = propagate_linear(grid64, None, f, 0.5)
    assert_close(out, free_gaussian(grid64, 0.5, 10.0, 1.0), 1e-12, "free gaussian")


def test_propagate_linear_unitary_and_invertible(grid64):
    rng = np.random.default_rng(5)
    f = rng.normal(size=grid64.shape) + 1j * rng.normal(size=grid64.shape)
    v = cosine_potential(grid64, amplitude=0.8)
    out = propagate_linear(grid64, v, f, 0.7)
    back = propagate_linear(grid64, v, out, -0.7)
    n0 = np.sqrt(grid64.dv * np.sum(np.abs(f) ** 2))
    n1 = np.sqrt(grid64.dv * np.sum(np.abs(out) ** 2))
    assert abs(n1 - n0) <= 1e-12 * n0
    assert_close(back, f, 1e-10, "round trip")


def test_propagate_linear_batched_matches_loop(grid64):
    rng = np.random.default_rng(6)
    batch = rng.normal(size=(3, *grid64.shape)) + 1j * rng.normal(size=(3, *grid64.shape))
    v = cosine_potential(grid64, amplitude=0.5)
    out = propagate_linear(grid64, v, batch, 0.4)
    for j in range(3):
        assert_close(out[j], propagate_linear(grid64, v, batch[j], 0.4), 1e-13)


@pytest.mark.parametrize("dim", [1, 2])
def test_propagate_linear_matches_its_fftn_form(dim):
    # one-axis transforms in 1-D and multipliers formed once per call give
    # the bits of fftn over the trailing axes, free and with a potential
    grid = GridSpec(dim=dim, points=64 if dim == 1 else 16, length=20.0)
    values = perturbed_gaussians(grid, 3, seed=2).psi
    axes = tuple(range(1, dim + 1))
    fftn, ifftn = partial(np.fft.fftn, axes=axes), partial(np.fft.ifftn, axes=axes)
    k2 = k_squared(grid)
    free = ifftn(np.exp(-0.5j * 0.37 * k2) * fftn(values))
    assert np.array_equal(propagate_linear(grid, None, values, 0.37), free)
    v = cosine_potential(grid, amplitude=0.8)
    h = 0.37 / 5
    hat = np.exp(-0.25j * h * k2) * fftn(values)
    for n in range(1, 6):
        hat = fftn(np.exp(-1j * h * v) * ifftn(hat))
        hat *= np.exp(-0.5j * h * k2) if n < 5 else np.exp(-0.25j * h * k2)
    assert np.array_equal(propagate_linear(grid, v, values, 0.37, substeps=5), ifftn(hat))


# -- full evolution against closed forms --------------------------------------


def test_decoupled_free_gaussians_match_closed_form(grid64):
    # K = 0, V = 0, Omega = 0: each field disperses independently
    fields = [
        WaveField(grid64, free_gaussian(grid64, 0.0, 9.0, 1.0)),
        WaveField(grid64, free_gaussian(grid64, 0.0, 11.0, 1.2)),
    ]
    initial = EnsembleState.from_fields(fields)
    config = ModelConfig(coupling=0.0, frequencies=(0.0, 0.0))
    params = SolverParams(dt=1e-3, t_end=0.5, snapshot_stride=500)
    final = evolve(initial, config, params, collect_diagnostics=False).final
    assert_close(final.psi[0], free_gaussian(grid64, 0.5, 9.0, 1.0), 1e-10)
    assert_close(final.psi[1], free_gaussian(grid64, 0.5, 11.0, 1.2), 1e-10)


def test_frequency_term_is_a_pure_phase(grid64):
    # K = 0: Omega_j only multiplies each field by exp(-i Omega_j t)
    initial = gaussian_pair(grid64)
    config = ModelConfig(coupling=0.0, frequencies=(0.7, -0.3))
    reference = ModelConfig(coupling=0.0, frequencies=(0.0, 0.0))
    params = SolverParams(dt=1e-3, t_end=0.5, snapshot_stride=500)
    a = evolve(initial, config, params, collect_diagnostics=False).final
    b = evolve(initial, reference, params, collect_diagnostics=False).final
    phases = np.exp(-1j * np.array([0.7, -0.3]) * 0.5).reshape(-1, 1)
    assert_close(a.psi, phases * b.psi, 1e-12, "frequency phase")


def test_schemes_agree(grid64, pair_config):
    initial = gaussian_pair(grid64)
    strang = evolve(
        initial,
        pair_config,
        SolverParams(dt=1e-3, t_end=1.0, scheme="strang_rk4", snapshot_stride=1000),
        collect_diagnostics=False,
    ).final
    rk4 = evolve(
        initial,
        pair_config,
        SolverParams(dt=1e-3, t_end=1.0, scheme="full_rk4", snapshot_stride=1000),
        collect_diagnostics=False,
    ).final
    assert_close(strang.psi, rk4.psi, 1e-6, "strang vs rk4")


def test_mass_conserved_with_potential(grid64):
    config = ModelConfig(
        coupling=1.0,
        frequencies=(0.375, -0.375),
        potential=cosine_potential(grid64, amplitude=1.0, offset=1.0),
    )
    initial = gaussian_pair(grid64)
    trajectory = evolve(initial, config, SolverParams(dt=1e-3, t_end=2.0, snapshot_stride=200))
    for record in trajectory.diagnostics_stream:
        assert float(np.max(np.abs(record.mass_drift))) <= 1e-12


def test_gauge_covariance(grid64):
    # shifting every Omega_j by alpha only rotates the global phase:
    # the centered run equals exp(+i alpha t) times the uncentered one
    initial = gaussian_pair(grid64)
    shifted = ModelConfig(coupling=1.0, frequencies=(0.375 + 0.4, -0.375 + 0.4))
    centered = ModelConfig(coupling=1.0, frequencies=(0.375, -0.375))
    params = SolverParams(dt=1e-3, t_end=1.0, snapshot_stride=1000)
    psi = evolve(initial, shifted, params, collect_diagnostics=False).final.psi
    chi = evolve(initial, centered, params, collect_diagnostics=False).final.psi
    assert_close(chi, np.exp(1j * 0.4 * 1.0) * psi, 1e-10, "gauge")


def test_sampling_and_final_state(grid64, pair_config):
    initial = gaussian_pair(grid64)
    params = SolverParams(dt=1e-3, t_end=0.01, snapshot_stride=3)
    trajectory = evolve(initial, pair_config, params)
    # strides at 0, 3, 6, 9 plus the endpoint 10
    assert_close(trajectory.times, [0.0, 0.003, 0.006, 0.009, 0.01], 1e-12)
    assert trajectory.final.time == pytest.approx(0.01)
    assert len(trajectory.diagnostics_stream) == trajectory.n_samples


def test_renormalize_each_step(grid64, pair_config):
    initial = gaussian_pair(grid64)
    params = SolverParams(dt=1e-2, t_end=0.5, renormalize_each_step=True, snapshot_stride=10)
    trajectory = evolve(initial, pair_config, params)
    final_norms = trajectory.final.norms()
    assert_close(final_norms, np.ones(2), 1e-14, "renormalized")


def test_advisory_warning(grid64, pair_config):
    initial = gaussian_pair(grid64)
    bound = stability_report(grid64, pair_config).potential_dt
    with pytest.warns(UserWarning):
        evolve(
            initial,
            pair_config,
            SolverParams(dt=bound, t_end=bound * 4, snapshot_stride=4),
            collect_diagnostics=False,
        )


def test_divergence_carries_partial_trajectory(grid256):
    config = ModelConfig(coupling=1.0, frequencies=(0.0, 0.0))
    initial = gaussian_pair(grid256)
    params = SolverParams(dt=0.05, t_end=5.0, scheme="full_rk4", snapshot_stride=1)
    with pytest.warns(UserWarning):
        with pytest.raises(DivergenceError) as err:
            evolve(initial, config, params, collect_diagnostics=False)
    assert err.value.partial is not None
    assert err.value.partial.n_samples >= 1
    assert err.value.step_index is not None


@pytest.mark.parametrize("scheme", ["span", "strang_rk4"])
@pytest.mark.parametrize("n, coupling, step_index", [(2, 1000.0, 2), (3, 450.0, 3)])
def test_sample_whose_gram_matrix_overflows_is_a_divergence(
    grid64, scheme, n, coupling, step_index
):
    # the sample at step_index has finite fields whose squared norms
    # overflow, so no record can be made of it: the run diverged there
    initial = perturbed_gaussians(grid64, n, seed=1)
    config = ModelConfig(coupling=coupling, frequencies=(0.0,) * n)
    params = SolverParams(dt=0.01, t_end=1.0, scheme=scheme)
    with pytest.warns(UserWarning), pytest.raises(DivergenceError) as err:
        evolve(initial, config, params)
    assert err.value.step_index == step_index
    partial = err.value.partial
    assert np.allclose(partial.times, 0.01 * np.arange(step_index), rtol=0.0, atol=1e-15)
    assert [rec.time for rec in partial.diagnostics_stream] == list(partial.times)


def test_stability_report_scales(grid256):
    config = ModelConfig(
        coupling=2.0,
        frequencies=(1.0, -1.0),
        potential=cosine_potential(grid256, amplitude=3.0),
    )
    report = stability_report(grid256, config)
    assert report.potential_dt == pytest.approx(0.1 / 6.0)
    assert report.max_wavenumber == pytest.approx(np.pi * 256 / 20.0)
    assert report.recommended_dt <= report.potential_dt


def test_identical_ensemble_stays_identical(grid64):
    # exact synchrony is a fixed point of the coupling
    state = perturbed_gaussians(grid64, 3, seed=11, epsilon=0.0)
    config = ModelConfig(coupling=1.0, frequencies=(0.0, 0.0, 0.0))
    final = evolve(
        state, config, SolverParams(dt=1e-3, t_end=0.5, snapshot_stride=500),
        collect_diagnostics=False,
    ).final
    assert_close(final.psi[0], final.psi[1], 1e-13)
    assert_close(final.psi[0], final.psi[2], 1e-13)


@pytest.mark.parametrize(
    "scheme, order", [("strang_rk4", 2.0), ("full_rk4", 4.0), ("span", 2.0)]
)
def test_measured_temporal_order(scheme, order):
    # 1-D/128, cosine potential, detuned kicked pair, t = 2; each run is
    # compared against the same scheme at dt = 2.5e-4, and the order is
    # log2 of the error ratio between dt = 2e-3 and dt = 1e-3
    grid = GridSpec(dim=1, points=128, length=20.0)
    config = ModelConfig(
        coupling=1.0, frequencies=(0.375, -0.375), potential=cosine_potential(grid)
    )
    initial = gaussian_pair(grid, separation=2.0, sigma=1.5, momentum_kick=1.0)

    def final(dt):
        params = SolverParams(dt=dt, t_end=2.0, scheme=scheme, snapshot_stride=round(2.0 / dt))
        return evolve(initial, config, params, collect_diagnostics=False).final.psi

    ref = final(2.5e-4)
    coarse, fine = (float(np.max(np.abs(final(dt) - ref))) for dt in (2e-3, 1e-3))
    assert abs(np.log2(coarse / fine) - order) <= 0.3


# -- strang_rk4: adjacent kinetic half-steps merged, the owed one paid at samples


def _cosine_three(grid):
    initial = perturbed_gaussians(grid, 3, seed=4)
    config = ModelConfig(
        coupling=1.0, frequencies=(0.2, 0.0, -0.2), potential=cosine_potential(grid)
    )
    return initial, config


def test_strang_rk4_fields_do_not_depend_on_the_sampling(grid64):
    # a sample pays the owed kinetic half-step; the next step then opens with
    # a half-step instead of a whole one, which is the same flow
    initial, config = _cosine_three(grid64)
    finals = [
        evolve(
            initial,
            config,
            SolverParams(dt=1e-3, t_end=0.5, scheme="strang_rk4", snapshot_stride=stride),
            collect_diagnostics=False,
        ).final
        for stride in (1, 50)
    ]
    assert_close(finals[0].psi, finals[1].psi, 1e-13, "stride 1 vs 50")


def test_strang_rk4_step_is_half_kinetic_rk4_half_kinetic(grid64):
    initial, config = _cosine_three(grid64)
    dt = 1e-3
    omega = np.array(config.frequencies)[:, None]

    def half_kinetic(psi):
        mult = np.exp(-0.25j * dt * k_squared(grid64))
        return np.fft.ifft(mult * np.fft.fft(psi, axis=1), axis=1)

    def local(psi):
        zeta = psi.mean(axis=0)
        overlaps = grid64.dv * np.array([np.vdot(zeta, row) for row in psi])
        pull = zeta - overlaps[:, None] * psi
        return -1j * (omega + config.potential) * psi + 0.5 * config.coupling * pull

    psi = half_kinetic(initial.psi)
    k1 = local(psi)
    k2 = local(psi + 0.5 * dt * k1)
    k3 = local(psi + 0.5 * dt * k2)
    k4 = local(psi + dt * k3)
    psi = half_kinetic(psi + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    one = step(initial, config, SolverParams(dt=dt, t_end=dt, scheme="strang_rk4"))
    assert_close(one.psi, psi, 1e-14, "strang_rk4 step vs reference")


# -- span: the coefficients D stepped, psi = D U q formed at samples -----------


def _span_cases():
    line = GridSpec(dim=1, points=128, length=20.0)
    plane = GridSpec(dim=2, points=32, length=20.0)
    return {
        "1d_cosine_detuned": (
            perturbed_gaussians(line, 3, seed=5),
            ModelConfig(
                coupling=1.0, frequencies=(0.3, 0.0, -0.25), potential=cosine_potential(line)
            ),
        ),
        "2d_free": (
            perturbed_gaussians(plane, 3, seed=7),
            ModelConfig(coupling=1.0, frequencies=(0.2, -0.1, 0.0)),
        ),
        # 20 fields spanning 5 dimensions: span steps them on 5 basis fields
        "1d_cosine_dependent": (
            perturbed_gaussians(line, 20, seed=3, max_mode=2),
            ModelConfig(
                coupling=1.0,
                frequencies=tuple(np.linspace(-0.2, 0.2, 20)),
                potential=cosine_potential(line),
            ),
        ),
    }


@pytest.mark.parametrize("case", ["1d_cosine_detuned", "2d_free", "1d_cosine_dependent"])
def test_span_matches_strang_rk4(case):
    # the coupling only mixes the fields and V acts alike on all of them, so
    # span keeps strang_rk4's splitting: the two differ by roundoff
    initial, config = _span_cases()[case]
    runs = [
        evolve(
            initial,
            config,
            SolverParams(dt=1e-3, t_end=1.0, scheme=scheme, snapshot_stride=100),
            collect_diagnostics=False,
        )
        for scheme in ("span", "strang_rk4")
    ]
    assert runs[0].n_samples == runs[1].n_samples == 11
    for a, b in zip(*(run.states for run in runs)):
        assert a.time == b.time
        assert_close(a.psi, b.psi, 1e-12, f"span vs strang_rk4 at t = {a.time:g}")


def test_span_matches_full_rk4(grid64, pair_config):
    # V = 0: the linear flow is exact, so span is RK4 on C alone
    initial = gaussian_pair(grid64)
    span, rk4 = (
        evolve(
            initial,
            pair_config,
            SolverParams(dt=1e-3, t_end=1.0, scheme=scheme, snapshot_stride=1000),
            collect_diagnostics=False,
        ).final
        for scheme in ("span", "full_rk4")
    )
    assert_close(span.psi, rk4.psi, 1e-8, "span vs full_rk4")


@pytest.mark.parametrize(
    "check",
    [
        test_decoupled_free_gaussians_match_closed_form,
        test_frequency_term_is_a_pure_phase,
        test_mass_conserved_with_potential,
        test_gauge_covariance,
        test_identical_ensemble_stays_identical,
    ],
    ids=lambda check: check.__name__.removeprefix("test_"),
)
def test_default_scheme_checks_hold_for_strang_rk4(grid64, monkeypatch, check):
    # those checks run the default scheme, span; rerun them on the grid
    # reference, which does not use the factorisation span rests on
    monkeypatch.setattr(
        sys.modules[__name__], "SolverParams", partial(SolverParams, scheme="strang_rk4")
    )
    check(grid64)


# a pair and N = 3: span renormalizes a pair's D on four Python complexes,
# an N >= 3 D through numpy; unrenormalized, N = 3 drifts by 2e-12 here
@pytest.mark.parametrize("scheme", ["span", "strang_rk4", "full_rk4"])
def test_renormalize_each_step_every_scheme(grid64, pair_config, scheme):
    params = SolverParams(
        dt=1e-2, t_end=0.5, scheme=scheme, renormalize_each_step=True, snapshot_stride=10
    )
    three = ModelConfig(coupling=1.0, frequencies=(0.2, 0.0, -0.2))
    for initial, config in (
        (gaussian_pair(grid64), pair_config),
        (perturbed_gaussians(grid64, 3, seed=4), three),
    ):
        trajectory = evolve(initial, config, params, collect_diagnostics=False)
        n = config.n_oscillators
        for state in trajectory.states:
            assert_close(state.norms(), np.ones(n), 1e-14, f"{scheme} renormalized, n = {n}")


# n = 2 steps D as four Python complexes, n = 3 through numpy
@pytest.mark.parametrize("n", [2, 3])
def test_step_matches_evolve_under_span(grid64, n):
    initial = perturbed_gaussians(grid64, n, seed=4)
    config = ModelConfig(
        coupling=1.0,
        frequencies=tuple(np.linspace(0.2, -0.2, n)),
        potential=cosine_potential(grid64),
    )
    params = SolverParams(dt=1e-3, t_end=1e-3)
    one = step(initial, config, params)
    assert one.time == pytest.approx(1e-3)
    assert_close(one.psi, evolve(initial, config, params).final.psi, 0.0, "step vs evolve")
    grid_step = step(initial, config, SolverParams(dt=1e-3, t_end=1e-3, scheme="strang_rk4"))
    assert_close(one.psi, grid_step.psi, 1e-14, "span vs strang_rk4 step")
    with pytest.warns(UserWarning), pytest.raises(DivergenceError, match="non-finite"):
        step(initial, ModelConfig(coupling=1e300, frequencies=(0.0,) * n), params)


def _matrix_path_d(d, config, params, n_steps):
    """D after n_steps of the numpy path: rk4_step on mixing_flow, with the
    row renormalization when params asks for it; None once it goes
    non-finite or its squared row norms, the fields' squared norms,
    overflow, with the step it did so."""
    deriv = mixing_flow(config.frequencies, config.coupling, 1.0)
    with np.errstate(invalid="ignore", over="ignore"):
        for n in range(1, n_steps + 1):
            d = rk4_step(d, deriv, params.dt)
            if params.renormalize_each_step:
                d = d / np.linalg.norm(d, axis=1)[:, None]
            if not np.all(np.isfinite(np.sum(np.abs(d) ** 2, axis=1))):
                return None, n
    return d, n_steps


@pytest.mark.parametrize("renormalize", [False, True], ids=["plain", "renormalized"])
@pytest.mark.parametrize("case", ["detuned_rank_2", "antiphase_rank_1"])
def test_span_pair_d_matches_the_matrix_path(grid64, case, renormalize):
    if case == "detuned_rank_2":
        initial, rank = perturbed_gaussians(grid64, 2, seed=6), 2
    else:
        initial, rank = incoherent_pair(grid64), 1
    config = ModelConfig(coupling=1.3, frequencies=(0.4, -0.25))
    params = SolverParams(dt=1e-2, t_end=20.0, renormalize_each_step=renormalize)
    stepper = _checked_stepper(initial, config, params)
    assert len(stepper.phi) == rank
    d0 = np.array(stepper.d).reshape(2, 2)
    assert stepper.advance(params.n_steps) == 0
    d = np.array(stepper.d).reshape(2, 2)
    assert np.all(d[:, rank:] == 0.0), "the padding column is no longer zero"
    reference, _ = _matrix_path_d(d0[:, :rank], config, params, params.n_steps)
    assert_close(d[:, :rank], reference, 1e-13, "pair path vs rk4_step(d, mixing_flow)")


def test_span_divergence_carries_partial_trajectory(grid64):
    # K dt = 10 leaves the RK4 stability region of the C equation
    config = ModelConfig(coupling=1000.0, frequencies=(0.0, 0.0, 0.0))
    initial = perturbed_gaussians(grid64, 3, seed=4)
    params = SolverParams(dt=0.01, t_end=1.0, snapshot_stride=1)
    with pytest.warns(UserWarning):
        with pytest.raises(DivergenceError, match=r"solver diverged at step \d+ \(t = ") as err:
            evolve(initial, config, params, collect_diagnostics=False)
    partial = err.value.partial
    assert 1 <= partial.n_samples == err.value.step_index
    assert all(np.all(np.isfinite(s.psi)) for s in partial.states)


@pytest.mark.parametrize(
    "renormalize, coupling", [(False, 1000.0), (True, 1e150)], ids=["plain", "renormalized"]
)
def test_span_pair_divergence_carries_partial_trajectory(grid64, renormalize, coupling):
    # the n = 2 twin of the test above: the pair path blows up at the step
    # the numpy path does, and keeps the finite samples before it; a
    # renormalized D stays bounded at K = 1000, so it takes an overflow
    config = ModelConfig(coupling=coupling, frequencies=(0.0, 0.0))
    initial = perturbed_gaussians(grid64, 2, seed=4)
    params = SolverParams(
        dt=0.01, t_end=1.0, snapshot_stride=1, renormalize_each_step=renormalize
    )
    with pytest.warns(UserWarning):
        d0 = np.array(_checked_stepper(initial, config, params).d).reshape(2, 2)
        with pytest.raises(DivergenceError, match=r"solver diverged at step \d+ \(t = ") as err:
            evolve(initial, config, params, collect_diagnostics=False)
    _, bad_step = _matrix_path_d(d0, config, params, params.n_steps)
    assert err.value.step_index == bad_step
    assert err.value.time == pytest.approx(bad_step * params.dt)
    partial = err.value.partial
    assert 1 <= partial.n_samples == err.value.step_index
    assert all(np.all(np.isfinite(s.psi)) for s in partial.states)
    assert_close(partial.times, np.arange(bad_step) * params.dt, 1e-15, "partial times")


def _per_step_samples(initial, config, params):
    """samples() one step at a time: advance(1) per step, the fields formed
    and checked at each sampled step. Returns the (time, fields) of every
    sample and the step the run diverged at, 0 when it stayed finite."""
    stepper = _checked_stepper(initial, config, params)
    out = [(initial.time, initial.psi)]
    for n in range(1, params.n_steps + 1):
        finite = stepper.advance(1) == 0
        sampled = n % params.snapshot_stride == 0 or n == params.n_steps
        if finite and sampled:
            psi = stepper.fields()
            finite = _norms_finite(psi, initial.grid.dv)
        if not finite:
            return out, n
        if sampled:
            out.append((initial.time + n * params.dt, psi))
    return out, 0


@pytest.mark.parametrize("coupling", [1.3, 300.0], ids=["finite", "diverging"])
@pytest.mark.parametrize(
    "scheme, n, renormalize",
    [("span", 2, False), ("span", 2, True), ("span", 3, False), ("strang_rk4", 2, False)],
    ids=["span_pair", "span_pair_renormalized", "span_three", "strang_rk4_pair"],
)
def test_samples_advance_a_stride_as_a_per_step_loop_does(grid64, scheme, n, renormalize, coupling):
    # 50 steps sampled every 4, so the last interval is 2 steps; K = 300
    # blows up at step 6, inside the second interval
    if renormalize and coupling > 1.3:
        coupling = 1e150  # a renormalized D stays bounded at K = 300
    config = ModelConfig(
        coupling=coupling,
        frequencies=tuple(np.linspace(0.3, -0.2, n)),
        potential=cosine_potential(grid64),
    )
    initial = perturbed_gaussians(grid64, n, seed=4)
    params = SolverParams(
        dt=0.01, t_end=0.5, scheme=scheme, renormalize_each_step=renormalize, snapshot_stride=4
    )
    streamed, diverged = [], 0
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        expected, bad = _per_step_samples(initial, config, params)
        try:
            for state in samples(initial, config, params):
                streamed.append((state.time, state.psi))
        except DivergenceError as err:
            diverged = err.step_index
            assert err.time == initial.time + bad * params.dt
    assert diverged == bad
    assert (bad > 0) == (coupling > 1.3)
    assert bad in (0, 1, 6)
    assert len(streamed) == len(expected) == (14 if bad == 0 else 1 + (bad - 1) // 4)
    for (t, psi), (t_ref, psi_ref) in zip(streamed, expected):
        assert t == t_ref
        assert np.array_equal(psi, psi_ref)


def test_span_keeps_a_dependent_pair_incoherent(grid256):
    # psi_2 = -psi_1 spans one dimension, so span steps one basis field with
    # D = (a, -a); the incoherent point is unstable, and any roundoff pulling
    # the rows of D apart would grow like exp(K t / 2): by t = 80 that is
    # 2e17 times the fields' roundoff
    config = ModelConfig(coupling=1.0, frequencies=(0.0, 0.0))
    trajectory = evolve(
        incoherent_pair(grid256, sigma=1.5),
        config,
        SolverParams(dt=1e-2, t_end=80.0, scheme="span", snapshot_stride=500),
    )
    assert max(r.zeta_norm for r in trajectory.diagnostics_stream) <= 1e-8
    assert_close(trajectory.final.psi[1], -trajectory.final.psi[0], 1e-12, "psi_2 = -psi_1")


@pytest.mark.parametrize("collect", [True, False], ids=["records", "no_records"])
def test_gram_series_matches_recomputed_gram_matrices(collect):
    grid = GridSpec(dim=1, points=64, length=20.0)
    config = ModelConfig(
        coupling=1.0,
        frequencies=(0.3, 0.0, -0.3),
        potential=cosine_potential(grid, amplitude=1.0, offset=1.0),
    )
    params = SolverParams(0.01, 0.5, snapshot_stride=10)
    traj = evolve(perturbed_gaussians(grid, 3, seed=5), config, params, collect_diagnostics=collect)
    assert len(traj.diagnostics_stream) == (traj.n_samples if collect else 0)
    series = traj.gram_series()
    recomputed = np.stack([CorrelationState.from_ensemble(s).z for s in traj.states])
    assert np.array_equal(series.times, traj.times)
    assert np.array_equal(series.z, recomputed)


# -- streamed sampling ---------------------------------------------------------


@pytest.mark.parametrize("scheme", ["span", "strang_rk4", "full_rk4"])
def test_samples_stream_the_states_evolve_collects(grid64, scheme):
    config = ModelConfig(
        coupling=1.0,
        frequencies=(0.2, 0.0, -0.2),
        potential=cosine_potential(grid64, amplitude=1.0),
    )
    initial = perturbed_gaussians(grid64, 3, seed=9)
    params = SolverParams(dt=0.01, t_end=0.1, scheme=scheme, snapshot_stride=3)
    streamed = list(samples(initial, config, params))
    collected = evolve(initial, config, params)
    assert [s.time for s in streamed] == list(collected.times) == [0.0, 0.03, 0.06, 0.09, 0.1]
    for a, b in zip(streamed, collected.states, strict=True):
        assert a.time == b.time
        assert np.array_equal(a.psi, b.psi)
    assert streamed[0].psi is not initial.psi


def test_samples_divergence_matches_evolve(grid64):
    config = ModelConfig(coupling=1000.0, frequencies=(0.0, 0.0, 0.0))
    initial = perturbed_gaussians(grid64, 3, seed=4)
    params = SolverParams(dt=0.01, t_end=1.0, snapshot_stride=1)
    # the run's checks, and its dt warning, come with the call
    with pytest.raises(ConfigurationError, match="frequencies"):
        samples(initial, ModelConfig(coupling=1.0, frequencies=(0.0, 0.0)), params)
    with pytest.warns(UserWarning):
        stream = samples(initial, config, params)
    taken = []
    with pytest.raises(DivergenceError) as streamed:
        for state in stream:
            taken.append(state)
    with pytest.warns(UserWarning), pytest.raises(DivergenceError) as collected:
        evolve(initial, config, params, collect_diagnostics=False)
    assert str(streamed.value) == str(collected.value)
    assert streamed.value.step_index == collected.value.step_index
    assert streamed.value.time == collected.value.time
    assert streamed.value.partial is None
    partial = collected.value.partial
    assert len(taken) == partial.n_samples >= 1
    for a, b in zip(taken, partial.states, strict=True):
        assert np.array_equal(a.psi, b.psi)


# -- the stepping child ----------------------------------------------------------


@pytest.fixture
def step_child(monkeypatch):
    """Every pair span run steps its D in a forked child."""
    return force_step_child(monkeypatch)


def _assert_same_run(a, b):
    """Two trajectories (or partial ones) with the same bits: times, steps,
    fields, factors and every number of every record."""
    assert a.times.tobytes() == b.times.tobytes()
    for sa, sb in zip(a.states, b.states, strict=True):
        assert (sa.time, sa.step) == (sb.time, sb.step)
        assert sa.psi.tobytes() == sb.psi.tobytes()
        assert (sa.factors is None) == (sb.factors is None)
        if sa.factors is not None:
            for fa, fb in zip(sa.factors, sb.factors, strict=True):
                assert fa.tobytes() == fb.tobytes()
    for ra, rb in zip(a.diagnostics_stream, b.diagnostics_stream, strict=True):
        assert _diagnostics_vector(ra).tobytes() == _diagnostics_vector(rb).tobytes()


@pytest.mark.parametrize(
    "cosine, rank_1, renormalize",
    [(False, False, False), (True, False, False), (False, True, False), (False, False, True)],
    ids=["free", "cosine", "rank_1", "renormalized"],
)
def test_step_child_gives_the_in_process_bits(grid64, monkeypatch, cosine, rank_1, renormalize):
    potential = cosine_potential(grid64) if cosine else None
    config = ModelConfig(coupling=1.3, frequencies=(0.4, -0.25), potential=potential)
    # r = 1: D pads a zero column
    initial = incoherent_pair(grid64) if rank_1 else perturbed_gaussians(grid64, 2, seed=6)
    params = SolverParams(dt=0.01, t_end=2.0, snapshot_stride=3, renormalize_each_step=renormalize)
    in_process = evolve(initial, config, params)
    forks = force_step_child(monkeypatch)
    forked_run = evolve(initial, config, params)
    assert len(forks) == 1
    assert_no_child_left()
    assert forked_run.n_samples == params.n_samples == 68
    assert (forked_run.states[0].factors is not None) == rank_1
    _assert_same_run(forked_run, in_process)


@pytest.mark.parametrize(
    "coupling, renormalize",
    [(296.2, False), (1000.0, False), (1e150, True)],
    ids=["d_not_finite", "gram_overflows", "renormalized_d_not_finite"],
)
def test_step_child_divergence_matches_the_in_process_one(
    grid64, monkeypatch, coupling, renormalize
):
    # D goes non-finite in the child at step 9; a sample's squared norms
    # overflow at step 2, after the child has stepped on; a renormalized D
    # overflows in the child's first interval
    config = ModelConfig(coupling=coupling, frequencies=(0.0, 0.0))
    initial = perturbed_gaussians(grid64, 2, seed=1)
    params = SolverParams(dt=0.01, t_end=2.0, snapshot_stride=1, renormalize_each_step=renormalize)
    errors = []
    for force in (False, True):
        if force:
            forks = force_step_child(monkeypatch)
        with warnings.catch_warnings(), pytest.raises(DivergenceError) as err:
            warnings.simplefilter("ignore")
            evolve(initial, config, params)
        errors.append(err.value)
    assert len(forks) == 1
    assert_no_child_left()
    in_process, child = errors
    assert str(child) == str(in_process)
    assert (child.step_index, child.time) == (in_process.step_index, in_process.time)
    assert child.partial.n_samples >= 1
    _assert_same_run(child.partial, in_process.partial)


def test_step_child_is_reaped_on_an_early_close(grid64, pair_config, step_child):
    initial = perturbed_gaussians(grid64, 2, seed=6)
    # 1000 intervals of 72 bytes fill the pipe, so the child is blocked
    stream = samples(initial, pair_config, SolverParams(dt=0.01, t_end=10.0))
    next(stream)
    assert not step_child
    next(stream)
    assert len(step_child) == 1
    stream.close()
    assert_no_child_left()


@pytest.mark.parametrize(
    "failure", [ValueError("consumer failed"), KeyboardInterrupt()], ids=["error", "interrupt"]
)
def test_step_child_is_reaped_when_the_consumer_raises(
    grid64, pair_config, step_child, monkeypatch, failure
):
    made = []

    def failing(block, config):
        made.append(None)
        if len(made) == 2:
            raise failure
        return compute_records(block, config)

    monkeypatch.setattr(solver, "compute_records", failing)
    initial = perturbed_gaussians(grid64, 2, seed=6)
    with pytest.raises(type(failure)):
        evolve(initial, pair_config, SolverParams(dt=0.01, t_end=10.0))
    assert len(step_child) == 1
    assert_no_child_left()


def _killed(stepper, params, fd):
    os.kill(os.getpid(), signal.SIGKILL)


def _failing(stepper, params, fd):
    stepper.advance(3)
    raise ConfigurationError("the child failed")


@pytest.mark.parametrize(
    "child, error, message",
    [
        (_killed, RuntimeError, "stepping child exited with code -9"),
        (_failing, ConfigurationError, "the child failed"),
    ],
    ids=["killed", "failing"],
)
def test_step_child_that_dies_raises_here(
    grid64, pair_config, step_child, monkeypatch, child, error, message
):
    monkeypatch.setattr(solver, "_step_child", child)
    initial = perturbed_gaussians(grid64, 2, seed=6)
    with pytest.raises(error, match=message):
        evolve(initial, pair_config, SolverParams(dt=0.01, t_end=1.0))
    assert_no_child_left()


@pytest.mark.parametrize("below", ["steps", "samples"])
def test_a_run_below_the_thresholds_steps_in_process(grid64, pair_config, monkeypatch, below):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    steps, samples_ = solver._STEP_CHILD_STEPS, solver._STEP_CHILD_SAMPLES
    if below == "steps":
        params = SolverParams(dt=0.01, t_end=0.01 * (steps - 1))
    else:  # 10 x as many steps, in one sample fewer
        params = SolverParams(
            dt=0.01, t_end=0.01 * 10 * steps, snapshot_stride=-(-10 * steps // (samples_ - 2))
        )
        assert params.n_samples == samples_ - 1
    for _ in samples(perturbed_gaussians(grid64, 2, seed=6), pair_config, params):
        pass
