"""The named checks behind `verify`, driven through scenario text.

Each scenario below is deliberately small (64-point grids, short horizons)
so the whole file stays fast; the full-scale versions of these checks live
in test_acceptance.py.
"""

import io
import tracemalloc

import numpy as np
import pytest

import lohe_sync.verification as verification
from lohe_sync import CHECK_NAMES, ConfigurationError, parse_scenario, run_checks
from lohe_sync.cli import main
from lohe_sync.core import gram_matrix
from lohe_sync.emit import write_series
from lohe_sync.scenario import build_ensemble, build_grid, build_model
from lohe_sync.solver import samples
from lohe_sync.verification import VerifyContext

ODE_SYNC = """
[scenario]
name = checks-ode-sync
seed = 3

[model]
n = 2
coupling = 1.0
lam = 0.75

[ode]
system = two
z0 = 0.2+0.1j
dt = 0.001
t_end = 25.0
sample_stride = 20

[verify]
checks = two_exact:1e-8, sync_rate:0.02, distance_limit:1e-3, frequency_sync:1e-3
"""

# descent of the macroscopic Lyapunov functional needs identical frequencies;
# with detuning it settles to a positive constant non-monotonically
ODE_PHASE = """
[scenario]
name = checks-ode-phase
seed = 3

[model]
n = 2
coupling = 1.0
lam = 0.0

[ode]
system = two
z0 = 0.2+0.1j
dt = 0.001
t_end = 25.0
sample_stride = 20

[verify]
checks = lyapunov_monotone:1e-12, phase_sync:1e-3, sync_rate:0.02, distance_limit:1e-3
"""

ODE_PERIODIC = """
[scenario]
name = checks-ode-periodic
seed = 3

[model]
n = 2
coupling = 1.0
lam = 2.0

[ode]
system = two
z0 = 0.3+0.2j
dt = 0.001
t_end = 20.0
sample_stride = 5

[verify]
checks = periodicity:0.01, no_sync:1e-3, sync_rate:0.02
"""

ODE_UNSTABLE = """
[scenario]
name = checks-ode-unstable
seed = 3

[model]
n = 2
coupling = 1.0
lam = 0.75

[ode]
system = two
z0 = unstable
dt = 0.001
t_end = 5.0
sample_stride = 10

[verify]
checks = stationary:1e-8
"""

PDE_IDENTICAL = """
[scenario]
name = checks-pde
seed = 7

[grid]
points = 64
length = 20.0

[model]
n = 3
coupling = 1.0

[initial]
kind = perturbed_gaussians
epsilon = 0.05

[solver]
dt = 0.002
t_end = 6.0
snapshot_stride = 30

[verify]
checks = mass:1e-9, order_identity:1e-12, energy_decomposition:1e-10, pde_ode_closure:1e-6, lyapunov_monotone:1e-10, phase_sync:1e-2
"""

SCATTERING = """
[scenario]
name = checks-scattering
seed = 7

[grid]
points = 64
length = 20.0

[model]
n = 2
coupling = 1.0
lam = 0.0

[initial]
kind = gaussian_pair
separation = 2.0

[solver]
dt = 0.01
t_end = 25.0
snapshot_stride = 10

[verify]
checks = scattering:1e-3
"""


def by_name(results):
    return {r.name: r for r in results}


def test_check_names_are_a_stable_surface():
    assert set(CHECK_NAMES) == {
        "mass",
        "order_identity",
        "energy_decomposition",
        "pde_ode_closure",
        "two_exact",
        "sync_rate",
        "distance_limit",
        "periodicity",
        "stationary",
        "lyapunov_monotone",
        "phase_sync",
        "frequency_sync",
        "no_sync",
        "scattering",
    }


def test_underdamped_ode_checks_pass():
    results = by_name(run_checks(parse_scenario(ODE_SYNC)))
    assert all(r.passed for r in results.values()), results
    rate = results["sync_rate"]
    assert abs(rate.measured - rate.expected) <= 0.02 * rate.expected
    limit = results["distance_limit"]
    assert limit.expected == pytest.approx(0.8228756555322954, abs=1e-15)
    assert results["frequency_sync"].measured == "frequency_sync"


def test_zero_detuning_ode_checks_pass():
    results = by_name(run_checks(parse_scenario(ODE_PHASE)))
    assert all(r.passed for r in results.values()), results
    assert results["phase_sync"].measured == "phase_sync"
    assert results["distance_limit"].expected == 0.0
    # K = 1, lam = 0: the squared distance contracts at exactly K
    assert results["sync_rate"].expected == pytest.approx(1.0, rel=1e-12)


def test_periodic_ode_checks():
    results = by_name(run_checks(parse_scenario(ODE_PERIODIC)))
    period = results["periodicity"]
    assert period.passed
    assert period.expected == pytest.approx(2 * np.pi / np.sqrt(3.0), rel=1e-12)
    assert results["no_sync"].passed
    # sync_rate is undefined above the critical ratio: reported, not raised
    rate = results["sync_rate"]
    assert not rate.passed
    assert rate.measured is None
    assert "could not run" in rate.detail


def test_unstable_point_is_stationary():
    results = run_checks(parse_scenario(ODE_UNSTABLE))
    assert results[0].name == "stationary"
    assert results[0].passed
    assert results[0].measured <= 1e-10


def test_pde_checks_share_one_simulation():
    results = by_name(run_checks(parse_scenario(PDE_IDENTICAL)))
    assert all(r.passed for r in results.values()), results
    assert results["phase_sync"].measured == "phase_sync"
    assert results["pde_ode_closure"].measured <= 1e-6


def test_scattering_check_passes():
    results = run_checks(parse_scenario(SCATTERING))
    assert results[0].passed
    assert results[0].measured <= 1e-3
    assert "monotone: True" in results[0].detail


def test_scattering_check_reads_a_pair_listed_in_either_order():
    # (-Omega, Omega) is (Omega, -Omega) with its labels swapped; the
    # mirror-symmetric gaussian_pair makes the two runs mirror images
    measured = []
    for frequencies in ("0.1, -0.1", "-0.1, 0.1"):
        text = SCATTERING.replace("lam = 0.0", f"frequencies = {frequencies}")
        (result,) = run_checks(parse_scenario(text))
        assert result.passed, result
        measured.append(result.measured)
    assert measured[1] == pytest.approx(measured[0], rel=1e-8)


def test_unknown_check_name_is_a_config_error():
    sc = parse_scenario(
        "[scenario]\nname = x\n[ode]\nsystem = two\nz0 = 0.1\nt_end = 1\n[verify]\nchecks = entropy:1e-3\n"
    )
    with pytest.raises(ConfigurationError, match="entropy"):
        run_checks(sc)


def test_missing_sections_fail_the_check_not_the_run():
    sc = parse_scenario(
        "[scenario]\nname = x\n[model]\nn = 2\ncoupling = 1.0\nlam = 0.75\n"
        "[ode]\nsystem = two\nz0 = 0.1\nt_end = 1\n[verify]\nchecks = mass:1e-9, two_exact:1e-6\n"
    )
    results = run_checks(sc)
    mass, two = results
    assert not mass.passed
    assert mass.measured is None
    assert "check could not run" in mass.detail
    assert two.passed  # two_exact is happy with the ODE series alone


def test_no_checks_requested_is_an_error():
    sc = parse_scenario("[scenario]\nname = x\n[ode]\nsystem = two\nz0 = 0.1\nt_end = 1\n")
    with pytest.raises(ConfigurationError, match="verify"):
        run_checks(sc)


@pytest.mark.parametrize(
    "checks, keeps",
    [
        ("mass:1e-9, energy_decomposition:1e-10, pde_ode_closure:1e-6, phase_sync:1e-2", False),
        ("mass:1e-9, order_identity:1e-12", False),
    ],
    ids=["records_only", "order_identity"],
)
def test_verify_keeps_states_only_for_checks_that_read_them(checks, keeps):
    text = PDE_IDENTICAL.replace(PDE_IDENTICAL.splitlines()[-1], f"checks = {checks}")
    ctx = VerifyContext(parse_scenario(text))
    trajectory = ctx.trajectory
    assert len(trajectory.diagnostics_stream) == trajectory.n_samples == 101
    assert len(trajectory.states) == (101 if keeps else 0)
    if not keeps:
        with pytest.raises(ConfigurationError, match="keeps no states"):
            ctx.state_trajectory
    # the same checks pass either way, on the same records
    assert all(r.passed for r in run_checks(parse_scenario(text)))


def test_order_identity_from_records_matches_the_gram_formula():
    # the reference is the Gram-from-fields residual the check used to form
    sc = parse_scenario(PDE_IDENTICAL)
    grid = build_grid(sc)
    config = build_model(sc, grid)
    reference = 0.0
    for state in samples(build_ensemble(sc, grid), config, sc.solver):
        z = gram_matrix(state)
        n = z.shape[0]
        diag = np.diag(z).real
        dist_sq = diag[:, None] + diag[None, :] - 2.0 * z.real
        mean_dist = float(np.sum(dist_sq)) / (2.0 * n * n)
        reference = max(reference, abs(1.0 - float(np.sum(z).real) / (n * n) - mean_dist))
    measured = by_name(run_checks(sc))["order_identity"].measured
    assert abs(measured - reference) <= 1e-13, (measured, reference)


def test_order_identity_memory_is_flat_in_the_sample_count():
    # 10 and 100 samples of the same 99 steps: the check reads records, a
    # few hundred bytes per sample, far less than one sample's fields
    def peak(stride):
        text = (
            "[scenario]\nname = flat\nseed = 5\n[grid]\npoints = 4096\nlength = 40.0\n"
            "[model]\nn = 2\ncoupling = 1.0\nlam = 0.5\n[initial]\nkind = perturbed_gaussians\n"
            f"[solver]\ndt = 0.01\nt_end = 0.99\nsnapshot_stride = {stride}\n"
            "[verify]\nchecks = mass:1e-9, order_identity:1e-10\n"
        )
        tracemalloc.start()
        try:
            assert all(r.passed for r in run_checks(parse_scenario(text)))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(11)  # caches and first-call allocations
    short, long = peak(11), peak(1)
    one_sample = 2 * 4096 * 16
    assert long - short < one_sample, (short, long)


@pytest.mark.parametrize("text", [ODE_SYNC, ODE_UNSTABLE], ids=["two", "unstable"])
def test_ode_subcommand_writes_the_verify_series(tmp_path, text):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["ode", "--scenario", str(cfg), "--out", str(out)]) == 0
    buffer = io.StringIO()
    write_series({"ndjson": buffer}, VerifyContext(parse_scenario(text)).ode_series)
    assert (out / "correlations.ndjson").read_text() == buffer.getvalue()


def test_pde_checks_step_the_pde_once(monkeypatch):
    runs = []

    def counted(*args):
        runs.append(args)
        return samples(*args)

    monkeypatch.setattr(verification, "samples", counted)
    checks = "mass:1e-9, order_identity:1e-12, energy_decomposition:1e-10, lyapunov_monotone:1e-10, phase_sync:1e-2"
    text = PDE_IDENTICAL.replace(PDE_IDENTICAL.splitlines()[-1], f"checks = {checks}")
    results = run_checks(parse_scenario(text))
    assert len(results) == 5 and all(r.passed for r in results), results
    assert len(runs) == 1
