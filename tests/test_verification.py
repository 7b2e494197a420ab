"""The named checks behind `verify`, driven through scenario text.

Each scenario below is deliberately small (64-point grids, short horizons)
so the whole file stays fast; the full-scale versions of these checks live
in test_acceptance.py.
"""

import numpy as np
import pytest

from lohe_sync import CHECK_NAMES, ConfigurationError, parse_scenario, run_checks
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
        ("mass:1e-9, order_identity:1e-12", True),
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
