"""Command-line runs replayed from the manifest.cfg they wrote: each must
write the same files again, byte for byte, and leave no child process."""

import csv

import pytest

from conftest import SCENARIOS, assert_replays, shipped
from lohe_sync.cli import main


def _scenario(tmp_path, text):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(text)
    return cfg


@pytest.mark.parametrize("cfg", shipped("verify"))
def test_shipped_scenario_passes_verify_and_replays(tmp_path, cfg):
    # every shipped [verify] section must pass on the scheme its scenario
    # names, the default span when it names none; verify exits non-zero on
    # any failed check, and a rerun from the manifest.cfg it wrote must
    # write the same files. critical_pair's run steps its D in a forked child
    assert_replays(tmp_path, "verify", cfg)


@pytest.mark.parametrize(
    "command, name", [("ode", "periodic_pair"), ("oracle", "periodic_pair"), ("sweep", "sweep_trichotomy")]
)
def test_correlation_subcommands_replay(tmp_path, command, name):
    # the same replay for the correlation-level subcommands: ode and oracle
    # on the periodic pair, and sweep on the trichotomy table
    assert_replays(tmp_path, command, SCENARIOS / f"{name}.cfg")


ODE_STACK = """\
[scenario]
name = ode_stack
seed = 11
[model]
n = 5
coupling = 1.2
frequencies = 0.3, -0.1, 0.25, -0.4, 0.05
[ode]
system = full
gram = random
coherence = 0.3
dt = 1e-3
t_end = 4.0
sample_stride = 20
self_check = true
[outputs]
formats = ndjson, csv
"""

ODE_FG = """\
[scenario]
name = ode_fg
seed = 12
[model]
n = 4
coupling = 0.8
[ode]
system = fg
gram = random
dt = 1e-3
t_end = 4.0
sample_stride = 20
[outputs]
formats = ndjson, csv
"""

ODE_SWEEP_STACK = """\
[scenario]
name = ode_sweep_stack
seed = 13
[sweep]
coupling = 0.5, 1.0, 400.0
omega = 0.0
n = 2, 3, 4
seeds = 0, 1
mode = ode
dt = 0.01
t_end = 5.0
"""


@pytest.mark.parametrize(
    "command, text",
    [("ode", ODE_STACK), ("ode", ODE_FG), ("sweep", ODE_SWEEP_STACK)],
    ids=["ode_stack", "ode_fg", "ode_sweep_stack"],
)
def test_n3_correlation_runs_replay(tmp_path, command, text):
    # the shipped correlation scenarios are all N = 2, so none steps the
    # N >= 3 stack: a detuned N = 5 full run with the Richardson repeat,
    # an N = 4 fg run, and an ode sweep over n = 2, 3, 4 whose K = 400
    # cells diverge must each replay byte for byte from their manifests
    run = assert_replays(tmp_path, command, _scenario(tmp_path, text))
    if command == "sweep":
        assert ",divergence," in (run / "sweep.csv").read_text()


SWEEP_PDE = """\
[scenario]
name = sweep_pde
[grid]
points = 64
[sweep]
coupling = 1.0
omega = 0.0
n = 3
seeds = 0, 1, 2, 3
mode = pde
dt = 0.01
t_end = 1.0
"""

SWEEP_PDE_PAIR = """\
[scenario]
name = sweep_pde_pair
[grid]
points = 64
[sweep]
coupling = 1.0
omega = 0.25
n = 2
seeds = 0
mode = pde
dt = 0.01
t_end = 20.0
"""


@pytest.mark.parametrize("text", [SWEEP_PDE, SWEEP_PDE_PAIR], ids=["sweep_pde", "sweep_pde_pair"])
def test_pde_sweep_replays_and_leaves_no_child(tmp_path, text):
    # every pde sweep cell runs in this process, as a scenario of its own:
    # four n = 3 cells (1-D/64), and one n = 2 span cell of 2000 steps in
    # 201 samples, enough to step its D in the stepping child, must give
    # ok rows, replay byte for byte from their manifest.cfg, and leave no
    # process of theirs running
    run = assert_replays(tmp_path, "sweep", _scenario(tmp_path, text))
    with open(run / "sweep.csv") as fh:
        assert {row["status"] for row in csv.DictReader(fh)} == {"ok"}


DEPENDENT = """\
[scenario]
name = dependent
seed = 5
[grid]
points = 256
length = 20.0
[model]
n = 20
coupling = 1.0
potential = cosine
[initial]
kind = perturbed_gaussians
[solver]
dt = 0.01
t_end = 2.0
snapshot_stride = 10
[outputs]
formats = ndjson, csv
[verify]
checks = mass:1e-9, order_identity:1e-10, pde_ode_closure:1e-6
"""

DEPENDENT_2D = """\
[scenario]
name = dependent_2d
seed = 5
[grid]
dim = 2
points = 32
length = 20.0
[model]
n = 12
coupling = 1.0
potential = cosine
[initial]
kind = perturbed_gaussians
max_mode = 1
[solver]
dt = 0.01
t_end = 2.0
snapshot_stride = 10
[outputs]
formats = ndjson, csv
[verify]
checks = mass:1e-9, order_identity:1e-10, pde_ode_closure:1e-6
"""


@pytest.mark.parametrize("text", [DEPENDENT, DEPENDENT_2D], ids=["dependent", "dependent_2d"])
def test_rank_deficient_span_run_verifies_and_replays(tmp_path, text):
    # 20 fields of perturbed_gaussians (max_mode = 6) span 13 dimensions in
    # 1-D, and 12 with max_mode = 1 span 9 in 2-D, where the gradient form
    # sums two axes; so these span runs make their records from span's
    # factors (D, U q), a path no shipped scenario takes: verify must pass
    # with the tolerances the grid-formed records meet, and a simulate run
    # replayed from the manifest.cfg it wrote must write the same files
    cfg = _scenario(tmp_path, text)
    assert main(["verify", "--scenario", str(cfg), "--out", str(tmp_path / "verify")]) == 0
    assert_replays(tmp_path, "simulate", cfg)


RENDER = """\
[scenario]
name = render
seed = 2
[grid]
points = 256
length = 20.0
[model]
n = 40
coupling = 1.0
potential = cosine
[initial]
kind = perturbed_gaussians
[solver]
dt = 0.01
t_end = 1.0
snapshot_stride = 10
[outputs]
formats = ndjson, csv
"""


def test_render_child_replays_and_leaves_no_child(tmp_path):
    # 11 records at N = 40 hold 124 k numbers, above the 2^16 at which
    # simulate renders its diagnostics in a forked child while it steps: a
    # replay from the manifest.cfg must write the same files, and no
    # process of a run may be left once it has exited
    assert_replays(tmp_path, "simulate", _scenario(tmp_path, RENDER))
