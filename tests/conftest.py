import os

import numpy as np
import pytest
from hypothesis import settings

from lohe_sync import GridSpec, ModelConfig, solver
from lohe_sync.initial_data import gaussian_pair, perturbed_gaussians

# every run of the suite draws the same examples; a property that sets its
# own max_examples keeps the derandomized draw
settings.register_profile("derandomized", derandomize=True, max_examples=100)
settings.load_profile("derandomized")


@pytest.fixture(scope="session")
def grid64():
    return GridSpec(dim=1, points=64, length=20.0)


@pytest.fixture(scope="session")
def grid256():
    return GridSpec(dim=1, points=256, length=20.0)


@pytest.fixture
def pair_config():
    # lam = 2*0.375/1.0 = 0.75, the workhorse underdamped configuration
    return ModelConfig(coupling=1.0, frequencies=(0.375, -0.375))


@pytest.fixture
def pair_state(grid64):
    return gaussian_pair(grid64, separation=2.0, sigma=1.5)


@pytest.fixture
def five_state(grid64):
    return perturbed_gaussians(grid64, 5, seed=2024)


def assert_close(a, b, tol, label=""):
    err = float(np.max(np.abs(np.asarray(a) - np.asarray(b))))
    assert err <= tol, f"{label} error {err:g} above {tol:g}"


def force_step_child(monkeypatch) -> list:
    """Make every pair span run step its D in a forked child, on any CPU
    count; returns the list that gets one entry per fork."""
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(None)
        return fork()

    monkeypatch.setattr(solver, "_STEP_CHILD_STEPS", 0)
    monkeypatch.setattr(solver, "_STEP_CHILD_SAMPLES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def assert_no_child_left():
    # no child of this process is left, running or unreaped
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
