"""Seeded workload generator.

Each workload is one scenario file handed to one `lohe-sync` subcommand. The
benchmark seed fixes everything random in it: the initial-data seed, the
pde_ensemble detunings, the sweep seeds and the verify pair's z0. Everything
else (grid, N, steps, sampling) is fixed per workload so that two seeds do the
same amount of work.

This module is stdlib only; it never imports lohe_sync.
"""

from __future__ import annotations

import cmath
import random
from dataclasses import dataclass

# one-line reasons, mirrored in BENCHMARK.json
WHY = {
    "pde_grid": "2-D 128^2 grid, N = 4, no potential, sparse ndjson sampling: "
    "the spectral solver does nearly all the work",
    "pde_ensemble": "1-D/256, N = 40, cosine potential, detuned, dense ndjson + csv: "
    "O(N^2) diagnostics, writers and stored states dominate",
    "verify_pair": "1-D/256 detuned pair with [solver] and [ode]: small-array solver "
    "overhead plus the ODE, oracle and verification layers",
    "ode_sweep": "correlation-ODE sweep across lam = 1 at N = 2, no PDE work: "
    "per-step Python overhead of the 2 x 2 RK4",
}

VERIFY_CHECKS = (
    ("mass", 1e-9),
    ("two_exact", 1e-6),
    ("pde_ode_closure", 1e-6),
    ("sync_rate", 0.03),
    ("distance_limit", 1e-3),
    ("frequency_sync", 1e-3),
)

SWEEP_OMEGAS = tuple(round(0.1 * i, 1) for i in range(9))  # lam = 2 omega / K crosses 1 at 0.5


@dataclass(frozen=True)
class Spec:
    """A generated workload: the scenario text plus the values the checks and
    the computed counters need, so neither has to parse the file back."""

    command: str
    text: str
    n: int = 2
    points: int = 256
    dim: int = 1
    coupling: float = 1.0
    frequencies: tuple[float, ...] = ()
    dt: float = 1e-3
    steps: int = 0
    stride: int = 1
    formats: tuple[str, ...] = ()
    sweep_seeds: tuple[int, ...] = ()
    checks: tuple[tuple[str, float], ...] = ()

    @property
    def grid_size(self) -> int:
        return self.points**self.dim

    @property
    def samples(self) -> int:
        """Samples a PDE run stores: every stride steps plus the endpoint."""
        return self.steps // self.stride + 1 + (1 if self.steps % self.stride else 0)

    @property
    def cells(self) -> int:
        return len(SWEEP_OMEGAS) * len(self.sweep_seeds) if self.command == "sweep" else 1

    @property
    def field_steps(self) -> int:
        """N * M * steps of the PDE run (computed)."""
        return 0 if self.command == "sweep" else self.n * self.grid_size * self.steps

    @property
    def cell_steps(self) -> int:
        """ODE cells x RK4 steps (computed). verify integrates the [ode] pair and,
        for pde_ode_closure, the full N x N system over the solver window."""
        if self.command == "sweep":
            return self.cells * self.steps
        if self.command == "verify":
            return 2 * self.steps
        return 0

    @property
    def trajectory_bytes(self) -> int:
        """Bytes held by Trajectory.states: samples x N x M complex128 (computed)."""
        return 0 if self.command == "sweep" else self.samples * self.n * self.grid_size * 16


def _fmt(values) -> str:
    return ", ".join(repr(v) for v in values)


def _pde_grid(rng: random.Random) -> Spec:
    steps, stride = 400, 100
    text = f"""[scenario]
name = pde_grid
seed = {rng.randrange(2**31)}

[grid]
dim = 2
points = 128
length = 20.0

[model]
n = 4
coupling = 1.0
potential = zero

[initial]
kind = perturbed_gaussians
epsilon = 0.25

[solver]
dt = 0.001
t_end = {steps * 0.001!r}
snapshot_stride = {stride}

[outputs]
formats = ndjson
"""
    return Spec("simulate", text, n=4, points=128, dim=2,
                frequencies=(0.0,) * 4, steps=steps, stride=stride, formats=("ndjson",))


def _pde_ensemble(rng: random.Random) -> Spec:
    n, steps, stride = 40, 1000, 10
    seed = rng.randrange(2**31)
    freqs = tuple(round(rng.uniform(-0.05, 0.05), 6) for _ in range(n))
    text = f"""[scenario]
name = pde_ensemble
seed = {seed}

[grid]
points = 256
length = 20.0

[model]
n = {n}
coupling = 1.0
frequencies = {_fmt(freqs)}
potential = cosine

[initial]
kind = perturbed_gaussians
epsilon = 0.25

[solver]
dt = 0.001
t_end = {steps * 0.001!r}
snapshot_stride = {stride}

[outputs]
formats = ndjson, csv
"""
    return Spec("simulate", text, n=n, frequencies=freqs, steps=steps,
                stride=stride, formats=("ndjson", "csv"))


def _verify_pair(rng: random.Random) -> Spec:
    steps, stride = 20000, 20
    seed = rng.randrange(2**31)
    z0 = cmath.rect(rng.uniform(0.0, 0.6), rng.uniform(-cmath.pi, cmath.pi))
    z0 = complex(round(z0.real, 6), round(z0.imag, 6))
    omega = 0.375  # lam = 0.75
    text = f"""[scenario]
name = verify_pair
seed = {seed}

[grid]
points = 256
length = 20.0

[model]
n = 2
coupling = 1.0
lam = 0.75

[initial]
kind = perturbed_gaussians
epsilon = 0.25

[ode]
system = two
z0 = {repr(z0).strip("()")}
dt = 0.001
t_end = 20.0
sample_stride = {stride}

[solver]
dt = 0.001
t_end = 20.0
snapshot_stride = {stride}

[outputs]
formats = ndjson

[verify]
checks = {", ".join(f"{name}:{tol:g}" for name, tol in VERIFY_CHECKS)}
"""
    return Spec("verify", text, frequencies=(omega, -omega), steps=steps,
                stride=stride, checks=VERIFY_CHECKS)


def _ode_sweep(rng: random.Random) -> Spec:
    dt, t_end = 0.002, 10.0
    seeds = tuple(sorted(rng.sample(range(10_000), 2)))
    text = f"""[scenario]
name = ode_sweep
seed = {seeds[0]}

[sweep]
coupling = 1.0
omega = {_fmt(SWEEP_OMEGAS)}
n = 2
seeds = {", ".join(str(s) for s in seeds)}
mode = ode
dt = {dt!r}
t_end = {t_end!r}
"""
    return Spec("sweep", text, dt=dt, steps=round(t_end / dt), sweep_seeds=seeds)


_GENERATORS = {
    "pde_grid": _pde_grid,
    "pde_ensemble": _pde_ensemble,
    "verify_pair": _verify_pair,
    "ode_sweep": _ode_sweep,
}

NAMES = tuple(_GENERATORS)


def generate(workload: str, seed: int) -> Spec:
    """The workload's scenario for this benchmark seed; same seed, same bytes."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
