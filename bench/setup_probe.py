"""Set-up probe, timed from outside as one fresh process: import lohe_sync,
load the scenario and build every input the workload's run starts from,
then exit before the first solver step or ODE cell.

    python bench/setup_probe.py SCENARIO

Run it with the repository's src directory on PYTHONPATH.
"""

import sys

import lohe_sync  # noqa: F401  (the import is part of what is timed)
from lohe_sync.core import ModelConfig
from lohe_sync.correlations import random_correlation_matrix
from lohe_sync.scenario import (
    build_ensemble,
    build_grid,
    build_model,
    build_ode_initial,
    load_scenario,
)


def build_inputs(sc):
    """The inputs a subcommand builds before it steps anything."""
    if sc.sweep is not None:
        # what each ode-mode sweep cell builds: its model and its z(0)
        return [
            (ModelConfig(coupling=k, frequencies=(w, -w)),
             random_correlation_matrix(n, seed, coherence=0.5))
            for k in sc.sweep.coupling
            for w in sc.sweep.omega
            for n in sc.sweep.n
            for seed in sc.sweep.seeds
        ]
    grid = build_grid(sc)
    config = build_model(sc, grid)
    built = [grid, config, build_ensemble(sc, grid)]
    if sc.ode is not None:
        built.append(build_ode_initial(sc, config))
    return built


if __name__ == "__main__":
    build_inputs(load_scenario(sys.argv[1]))
