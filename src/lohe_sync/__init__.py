"""Simulation and analysis toolkit for ensembles of Schrodinger equations
coupled through the Lohe synchronization mechanism.

The package has three levels that cross-check each other: a spectral PDE
solver for the coupled fields, an integrator for the closed pairwise
correlation system the fields induce, and a closed-form layer for the
two-oscillator problem. `lohe-sync` on the command line drives scenario
files through all three.

The names below are loaded on first use (PEP 562), so `import lohe_sync`
imports no numpy: the command line (`lohe_sync.__main__`) sets its BLAS
thread count before numpy loads.
"""

import importlib

__version__ = "0.1.0"

# each exported name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "core": "GridSpec WaveField EnsembleState ModelConfig inner_product gram_matrix"
        " order_parameter mixing_flow",
        "correlations": "CorrelationState CorrelationSeries full_rhs two_rhs"
        " macro_rhs integrate integrate_batch random_correlation_matrix",
        "solver": "SolverParams Trajectory evolve samples with_records propagate_linear"
        " stability_report",
        "diagnostics": "DiagnosticsRecord EnergyReport compute_record compute_records"
        " classify_sync classify_correlation_sync fit_rate fit_algebraic_limit detect_period"
        " interpolate_series",
        "oracles": "classify_two classify_pair z_exact sync_limits_two sync_distance_sq"
        " classify_fixed_point",
        "initial_data": "gaussian plane_waves gaussian_pair overlap_pair incoherent_pair"
        " perturbed_gaussians",
        "potentials": "cosine_potential",
        "scenario": "Scenario parse_scenario load_scenario render_scenario",
        "snapshots": "read_snapshot write_snapshot",
        "verification": "CHECK_NAMES run_checks scattering_state",
        "errors": "LoheSyncError ConfigurationError GridMismatchError ContractViolationError"
        " UnsupportedRegimeError ExcludedInitialStateError SeriesTooShortError DivergenceError",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
