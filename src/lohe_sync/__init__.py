"""Simulation and analysis toolkit for ensembles of Schrodinger equations
coupled through the Lohe synchronization mechanism.

The package has three levels that cross-check each other: a spectral PDE
solver for the coupled fields, an integrator for the closed pairwise
correlation system the fields induce, and a closed-form layer for the
two-oscillator problem. `lohe-sync` on the command line drives scenario
files through all three.
"""

from .core import (
    EnsembleState,
    GridSpec,
    ModelConfig,
    WaveField,
    coupling_term,
    gram_matrix,
    inner_product,
    order_parameter,
)
from .correlations import (
    CorrelationSeries,
    CorrelationState,
    MacroCorrelation,
    full_rhs,
    integrate,
    integrate_batch,
    macro_rhs,
    random_correlation_matrix,
    two_rhs,
)
from .diagnostics import (
    DiagnosticsRecord,
    EnergyReport,
    classify_correlation_sync,
    classify_sync,
    compute_record,
    compute_records,
    detect_period,
    fit_algebraic_limit,
    fit_rate,
    interpolate_series,
)
from .errors import (
    ConfigurationError,
    ContractViolationError,
    DivergenceError,
    ExcludedInitialStateError,
    GridMismatchError,
    LoheSyncError,
    SeriesTooShortError,
    UnsupportedRegimeError,
)
from .initial_data import (
    gaussian,
    gaussian_pair,
    incoherent_pair,
    overlap_pair,
    perturbed_gaussians,
    plane_waves,
)
from .oracles import (
    classify_fixed_point,
    classify_pair,
    classify_two,
    scattering_state,
    sync_distance_sq,
    sync_limits_two,
    z_exact,
)
from .potentials import cosine_potential
from .scenario import Scenario, load_scenario, parse_scenario, render_scenario
from .snapshots import read_snapshot, write_snapshot
from .solver import (
    SolverParams,
    Trajectory,
    evolve,
    propagate_linear,
    samples,
    stability_report,
    with_records,
)
from .verification import CHECK_NAMES, run_checks

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core
    "GridSpec",
    "WaveField",
    "EnsembleState",
    "ModelConfig",
    "inner_product",
    "gram_matrix",
    "order_parameter",
    "coupling_term",
    # correlations
    "CorrelationState",
    "MacroCorrelation",
    "CorrelationSeries",
    "full_rhs",
    "two_rhs",
    "macro_rhs",
    "integrate",
    "integrate_batch",
    "random_correlation_matrix",
    # solver
    "SolverParams",
    "Trajectory",
    "evolve",
    "samples",
    "with_records",
    "propagate_linear",
    "stability_report",
    # diagnostics
    "DiagnosticsRecord",
    "EnergyReport",
    "compute_record",
    "compute_records",
    "classify_sync",
    "classify_correlation_sync",
    "fit_rate",
    "fit_algebraic_limit",
    "detect_period",
    "interpolate_series",
    # oracles
    "classify_two",
    "classify_pair",
    "z_exact",
    "sync_limits_two",
    "sync_distance_sq",
    "classify_fixed_point",
    "scattering_state",
    # initial data and potentials
    "gaussian",
    "plane_waves",
    "gaussian_pair",
    "overlap_pair",
    "incoherent_pair",
    "perturbed_gaussians",
    "cosine_potential",
    # scenarios, snapshots, verification
    "Scenario",
    "parse_scenario",
    "load_scenario",
    "render_scenario",
    "read_snapshot",
    "write_snapshot",
    "CHECK_NAMES",
    "run_checks",
    # errors
    "LoheSyncError",
    "ConfigurationError",
    "GridMismatchError",
    "ContractViolationError",
    "UnsupportedRegimeError",
    "ExcludedInitialStateError",
    "SeriesTooShortError",
    "DivergenceError",
]
