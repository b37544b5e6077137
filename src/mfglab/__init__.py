"""Solvers and long-horizon experiments for deterministic first-order
mean field games with non-monotone coupling costs.

Static equilibria by damped best response, ergodic triples by Dirichlet
eikonal sweeping, finite-horizon games by a backward semi-Lagrangian HJB /
forward particle-transport fixed point, and a horizon sweep measuring the
long-time collapse onto the minimizing set.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DomainEscapeError,
    InvalidMeasureError,
    MfgError,
    SizeCapError,
    SolverError,
    StaticResidualError,
)
from .grid_geometry import NodeSet, SpatialGrid, distance_to_box, distance_to_set
from .measures import (
    DiscreteMeasure,
    MeasurePath,
    mix,
    mix_paths,
    sample_from_density,
    support_distance,
    wasserstein1,
    wasserstein1_capped,
)
from .cost_models import (
    BUILTIN_MODELS,
    CostFunctional,
    build_model,
    default_eps_min,
    gamma_estimate,
    slice_stats,
    validate_assumptions,
)
from .static_game import (
    StaticSolveResult,
    best_response,
    constant_damping,
    harmonic_damping,
    residual,
    solve_static,
)
from .eikonal_ergodic import (
    ErgodicTriple,
    build_ergodic_triple,
    continuity_residual,
    solve_eikonal,
)
from .finite_horizon import (
    MfgEquilibrium,
    MfgParams,
    TrajectoryStats,
    ValueField,
    a_priori_report,
    control_lattice,
    occupational_fractions,
    solve_hjb_backward,
    solve_mfg,
    transport_forward,
)
from .asymptotics import (
    SweepParams,
    SweepRecord,
    bounded_ratio,
    nonincreasing_with_slack,
    run_sweep,
    semilimit_surrogates,
    singleton_limit_check,
    stable_within,
    sweep_verdict,
)

__all__ = [
    "__version__",
    "BUILTIN_MODELS",
    "ConfigError",
    "CostFunctional",
    "DiscreteMeasure",
    "DomainEscapeError",
    "ErgodicTriple",
    "InvalidMeasureError",
    "MeasurePath",
    "MfgEquilibrium",
    "MfgError",
    "MfgParams",
    "NodeSet",
    "SizeCapError",
    "SolverError",
    "SpatialGrid",
    "StaticResidualError",
    "StaticSolveResult",
    "SweepParams",
    "SweepRecord",
    "TrajectoryStats",
    "ValueField",
    "a_priori_report",
    "best_response",
    "bounded_ratio",
    "build_ergodic_triple",
    "build_model",
    "constant_damping",
    "continuity_residual",
    "control_lattice",
    "default_eps_min",
    "distance_to_box",
    "distance_to_set",
    "gamma_estimate",
    "harmonic_damping",
    "mix",
    "mix_paths",
    "nonincreasing_with_slack",
    "occupational_fractions",
    "residual",
    "run_sweep",
    "sample_from_density",
    "semilimit_surrogates",
    "singleton_limit_check",
    "slice_stats",
    "solve_eikonal",
    "solve_hjb_backward",
    "solve_mfg",
    "solve_static",
    "stable_within",
    "support_distance",
    "sweep_verdict",
    "transport_forward",
    "validate_assumptions",
    "wasserstein1",
    "wasserstein1_capped",
]
