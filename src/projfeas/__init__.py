"""projfeas: projection and reflection methods for two-set feasibility,
with numerically estimated regularity constants and rate certification."""

from .config import ConfigError, ExperimentConfig, load_config, parse_config, serialize_config
from .driver import IterationTrace, ProbeResult, RateFit, fit_rate, iterate, probe_fixed_points
from .linalg import orthonormalize
from .operators import (
    AlternatingProjections,
    DouglasRachford,
    check_step_energy_identity,
    dr_two_forms_agree,
)
from .regularity import (
    RegularityReport,
    Region,
    check_strong_regularity,
    estimate_c,
    estimate_kappa,
    estimate_pair_regularity,
    estimate_subregularity,
    friedrichs_cosine,
    predicted_rates,
    verify_coercivity,
)
from .runner import run_experiment, run_suite, subspace_iff_sweep
from .sets import (
    AffineSubspace,
    Ball,
    KinkedRegion,
    ProjectionOutcome,
    Sphere,
    UnionOfSubspaces,
)
from .solution import SolutionSet, point_set_solution, singleton_solution, subspace_pair_solution

__version__ = "0.1.0"

__all__ = [
    "AffineSubspace",
    "AlternatingProjections",
    "Ball",
    "ConfigError",
    "DouglasRachford",
    "ExperimentConfig",
    "IterationTrace",
    "KinkedRegion",
    "ProbeResult",
    "ProjectionOutcome",
    "RateFit",
    "RegularityReport",
    "Region",
    "SolutionSet",
    "Sphere",
    "UnionOfSubspaces",
    "check_step_energy_identity",
    "check_strong_regularity",
    "dr_two_forms_agree",
    "estimate_c",
    "estimate_kappa",
    "estimate_pair_regularity",
    "estimate_subregularity",
    "fit_rate",
    "friedrichs_cosine",
    "iterate",
    "load_config",
    "orthonormalize",
    "parse_config",
    "point_set_solution",
    "predicted_rates",
    "probe_fixed_points",
    "run_experiment",
    "run_suite",
    "serialize_config",
    "singleton_solution",
    "subspace_iff_sweep",
    "subspace_pair_solution",
    "verify_coercivity",
]
