"""Sequential discrimination of two nonorthogonal qubit states with a guaranteed error bound.

Computes and simulates the average number of state copies needed to decide
between two pure qubit hypotheses with posterior error at most epsilon, for
fixed-angle strategies (fully biased, unbiased/Helstrom, globally optimal
fixed) and the adaptive locally optimal scheme.
"""

from .engine import EngineOptions, NonConvergenceError, brute_force_cost, fixed_angle_cost
from .model import (
    DiscriminationProblem,
    collective_error,
    helstrom_angle,
    helstrom_error,
    likelihoods,
)
from .montecarlo import MonteCarloReport, empirical_string_errors, run_trials
from .optimizer import AngleScan, optimize_angle, scan_angles
from .posterior import (
    PosteriorState,
    StoppingRule,
    meets_error_bound,
    posterior_error,
    posterior_from_counts,
)
from .stringlab import (
    LengthAggregate,
    StringSet,
    aggregate_by_length,
    cost_from_strings,
    enumerate_strings,
)
from .strategies import (
    CostResult,
    StrategyKind,
    StrategySpec,
    fbm_cost,
    fbm_threshold,
    lol_cost,
    lol_next_angle,
    strategy_angle,
    ubm_boundary,
    ubm_cost,
)

__all__ = [
    "EngineOptions", "NonConvergenceError", "brute_force_cost", "fixed_angle_cost",
    "DiscriminationProblem", "collective_error", "helstrom_angle", "helstrom_error",
    "likelihoods", "MonteCarloReport", "empirical_string_errors", "run_trials", "AngleScan",
    "optimize_angle", "scan_angles", "PosteriorState", "StoppingRule", "meets_error_bound",
    "posterior_error", "posterior_from_counts", "LengthAggregate", "StringSet",
    "aggregate_by_length", "cost_from_strings", "enumerate_strings", "CostResult",
    "StrategyKind", "StrategySpec", "fbm_cost", "fbm_threshold", "lol_cost",
    "lol_next_angle", "strategy_angle", "ubm_boundary", "ubm_cost",
]

__version__ = "0.1.0"
