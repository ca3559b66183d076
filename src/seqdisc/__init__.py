"""Sequential discrimination of two nonorthogonal qubit states with a guaranteed error bound.

Computes and simulates the average number of state copies needed to decide
between two pure qubit hypotheses with posterior error at most epsilon, for
fixed-angle strategies (fully biased, unbiased/Helstrom, globally optimal
fixed) and the adaptive locally optimal scheme.
"""

from .engine import EngineOptions, NonConvergenceError, fixed_angle_cost
from .model import DiscriminationProblem, collective_error, helstrom_angle, likelihoods
from .montecarlo import MonteCarloReport, run_trials
from .optimizer import AngleScan, optimize_angle, scan_angles
from .posterior import StoppingRule, meets_error_bound, posterior_from_counts
from .stringlab import LengthAggregate, StringSet, aggregate_by_length, enumerate_strings
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
    "EngineOptions", "NonConvergenceError", "fixed_angle_cost", "DiscriminationProblem",
    "collective_error", "helstrom_angle", "likelihoods", "MonteCarloReport", "run_trials",
    "AngleScan", "optimize_angle", "scan_angles", "StoppingRule", "meets_error_bound",
    "posterior_from_counts", "LengthAggregate", "StringSet", "aggregate_by_length",
    "enumerate_strings", "CostResult", "StrategyKind", "StrategySpec", "fbm_cost",
    "fbm_threshold", "lol_cost", "lol_next_angle", "strategy_angle", "ubm_boundary",
    "ubm_cost",
]

__version__ = "0.1.0"
