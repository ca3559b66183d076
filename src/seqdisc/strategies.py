"""Closed-form and semianalytic costs for the FBM, UBM and LOL strategies.

FBM measures every copy at phi = theta, UBM at the single-copy Helstrom angle,
LOL re-optimizes the Helstrom angle adaptively after every copy.  All integer
thresholds are defined semantically as the smallest integer satisfying the
posterior/collective error condition, checked on the closed-form error
expressions rather than via floating-point ceilings of log-ratios.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .model import DiscriminationProblem, collective_error, helstrom_angle
from .posterior import _check_eps, meets_error_bound

__all__ = [
    "StrategyKind",
    "StrategySpec",
    "CostResult",
    "fbm_threshold",
    "fbm_cost",
    "ubm_boundary",
    "ubm_cost",
    "lol_cost",
    "lol_next_angle",
    "strategy_angle",
]


class StrategyKind(enum.Enum):
    FBM = "fbm"
    UBM = "ubm"
    LOL = "lol"
    FIXED_ANGLE = "fixed"


@dataclass(frozen=True)
class StrategySpec:
    """A strategy selector; phi is only meaningful for FIXED_ANGLE."""

    kind: StrategyKind
    phi: float | None = None

    def __post_init__(self):
        if self.kind is StrategyKind.FIXED_ANGLE and self.phi is None:
            raise ValueError("fixed-angle strategy requires an explicit phi")


def strategy_angle(problem: DiscriminationProblem, spec: StrategySpec) -> float:
    """The fixed measurement angle a non-adaptive strategy uses."""
    if spec.kind is StrategyKind.FBM:
        return problem.theta
    if spec.kind is StrategyKind.UBM:
        return helstrom_angle(problem)
    if spec.kind is StrategyKind.FIXED_ANGLE:
        return spec.phi
    raise ValueError("LOL is adaptive and has no fixed measurement angle")


@dataclass(frozen=True)
class CostResult:
    """Expected copy count with its enclosure.

    Closed forms, direct solves and runs that leave no mass are exact
    (residual_mass = 0, bound_width = 0); truncated numerical results carry
    the unterminated probability mass and a guaranteed enclosure width.
    """

    expected_copies: float
    residual_mass: float = 0.0
    bound_width: float = 0.0

    @property
    def exact(self) -> bool:
        """Whether no probability mass is left unterminated."""
        return self.residual_mass == 0.0


def _fbm_run_error(problem: DiscriminationProblem, n: int) -> float:
    """Posterior error after n consecutive outcome-1 results at phi = theta."""
    c = problem.overlap ** 2
    w = problem.q2 * c**n
    return w / (problem.q1 + w)


def fbm_threshold(problem: DiscriminationProblem, eps: float) -> int:
    """Smallest run length n_T of outcome-1 results after which guessing psi1 has error <= eps."""
    _check_eps(problem, eps)
    # closed-form starting guess, then exact adjustment on the error condition
    ratio = (math.log(problem.q1 * eps) - math.log(problem.q2 * (1.0 - eps))) / (
        2.0 * math.log(problem.overlap)
    )
    n = max(1, math.ceil(ratio) - 1)
    while not meets_error_bound(_fbm_run_error(problem, n), eps):
        n += 1
    while n > 1 and meets_error_bound(_fbm_run_error(problem, n - 1), eps):
        n -= 1
    return n


def fbm_cost(problem: DiscriminationProblem, eps: float) -> CostResult:
    """Exact expected copy count for the fully biased strategy (phi = theta)."""
    n_t = fbm_threshold(problem, eps)
    s2 = math.sin(2.0 * problem.theta) ** 2
    cost = problem.q1 * n_t + problem.q2 * (1.0 - problem.overlap ** (2 * n_t)) / s2
    return CostResult(expected_copies=cost)


def _ubm_error_at(problem: DiscriminationProblem, k: int) -> float:
    """Posterior error at walk coordinate |m1 - m2| = k under symmetric priors."""
    s = math.sin(2.0 * problem.theta)
    rho = (1.0 + s) / (1.0 - s)
    return 1.0 / (1.0 + rho**k)


def _require_symmetric(problem: DiscriminationProblem) -> None:
    if problem.q1 != problem.q2:
        raise ValueError("UBM closed form is only supported for q1 = q2 = 0.5; "
                         "use the generic fixed-angle engine for asymmetric priors")


def ubm_boundary(problem: DiscriminationProblem, eps: float) -> int:
    """Absorbing boundary K >= 1 of the unbiased strategy at symmetric priors.

    The count difference m1 - m2 performs a +-1 walk; absorption at |R| = K,
    the smallest integer where the posterior error drops to <= eps.
    """
    _require_symmetric(problem)
    _check_eps(problem, eps)
    k = 1
    while not meets_error_bound(_ubm_error_at(problem, k), eps):
        k += 1
    return k


def ubm_cost(problem: DiscriminationProblem, eps: float) -> CostResult:
    """Expected absorption time of the UBM walk, by direct linear solve.

    Solves E_i = 1 + p E_{i+1} + (1-p) E_{i-1} on i in (-K, K) with E_{+-K} = 0,
    where p = (1 + sin 2 theta) / 2 is the chance of a step up.  By prior
    symmetry the same value holds under either true state.
    """
    k = ubm_boundary(problem, eps)
    p = (1.0 + math.sin(2.0 * problem.theta)) / 2.0
    dim = 2 * k - 1  # interior states -K+1 .. K-1
    a = np.eye(dim) - p * np.eye(dim, k=1) - (1.0 - p) * np.eye(dim, k=-1)
    e = np.linalg.solve(a, np.ones(dim))
    return CostResult(expected_copies=float(e[k - 1]))


def lol_cost(problem: DiscriminationProblem, eps: float) -> int:
    """Deterministic copy count of the adaptive locally-optimal strategy.

    The LOL posterior error after k copies equals the k-copy collective bound
    regardless of the outcome history, so every run consumes exactly the
    smallest n with collective_error(n) <= eps.
    """
    _check_eps(problem, eps)
    if meets_error_bound(min(problem.q1, problem.q2), eps):
        return 0
    n = 1
    while not meets_error_bound(collective_error(problem, n), eps):
        n += 1
    return n


def lol_next_angle(problem: DiscriminationProblem, current_p1: float) -> float:
    """Helstrom angle for the current posterior belief (the LOL update rule)."""
    if not 0.0 < current_p1 < 1.0:
        raise ValueError(f"belief must lie strictly in (0, 1), got {current_p1}")
    return helstrom_angle(DiscriminationProblem(theta=problem.theta, q1=current_p1))
