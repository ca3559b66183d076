"""Bayesian posterior updates from outcome counts, and log-likelihood-ratio steps.

Posteriors are always recomputed from the integer outcome counts via the
closed form, never accumulated multiplicatively, so long runs carry no
floating-point drift and absorption decisions are order-independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DiscriminationProblem, MeasurementConfig

__all__ = [
    "PosteriorState",
    "LikelihoodSteps",
    "posterior_from_counts",
    "posterior_error",
    "log_likelihood_steps",
    "meets_error_bound",
    "VerdictTable",
    "BOUNDARY_TOL",
]

# Stopping comparisons are inclusive (error <= eps).  Several anchor cases
# land exactly on the boundary (e.g. a posterior error of exactly 0.1 against
# eps = 0.1) where float rounding of the trig closed forms can tip the
# comparison the wrong way, so the inequality absorbs a 1e-12 slack.
BOUNDARY_TOL = 1e-12


def meets_error_bound(error: float, eps: float) -> bool:
    """Inclusive stopping test: error <= eps, tolerant to boundary rounding."""
    return error <= eps + BOUNDARY_TOL


@dataclass(frozen=True)
class PosteriorState:
    """Posterior probability of psi1 together with the outcome counts behind it."""

    p1: float
    m1: int
    m2: int

    @property
    def n(self) -> int:
        return self.m1 + self.m2

    @property
    def count_difference(self) -> int:
        """m1 - m2, the walk coordinate for symmetric fixed-angle strategies."""
        return self.m1 - self.m2


@dataclass(frozen=True)
class LikelihoodSteps:
    """Log-likelihood-ratio increments ln[P(d|psi1)/P(d|psi2)] per outcome.

    step1 >= 0 and step2 <= 0 for angles in range; degenerate angles give
    signed infinities (phi = theta makes outcome 2 impossible under psi1,
    phi + theta = pi/2 makes outcome 1 impossible under psi2).
    """

    step1: float
    step2: float


def _log_ratio(num: float, den: float) -> float:
    """ln(num/den) with exact-zero handling; nan if both are zero."""
    if num == 0.0 and den == 0.0:
        return math.nan
    if num == 0.0:
        return -math.inf
    if den == 0.0:
        return math.inf
    return math.log(num / den)


def posterior_from_counts(
    problem: DiscriminationProblem,
    config: MeasurementConfig,
    m1: int,
    m2: int,
) -> PosteriorState:
    """Exact Bayesian posterior of psi1 after m1 outcome-1 and m2 outcome-2 results.

    Computed in log-odds space; a zero-likelihood outcome drives the posterior
    to exactly 0 or 1.  Raises if an observed outcome is impossible under both
    hypotheses (undefined evidence).
    """
    if m1 < 0 or m2 < 0:
        raise ValueError(f"counts must be >= 0, got m1={m1}, m2={m2}")
    # log-odds of psi2 vs psi1; d1 <= 0, d2 >= 0
    d1 = _log_ratio(config.p1_given_psi2, config.p1_given_psi1)
    d2 = _log_ratio(config.p2_given_psi2, config.p2_given_psi1)
    logit = math.log(problem.q2 / problem.q1)
    for count, step, d in ((m1, d1, 1), (m2, d2, 2)):
        if count > 0:
            if math.isnan(step):
                raise ValueError(
                    f"outcome {d} has zero probability under both hypotheses at phi={config.phi}"
                )
            if math.isinf(step):
                if math.isinf(logit) and (step > 0) != (logit > 0):
                    raise ValueError("contradictory zero-likelihood evidence")
                logit = step
            else:
                logit += count * step
    if logit == math.inf:
        p1 = 0.0
    elif logit == -math.inf:
        p1 = 1.0
    elif logit > 700.0:
        p1 = 0.0
    elif logit < -700.0:
        p1 = 1.0
    else:
        p1 = 1.0 / (1.0 + math.exp(logit))
    return PosteriorState(p1=p1, m1=m1, m2=m2)


def posterior_error(state: PosteriorState) -> float:
    """Error probability of guessing the more probable hypothesis: min(p1, 1-p1)."""
    return min(state.p1, 1.0 - state.p1)


class VerdictTable:
    """Stopping verdict of every count state (m1, m2) of one (problem, angle, eps).

    The verdict depends on the counts alone, not on the order of the outcomes.
    States are stored depth by depth, n = m1 + m2, each row indexed by m1, in
    flat triangular arrays: `guess` is 0 where the state continues, else the
    hypothesis guessed on stopping (1 or 2); `error` is that guess's true error.
    Rows are filled by `reach` only as deep as a caller asks, from `posterior`
    (posterior_from_counts unless a caller passes an instrumented copy),
    posterior_error and meets_error_bound.  Depth 0, before any copy, never stops.
    """

    def __init__(
        self,
        problem: DiscriminationProblem,
        config: MeasurementConfig,
        eps: float,
        posterior=posterior_from_counts,
    ):
        self._problem = problem
        self._config = config
        self._eps = eps
        self._posterior = posterior
        self.depth = 0
        self.guess = np.zeros(1, dtype=np.int8)
        self.error = np.zeros(1)

    def verdict(self, m1: int, m2: int) -> tuple[int, float]:
        """(guess, true error) of one state; guess 0 means the state continues."""
        state = self._posterior(self._problem, self._config, m1, m2)
        if not meets_error_bound(posterior_error(state), self._eps):
            return 0, 0.0
        if state.p1 >= 0.5:
            return 1, 1.0 - state.p1
        return 2, state.p1

    def reach(self, depth: int) -> None:
        """Fill every row up to `depth`."""
        if depth <= self.depth:
            return
        size = self.index(depth + 1, 0)
        if size > len(self.guess):
            # capacity doubles, so filling depth by depth stays linear in the table size
            capacity = max(size, 2 * len(self.guess))
            self.guess = np.concatenate((self.guess, np.zeros(capacity - len(self.guess), np.int8)))
            self.error = np.concatenate((self.error, np.zeros(capacity - len(self.error))))
        verdict = self.verdict
        for n in range(self.depth + 1, depth + 1):
            start = self.index(n, 0)
            for m1 in range(n + 1):
                self.guess[start + m1], self.error[start + m1] = verdict(m1, n - m1)
        self.depth = depth

    @staticmethod
    def index(n, m1):
        """Flat index of the state (m1, n - m1); works elementwise on arrays."""
        return n * (n + 1) // 2 + m1

    def row(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """(guess, error) of the states at depth n, indexed by m1; fills up to n."""
        self.reach(n)
        start = self.index(n, 0)
        return self.guess[start:start + n + 1], self.error[start:start + n + 1]


def log_likelihood_steps(problem: DiscriminationProblem, phi: float) -> LikelihoodSteps:
    """Per-outcome log-likelihood-ratio increments for a fixed measurement angle."""
    config = MeasurementConfig.for_problem(problem, phi)
    return LikelihoodSteps(
        step1=_log_ratio(config.p1_given_psi1, config.p1_given_psi2),
        step2=_log_ratio(config.p2_given_psi1, config.p2_given_psi2),
    )
