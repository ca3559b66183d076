"""Reference computations the tests check the library against, which the library never runs.

brute_force_cost walks every outcome string instead of the count lattice and
stops each one through the library's StoppingRule: the independent oracle
for the DP engine at validation scale.  cost_from_strings sums the cost of an
enumerated string set, and empirical_string_errors reads the per-string
errors off a Monte Carlo report.
"""

from __future__ import annotations

import math

from seqdisc import CostResult, DiscriminationProblem, MonteCarloReport, StoppingRule, StringSet
from seqdisc.engine import _tail

_BRUTE_FORCE_DEPTH_LIMIT = 30


def brute_force_cost(
    problem: DiscriminationProblem,
    phi: float,
    eps: float,
    max_depth: int,
) -> CostResult:
    """Exhaustive outcome-tree enumeration with prefix termination (the oracle).

    Walks every outcome string depth-first, terminating each branch the first
    time the posterior error reaches eps.  Exponential in max_depth; intended
    for validation only (max_depth <= 30).
    """
    rule = StoppingRule(problem, phi, eps)
    if max_depth < 1 or max_depth > _BRUTE_FORCE_DEPTH_LIMIT:
        raise ValueError(f"max_depth must lie in [1, {_BRUTE_FORCE_DEPTH_LIMIT}], got {max_depth}")
    p11, p21, p12, p22 = rule.likelihoods.tolist()
    q1, q2 = problem.q1, problem.q2

    cost_accum = 0.0
    residual = 0.0
    # stack of (m1, m2, path prob | psi1, path prob | psi2)
    stack = [(0, 0, 1.0, 1.0)]
    while stack:
        m1, m2, pg1, pg2 = stack.pop()
        n = m1 + m2
        for k1, k2, p1, p2 in ((m1 + 1, m2, p11, p12), (m1, m2 + 1, p21, p22)):
            c1 = pg1 * p1
            c2 = pg2 * p2
            if c1 == 0.0 and c2 == 0.0:
                continue
            weight = q1 * c1 + q2 * c2
            if rule.stops(k1, k2):
                cost_accum += (n + 1) * weight
            elif n + 1 >= max_depth:
                residual += weight
            else:
                stack.append((k1, k2, c1, c2))
    if residual == 0.0:
        return CostResult(expected_copies=cost_accum)
    return CostResult(
        expected_copies=cost_accum,
        residual_mass=residual,
        bound_width=residual * (max_depth + float(_tail(rule, eps))),
    )


def cost_from_strings(
    strings: StringSet,
    residual: float,
    max_depth: int,
    tail_bound: float = math.inf,
) -> CostResult:
    """Expected copies from an enumerated string set: sum of n * P(X_n).

    The residual (unemitted) mass widens the enclosure by residual *
    (max_depth + tail_bound), where tail_bound bounds the expected copies
    still needed from any state that has not stopped, since unemitted
    strings can run past max_depth.  The default, inf, keeps the enclosure
    rigorous without one: its bound_width is inf whenever residual > 0.  A
    finite bound is the engine's Wald bound
    float(engine._tail(StoppingRule(problem, phi, eps), eps)).
    """
    cost = sum((strings.n * strings.prob).tolist(), 0.0)
    if residual <= 0.0:
        return CostResult(expected_copies=cost)
    return CostResult(
        expected_copies=cost,
        residual_mass=residual,
        bound_width=residual * (max_depth + tail_bound),
    )


def empirical_string_errors(report: MonteCarloReport) -> list[tuple[str, float, float]]:
    """Per-string (label, observed conditional error, observed probability).

    Sorted by descending observed probability, then lexicographically, matching
    the enumeration order of the string laboratory.
    """
    rows = []
    for label, (count, err_count) in report.per_string.items():
        if count == 0:
            continue
        rows.append((label, err_count / count, count / report.trials))
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows
