"""Enumerate the stopping strings of each strategy and their exact errors.

A "string" is the full record of measurement outcomes up to the stopping
point.  The set of strings is prefix-free, their probabilities (plus any
enumeration residual) sum to one, and every string's true error sits at or
below the requested bound.
"""

import math

from seqdisc import (
    DiscriminationProblem,
    StrategyKind,
    StrategySpec,
    aggregate_by_length,
    enumerate_strings,
    optimize_angle,
)

problem = DiscriminationProblem(theta=math.pi / 12)
eps = 0.179


def show(title, spec, aggregate=False, top=12):
    strings, residual = enumerate_strings(problem, spec, eps)
    print(f"\n{title}  (residual mass {residual:.2e})")
    if aggregate:
        print(f"{'length':>7} {'P':>10} {'mean error':>11}")
        for agg in aggregate_by_length(strings):
            print(f"{agg.n:7d} {agg.total_prob:10.6f} {agg.mean_error:11.6f}")
        return
    print(f"{'string':>10} {'P':>10} {'error':>9}  guess")
    rows = zip(strings.labels[:top].astype(str).tolist(), strings.prob[:top].tolist(),
               strings.true_error[:top].tolist(), strings.guess[:top].tolist())
    for label, prob, error, guess in rows:
        print(f"{label:>10} {prob:10.6f} {error:9.6f}  {guess}")


show("fully biased (phi = theta)", StrategySpec(StrategyKind.FBM))
show("unbiased walk (phi = pi/4), grouped by length",
     StrategySpec(StrategyKind.UBM), aggregate=True)

phi_opt, result = optimize_angle(problem, eps, resolution=600)
print(f"\noptimized fixed angle: phi = {phi_opt:.6f}, "
      f"cost = {result.expected_copies:.6f}")
show("optimized fixed angle", StrategySpec(StrategyKind.FIXED_ANGLE, phi=phi_opt))
