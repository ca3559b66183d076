"""Sweep the measurement angle and watch the expected copy count respond.

The cost curve C(phi) has a staircase structure: it jumps wherever the set of
stopping strings changes, and its global minimum generally sits at neither of
the two textbook angles (phi = theta, the fully biased choice, nor
phi = pi/4, the unbiased/Helstrom choice for equal priors).
"""

import math

from seqdisc import CostResult, DiscriminationProblem, fixed_angle_cost, scan_angles

problem = DiscriminationProblem(theta=math.pi / 8)
eps = 0.125

scan = scan_angles(problem, eps, 0.05, math.pi / 2 - 1e-9, 60)

print(f"theta = pi/8, eps = {eps}")
print(f"{'phi':>8}  {'expected copies':>16}")
for phi, result in scan.samples:
    if isinstance(result, CostResult):
        bar = "#" * int(round(4 * result.expected_copies))
        print(f"{phi:8.4f}  {result.expected_copies:16.6f}  {bar}")
    else:
        print(f"{phi:8.4f}  {'(no convergence)':>16}")

at_theta = fixed_angle_cost(problem, problem.theta, eps)
at_quarter = fixed_angle_cost(problem, math.pi / 4, eps)
print()
print(f"cost at phi = theta : {at_theta.expected_copies:.6f}")
print(f"cost at phi = pi/4  : {at_quarter.expected_copies:.6f}")
print(f"best grid point     : {scan.best_cost:.6f} at phi = {scan.best_phi:.6f}")
