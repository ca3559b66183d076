"""Grid search for the globally optimal fixed measurement angle.

The cost landscape C(phi) has jump discontinuities wherever the set of
terminating strings changes, so gradient methods are unsound; the search is a
coarse uniform scan followed by recursive bracket refinement around the
incumbent.  Ties between grid points break toward smaller phi.

A scan is one batch of the engine: its grid points advance together through
one depth loop (engine.fixed_angle_costs).  A capped scan drops a point once a
lower bound on its cost exceeds the lowest of its cap and the costs of the
points that converged, so it finds the same best point, with the same result,
as an uncapped scan of the same grid whenever that point costs at most the
cap.  Every cap is a cost that has already converged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .engine import EngineOptions, NonConvergenceError, fixed_angle_cost, fixed_angle_costs
from .model import DiscriminationProblem, helstrom_angle
# fbm_cost and ubm_cost are unused here; the benchmark's tracer wraps them as names of this module
from .strategies import CostResult, fbm_cost, ubm_cost

__all__ = ["AngleScan", "scan_angles", "optimize_angle"]

# guard keeps the phi + theta = pi/2 infinity off the last grid point
_UPPER_GUARD = 1e-9
_DEFAULT_RESOLUTION = 2000
_REFINE_POINTS = 17
_ANGLE_RESOLUTION = 1e-6


@dataclass
class AngleScan:
    """Ordered grid of (phi, cost) samples with the best point found.

    Samples where the engine failed to converge are recorded with result None
    and the failure message in `failures`; they never become the best point.
    depth_iterations counts the depths the scan's depth loop ran and
    angle_steps the depths its grid points were advanced, summed over them.
    """

    samples: list[tuple[float, CostResult | None]]
    best_phi: float
    best_cost: float
    failures: dict[float, str] = field(default_factory=dict)
    depth_iterations: int = 0
    angle_steps: int = 0


def _scan_options(opts: EngineOptions | None) -> EngineOptions:
    # uninformative angles near phi = 0 absorb extremely slowly; cap the depth
    # so they fail fast and are recorded as failures instead of stalling
    return opts or EngineOptions(max_copies=20_000)


def scan_angles(
    problem: DiscriminationProblem,
    eps: float,
    phi_min: float,
    phi_max: float,
    resolution: int,
    opts: EngineOptions | None = None,
    initial_cap: float | None = None,
) -> AngleScan:
    """Evaluate the fixed-angle cost on a uniform grid inclusive of both endpoints.

    With initial_cap None the scan is uncapped.  With a number (inf included),
    a grid point is abandoned (and recorded as a failure) once its cost
    provably exceeds initial_cap or the cost of a point that already
    converged; this only makes sense when the caller wants the minimum, not
    the whole curve.  The best point and its result are those of the uncapped
    scan whenever its best cost is at most initial_cap.  Invalid inputs raise
    ValueError before any point is run.
    """
    if not 0.0 <= phi_min < phi_max < math.pi / 2:
        raise ValueError(f"need 0 <= phi_min < phi_max < pi/2, got [{phi_min}, {phi_max}]")
    if resolution < 2:
        raise ValueError(f"resolution must be >= 2, got {resolution}")
    step = (phi_max - phi_min) / (resolution - 1)
    phis = [phi_min + i * step for i in range(resolution)]
    batch = fixed_angle_costs(problem, phis, eps, _scan_options(opts), cost_cap=initial_cap)
    samples: list[tuple[float, CostResult | None]] = []
    failures: dict[float, str] = {}
    best_phi = math.nan
    best_cost = math.inf
    for phi, outcome in zip(phis, batch.outcomes):
        if isinstance(outcome, Exception):
            samples.append((phi, None))
            failures[phi] = str(outcome)
            continue
        samples.append((phi, outcome))
        if outcome.expected_copies < best_cost:  # strict: ties keep the smaller phi
            best_cost = outcome.expected_copies
            best_phi = phi
    if not math.isfinite(best_cost):
        raise NonConvergenceError("no grid point converged over the scan range")
    return AngleScan(samples=samples, best_phi=best_phi, best_cost=best_cost, failures=failures,
                     depth_iterations=batch.depth_iterations, angle_steps=batch.angle_steps)


def optimize_angle(
    problem: DiscriminationProblem,
    eps: float,
    resolution: int = _DEFAULT_RESOLUTION,
    opts: EngineOptions | None = None,
) -> tuple[float, CostResult]:
    """Globally optimal fixed angle, up to grid resolution.

    The anchors, the FBM angle phi = theta and the Helstrom angle, are
    evaluated first.  Then a coarse uniform scan over [0, pi/2), capped by
    the lower anchor cost (or by its own running minimum alone if neither
    anchor converges), and recursive refinement of the bracket one coarse cell
    to each side of the incumbent, down to an angle resolution of 1e-6 rad.
    A grid point wins a tie with an anchor.  The refined optimum never exceeds
    the coarse one.  Each refinement round is capped by the incumbent's cost;
    since the caps are sound, the result is that of the same search with
    every scan uncapped.  NonConvergenceError is raised only if neither an
    anchor nor a coarse grid point converges.
    """
    opts = _scan_options(opts)
    lo, hi = 0.0, math.pi / 2 - _UPPER_GUARD
    # the reference angles are always candidates, so a coarse grid can never
    # return something worse than either of them
    best_phi, best_cost, best_result = math.nan, math.inf, None
    for anchor in (problem.theta, helstrom_angle(problem)):
        if not 0.0 < anchor < hi:
            continue
        try:
            result = fixed_angle_cost(problem, anchor, eps, opts)
        except (NonConvergenceError, ValueError):
            continue
        if result.expected_copies < best_cost:
            best_phi, best_cost, best_result = anchor, result.expected_copies, result
    try:
        scan = scan_angles(problem, eps, lo, hi, resolution, opts, initial_cap=best_cost)
    except NonConvergenceError:
        if best_result is None:
            raise
        # no grid point costs the anchor's cost or less: the anchor stays
    else:
        if scan.best_cost <= best_cost:
            best_phi, best_cost = scan.best_phi, scan.best_cost
            best_result = next(r for p, r in scan.samples if p == best_phi)
    cell = (hi - lo) / (resolution - 1)
    while cell > _ANGLE_RESOLUTION:
        lo = max(0.0, best_phi - cell)
        hi = min(math.pi / 2 - _UPPER_GUARD, best_phi + cell)
        cell = (hi - lo) / (_REFINE_POINTS - 1)
        try:
            scan = scan_angles(problem, eps, lo, hi, _REFINE_POINTS, opts, initial_cap=best_cost)
        except NonConvergenceError:
            continue  # keep the incumbent; no point of the bracket converged at or below it
        if scan.best_cost < best_cost:
            best_phi, best_cost = scan.best_phi, scan.best_cost
            best_result = next(r for p, r in scan.samples if p == scan.best_phi)
    # For symmetric priors the landscape is exactly mirror-symmetric about
    # pi/4 (relabeling the outcomes maps phi to pi/2 - phi), so the two mirror
    # minima are a mathematical tie that grid rounding breaks arbitrarily.
    # Apply the smaller-phi tie-break across the mirror explicitly.
    if problem.q1 == problem.q2 and best_phi > math.pi / 4:
        mirror = math.pi / 2 - best_phi
        try:
            mirror_result = fixed_angle_cost(problem, mirror, eps, opts)
        except (NonConvergenceError, ValueError):
            mirror_result = None
        if mirror_result is not None:
            slack = best_result.bound_width + mirror_result.bound_width + 1e-9
            if mirror_result.expected_copies <= best_cost + slack:
                return mirror, mirror_result
    return best_phi, best_result
