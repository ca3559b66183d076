"""Expected stopping time of any fixed-angle strategy under the Bayesian stopping rule.

The dynamic program propagates unterminated probability mass over the integer
count lattice (m1, m2), depth by depth, under each hypothesis separately.  The
termination predicate is a function of the counts alone, so states reached by
different outcome orderings merge exactly; mass that stops is removed from the
frontier immediately, which enforces prefix termination automatically.  At a
fixed depth the log-odds are affine in m1, so the states that continue form one
m1 interval (the continuation region of Wald's sequential probability ratio
test), and the frontier is stored as that interval alone.

A brute-force outcome-tree enumeration with identical semantics serves as the
independent correctness oracle at validation scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DiscriminationProblem, MeasurementConfig
from .posterior import BOUNDARY_TOL, log_likelihood_steps, posterior_from_counts, posterior_error
from .strategies import CostResult

__all__ = [
    "EngineOptions",
    "NonConvergenceError",
    "CostCapExceeded",
    "fixed_angle_cost",
    "brute_force_cost",
    "worst_case_tail",
]

_BRUTE_FORCE_DEPTH_LIMIT = 30
# frontier states carrying less than this fraction of the live mass are dropped
# (tracked as leaked mass, so conservation accounting stays honest)
_WINDOW_CUT = 1e-40


class NonConvergenceError(RuntimeError):
    """The frontier did not drain below the mass tolerance within the depth budget."""


class CostCapExceeded(RuntimeError):
    """The running lower bound on the cost exceeded the caller's cap."""


@dataclass(frozen=True)
class EngineOptions:
    max_copies: int = 100_000
    mass_tolerance: float = 1e-12
    mode: str = "dp_lattice"  # or "brute_force_tree"
    # largest acceptable enclosure width before truncation is reported as failure
    bound_width_limit: float = 1e-6

    def __post_init__(self):
        if self.max_copies < 1:
            raise ValueError(f"max_copies must be >= 1, got {self.max_copies}")
        if not 0.0 < self.mass_tolerance < 1.0:
            raise ValueError(f"mass_tolerance must lie in (0, 1), got {self.mass_tolerance}")
        if self.mode not in ("dp_lattice", "brute_force_tree"):
            raise ValueError(f"unknown engine mode {self.mode!r}")


def _check_inputs(problem: DiscriminationProblem, phi: float, eps: float) -> None:
    if not 0.0 <= phi < math.pi / 2:
        raise ValueError(f"measurement angle must lie in [0, pi/2), got {phi}")
    if not 0.0 < eps < min(problem.q1, problem.q2):
        raise ValueError(
            f"error bound must lie in (0, min(q1, q2)), got {eps}"
        )


def worst_case_tail(problem: DiscriminationProblem, phi: float, eps: float) -> float:
    """Conservative bound on the expected copies still needed from any unterminated state.

    Uses Wald's identity on the log-odds walk: the continuation region has
    half-width ln(1/eps - 1), and the walk drifts toward the confirming
    boundary under either hypothesis.  An infinite step (zero likelihood for
    one outcome) absorbs geometrically at the rate of that outcome.  Returns
    inf when the measurement carries no information (phi = 0 limit).
    """
    config = MeasurementConfig.for_problem(problem, phi)
    steps = log_likelihood_steps(problem, phi)
    l_bound = math.log(1.0 / eps - 1.0)
    finite = [abs(s) for s in (steps.step1, steps.step2) if math.isfinite(s)]
    spread = sum(finite)
    tails = []
    for likelihoods in ((config.p1_given_psi1, config.p2_given_psi1),
                        (config.p1_given_psi2, config.p2_given_psi2)):
        geometric = math.inf
        drift = 0.0
        for p, s in zip(likelihoods, (steps.step1, steps.step2)):
            if p == 0.0:
                continue
            if math.isinf(s):
                geometric = min(geometric, 1.0 / p)
            else:
                drift += p * s
        wald = (2.0 * l_bound + spread) / abs(drift) if drift != 0.0 else math.inf
        tails.append(min(wald, geometric))
    return max(tails)


class _StopRule:
    """The stopping predicate of one (problem, phi, eps) over count states (m1, m2).

    A state stops once its posterior error is at most eps + BOUNDARY_TOL.  The
    log-odds of psi2 vs psi1 are logit0 + m1*d1 + m2*d2, an infinite increment
    overriding the sum once its outcome occurs.  The error is evaluated with
    numpy's exp, whose last bit can differ from math.exp, and in the operation
    order of the vectorized form of this predicate in tests/test_engine.py, so
    states on the boundary decide exactly as there.
    """

    def __init__(self, problem: DiscriminationProblem, phi: float, eps: float):
        steps = log_likelihood_steps(problem, phi)
        self.logit0 = math.log(problem.q2 / problem.q1)
        self.d1, self.d2 = -steps.step1, -steps.step2  # d1 <= 0 <= d2
        self.bound = eps + BOUNDARY_TOL
        # continuing states satisfy |logit| < threshold (up to rounding)
        self.threshold = math.log(1.0 / self.bound - 1.0)
        # at fixed depth n, logit = logit0 + n*d2 - m1*rate
        self.rate = self.d2 - self.d1

    def stops(self, m1: int, m2: int) -> bool:
        logit = self.logit0
        for m, d in ((m1, self.d1), (m2, self.d2)):
            if math.isinf(d):
                if m > 0:
                    logit = d
            else:
                logit = logit + m * d
        return self._error_within_bound(abs(logit))

    def _error_within_bound(self, abs_logit: float) -> bool:
        if abs_logit > 700.0:
            return True  # the error underflows to 0
        return 1.0 / (1.0 + np.exp(min(abs_logit, 700.0))) <= self.bound

    def can_stop_within(self, max_copies: int) -> bool:
        """False only if no state with m1 + m2 <= max_copies stops.

        The log-odds are affine in (m1, m2), so their modulus over the count
        triangle peaks at a corner.  The peak is raised by a relative margin far
        above the rounding of the log-odds sum at any state of the triangle.
        """
        d1, d2, logit0 = self.d1, self.d2, self.logit0
        corners = (logit0, logit0 + max_copies * d1, logit0 + max_copies * d2)
        scale = abs(logit0) + max_copies * max(abs(d1), abs(d2))
        return self._error_within_bound(max(abs(x) for x in corners) + 1e-9 * scale)

    def continuation(self, n: int, wlo: int, whi: int) -> tuple[int, int]:
        """The run [lo, hi] of m1 in [wlo, whi] whose states at depth n do not stop.

        Empty runs come back as hi = lo - 1.  The closed-form ends, widened by
        one state, contain the run; the exact predicate then fixes each end.
        """
        if math.isinf(self.d2):
            wlo = max(wlo, n)  # any outcome 2 stops
        if math.isinf(self.d1):
            whi = min(whi, 0)  # any outcome 1 stops
        lo, hi = wlo, whi
        rate = self.rate
        if math.isfinite(rate) and rate > 0.0:
            centre = self.logit0 + n * self.d2
            x = (centre - self.threshold) / rate
            y = (centre + self.threshold) / rate
            if x > wlo:
                lo = whi + 1 if x >= whi + 1 else math.floor(x)
            if y < whi:
                hi = wlo - 1 if y <= wlo - 1 else math.ceil(y)
        stops = self.stops
        start = lo
        while lo <= hi and stops(lo, n - lo):
            lo += 1
        if lo > hi:
            return lo, lo - 1
        if lo == start:
            while lo > wlo and not stops(lo - 1, n - lo + 1):
                lo -= 1
        end = hi
        while stops(hi, n - hi):
            hi -= 1
        if hi == end:
            while hi < whi and not stops(hi + 1, n - hi - 1):
                hi += 1
        return lo, hi


def fixed_angle_cost(
    problem: DiscriminationProblem,
    phi: float,
    eps: float,
    opts: EngineOptions | None = None,
    on_depth=None,
    cost_cap: float | None = None,
) -> CostResult:
    """Expected copies until the posterior error reaches eps, at a fixed angle.

    Marginalized over the true state with the problem's priors.  Stopping is
    checked after every copy; a terminated prefix is never extended.  The
    returned enclosure is [expected_copies, expected_copies + bound_width].

    on_depth, if given, is called as on_depth(n, terminated_mass, frontier_mass)
    after each depth (test instrumentation).  cost_cap, if given, raises
    CostCapExceeded as soon as the running lower bound on the final cost
    exceeds it (the angle optimizer uses this to abandon hopeless angles).
    An angle at which no outcome string can stop within opts.max_copies copies
    raises NonConvergenceError before the first copy.
    """
    opts = opts or EngineOptions()
    if opts.mode == "brute_force_tree":
        return brute_force_cost(problem, phi, eps, min(opts.max_copies, _BRUTE_FORCE_DEPTH_LIMIT))
    _check_inputs(problem, phi, eps)

    config = MeasurementConfig.for_problem(problem, phi)
    rule = _StopRule(problem, phi, eps)
    # if nothing can stop, the loop would end with the whole unit mass as
    # residual, so whether it would raise is already known
    if (not rule.can_stop_within(opts.max_copies)
            and opts.max_copies + worst_case_tail(problem, phi, eps) > opts.bound_width_limit):
        raise NonConvergenceError(
            f"no outcome string can stop within {opts.max_copies} copies at phi={phi}"
        )
    q1, q2 = problem.q1, problem.q2
    a1, a2 = config.p1_given_psi1, config.p1_given_psi2  # P(outcome 1 | psi_j)
    # one copy moves mass from m1 to m1 + 1 with probability a: correlating
    # with (a, 1 - a) is the convolution with (1 - a, a)
    kernel1 = np.array([a1, 1.0 - a1])
    kernel2 = np.array([a2, 1.0 - a2])

    # frontier mass over a sliding window of m1 values [base, base + len),
    # at the current depth n (so m2 = n - m1); at fixed depth the states that
    # continue form one m1 interval, so the frontier is a slice of the window
    mass1 = np.array([1.0])
    mass2 = np.array([1.0])
    base = 0
    cost_accum = 0.0
    terminated = 0.0
    leaked = 0.0  # mass dropped with the window trim, counted into the residual
    n = 0
    while n < opts.max_copies:
        n += 1
        new1 = np.correlate(mass1, kernel1, "full")
        new2 = np.correlate(mass2, kernel2, "full")
        weight = q1 * new1 + q2 * new2
        lo, hi = rule.continuation(n, base, base + len(weight) - 1)
        i0, i1 = lo - base, hi + 1 - base
        # the stopped states in index order, summed as one array
        if i1 == len(weight):
            stopped = weight[:i0]
        elif i0 == 0:
            stopped = weight[i1:]
        else:
            stopped = np.concatenate((weight[:i0], weight[i1:]))
        stopped_now = float(stopped.sum())
        cost_accum += n * stopped_now
        terminated += stopped_now
        mass1, mass2, live = new1[i0:i1], new2[i0:i1], weight[i0:i1]
        base += i0
        frontier = float(live.sum())
        if on_depth is not None:
            on_depth(n, terminated, frontier + leaked)
        if frontier + leaked <= opts.mass_tolerance:
            break
        if cost_cap is not None and cost_accum + (frontier + leaked) * (n + 1) > cost_cap:
            raise CostCapExceeded(
                f"cost lower bound exceeds cap {cost_cap} at depth {n} for phi={phi}"
            )
        # trim the window to states carrying non-negligible mass
        cut = frontier * _WINDOW_CUT
        if len(live) and live[0] > cut and live[-1] > cut:
            continue  # both ends are kept, so nothing is trimmed
        keep = np.nonzero(live > cut)[0]
        if len(keep) == 0:
            leaked += frontier
            mass1 = mass1[:0]
            mass2 = mass2[:0]
            break
        k0, k1 = int(keep[0]), int(keep[-1]) + 1
        leaked += float(live[:k0].sum() + live[k1:].sum())
        mass1 = mass1[k0:k1]
        mass2 = mass2[k0:k1]
        base += k0

    residual = float(q1 * mass1.sum() + q2 * mass2.sum()) + leaked
    if residual == 0.0:
        return CostResult(expected_copies=cost_accum, exact=True)
    bound_width = residual * (n + worst_case_tail(problem, phi, eps))
    if residual > opts.mass_tolerance and bound_width > opts.bound_width_limit:
        raise NonConvergenceError(
            f"residual mass {residual:.3e} after {n} copies at phi={phi}; "
            f"enclosure width {bound_width:.3e} exceeds {opts.bound_width_limit:.3e}"
        )
    return CostResult(
        expected_copies=cost_accum,
        exact=False,
        residual_mass=residual,
        bound_width=bound_width,
    )


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
    _check_inputs(problem, phi, eps)
    if max_depth < 1 or max_depth > _BRUTE_FORCE_DEPTH_LIMIT:
        raise ValueError(f"max_depth must lie in [1, {_BRUTE_FORCE_DEPTH_LIMIT}], got {max_depth}")
    config = MeasurementConfig.for_problem(problem, phi)
    q1, q2 = problem.q1, problem.q2

    cost_accum = 0.0
    residual = 0.0
    # stack of (m1, m2, path prob | psi1, path prob | psi2)
    stack = [(0, 0, 1.0, 1.0)]
    while stack:
        m1, m2, pg1, pg2 = stack.pop()
        n = m1 + m2
        for d in (1, 2):
            c1 = pg1 * config.likelihood(d, 1)
            c2 = pg2 * config.likelihood(d, 2)
            if c1 == 0.0 and c2 == 0.0:
                continue
            k1, k2 = (m1 + 1, m2) if d == 1 else (m1, m2 + 1)
            state = posterior_from_counts(problem, config, k1, k2)
            weight = q1 * c1 + q2 * c2
            if posterior_error(state) <= eps + BOUNDARY_TOL:
                cost_accum += (n + 1) * weight
            elif n + 1 >= max_depth:
                residual += weight
            else:
                stack.append((k1, k2, c1, c2))
    if residual == 0.0:
        return CostResult(expected_copies=cost_accum, exact=True)
    return CostResult(
        expected_copies=cost_accum,
        exact=False,
        residual_mass=residual,
        bound_width=residual * (max_depth + worst_case_tail(problem, phi, eps)),
    )
