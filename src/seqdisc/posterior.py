"""Bayesian posterior updates from outcome counts, and the stopping rule.

Posteriors are always recomputed from the integer outcome counts via the
closed form, never accumulated multiplicatively, so long runs carry no
floating-point drift and absorption decisions are order-independent.

StoppingRule is the one stopping predicate of the package: the DP engine, the
brute-force oracle, the string lab and the fixed-angle simulator all decide
through it, and meets_error_bound is its form in error space, used by the
closed-form thresholds and the adaptive simulator.  A run stops at the first
copy after which its posterior error is at most eps; the bound carries a
relative slack of 1e-10, so every true error is at most eps * (1 + 1e-10).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DiscriminationProblem, MeasurementConfig

__all__ = [
    "PosteriorState",
    "LikelihoodSteps",
    "StoppingRule",
    "posterior_from_counts",
    "posterior_error",
    "log_likelihood_steps",
    "meets_error_bound",
    "VerdictTable",
]

# Stopping comparisons are inclusive (error <= eps).  Several anchor cases
# land exactly on the boundary (e.g. a posterior error of exactly 0.1 against
# eps = 0.1) where float rounding of the trig closed forms can tip the
# comparison the wrong way, so the bound absorbs a relative slack of 1e-10.
# A relative slack keeps the guarantee error <= eps * (1 + 1e-10) for every eps.
_BOUND_FACTOR = 1.0 + 1e-10


def _check_eps(problem: DiscriminationProblem, eps: float) -> None:
    """Raises ValueError unless 0 < eps < min(q1, q2); nan fails too."""
    q_min = min(problem.q1, problem.q2)
    if not 0.0 < eps < q_min:
        raise ValueError(f"error bound must lie in (0, min(q1, q2)) = (0, {q_min}), got {eps}")


def meets_error_bound(error, eps: float):
    """The stopping rule in error space: error <= eps up to the relative slack (scalars or arrays)."""
    return error <= eps * _BOUND_FACTOR


@dataclass(frozen=True)
class PosteriorState:
    """Posterior probability of psi1 together with the outcome counts behind it."""

    p1: float
    m1: int
    m2: int


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


class StoppingRule:
    """The Bayesian stopping rule of one problem and eps, at one angle or a batch of angles.

    A count state (m1, m2) stops once its posterior error 1/(1 + e^|logit|) is
    at most `bound`, eps up to the relative slack of meets_error_bound.  The
    log-odds of psi2 vs psi1 are logit = logit0 + m1*d1 + m2*d2, an infinite
    increment overriding the sum once its outcome occurs.  At fixed depth n they
    are affine in m1, logit0 + n*d2 - m1*rate, so the states that continue form
    one run of m1 (the continuation region of Wald's sequential probability
    ratio test) whose closed-form ends are (logit0 + n*d2 -+ threshold) / rate.
    The closed form only seeds the run's ends; the predicate fixes them.

    phi is one angle or a sequence of them; d1, d2 and rate have its shape, and
    `row` picks one angle of a batch.  The error is evaluated with numpy's exp,
    whose last bit can differ from math.exp, always in the same operation
    order, so a state on the boundary decides the same way in every caller.
    Raises ValueError unless 0 < eps < min(q1, q2) and every angle lies in
    [0, pi/2).
    """

    def __init__(self, problem: DiscriminationProblem, phi, eps: float):
        _check_eps(problem, eps)
        steps = [log_likelihood_steps(problem, p) for p in ([phi] if np.ndim(phi) == 0 else phi)]
        self.logit0 = math.log(problem.q2 / problem.q1)
        # log-odds increments of psi2 vs psi1: d1 <= 0 <= d2
        self.d1 = -np.array([s.step1 for s in steps]).reshape(np.shape(phi))
        self.d2 = -np.array([s.step2 for s in steps]).reshape(np.shape(phi))
        self.bound = eps * _BOUND_FACTOR
        # continuing states satisfy |logit| < threshold (up to rounding)
        self.threshold = math.log(1.0 / self.bound - 1.0)
        self.inf1, self.inf2 = np.isinf(self.d1), np.isinf(self.d2)
        self.any_inf = bool(self.inf1.any() or self.inf2.any())
        # an infinite increment overrides the sum, so it adds nothing to it
        self.d1_sum = np.where(self.inf1, 0.0, self.d1)
        self.d2_sum = np.where(self.inf2, 0.0, self.d2)
        rate = self.d2 - self.d1
        self.regular = np.isfinite(rate) & (rate > 0.0)
        self.all_regular = bool(self.regular.all())
        self.rate = np.where(self.regular, rate, 1.0)

    def _logit(self, m1, m2, row=()):
        """Log-odds of psi2 vs psi1 at the counts (m1, m2), by the increments of `row`."""
        logit = self.logit0 + m1 * self.d1_sum[row]
        logit = logit + m2 * self.d2_sum[row]
        if self.any_inf:
            logit = np.where(self.inf1[row] & (m1 > 0), self.d1[row], logit)
            logit = np.where(self.inf2[row] & (m2 > 0), self.d2[row], logit)
        return logit

    def _stops_at(self, abs_logit):
        """Whether a posterior error 1/(1 + e^abs_logit) is within the bound (scalars or arrays)."""
        # above 700 the error underflows to 0, so it always stops
        return (abs_logit > 700.0) | (1.0 / (1.0 + np.exp(np.minimum(abs_logit, 700.0))) <= self.bound)

    def stops(self, m1, m2, row=()):
        """Whether the states (m1, m2) stop (scalars or arrays, the angles of a batch on the last axis)."""
        return self._stops_at(np.abs(self._logit(m1, m2, row)))

    def continuation(self, n: int, wlo: int, whi: int, row=()) -> tuple[int, int]:
        """The run [lo, hi] of m1 in [wlo, whi] whose states at depth n do not stop.

        Empty runs come back as hi = lo - 1.  The closed-form ends, widened by
        one state, contain the run; the exact predicate then fixes each end.
        """
        if self.inf2[row]:
            wlo = max(wlo, n)  # any outcome 2 stops
        if self.inf1[row]:
            whi = min(whi, 0)  # any outcome 1 stops
        lo, hi = wlo, whi
        if self.regular[row]:
            rate = float(self.rate[row])
            centre = self.logit0 + n * float(self.d2[row])
            x = (centre - self.threshold) / rate
            y = (centre + self.threshold) / rate
            if x > wlo:
                lo = whi + 1 if x >= whi + 1 else math.floor(x)
            if y < whi:
                hi = wlo - 1 if y <= wlo - 1 else math.ceil(y)

        def stops(m1):
            return self.stops(m1, n - m1, row)

        start = lo
        while lo <= hi and stops(lo):
            lo += 1
        if lo > hi:
            return lo, lo - 1
        if lo == start:
            while lo > wlo and not stops(lo - 1):
                lo -= 1
        end = hi
        while stops(hi):
            hi -= 1
        if hi == end:
            while hi < whi and not stops(hi + 1):
                hi += 1
        return lo, hi

    def can_stop_within(self, max_copies: int) -> np.ndarray:
        """False only for the angles at which no state with m1 + m2 <= max_copies stops.

        The log-odds are affine in (m1, m2), so their modulus over the count
        triangle peaks at a corner.  The peak is raised by a relative margin far
        above the rounding of the log-odds sum at any state of the triangle.
        """
        logit0 = self.logit0
        corners = np.maximum(np.maximum(abs(logit0), np.abs(logit0 + max_copies * self.d1)),
                             np.abs(logit0 + max_copies * self.d2))
        scale = abs(logit0) + max_copies * np.maximum(np.abs(self.d1), np.abs(self.d2))
        return self._stops_at(corners + 1e-9 * scale)

    def runs(self, ns: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The runs [lo, hi] of m1 in [0, n] that continue, at each depth n of ns (steps x rows).

        Column k holds the runs of the angle rows[k] of a batch.  At fixed
        depth the log-odds fall as m1 rises, so the states that stop with
        log-odds >= 0 form a prefix of [0, n] and those that stop with log-odds
        < 0 a suffix; the run lies between them.  Each closed-form end is
        checked against the predicate at the states on both sides of it; a
        depth whose check fails is found by continuation instead.  Empty runs
        come back with lo > hi.
        """
        n = ns[:, None]
        centre = self.logit0 + n * self.d2_sum[rows]
        lo = np.floor((centre - self.threshold) / self.rate[rows])
        hi = np.ceil((centre + self.threshold) / self.rate[rows])
        if not self.all_regular:
            # without a finite positive rate: all of [0, n], or the one state
            # an infinite increment leaves
            regular = self.regular[rows]
            lo = np.where(regular, lo, np.where(self.inf2[rows], n - 1, -1))
            hi = np.where(regular, hi, np.where(self.inf1[rows], 1, n + 1))
        # the states on either side of each end of the run
        probes = np.empty(lo.shape + (4,))
        np.minimum(np.maximum(lo, -1.0), n, out=probes[..., 0])
        np.minimum(np.maximum(hi, 0.0), n + 1.0, out=probes[..., 3])
        probes[..., 1] = probes[..., 0] + 1.0
        probes[..., 2] = probes[..., 3] - 1.0
        m1 = probes.astype(np.int64)
        # the first and the last state the closed form lets continue
        lo, hi = m1[..., 1].copy(), m1[..., 2].copy()
        np.maximum(m1, 0, out=m1)
        np.minimum(m1, n[..., None], out=m1)
        logit = self._logit(m1, n[..., None] - m1, (rows, None))
        stops = self._stops_at(np.abs(logit))
        up = logit >= 0.0
        high, low = stops & up, stops & ~up
        ok = (((lo == 0) | high[..., 0]) & ((lo > n) | ~high[..., 1])
              & ((hi == n) | low[..., 3]) & ((hi < 0) | ~low[..., 2]))
        for j, k in zip(*np.nonzero(~ok)):
            depth = int(ns[j])
            lo[j, k], hi[j, k] = self.continuation(depth, 0, depth, rows[k])
        return lo, hi


def _guess(state: PosteriorState) -> tuple[int, float]:
    """The hypothesis guessed on stopping at a state (1 or 2), and that guess's true error."""
    if state.p1 >= 0.5:
        return 1, 1.0 - state.p1
    return 2, state.p1


class VerdictTable:
    """Stopping verdict of every count state (m1, m2) of one (problem, angle, eps).

    The verdict depends on the counts alone, not on the order of the outcomes.
    States are stored depth by depth, n = m1 + m2, each row indexed by m1, in
    flat triangular arrays: `guess` is 0 where the state continues, else the
    hypothesis guessed on stopping (1 or 2); `error` is that guess's true error.
    Rows are filled by `reach` only as deep as a caller asks: whether a state
    stops comes from the StoppingRule `rule`, one call per row, and the guess
    and its error from `posterior` (posterior_from_counts unless a caller
    passes an instrumented copy), called once per state.  Depth 0, before any
    copy, never stops.
    """

    def __init__(
        self,
        problem: DiscriminationProblem,
        config: MeasurementConfig,
        eps: float,
        posterior=posterior_from_counts,
    ):
        self.rule = StoppingRule(problem, config.phi, eps)
        self._problem = problem
        self._config = config
        self._posterior = posterior
        self.depth = 0
        self.guess = np.zeros(1, dtype=np.int8)
        self.error = np.zeros(1)

    def verdict(self, m1: int, m2: int) -> tuple[int, float]:
        """(guess, true error) of one state; guess 0 means the state continues."""
        state = self._posterior(self._problem, self._config, m1, m2)
        if not self.rule.stops(m1, m2):
            return 0, 0.0
        return _guess(state)

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
        problem, config, posterior = self._problem, self._config, self._posterior
        for n in range(self.depth + 1, depth + 1):
            start = self.index(n, 0)
            m1s = np.arange(n + 1)
            # the rows past the table's depth are still zero: states that continue
            for m1, stops in enumerate(self.rule.stops(m1s, n - m1s).tolist()):
                state = posterior(problem, config, m1, n - m1)
                if stops:
                    self.guess[start + m1], self.error[start + m1] = _guess(state)
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
