"""Bayesian posterior updates from outcome counts, and the stopping rule.

Posteriors are always recomputed from the integer outcome counts via the
closed form, never accumulated multiplicatively, so long runs carry no
floating-point drift and absorption decisions are order-independent.  Both
read the four likelihoods of model.likelihoods; StoppingRule holds them per
angle, with the log-odds increments d1 and d2 they give.

StoppingRule is the one stopping predicate of the package: the DP engine, the
string lab and the fixed-angle simulator all decide through it, the last two
reading its `verdicts`, which carry the guess made on stopping as well; so
does the brute-force oracle of the tests.  meets_error_bound is its form in
error space, used by the closed-form thresholds and the adaptive simulator.
A run stops at the first copy after which its posterior error is at most
eps; the bound carries a relative slack of 1e-10, so every true error is at
most eps * (1 + 1e-10).
"""

from __future__ import annotations

import math

import numpy as np

from .model import DiscriminationProblem, likelihoods

__all__ = [
    "StoppingRule",
    "posterior_from_counts",
    "meets_error_bound",
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
    likelihoods,
    m1: int,
    m2: int,
) -> float:
    """Exact Bayesian posterior probability of psi1 after m1 outcome-1 and m2 outcome-2 results.

    likelihoods holds P(1|psi1), P(2|psi1), P(1|psi2) and P(2|psi2), as
    model.likelihoods gives them.  Computed in log-odds space; a
    zero-likelihood outcome drives the posterior to exactly 0 or 1.  Raises if
    an observed outcome is impossible under both hypotheses (undefined
    evidence).
    """
    if m1 < 0 or m2 < 0:
        raise ValueError(f"counts must be >= 0, got m1={m1}, m2={m2}")
    # log-odds of psi2 vs psi1; d1 <= 0, d2 >= 0
    d1 = _log_ratio(likelihoods[2], likelihoods[0])
    d2 = _log_ratio(likelihoods[3], likelihoods[1])
    logit = math.log(problem.q2 / problem.q1)
    for count, step, d in ((m1, d1, 1), (m2, d2, 2)):
        if count > 0:
            if math.isnan(step):
                raise ValueError(f"outcome {d} has zero probability under both hypotheses")
            if math.isinf(step):
                if math.isinf(logit) and (step > 0) != (logit > 0):
                    raise ValueError("contradictory zero-likelihood evidence")
                logit = step
            else:
                logit += count * step
    # past +-700, infinities included, exp overflows or the posterior rounds to 0 or 1
    if logit > 700.0:
        return 0.0
    if logit < -700.0:
        return 1.0
    return 1.0 / (1.0 + math.exp(logit))


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
    the `row` of _logit picks angles of a batch.  likelihoods holds each
    angle's P(1|psi1), P(2|psi1), P(1|psi2) and P(2|psi2) on its last axis.
    The error is evaluated with numpy's exp, whose last bit can differ from
    math.exp, always in the same operation order, so a state on the boundary
    decides the same way in every caller.
    Raises ValueError unless 0 < eps < min(q1, q2) and every angle lies in
    [0, pi/2).
    """

    def __init__(self, problem: DiscriminationProblem, phi, eps: float):
        _check_eps(problem, eps)
        # each angle's likelihoods, computed once for every user of the rule
        rows = [likelihoods(problem, p) for p in ([phi] if np.ndim(phi) == 0 else phi)]
        self.likelihoods = np.array(rows).reshape(np.shape(phi) + (4,))
        self.logit0 = math.log(problem.q2 / problem.q1)
        # log-odds increments of psi2 vs psi1, -ln P(d|psi1)/P(d|psi2) with
        # exact zeros giving infinities: d1 <= 0 <= d2
        self.d1 = -np.array([_log_ratio(p[0], p[2]) for p in rows]).reshape(np.shape(phi))
        self.d2 = -np.array([_log_ratio(p[1], p[3]) for p in rows]).reshape(np.shape(phi))
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

    def stops(self, m1, m2):
        """Whether the states (m1, m2) stop (scalars or arrays, the angles of a batch on the last axis)."""
        return self._stops_at(np.abs(self._logit(m1, m2)))

    def verdicts(self, m1, m2) -> np.ndarray:
        """The verdicts of the states (m1, m2) as int8, shaped as in `stops`: 0 where a
        state continues, else the hypothesis guessed on stopping, 2 where the log-odds
        are positive and 1 otherwise."""
        logit = self._logit(m1, m2)
        guess = np.where(logit > 0.0, 2, 1)
        return np.where(self._stops_at(np.abs(logit)), guess, 0).astype(np.int8)

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

    def _moves(self, lo, hi, n, row):
        """The moves, -1, 0 or +1 state, that bring the ends lo and hi at depths n nearer the run.

        lo moves up if it stops with log-odds >= 0 and down if the state below
        it does not; hi moves down if it stops with log-odds < 0 and up if the
        state above it does not.  The ends lie in [0, n + 1] and [-1, n].
        """
        m1 = np.empty(lo.shape + (4,), dtype=np.int64)
        m1[..., 0], m1[..., 1], m1[..., 2], m1[..., 3] = lo - 1, lo, hi, hi + 1
        np.maximum(m1, 0, out=m1)
        np.minimum(m1, n[..., None], out=m1)
        logit = self._logit(m1, n[..., None] - m1, row)
        stops = self._stops_at(np.abs(logit))
        up = logit >= 0.0
        high, low = stops & up, stops & ~up
        lo_move = np.subtract((lo <= n) & high[..., 1], (lo > 0) & ~high[..., 0], dtype=np.int64)
        hi_move = np.subtract((hi < n) & ~low[..., 3], (hi >= 0) & low[..., 2], dtype=np.int64)
        return lo_move, hi_move

    def runs(self, ns: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The runs [lo, hi] of m1 in [0, n] that continue, at each depth n of ns (steps x rows).

        Column k holds the runs of the angle rows[k] of a batch.  At fixed
        depth the log-odds fall as m1 rises, so the states that stop with
        log-odds >= 0 form a prefix of [0, n] and those that stop with log-odds
        < 0 a suffix; the run lies between them.  Each closed-form end is
        checked against the predicate at the states on both sides of it; the
        ends that fail the check move one state at a time until it passes.
        Empty runs come back with lo = hi + 1.
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
        # the first and the last state the closed form lets continue
        lo = np.minimum(np.maximum(lo + 1.0, 0.0), n + 1.0).astype(np.int64)
        hi = np.minimum(np.maximum(hi - 1.0, -1.0), n).astype(np.int64)
        lo_move, hi_move = self._moves(lo, hi, n, (rows, None))
        j, k = np.nonzero(lo_move | hi_move)
        if len(j):
            n, row = ns[j], (rows[k], None)
            lo_fix, hi_fix, lo_move, hi_move = lo[j, k], hi[j, k], lo_move[j, k], hi_move[j, k]
            # the prefix and the suffix place each end within n + 1 states
            for _ in range(int(n.max()) + 1):
                lo_fix += lo_move
                hi_fix += hi_move
                lo_move, hi_move = self._moves(lo_fix, hi_fix, n, row)
                if not (lo_move.any() or hi_move.any()):
                    break
            lo[j, k], hi[j, k] = lo_fix, hi_fix
        return lo, hi
