import math
import re
from pathlib import Path

import numpy as np
import pytest

import seqdisc
from seqdisc import (
    DiscriminationProblem,
    StoppingRule,
    collective_error,
    fbm_threshold,
    helstrom_angle,
    likelihoods,
    lol_cost,
    meets_error_bound,
    posterior_error,
    posterior_from_counts,
    ubm_boundary,
)

TINY_EPS = [1e-13, 1e-15, 1e-30]
# the guarantee is true_error <= eps * (1 + 1e-10); this allows for the rounding
# of the true error's own closed form on top
GUARANTEE = 1.0 + 1e-9


def _log_odds_error(problem, phi, m1, m2):
    """1/(1 + e^|log-odds|) at the counts, evaluated apart from the library's rule.

    Unlike a true error 1 - p1, it does not round to 0 for tiny errors.
    """
    p11, p21, p12, p22 = likelihoods(problem, phi)
    # log-odds increments of psi1 vs psi2; only P(2|psi1) is ever 0 (at phi = theta)
    steps = (math.log(p11 / p12), math.log(p21 / p22) if p21 else -math.inf)
    logit = np.full(m1.shape, math.log(problem.q1 / problem.q2))
    for m, step in zip((m1, m2), steps):
        logit = np.where(m > 0, step, logit) if math.isinf(step) else logit + m * step
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(np.abs(logit)))


@pytest.mark.parametrize("eps", TINY_EPS)
@pytest.mark.parametrize("angle", ["fbm", "ubm", 0.6])
def test_stopping_states_keep_the_error_bound_for_tiny_eps(problem12, eps, angle):
    # FBM at theta = pi/12 and eps = 1e-30 first stops after 241 outcomes 1
    depth = 260
    phi = {"fbm": problem12.theta, "ubm": helstrom_angle(problem12)}.get(angle, angle)
    rule = StoppingRule(problem12, phi, eps)
    # the count triangle to depth 260, state (m1, n - m1) at n * (n + 1) // 2 + m1
    n = np.repeat(np.arange(depth + 1), np.arange(1, depth + 2))
    m1 = np.arange(len(n)) - n * (n + 1) // 2
    verdicts = rule.verdicts(m1, n - m1)
    assert verdicts[-depth - 1] != 0 and verdicts[-1] != 0  # it reaches the stops on both sides
    stopping = np.flatnonzero(verdicts)
    n, m1 = n[stopping], m1[stopping]
    lik = likelihoods(problem12, phi)
    assert max(posterior_error(posterior_from_counts(problem12, lik, k, j - k))
               for j, k in zip(n.tolist(), m1.tolist())) <= eps * GUARANTEE
    assert _log_odds_error(problem12, phi, m1, n - m1).max() <= eps * GUARANTEE


@pytest.mark.parametrize("eps", TINY_EPS)
def test_closed_form_thresholds_keep_the_error_bound_for_tiny_eps(problem12, eps):
    c2 = problem12.overlap ** 2
    q1, q2 = problem12.q1, problem12.q2

    def fbm_error(n):
        return q2 * c2**n / (q1 + q2 * c2**n)

    n_t = fbm_threshold(problem12, eps)
    assert fbm_error(n_t) <= eps * GUARANTEE < fbm_error(n_t - 1)

    s = math.sin(2.0 * problem12.theta)
    k = ubm_boundary(problem12, eps)
    assert 1.0 / (1.0 + ((1.0 + s) / (1.0 - s)) ** k) <= eps * GUARANTEE

    assert collective_error(problem12, lol_cost(problem12, eps)) <= eps * GUARANTEE


def _cases():
    cases = []
    for theta in (math.pi / 16, math.pi / 12, math.pi / 8):
        for q1 in (0.5, 0.3):
            for phi in (0.0, 1e-6, theta, math.pi / 4, math.pi / 2 - theta - 1e-9):
                for eps in (0.179, 0.1, 0.01):
                    cases.append((theta, q1, phi, eps))
    return cases


@pytest.mark.parametrize("theta,q1,phi,eps", _cases())
def test_rule_decides_as_the_posterior_error(theta, q1, phi, eps):
    # the rule evaluates the error with numpy's exp from |log-odds|; the
    # posterior's closed form uses math.exp and min(p1, 1 - p1)
    problem = DiscriminationProblem(theta=theta, q1=q1)
    lik = likelihoods(problem, phi)
    rule = StoppingRule(problem, phi, eps)
    for n in range(1, 65):
        m1 = np.arange(n + 1)
        expected = [meets_error_bound(posterior_error(posterior_from_counts(problem, lik, k, n - k)),
                                      eps) for k in range(n + 1)]
        assert rule.stops(m1, n - m1).tolist() == expected, n


@pytest.mark.parametrize("q1", [0.5, 0.3])
def test_batch_rule_decides_as_one_rule_per_angle(q1):
    problem = DiscriminationProblem(theta=math.pi / 12, q1=q1)
    phis = [0.0, 1e-6, 0.2, problem.theta, math.pi / 4, 1.2, math.pi / 2 - problem.theta,
            math.pi / 2 - 1e-9]
    batch = StoppingRule(problem, phis, 0.05)
    assert batch.d1.shape == batch.rate.shape == (len(phis),)
    ns = np.array([1, 2, 7, 40, 200])
    lo, hi = batch.runs(ns, np.arange(len(phis)))
    for j, n in enumerate(ns):
        m1 = np.arange(n + 1)[:, None]
        stops = batch.stops(m1, n - m1)
        for k, phi in enumerate(phis):
            alone = StoppingRule(problem, phi, 0.05)
            assert stops[:, k].tolist() == alone.stops(m1[:, 0], n - m1[:, 0]).tolist()
            inside = (m1[:, 0] >= lo[j, k]) & (m1[:, 0] <= hi[j, k])
            assert inside.tolist() == (~stops[:, k]).tolist()
    for k, phi in enumerate(phis):
        alone_lo, alone_hi = StoppingRule(problem, [phi], 0.05).runs(ns, np.array([0]))
        assert (alone_lo[:, 0].tolist(), alone_hi[:, 0].tolist()) == (lo[:, k].tolist(), hi[:, k].tolist())


def test_rule_validates_eps_and_angles(problem12):
    for eps in (0.0, -0.1, 0.5, 0.6, math.nan):
        with pytest.raises(ValueError, match=r"error bound must lie in \(0, min\(q1, q2\)\)"):
            StoppingRule(problem12, 0.3, eps)
    with pytest.raises(ValueError, match="measurement angle"):
        StoppingRule(problem12, [0.3, math.pi / 2], 0.1)


def test_only_the_posterior_module_reaches_into_the_rule():
    # the stopping rule is one object: other modules use its public methods
    # and hold no table of verdicts of their own
    forbidden = re.compile(r"\._logit\b|\._stops_at\b|\bVerdictTable\b")
    sources = sorted(Path(seqdisc.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        if path.name != "posterior.py":
            assert not forbidden.findall(path.read_text()), path.name
