import math

import pytest
from hypothesis import given, strategies as st

from seqdisc import (
    DiscriminationProblem,
    StoppingRule,
    likelihoods,
    posterior_error,
    posterior_from_counts,
)

angles = st.floats(min_value=0.01, max_value=math.pi / 4 - 0.01)
priors = st.floats(min_value=0.05, max_value=0.95)
meas_angles = st.floats(min_value=0.0, max_value=math.pi / 2 - 1e-9)
counts = st.integers(min_value=0, max_value=40)


def test_posterior_examples():
    p = DiscriminationProblem(theta=math.pi / 12)
    lik = likelihoods(p, math.pi / 4)
    # two outcome-1 results at the symmetric Helstrom angle: [1 + (1/3)^2]^-1
    state = posterior_from_counts(p, lik, 2, 0)
    assert state.p1 == pytest.approx(0.9, abs=1e-12)
    assert posterior_error(state) == pytest.approx(0.1, abs=1e-12)
    # no evidence returns the prior
    assert posterior_from_counts(p, lik, 0, 0).p1 == pytest.approx(p.q1, abs=1e-15)
    # outcome 2 impossible under psi1 when measuring along psi1
    aligned = likelihoods(p, p.theta)
    assert posterior_from_counts(p, aligned, 5, 1).p1 == 0.0


def test_posterior_rejects_impossible_evidence():
    p = DiscriminationProblem(theta=math.pi / 12)
    lik = (1.0, 0.0, 1.0, 0.0)  # outcome 2 impossible under both hypotheses
    with pytest.raises(ValueError):
        posterior_from_counts(p, lik, 0, 1)
    with pytest.raises(ValueError):
        posterior_from_counts(p, lik, -1, 0)


def test_posterior_error_values():
    p = DiscriminationProblem(theta=math.pi / 12)
    lik = likelihoods(p, math.pi / 4)
    assert posterior_error(posterior_from_counts(p, lik, 2, 0)) == pytest.approx(0.1, abs=1e-12)
    assert posterior_error(posterior_from_counts(p, lik, 0, 0)) == 0.5
    aligned = likelihoods(p, p.theta)
    assert posterior_error(posterior_from_counts(p, aligned, 0, 1)) == 0.0


@given(theta=angles, q1=priors, phi=meas_angles, m1=counts, m2=counts)
def test_sequential_update_consistency(theta, q1, phi, m1, m2):
    # closed-form posterior at (m1+1, m2) equals one Bayes step from (m1, m2)
    p = DiscriminationProblem(theta=theta, q1=q1)
    lik = likelihoods(p, phi)
    prev = posterior_from_counts(p, lik, m1, m2).p1
    num = prev * lik[0]  # P(1|psi1)
    den = num + (1.0 - prev) * lik[2]  # P(1|psi2)
    if den == 0.0:
        return  # outcome 1 impossible from this belief
    stepped = num / den
    closed = posterior_from_counts(p, lik, m1 + 1, m2).p1
    assert closed == pytest.approx(stepped, abs=1e-12)


@given(theta=angles, m1=counts, m2=counts, shift=st.integers(min_value=0, max_value=10))
def test_symmetric_posterior_depends_on_count_difference(theta, m1, m2, shift):
    p = DiscriminationProblem(theta=theta, q1=0.5)
    lik = likelihoods(p, math.pi / 4)
    base = posterior_from_counts(p, lik, m1, m2).p1
    shifted = posterior_from_counts(p, lik, m1 + shift, m2 + shift).p1
    assert shifted == pytest.approx(base, abs=1e-12)


@given(theta=angles, q1=priors, phi=meas_angles, m1=counts, m2=counts)
def test_posterior_error_at_most_half(theta, q1, phi, m1, m2):
    p = DiscriminationProblem(theta=theta, q1=q1)
    err = posterior_error(posterior_from_counts(p, likelihoods(p, phi), m1, m2))
    assert 0.0 <= err <= 0.5


def _steps(problem, phi):
    """The log-likelihood-ratio steps ln P(d|psi1)/P(d|psi2): the rule's negated increments."""
    rule = StoppingRule(problem, phi, 0.1)
    return -float(rule.d1), -float(rule.d2)


def test_rule_log_likelihood_ratio_examples():
    p = DiscriminationProblem(theta=math.pi / 12)
    step1, step2 = _steps(p, math.pi / 4)
    assert step1 == pytest.approx(math.log(3.0), abs=1e-12)
    assert step2 == pytest.approx(-math.log(3.0), abs=1e-12)
    assert _steps(p, math.pi / 12)[1] == -math.inf
    # phi + theta at the orthogonality point: outcome 1 is near-conclusive
    # evidence for state 1 (exactly infinite only when the likelihood
    # underflows to zero, which float angles do not quite reach here)
    assert _steps(p, 5 * math.pi / 12)[0] > 70.0


@given(theta=angles, phi=meas_angles)
def test_log_likelihood_step_signs(theta, phi):
    step1, step2 = _steps(DiscriminationProblem(theta=theta), phi)
    assert step1 >= 0.0
    assert step2 <= 0.0
