import math

import pytest
from hypothesis import given, strategies as st

from seqdisc import (
    DiscriminationProblem,
    collective_error,
    helstrom_angle,
    likelihoods,
)

angles = st.floats(min_value=0.01, max_value=math.pi / 4 - 0.01)
priors = st.floats(min_value=0.01, max_value=0.99)
meas_angles = st.floats(min_value=0.0, max_value=math.pi / 2 - 1e-9)


def test_problem_validation():
    with pytest.raises(ValueError):
        DiscriminationProblem(theta=0.0)
    with pytest.raises(ValueError):
        DiscriminationProblem(theta=math.pi / 4)
    with pytest.raises(ValueError):
        DiscriminationProblem(theta=0.3, q1=1.0)
    p = DiscriminationProblem(theta=0.3, q1=0.25)
    assert p.q1 + p.q2 == 1.0
    assert 0.0 < p.overlap < 1.0


# likelihoods(p, phi) is (P(1|psi1), P(2|psi1), P(1|psi2), P(2|psi2))
def test_likelihoods_examples():
    p = DiscriminationProblem(theta=math.pi / 12)
    # cos^2(pi/4 - pi/12) = cos^2(pi/6) = 3/4
    assert likelihoods(p, math.pi / 4)[0] == pytest.approx(0.75, abs=1e-12)
    # measurement aligned with psi1: outcome 2 impossible under psi1
    assert likelihoods(p, p.theta)[1] == pytest.approx(0.0, abs=1e-15)
    # cos^2(pi/12 + pi/12) = cos^2(pi/6) = 3/4
    assert likelihoods(p, math.pi / 12)[2] == pytest.approx(0.75, abs=1e-12)


def test_likelihoods_domain():
    p = DiscriminationProblem(theta=0.3)
    with pytest.raises(ValueError):
        likelihoods(p, math.pi / 2)
    with pytest.raises(ValueError):
        likelihoods(p, -0.1)


@given(theta=angles, phi=meas_angles)
def test_outcomes_sum_to_one(theta, phi):
    lik = likelihoods(DiscriminationProblem(theta=theta), phi)
    for given_j in (lik[:2], lik[2:]):
        assert given_j[0] + given_j[1] == pytest.approx(1.0, abs=1e-12)


@given(theta=angles, phi=meas_angles)
def test_outcome_depends_on_angle_sums(theta, phi):
    # likelihoods are functions of phi -+ theta only
    lik = likelihoods(DiscriminationProblem(theta=theta), phi)
    assert lik[0] == pytest.approx(math.cos(phi - theta) ** 2, abs=1e-12)
    assert lik[2] == pytest.approx(math.cos(phi + theta) ** 2, abs=1e-12)


def test_helstrom_angle_examples():
    assert helstrom_angle(DiscriminationProblem(theta=math.pi / 12)) == math.pi / 4
    assert helstrom_angle(DiscriminationProblem(theta=math.pi / 8)) == math.pi / 4
    p = DiscriminationProblem(theta=math.pi / 8, q1=0.75)
    assert helstrom_angle(p) == pytest.approx(0.5 * math.atan(2.0), abs=1e-12)
    assert helstrom_angle(p) == pytest.approx(0.55357, abs=1e-5)


@given(theta=angles, q1=priors)
def test_helstrom_angle_in_range(theta, q1):
    phi = helstrom_angle(DiscriminationProblem(theta=theta, q1=q1))
    assert 0.0 < phi < math.pi / 2


def test_helstrom_error_examples():
    # the single-copy Helstrom error is the one-copy collective bound
    p = DiscriminationProblem(theta=math.pi / 12)
    assert collective_error(p, 1) == pytest.approx(0.25, abs=1e-12)
    p8 = DiscriminationProblem(theta=math.pi / 8)
    assert collective_error(p8, 1) == pytest.approx(0.5 * (1.0 - math.sin(math.pi / 4)), abs=1e-12)
    # nearly certain prior: error tends to zero
    assert collective_error(DiscriminationProblem(theta=0.3, q1=1e-9), 1) < 1e-8


@given(theta=angles, q1=priors)
def test_helstrom_error_prior_symmetry(theta, q1):
    e1 = collective_error(DiscriminationProblem(theta=theta, q1=q1), 1)
    e2 = collective_error(DiscriminationProblem(theta=theta, q1=1.0 - q1), 1)
    assert e1 == pytest.approx(e2, abs=1e-14)


def test_collective_error_examples():
    p = DiscriminationProblem(theta=math.pi / 12)
    # Helstrom's (1 - sqrt(1 - 4 q1 q2 c^2)) / 2 with c = cos(pi/6)
    assert collective_error(p, 1) == pytest.approx(0.5 * (1.0 - math.sqrt(1.0 - 0.75)), abs=1e-15)
    expected2 = 0.5 * (1.0 - math.sqrt(1.0 - 0.75**2))
    assert collective_error(p, 2) == pytest.approx(expected2, abs=1e-12)
    assert collective_error(p, 2) == pytest.approx(0.16928, abs=1e-5)
    assert collective_error(p, 200) < 1e-20
    with pytest.raises(ValueError):
        collective_error(p, 0)


@given(theta=angles, q1=priors, n=st.integers(min_value=1, max_value=50))
def test_collective_error_strictly_decreasing(theta, q1, n):
    p = DiscriminationProblem(theta=theta, q1=q1)
    e_next, e_here = collective_error(p, n + 1), collective_error(p, n)
    # strictly decreasing until the value underflows to zero
    if e_here > 1e-15:
        assert e_next < e_here
    else:
        assert e_next <= e_here
