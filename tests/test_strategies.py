import decimal
import math
from decimal import Decimal

import pytest
from hypothesis import given, settings, strategies as st

from seqdisc import (
    DiscriminationProblem,
    StrategyKind,
    StrategySpec,
    collective_error,
    fbm_cost,
    fbm_threshold,
    helstrom_angle,
    likelihoods,
    lol_cost,
    lol_next_angle,
    run_trials,
    strategy_angle,
    ubm_boundary,
    ubm_cost,
)
from seqdisc.strategies import _fbm_run_error, _ubm_error_at

thetas = st.floats(min_value=0.05, max_value=math.pi / 4 - 0.02)
epsilons = st.floats(min_value=0.01, max_value=0.4)


def test_strategy_spec_validation():
    with pytest.raises(ValueError):
        StrategySpec(StrategyKind.FIXED_ANGLE)
    spec = StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.3)
    p = DiscriminationProblem(theta=0.2)
    assert strategy_angle(p, spec) == 0.3
    assert strategy_angle(p, StrategySpec(StrategyKind.FBM)) == p.theta
    assert strategy_angle(p, StrategySpec(StrategyKind.UBM)) == helstrom_angle(p)
    with pytest.raises(ValueError):
        strategy_angle(p, StrategySpec(StrategyKind.LOL))


def test_fbm_threshold_examples(problem12):
    assert fbm_threshold(problem12, 0.179) == 6
    assert fbm_threshold(problem12, 0.3) == 3
    # one copy suffices right at the single-run error boundary
    boundary = problem12.q2 * problem12.overlap**2 / (
        problem12.q1 + problem12.q2 * problem12.overlap**2
    )
    assert fbm_threshold(problem12, boundary + 1e-9) == 1
    with pytest.raises(ValueError):
        fbm_threshold(problem12, 0.6)
    with pytest.raises(ValueError):
        fbm_threshold(problem12, 0.0)


@given(theta=thetas, eps=epsilons)
@settings(max_examples=60)
def test_fbm_threshold_minimality(theta, eps):
    p = DiscriminationProblem(theta=theta)
    if eps >= 0.5:
        return
    n = fbm_threshold(p, eps)
    assert _fbm_run_error(p, n) <= eps + 1e-12
    if n > 1:
        assert _fbm_run_error(p, n - 1) > eps


def test_fbm_cost_examples(problem12):
    result = fbm_cost(problem12, 0.179)
    expected = 0.5 * 6 + 0.5 * (1.0 - 0.75**6) / 0.25
    assert result.exact
    assert result.expected_copies == pytest.approx(expected, abs=1e-12)
    assert result.expected_copies == pytest.approx(4.6441, abs=5e-4)
    # one-copy regime: exactly one copy is always consumed
    boundary = 0.75 / 1.75
    assert fbm_cost(problem12, boundary + 1e-9).expected_copies == pytest.approx(1.0, abs=1e-12)
    # rejected as by fbm_threshold, ubm_cost and lol_cost; 0.5 and 0.7 used to cost 0 copies
    for p in (problem12, DiscriminationProblem(theta=math.pi / 12, q1=0.3)):
        for eps in (0.5, 0.7, min(p.q1, p.q2), 0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="error bound must lie in"):
                fbm_cost(p, eps)


def test_ubm_boundary_examples(problem12):
    assert ubm_boundary(problem12, 0.179) == 2
    # the error at K=2 is exactly 0.1: inclusive comparison keeps K=2 at eps=0.1
    assert ubm_boundary(problem12, 0.1) == 2
    assert ubm_boundary(problem12, 0.099) == 3
    with pytest.raises(ValueError):
        ubm_boundary(DiscriminationProblem(theta=0.2, q1=0.3), 0.1)
    for eps in (0.5, 0.0, math.nan):
        with pytest.raises(ValueError, match="error bound must lie in"):
            ubm_boundary(problem12, eps)


@given(theta=thetas, eps=st.floats(min_value=0.01, max_value=0.45))
@settings(max_examples=60)
def test_ubm_boundary_minimality(theta, eps):
    p = DiscriminationProblem(theta=theta)
    k = ubm_boundary(p, eps)
    assert _ubm_error_at(p, k) <= eps + 1e-12
    if k > 1:
        assert _ubm_error_at(p, k - 1) > eps


def test_ubm_cost_examples(problem12):
    result = ubm_cost(problem12, 0.179)
    assert result.exact
    assert result.expected_copies == pytest.approx(3.2, abs=1e-12)
    # K = 1: the first copy always absorbs
    assert ubm_cost(problem12, 0.26).expected_copies == pytest.approx(1.0, abs=1e-12)


def test_lol_cost_examples(problem12):
    assert lol_cost(problem12, 0.179) == 2
    # E_1 = 0.25 exactly: inclusive boundary gives a single copy
    assert lol_cost(problem12, 0.25) == 1
    assert lol_cost(DiscriminationProblem(theta=math.pi / 8), 0.125) == 2
    with pytest.raises(ValueError):
        lol_cost(problem12, 0.5)


def test_lol_cost_rejects_eps_the_simulator_rejects():
    # at q1 = 0.3 the bound must lie in (0, 0.3), for lol_cost as for run_trials
    p = DiscriminationProblem(theta=math.pi / 12, q1=0.3)
    for eps in (0.4, 0.3, math.nan):
        with pytest.raises(ValueError, match=r"\(0, 0\.3\)"):
            lol_cost(p, eps)
        with pytest.raises(ValueError, match=r"\(0, 0\.3\)"):
            run_trials(p, StrategySpec(StrategyKind.LOL), eps, 10)
    assert lol_cost(p, 0.29) >= 1


@given(theta=thetas, eps=st.floats(min_value=0.001, max_value=0.45))
@settings(max_examples=60)
def test_lol_cost_minimality(theta, eps):
    p = DiscriminationProblem(theta=theta)
    n = lol_cost(p, eps)
    assert collective_error(p, n) <= eps + 1e-12
    if n > 1:
        assert collective_error(p, n - 1) > eps


def _exact_collective_error(problem, n):
    """(1 - sqrt(1 - 4 q1 q2 c^(2n))) / 2 in 60-digit decimal arithmetic, from the float inputs."""
    with decimal.localcontext(decimal.Context(prec=60)):
        x = 4 * Decimal(problem.q1) * Decimal(problem.q2) * Decimal(problem.overlap) ** (2 * n)
        return (1 - (1 - x).sqrt()) / 2


@pytest.mark.parametrize("theta,q1", [(math.pi / 16, 0.5), (math.pi / 12, 0.5), (math.pi / 12, 0.3),
                                      (math.pi / 8, 0.1), (0.6, 0.5)])
def test_lol_cost_is_exact_at_tiny_eps(theta, q1):
    # 0.5 - 0.5 * sqrt(1 - x) cancels once x nears the double rounding of 1,
    # which made lol_cost stop short of the bound below eps of about 1e-13
    p = DiscriminationProblem(theta=theta, q1=q1)
    for eps in [k * 10.0 ** -e for e in range(9, 20) for k in (1, 2, 5)]:
        n = lol_cost(p, eps)
        bound = Decimal(eps) * (1 + Decimal("1e-10"))
        assert _exact_collective_error(p, n) <= bound, eps
        assert _exact_collective_error(p, n - 1) > bound, eps
    if (theta, q1) == (math.pi / 12, 0.5):
        assert (lol_cost(p, 1e-17), lol_cost(p, 5e-17)) == (132, 126)


def test_lol_next_angle(problem12):
    assert lol_next_angle(problem12, 0.5) == math.pi / 4
    p8 = DiscriminationProblem(theta=math.pi / 8)
    assert lol_next_angle(p8, 0.75) == pytest.approx(0.55357, abs=1e-5)
    with pytest.raises(ValueError):
        lol_next_angle(problem12, 0.0)
    with pytest.raises(ValueError):
        lol_next_angle(problem12, 1.0)


def test_lol_step_error_is_outcome_independent(problem12):
    # one Bayes update from symmetric priors: both outcomes leave error 0.25
    phi = helstrom_angle(problem12)
    p11, p21, p12, p22 = likelihoods(problem12, phi)  # pdj = P(outcome d | psi_j)
    for num, den in ((p11, p12), (p21, p22)):
        evidence = 0.5 * num + 0.5 * den
        p1 = 0.5 * num / evidence
        assert min(p1, 1.0 - p1) == pytest.approx(collective_error(problem12, 1), abs=1e-12)


@given(theta=thetas)
@settings(max_examples=30)
def test_costs_non_increasing_in_eps(theta):
    p = DiscriminationProblem(theta=theta)
    eps_grid = [0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3]
    fbm = [fbm_cost(p, e).expected_copies for e in eps_grid]
    ubm = [ubm_cost(p, e).expected_copies for e in eps_grid]
    lol = [lol_cost(p, e) for e in eps_grid]
    for seq in (fbm, ubm, lol):
        assert all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))
