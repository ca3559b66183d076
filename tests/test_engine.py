import math
import random

import numpy as np
import pytest

from seqdisc import (
    DiscriminationProblem,
    EngineOptions,
    MeasurementConfig,
    NonConvergenceError,
    brute_force_cost,
    fbm_cost,
    fixed_angle_cost,
    ubm_cost,
)
from seqdisc.engine import CostCapExceeded, _StopRule
from seqdisc.posterior import BOUNDARY_TOL, VerdictTable, log_likelihood_steps

TIGHT = EngineOptions(max_copies=50_000, mass_tolerance=1e-14)


def test_engine_options_validation():
    with pytest.raises(ValueError):
        EngineOptions(max_copies=0)
    with pytest.raises(ValueError):
        EngineOptions(mass_tolerance=0.0)
    with pytest.raises(ValueError):
        EngineOptions(mode="newton")


def test_domain_errors(problem12):
    with pytest.raises(ValueError):
        fixed_angle_cost(problem12, math.pi / 2, 0.1)
    with pytest.raises(ValueError):
        fixed_angle_cost(problem12, 0.3, 0.6)
    with pytest.raises(ValueError):
        brute_force_cost(problem12, 0.3, 0.1, 31)


def test_matches_fbm_closed_form(problem12):
    result = fixed_angle_cost(problem12, problem12.theta, 0.179, TIGHT)
    assert result.expected_copies == pytest.approx(4.6441, abs=5e-4)
    oracle = fbm_cost(problem12, 0.179).expected_copies
    assert abs(result.expected_copies - oracle) <= result.bound_width + 1e-9


def test_matches_ubm_linear_solve(problem12):
    result = fixed_angle_cost(problem12, math.pi / 4, 0.179, TIGHT)
    assert abs(result.expected_copies - 3.2) <= result.bound_width + 1e-9


def test_gof_angle_cost_near_paper_value(problem12, gof_179):
    phi_opt, result = gof_179
    assert result.expected_copies == pytest.approx(2.005, abs=0.05)


def test_probability_conservation(problem12):
    records = []

    def on_depth(n, terminated, frontier):
        records.append((n, terminated, frontier))

    fixed_angle_cost(problem12, 0.9, 0.179, TIGHT, on_depth=on_depth)
    assert records
    for _, terminated, frontier in records:
        assert terminated + frontier == pytest.approx(1.0, abs=1e-12)


def test_monotone_residual(problem12):
    frontiers = []
    fixed_angle_cost(problem12, 0.9, 0.1, TIGHT,
                     on_depth=lambda n, t, f: frontiers.append(f))
    assert all(a >= b - 1e-15 for a, b in zip(frontiers, frontiers[1:]))


def test_infinite_step_at_aligned_angle(problem12):
    # at phi = theta any outcome 2 terminates immediately with zero error,
    # so the cost matches the closed form exactly and quickly
    result = fixed_angle_cost(problem12, problem12.theta, 0.3, TIGHT)
    oracle = fbm_cost(problem12, 0.3).expected_copies
    assert abs(result.expected_copies - oracle) <= result.bound_width + 1e-10


def test_nonconvergence_at_uninformative_angle(problem12):
    # phi = 0 carries no information: the posterior never moves
    with pytest.raises(NonConvergenceError):
        fixed_angle_cost(problem12, 0.0, 0.1, EngineOptions(max_copies=200))


def test_cost_cap_abandons_expensive_angles(problem12):
    with pytest.raises(CostCapExceeded):
        fixed_angle_cost(problem12, 0.02, 0.179, cost_cap=5.0)


def test_brute_force_examples(problem12):
    # every string terminates at length 1 when eps admits both one-copy posteriors
    p = problem12
    res = brute_force_cost(p, math.pi / 4, 0.26, 10)
    assert res.exact
    assert res.expected_copies == pytest.approx(1.0, abs=1e-12)


def _random_instances(count, seed):
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        theta = rng.uniform(0.1, 0.7)
        eps = rng.uniform(0.05, 0.35)
        phi = rng.uniform(0.15, 1.4)
        out.append((theta, eps, phi))
    return out


@pytest.mark.parametrize("theta,eps,phi", _random_instances(20, seed=20260826))
def test_dp_agrees_with_brute_force(theta, eps, phi):
    # identical truncation depth on both routes; costs agree to 1e-10
    depth = 18
    p = DiscriminationProblem(theta=theta)
    bf = brute_force_cost(p, phi, eps, depth)
    dp = fixed_angle_cost(
        p, phi, eps,
        EngineOptions(max_copies=depth, mass_tolerance=1e-300, bound_width_limit=math.inf),
    )
    assert dp.expected_copies == pytest.approx(bf.expected_copies, abs=1e-10)
    assert dp.residual_mass == pytest.approx(bf.residual_mass, abs=1e-10)


@pytest.mark.parametrize("theta,eps", [(t, e) for t, e, _ in _random_instances(25, seed=7)])
def test_dp_agrees_with_fbm_closed_form_random(theta, eps):
    p = DiscriminationProblem(theta=theta)
    dp = fixed_angle_cost(p, p.theta, eps, TIGHT)
    oracle = fbm_cost(p, eps).expected_copies
    assert abs(dp.expected_copies - oracle) <= dp.bound_width + 1e-9


@pytest.mark.parametrize("theta,eps", [(t, e) for t, e, _ in _random_instances(25, seed=11)])
def test_dp_agrees_with_ubm_linear_solve_random(theta, eps):
    p = DiscriminationProblem(theta=theta)
    dp = fixed_angle_cost(p, math.pi / 4, eps, TIGHT)
    oracle = ubm_cost(p, eps).expected_copies
    assert abs(dp.expected_copies - oracle) <= dp.bound_width + 1e-9


def test_brute_force_reproduces_fbm_string_termination(problem12):
    # depth large enough to hold the whole FBM set: cost is exact
    res = brute_force_cost(problem12, problem12.theta, 0.179, 25)
    assert res.residual_mass == pytest.approx(0.0, abs=1e-15)
    assert res.expected_copies == pytest.approx(
        fbm_cost(problem12, 0.179).expected_copies, abs=1e-10
    )


def _reference_stop_mask(problem, phi, eps, m1, m2):
    """Vectorized stopping predicate over count states (the reference for _StopRule)."""
    steps = log_likelihood_steps(problem, phi)
    d1, d2 = -steps.step1, -steps.step2  # log-odds increments of psi2 vs psi1
    logit = np.full(m1.shape, math.log(problem.q2 / problem.q1))
    for m, d in ((m1, d1), (m2, d2)):
        if math.isinf(d):
            logit = np.where(m > 0, d, logit)
        else:
            logit = logit + m * d
    abs_logit = np.abs(logit)
    with np.errstate(over="ignore"):
        err = np.where(abs_logit > 700.0, 0.0, 1.0 / (1.0 + np.exp(np.minimum(abs_logit, 700.0))))
    return err <= eps + BOUNDARY_TOL


def _first_stop_depth(problem, phi, eps):
    n = 0
    while True:
        n += 1
        m1 = np.arange(n + 1)
        if _reference_stop_mask(problem, phi, eps, m1, n - m1).any():
            return n


def _continuation_cases(eps_values=(0.179, 0.01)):
    cases = []
    for theta in (math.pi / 16, math.pi / 12, math.pi / 8):
        for q1 in (0.5, 0.3):
            for phi in (0.0, 1e-6, theta, math.pi / 4, math.pi / 2 - theta - 1e-9):
                for eps in eps_values:
                    cases.append((theta, q1, phi, eps))
    # the posterior error lands exactly on eps = 0.1 after a net two outcomes
    cases.append((math.pi / 12, 0.5, math.pi / 4, 0.1))
    return cases


@pytest.mark.parametrize("theta,q1,phi,eps", _continuation_cases())
def test_continuation_interval_matches_stop_mask(theta, q1, phi, eps):
    problem = DiscriminationProblem(theta=theta, q1=q1)
    rule = _StopRule(problem, phi, eps)
    for n in range(1, 301):
        m1 = np.arange(n + 1)
        lo, hi = rule.continuation(n, 0, n)
        inside = (m1 >= lo) & (m1 <= hi)
        assert np.array_equal(inside, ~_reference_stop_mask(problem, phi, eps, m1, n - m1)), n
        # a narrower window gives the same run clipped to it
        lo_w, hi_w = rule.continuation(n, n // 3, n - n // 4)
        inside_w = (m1 >= lo_w) & (m1 <= hi_w)
        assert np.array_equal(inside_w, inside & (m1 >= n // 3) & (m1 <= n - n // 4)), n


@pytest.mark.parametrize("phi,eps,shift", [
    (math.pi / 4, 1e-3, -1.5),  # runs of about 6 states
    (math.pi / 4, 1e-3, 3.0),
    (0.3, 0.125, -0.6),  # runs of at most one state
])
def test_continuation_ends_recover_from_a_shifted_closed_form(problem12, phi, eps, shift):
    # the closed-form ends only seed the search: moved by `shift` states
    # (inward for negative shifts), the exact predicate still finds the run
    rule = _StopRule(problem12, phi, eps)
    rule.threshold += shift * rule.rate
    for n in range(1, 301):
        m1 = np.arange(n + 1)
        lo, hi = rule.continuation(n, 0, n)
        inside = (m1 >= lo) & (m1 <= hi)
        assert np.array_equal(inside, ~_reference_stop_mask(problem12, phi, eps, m1, n - m1)), n


@pytest.mark.parametrize("phi", [0.0, math.pi / 2 - 1e-9])
def test_prescreen_rejects_uninformative_angles(problem12, phi):
    calls = []
    with pytest.raises(NonConvergenceError, match="no outcome string can stop within 20000 copies"):
        fixed_angle_cost(problem12, phi, 0.125, EngineOptions(max_copies=20_000),
                         on_depth=lambda *args: calls.append(args))
    assert calls == []


@pytest.mark.parametrize("q1,phi,eps", [
    (0.5, math.pi / 4, 0.05),
    (0.5, math.pi / 4, 0.1),  # the first stop sits exactly on the error bound
    (0.5, 0.6, 0.01),
    (0.3, 0.9, 0.01),
    (0.5, 0.05, 0.125),
    (0.5, 1.5, 0.01),
])
def test_prescreen_fires_only_below_first_stop_depth(q1, phi, eps):
    problem = DiscriminationProblem(theta=math.pi / 12, q1=q1)
    k = _first_stop_depth(problem, phi, eps)
    depths = []
    try:
        fixed_angle_cost(problem, phi, eps, EngineOptions(max_copies=k),
                         on_depth=lambda n, t, f: depths.append(n))
    except NonConvergenceError as exc:
        assert "no outcome string can stop" not in str(exc)
    assert depths == list(range(1, k + 1))
    depths.clear()
    with pytest.raises(NonConvergenceError, match=f"no outcome string can stop within {k - 1} copies"):
        fixed_angle_cost(problem, phi, eps, EngineOptions(max_copies=k - 1),
                         on_depth=lambda n, t, f: depths.append(n))
    assert depths == []


def test_prescreen_keeps_vacuous_result_under_unbounded_width_limit(problem12):
    # with no limit on the enclosure width the loop's verdict is a result, not
    # an error: nothing stops, and all of the mass is left as residual
    result = fixed_angle_cost(problem12, 0.0, 0.1,
                              EngineOptions(max_copies=50, bound_width_limit=math.inf))
    assert result.expected_copies == 0.0
    assert result.residual_mass == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("theta,q1,phi,eps", _continuation_cases((0.179, 0.1, 0.01)))
def test_verdict_table_decides_as_stop_rule(theta, q1, phi, eps):
    # the string lab and the simulator stop through VerdictTable (math.exp),
    # the engine through _StopRule (numpy's exp): both must agree on every state
    problem = DiscriminationProblem(theta=theta, q1=q1)
    rule = _StopRule(problem, phi, eps)
    table = VerdictTable(problem, MeasurementConfig.for_problem(problem, phi), eps)
    for n in range(1, 65):
        guess, _ = table.row(n)
        assert [rule.stops(m1, n - m1) for m1 in range(n + 1)] == (guess != 0).tolist(), n
