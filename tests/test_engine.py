import hashlib
import math
import random
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from seqdisc import (
    CostResult,
    DiscriminationProblem,
    EngineOptions,
    NonConvergenceError,
    brute_force_cost,
    fbm_cost,
    fixed_angle_cost,
    helstrom_angle,
    likelihoods,
    lol_cost,
    posterior_from_counts,
    ubm_cost,
)
from seqdisc import engine
from seqdisc.engine import CostCapExceeded, fixed_angle_costs
from seqdisc.posterior import StoppingRule

TIGHT = EngineOptions(max_copies=50_000, mass_tolerance=1e-14)


def test_engine_options_validation():
    with pytest.raises(ValueError):
        EngineOptions(max_copies=0)
    with pytest.raises(ValueError):
        EngineOptions(mass_tolerance=0.0)
    for limit in (math.nan, -1e-6):
        with pytest.raises(ValueError, match="bound_width_limit"):
            EngineOptions(max_copies=200, bound_width_limit=limit)
    assert EngineOptions(bound_width_limit=math.inf).bound_width_limit == math.inf
    assert EngineOptions(bound_width_limit=0.0).bound_width_limit == 0.0


@pytest.mark.parametrize("max_copies", [2.5, 3.0, True])
def test_max_copies_must_be_a_positive_integer(max_copies):
    with pytest.raises(ValueError, match="max_copies must be an integer >= 1"):
        EngineOptions(max_copies=max_copies)


def test_max_copies_accepts_numpy_integers(problem12):
    opts = EngineOptions(max_copies=np.int64(5_000))
    assert fixed_angle_cost(problem12, 0.3, 0.1, opts) == fixed_angle_cost(
        problem12, 0.3, 0.1, EngineOptions(max_copies=5_000))


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
    # the single-angle reference, which the engine matches at this angle in
    # test_batch_matches_single_angle_loop, keeps every depth's masses
    records = _single_angle_reference(problem12, 0.9, 0.179, TIGHT)[3]
    assert records
    for _, terminated, frontier in records:
        assert terminated + frontier == pytest.approx(1.0, abs=1e-12)


def test_monotone_residual(problem12):
    records = _single_angle_reference(problem12, 0.9, 0.1, TIGHT)[3]
    frontiers = [frontier for _, _, frontier in records]
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


OWN_COST_PHIS = [0.02 + i * (math.pi / 2 - 0.04) / 24 for i in range(25)]


@pytest.mark.parametrize("theta,q1,eps", [
    (theta, q1, eps)
    for theta in (math.pi / 16, math.pi / 12, math.pi / 8)
    for q1 in (0.5, 0.3)
    for eps in (0.25, 0.179, 0.05, 0.01)
])
def test_cap_at_own_cost_keeps_the_result(theta, q1, eps):
    # the capped bound never exceeds the cost the angle ends with, so a cap
    # equal to that cost keeps the angle's result, bit for bit
    problem = DiscriminationProblem(theta=theta, q1=q1)
    opts = EngineOptions(max_copies=5_000)
    uncapped = fixed_angle_costs(problem, OWN_COST_PHIS, eps, opts).outcomes
    converged = [(phi, r) for phi, r in zip(OWN_COST_PHIS, uncapped) if isinstance(r, CostResult)]
    assert len(converged) >= 20
    for phi, result in converged:
        assert fixed_angle_cost(problem, phi, eps, opts, cost_cap=result.expected_copies) == result


def test_cap_at_own_cost_keeps_an_accepted_residual(problem12):
    # the angle ends at max_copies with a residual mass far above
    # mass_tolerance, accepted because its enclosure width is under the limit
    opts = EngineOptions(max_copies=30)
    result = fixed_angle_cost(problem12, 0.6, 0.179, opts)
    assert result.residual_mass > 1e-9
    assert 0.5 * opts.bound_width_limit < result.bound_width <= opts.bound_width_limit
    assert fixed_angle_cost(problem12, 0.6, 0.179, opts, cost_cap=result.expected_copies) == result
    with pytest.raises(CostCapExceeded):
        fixed_angle_cost(problem12, 0.6, 0.179, opts, cost_cap=0.5 * result.expected_copies)


def _costs(batch):
    return [o.expected_copies if isinstance(o, CostResult) else math.inf for o in batch.outcomes]


def test_ceiling_only_from_angles_that_surely_drain():
    # the upper bound of an angle that later fails to converge would cap the
    # batch at 7.95, below the best angle's 8.0967 (index 47), which is
    # accepted at the budget with a residual; the drain test keeps it out
    problem = DiscriminationProblem(theta=math.pi / 12, q1=0.5)
    phis = np.linspace(0.0, math.pi / 2 - 1e-9, 60)
    opts = EngineOptions(max_copies=80)
    uncapped = _costs(fixed_angle_costs(problem, phis, 0.02, opts))
    capped = _costs(fixed_angle_costs(problem, phis, 0.02, opts, cost_cap=math.inf))
    assert int(np.argmin(uncapped)) == int(np.argmin(capped)) == 47
    assert capped[47] == uncapped[47] == 8.096731785744488


@pytest.mark.parametrize("theta,q1", [
    (theta, q1) for theta in (math.pi / 16, math.pi / 12, math.pi / 8) for q1 in (0.5, 0.3)
])
def test_capped_batch_keeps_the_uncapped_best(theta, q1):
    # small budgets leave many angles failing or accepted with a residual; the
    # running angles' upper bounds never drop the best angle, and every angle
    # dropped costs more than it
    problem = DiscriminationProblem(theta=theta, q1=q1)
    phis = np.linspace(0.0, math.pi / 2 - 1e-9, 40)
    for eps, max_copies in ((0.02, 80), (0.02, 150), (0.05, 50), (0.1, 30)):
        opts = EngineOptions(max_copies=max_copies)
        uncapped = _costs(fixed_angle_costs(problem, phis, eps, opts))
        capped = fixed_angle_costs(problem, phis, eps, opts, cost_cap=math.inf)
        best = min(uncapped)
        assert math.isfinite(best)
        assert min(_costs(capped)) == best
        assert int(np.argmin(_costs(capped))) == int(np.argmin(uncapped))
        for cost, outcome in zip(uncapped, capped.outcomes):
            if isinstance(outcome, CostCapExceeded):
                assert cost > best


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


def _ends(result):
    """The enclosure [lower, upper] of a CostResult, or of an exact integer copy count."""
    if isinstance(result, int):
        return result, result
    return result.expected_copies, result.expected_copies + result.bound_width


# pairs of eps below min(q1, q2) for every q1 drawn
EPS_PAIRS = st.tuples(*[st.floats(min_value=0.02, max_value=0.19)] * 2).map(sorted)
MONOTONE_OPTS = EngineOptions(max_copies=2_000)


@given(theta=st.floats(min_value=0.1, max_value=0.7), q1=st.floats(min_value=0.2, max_value=0.8),
       phi=st.floats(min_value=0.2, max_value=1.35), eps=EPS_PAIRS)
@settings(max_examples=40, deadline=None)
def test_costs_are_monotone_in_eps(theta, q1, phi, eps):
    # a larger eps stops every outcome string no later, so at a fixed angle the
    # cost at eps' > eps cannot lie above the cost at eps: the lower end at eps'
    # must not exceed the upper end at eps
    eps_low, eps_high = eps
    problem = DiscriminationProblem(theta=theta, q1=q1)
    symmetric = DiscriminationProblem(theta=theta)
    try:
        fixed = [fixed_angle_cost(problem, phi, e, MONOTONE_OPTS) for e in eps]
    except NonConvergenceError:
        assume(False)
    for name, (at_low, at_high) in {
        "fixed_angle_cost": fixed,
        "fbm_cost": [fbm_cost(problem, e) for e in eps],
        "ubm_cost": [ubm_cost(symmetric, e) for e in eps],
        "lol_cost": [lol_cost(problem, e) for e in eps],
    }.items():
        assert _ends(at_high)[0] <= _ends(at_low)[1], (name, eps_low, eps_high)


def test_brute_force_truncated_enclosure_is_pinned():
    # a residual > 0 (0.172): the enclosure width is the residual times (max_depth + Wald tail)
    res = brute_force_cost(DiscriminationProblem(theta=math.pi / 12), math.pi / 4, 0.01, 14)
    assert not res.exact
    assert (res.expected_copies.hex(), res.residual_mass.hex(), res.bound_width.hex()) == (
        "0x1.a725eebfffffep+2", "0x1.603fc80000000p-3", "0x1.7e4eaff7ec56ep+2")


def test_brute_force_reproduces_fbm_string_termination(problem12):
    # depth large enough to hold the whole FBM set: cost is exact
    res = brute_force_cost(problem12, problem12.theta, 0.179, 25)
    assert res.residual_mass == pytest.approx(0.0, abs=1e-15)
    assert res.expected_copies == pytest.approx(
        fbm_cost(problem12, 0.179).expected_copies, abs=1e-10
    )


# the reference's own slack on the error bound
BOUNDARY_TOL = 1e-12


def _reference_stop_mask(problem, phi, eps, m1, m2):
    """Vectorized stopping predicate over count states (the reference for StoppingRule)."""
    p11, p21, p12, p22 = likelihoods(problem, phi)
    # log-odds increments of psi2 vs psi1; only P(2|psi1) is ever 0 (at phi = theta)
    d1 = -math.log(p11 / p12)
    d2 = -math.log(p21 / p22) if p21 else math.inf
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


def _assert_runs_match_stop_mask(rule, problem, phi, eps):
    lo, hi = rule.runs(np.arange(1, 301), np.array([0]))
    for n in range(1, 301):
        m1 = np.arange(n + 1)
        inside = (m1 >= lo[n - 1, 0]) & (m1 <= hi[n - 1, 0])
        assert np.array_equal(inside, ~_reference_stop_mask(problem, phi, eps, m1, n - m1)), n
        assert hi[n - 1, 0] - lo[n - 1, 0] >= -1, n  # an empty run comes back as lo = hi + 1


@pytest.mark.parametrize("theta,q1,phi,eps", _continuation_cases())
def test_runs_match_stop_mask(theta, q1, phi, eps):
    problem = DiscriminationProblem(theta=theta, q1=q1)
    _assert_runs_match_stop_mask(StoppingRule(problem, [phi], eps), problem, phi, eps)


@pytest.mark.parametrize("phi,eps,shift", [
    (math.pi / 4, 1e-3, -1.5),  # runs of about 6 states
    (math.pi / 4, 1e-3, 3.0),
    (math.pi / 4, 1e-3, 40.0),
    (0.3, 0.125, -0.6),  # runs of at most one state
    (0.3, 0.125, -25.0),
])
def test_runs_recover_from_a_shifted_closed_form(problem12, phi, eps, shift):
    # the closed-form ends only seed the search: moved by `shift` states
    # (inward for negative shifts), the exact predicate still finds the run
    rule = StoppingRule(problem12, [phi], eps)
    rule.threshold += shift * float(rule.rate[0])
    _assert_runs_match_stop_mask(rule, problem12, phi, eps)


@pytest.mark.parametrize("phi", [0.0, math.pi / 2 - 1e-9])
def test_prescreen_rejects_uninformative_angles(problem12, phi):
    batch = fixed_angle_costs(problem12, [phi], 0.125, EngineOptions(max_copies=20_000))
    assert isinstance(batch.outcomes[0], NonConvergenceError)
    assert "no outcome string can stop within 20000 copies" in str(batch.outcomes[0])
    assert batch.angle_steps == 0


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
    batch = fixed_angle_costs(problem, [phi], eps, EngineOptions(max_copies=k))
    assert "no outcome string can stop" not in str(batch.outcomes[0])
    assert batch.angle_steps == k
    batch = fixed_angle_costs(problem, [phi], eps, EngineOptions(max_copies=k - 1))
    assert isinstance(batch.outcomes[0], NonConvergenceError)
    assert f"no outcome string can stop within {k - 1} copies" in str(batch.outcomes[0])
    assert batch.angle_steps == 0


def test_prescreen_keeps_vacuous_result_under_unbounded_width_limit(problem12):
    # with no limit on the enclosure width the loop's verdict is a result, not
    # an error: nothing stops, and all of the mass is left as residual
    result = fixed_angle_cost(problem12, 0.0, 0.1,
                              EngineOptions(max_copies=50, bound_width_limit=math.inf))
    assert result.expected_copies == 0.0
    assert result.residual_mass == pytest.approx(1.0, abs=1e-12)


# eps just below 1/2: every state whose log-odds lie more than about 2e-10
# from 0 stops, so the guess is taken on states of nearly even odds
@pytest.mark.parametrize("theta,q1,phi,eps", _continuation_cases((0.179, 0.1, 0.01)) + [
    case for case in _continuation_cases((0.4999999999,)) if case[1] == 0.5])
def test_verdicts_decide_as_stop_rule_and_guess_as_posterior(theta, q1, phi, eps):
    # the string lab and the simulator stop through verdicts, the engine
    # through stops: both must agree on every state, and a stopping state's
    # guess must be the posterior's more probable hypothesis
    problem = DiscriminationProblem(theta=theta, q1=q1)
    lik = likelihoods(problem, phi)
    rule = StoppingRule(problem, phi, eps)
    for n in range(1, 65):
        verdicts = rule.verdicts(np.arange(n + 1), n - np.arange(n + 1))
        assert verdicts.dtype == np.int8
        assert [rule.stops(m1, n - m1) for m1 in range(n + 1)] == (verdicts != 0).tolist(), n
        stopping = np.flatnonzero(verdicts).tolist()
        guesses = [1 if posterior_from_counts(problem, lik, m1, n - m1).p1 >= 0.5 else 2
                   for m1 in stopping]
        assert verdicts[stopping].tolist() == guesses, n


def _batch_cases():
    cases = []
    for theta in (math.pi / 16, math.pi / 12, math.pi / 8):
        for q1 in (0.5, 0.3):
            for eps in (0.3, 0.179, 0.05, 0.01):
                if eps < min(q1, 1.0 - q1):
                    cases.append((theta, q1, eps))
    return cases


# 50 angles from phi = 0 to pi/2 - 1e-9; the short copy budget makes the
# near-endpoint angles fail on their residual mass after 5,000 copies
BATCH_PHIS = [i * (math.pi / 2 - 1e-9) / 49 for i in range(50)]
BATCH_OPTS = EngineOptions(max_copies=5_000)


def _fingerprint(outcome):
    if isinstance(outcome, Exception):
        return type(outcome).__name__, str(outcome)
    return (outcome.expected_copies.hex(), outcome.exact, float(outcome.residual_mass).hex(),
            float(outcome.bound_width).hex())


def _smallest_argmin(outcomes):
    costs = [o.expected_copies if isinstance(o, CostResult) else math.inf for o in outcomes]
    return min(costs), costs.index(min(costs))


@pytest.mark.parametrize("theta,q1,eps", _batch_cases())
def test_batch_matches_batches_of_one(theta, q1, eps):
    # uncapped, one depth loop over the whole grid gives every angle, bit for
    # bit, what a loop over that angle alone gives it, failures and their
    # messages too.  Capped, every angle that does not end as CostCapExceeded
    # ends as it does uncapped, the minimum and its smallest-phi argmin are
    # the uncapped ones, and every dropped angle costs more than the lower of
    # the cap and the uncapped minimum.
    problem = DiscriminationProblem(theta=theta, q1=q1)
    uncapped = fixed_angle_costs(problem, BATCH_PHIS, eps, BATCH_OPTS).outcomes
    alone = [fixed_angle_costs(problem, [phi], eps, BATCH_OPTS).outcomes[0] for phi in BATCH_PHIS]
    assert [_fingerprint(o) for o in uncapped] == [_fingerprint(o) for o in alone]
    assert isinstance(uncapped[0], NonConvergenceError)
    best = _smallest_argmin(uncapped)
    cap = 1.2 * best[0]
    capped = fixed_angle_costs(problem, BATCH_PHIS, eps, BATCH_OPTS, cost_cap=cap).outcomes
    assert any(isinstance(o, CostCapExceeded) for o in capped)
    assert _smallest_argmin(capped) == best
    for outcome, truth in zip(capped, uncapped):
        if isinstance(outcome, CostCapExceeded):
            assert not isinstance(truth, CostResult) or truth.expected_copies > min(cap, best[0])
        else:
            assert _fingerprint(outcome) == _fingerprint(truth)


def test_batch_with_uneven_runs_matches_batches_of_one():
    # near phi = 0 the runs grow far wider than the others', so the slots of
    # one flat frontier differ widely in length
    problem = DiscriminationProblem(theta=math.pi / 8)
    phis = [i * (math.pi / 2 - 1e-9) / 1999 for i in range(1, 40, 3)]
    opts = EngineOptions(max_copies=1_500, bound_width_limit=math.inf)
    batch = fixed_angle_costs(problem, phis, 0.125, opts)
    alone = [fixed_angle_costs(problem, [phi], 0.125, opts).outcomes[0] for phi in phis]
    assert [_fingerprint(o) for o in batch.outcomes] == [_fingerprint(o) for o in alone]


def test_batch_of_one_is_fixed_angle_cost(problem12):
    batch = fixed_angle_costs(problem12, [0.05], 1e-3)
    assert batch.outcomes == [fixed_angle_cost(problem12, 0.05, 1e-3)]
    records = _single_angle_reference(problem12, 0.05, 1e-3, EngineOptions())[3]
    assert batch.angle_steps == len(records)
    assert batch.depth_iterations >= batch.angle_steps


def test_batch_validates_inputs_before_running(problem12):
    with pytest.raises(ValueError, match="error bound must lie in"):
        fixed_angle_costs(problem12, [0.3, 0.5], 0.6)
    with pytest.raises(ValueError, match="measurement angle"):
        fixed_angle_costs(problem12, [0.3, math.pi / 2], 0.1)


def _single_angle_reference(problem, phi, eps, opts):
    """One angle advanced alone with np.correlate, the reference the batched engine matches.

    Returns the cost, the residual mass, the number of window trims and, per
    depth n, the record (n, terminated mass, frontier and leaked mass).
    """
    a1, _, a2, _ = likelihoods(problem, phi)
    rule = StoppingRule(problem, phi, eps)
    q1, q2 = problem.q1, problem.q2
    kernel1, kernel2 = np.array([a1, 1.0 - a1]), np.array([a2, 1.0 - a2])
    mass1, mass2 = np.array([1.0]), np.array([1.0])
    base, n = 0, 0
    cost_accum = terminated = leaked = 0.0
    trims = 0
    records = []
    while n < opts.max_copies:
        n += 1
        new1 = np.correlate(mass1, kernel1, "full")
        new2 = np.correlate(mass2, kernel2, "full")
        weight = q1 * new1 + q2 * new2
        m1 = base + np.arange(len(weight))
        go = np.nonzero(~rule.stops(m1, n - m1))[0]
        i0, i1 = (int(go[0]), int(go[-1]) + 1) if len(go) else (0, 0)
        assert i1 - i0 == len(go)  # the states that continue form one run
        stopped = float(np.concatenate((weight[:i0], weight[i1:])).sum())
        cost_accum += n * stopped
        terminated += stopped
        mass1, mass2, live = new1[i0:i1], new2[i0:i1], weight[i0:i1]
        base += i0
        frontier = float(live.sum())
        records.append((n, terminated, frontier + leaked))
        if frontier + leaked <= opts.mass_tolerance:
            break
        cut = frontier * 1e-40
        if len(live) and live[0] > cut and live[-1] > cut:
            continue
        trims += 1
        keep = np.nonzero(live > cut)[0]
        if len(keep) == 0:
            leaked += frontier
            mass1, mass2 = mass1[:0], mass2[:0]
            break
        k0, k1 = int(keep[0]), int(keep[-1]) + 1
        leaked += float(live[:k0].sum() + live[k1:].sum())
        mass1, mass2 = mass1[k0:k1], mass2[k0:k1]
        base += k0
    residual = float(q1 * mass1.sum() + q2 * mass2.sum()) + leaked
    return cost_accum, residual, trims, records


LOOP_OPTS = EngineOptions(max_copies=6_000, bound_width_limit=math.inf)


@pytest.mark.parametrize("theta,phi,eps,opts", [
    (math.pi / 8, 0.00079, 0.125, LOOP_OPTS),  # a wide frontier, trimmed every few depths
    (math.pi / 12, 0.001, 0.125, LOOP_OPTS),
    (math.pi / 12, 1.5697, 0.05, LOOP_OPTS),
    (math.pi / 12, 0.05, 1e-3, LOOP_OPTS),
    (math.pi / 12, math.pi / 12, 0.05, LOOP_OPTS),  # an infinite step: outcome 2 stops at once
    # the angles of test_probability_conservation and test_monotone_residual
    (math.pi / 12, 0.9, 0.179, TIGHT),
    (math.pi / 12, 0.9, 0.1, TIGHT),
])
def test_batch_matches_single_angle_loop(theta, phi, eps, opts):
    problem = DiscriminationProblem(theta=theta)
    cost, residual, trims, records = _single_angle_reference(problem, phi, eps, opts)
    batch = fixed_angle_costs(problem, [phi], eps, opts)
    result = batch.outcomes[0]
    assert (result.expected_copies, result.residual_mass) == (cost, residual)
    assert batch.angle_steps == len(records)
    if phi < 0.01:
        assert trims > 0


# Fig. 1 at theta = 0.2095, eps = 0.125: one grid step of a 100-point scan in
# from phi = 0, its mirror, pi/4, theta, and an angle whose window is trimmed
MIXED_THETA = 0.2095
STEP = (math.pi / 2 - 1e-9) / 99
MIXED_PHIS = [STEP, math.pi / 2 - STEP, math.pi / 4, MIXED_THETA, 0.002]


# four informative angles more, where the upper bound of a running angle
# drops the others before it converges
WIDE_PHIS = MIXED_PHIS + [0.5, 0.6, 1.0, 0.3]


@pytest.mark.parametrize("first,most,cells", [(1, 1, 1), (4096, 4096, 1 << 20)])
def test_block_sizes_do_not_change_results(monkeypatch, first, most, cells):
    # one copy per block, or each run in one block: every angle ends as with
    # the default blocks, uncapped, under a cost cap, under the upper bound of
    # a running angle and at the copy budget, errors and their messages too
    problem = DiscriminationProblem(theta=MIXED_THETA)
    opts = EngineOptions(max_copies=1000)
    cases = ((MIXED_PHIS, None), (MIXED_PHIS, 7.0), (WIDE_PHIS, 7.0))
    default = [fixed_angle_costs(problem, phis, 0.125, opts, cost_cap=cap) for phis, cap in cases]
    kinds = ({CostResult, NonConvergenceError}, {CostResult, CostCapExceeded},
             {CostResult, CostCapExceeded})
    for batch, kind in zip(default, kinds):
        assert {type(o) for o in batch.outcomes} == kind
    # some cap of the wide case is neither 7.0 nor a cost any angle ends with
    ended = set(_costs(fixed_angle_costs(problem, WIDE_PHIS, 0.125, opts)))
    caps = {float(re.search(r"cap (\S+) at", str(o)).group(1)) for o in default[2].outcomes
            if isinstance(o, CostCapExceeded)}
    assert caps - ended - {7.0}
    monkeypatch.setattr(engine, "_FIRST_BLOCK", first)
    monkeypatch.setattr(engine, "_MAX_BLOCK", most)
    monkeypatch.setattr(engine, "_BLOCK_CELLS", cells)
    for (phis, cap), expected in zip(cases, default):
        batch = fixed_angle_costs(problem, phis, 0.125, opts, cost_cap=cap)
        assert [_fingerprint(o) for o in batch.outcomes] == [_fingerprint(o) for o in expected.outcomes]
        assert batch.angle_steps == expected.angle_steps


def test_capped_wide_batch_outcomes_are_pinned():
    # a coarse scan's batch: 200 grid points capped at the lower anchor
    # cost, which drops 196 of them; every outcome and message is pinned
    problem = DiscriminationProblem(theta=math.pi / 12)
    opts = EngineOptions(max_copies=20_000)
    cap = min(fixed_angle_cost(problem, phi, 0.05, opts).expected_copies
              for phi in (problem.theta, helstrom_angle(problem)))
    step = (math.pi / 2 - 1e-9) / 199
    outcomes = fixed_angle_costs(problem, [i * step for i in range(200)], 0.05, opts,
                                 cost_cap=cap).outcomes
    assert Counter(type(o) for o in outcomes) == {
        CostCapExceeded: 196, NonConvergenceError: 2, CostResult: 2}
    digest = hashlib.sha256("\n".join(map(str, outcomes)).encode()).hexdigest()
    assert digest == "1ed4eaab0eb1ae358f348a409622d30d156606db2ef2b6db736d0f9eac416be5"


def test_near_endpoint_angle_runs_in_long_blocks():
    # Fig. 1's slowest converging angle drains only after about 16,000
    # copies; its slot follows its run, so its blocks stay long
    batch = fixed_angle_costs(DiscriminationProblem(theta=MIXED_THETA), [STEP], 0.125,
                              EngineOptions(max_copies=20_000))
    assert isinstance(batch.outcomes[0], CostResult)
    assert batch.angle_steps > 15_000
    assert batch.blocks <= 32


def test_trimming_angle_runs_each_depth_once():
    # Fig. 1's first grid angle at theta = pi/8 trims its window every few
    # depths and fails at the copy budget; its window is trimmed only at
    # block ends, so every block runs to its end and no depth is run twice
    phi = (math.pi / 2 - 1e-9) / 1999
    batch = fixed_angle_costs(DiscriminationProblem(theta=math.pi / 8), [phi], 0.125,
                              EngineOptions(max_copies=20_000))
    assert str(batch.outcomes[0]) == (
        "residual mass 1.000e+00 after 20000 copies at phi=0.0007857910584266616; "
        "enclosure width 8.105e+05 exceeds 1.000e-06")
    assert batch.depth_iterations == batch.angle_steps == 20_000
    assert batch.blocks <= 1_000


def test_stopped_mass_sums_many_stopped_states_in_window_order():
    # a window of 7 states whose run keeps only the middle one, and a row
    # whose run is empty: both are summed in order, as np.sum of the window
    rng = np.random.default_rng(3)
    weight = rng.random((1, 24)) * 10.0 ** rng.integers(-8, 8, (1, 24))
    lo_run = np.array([[0, 2], [3, 5]])  # runs before and at the depth, in m1
    hi_run = np.array([[5, 6], [3, 4]])
    origin = np.array([[1, 12]])  # at the depth, row 1's m1 = 2 lies at column 14
    stopped = engine._stopped_mass(weight, np.zeros((1, 2)), lo_run, hi_run, origin)
    window = weight[0, 1:8]
    assert stopped[0, 0] == np.concatenate((window[:3], window[4:])).sum()
    assert stopped[0, 1] == weight[0, 14:20].sum()


def test_run_sums_are_np_sum_of_each_run():
    # the frontier mass each stop test reads is np.sum of the run, as the
    # loop over one angle summed it, whatever the run's length and place
    rng = np.random.default_rng(4)
    for _ in range(200):
        lengths = rng.integers(1, 300, 3)
        lo = rng.integers(0, 50, (2, 3))
        hi = lo + lengths - 1
        hi[1, 2] = lo[1, 2] - 2  # an empty run sums to 0
        origin = np.concatenate(([1], 2 + np.cumsum(lengths + 60)[:-1])) - lo.min(axis=0)
        # each depth has its own origins, as rows whose columns follow their run do
        origin = origin + np.array([[0], [rng.integers(0, 10)]])
        values = np.zeros((2, int(origin.max() + hi.max() + 2)))
        for j, k in np.ndindex(2, 3):
            if lo[j, k] <= hi[j, k]:
                run = slice(origin[j, k] + lo[j, k], origin[j, k] + hi[j, k] + 1)
                values[j, run] = rng.random(lengths[k]) * 10.0 ** rng.integers(-20, 5, lengths[k])
        sums = engine._run_sums(np.append(values.ravel(), 0.0), values.shape[1], lo, hi, origin)
        for j, k in np.ndindex(2, 3):
            run = values[j, origin[j, k] + lo[j, k]:origin[j, k] + hi[j, k] + 1]
            assert sums[j, k] == (run.sum() if lo[j, k] <= hi[j, k] else 0.0)


def test_copy_patterns_are_numbered_in_order_of_first_use():
    pattern, first = engine._patterns(np.array([[1, 2], [3, 4], [1, 2], [5, 6], [3, 4]]))
    assert pattern.tolist() == [0, 1, 0, 2, 1]
    assert first.tolist() == [0, 1, 3]


def test_layout_keeps_coefficients_only_for_repeated_patterns():
    # a run that stays at [0, 0] repeats one pattern, whose coefficients are
    # kept; a run that widens by a state per copy gives every copy its own
    steady = np.zeros((5, 1), dtype=np.int64)
    *_, (pattern, _, _, once) = engine._layout(steady, steady)
    assert pattern.tolist() == [0, 0, 0, 0] and not once
    *_, (pattern, _, _, once) = engine._layout(steady, np.arange(5)[:, None])
    assert pattern.tolist() == [0, 1, 2, 3] and once
