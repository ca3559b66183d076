import copy
import heapq
import math
import pickle

import numpy as np
import pytest

import seqdisc.stringlab
from seqdisc import (
    DiscriminationProblem,
    MeasurementConfig,
    StrategyKind,
    StrategySpec,
    aggregate_by_length,
    cost_from_strings,
    enumerate_strings,
    fbm_cost,
    meets_error_bound,
    posterior_error,
    posterior_from_counts,
    strategy_angle,
    ubm_cost,
)
from seqdisc.engine import worst_case_tail
from seqdisc.stringlab import LengthAggregate, StringSet, outcome_labels

FBM = StrategySpec(StrategyKind.FBM)
UBM = StrategySpec(StrategyKind.UBM)
COLUMNS = ("labels", "prob", "prob_given_psi1", "prob_given_psi2", "true_error", "guess", "n")

PAPER_FBM_SET = {"2", "12", "112", "1112", "11112", "111112", "111111"}
PAPER_GOF_SET = {"2", "11", "122", "1212", "12111", "121122", "1211212", "12112111"}


def _labels(strings) -> list[str]:
    return strings.labels.astype(str).tolist()


def _subset(strings, index) -> StringSet:
    """The strings at `index` (a slice or mask), as a StringSet."""
    return StringSet(*(getattr(strings, name)[index] for name in COLUMNS))


def _columns(strings) -> list[list]:
    return [getattr(strings, name).tolist() for name in COLUMNS]


def _aggregate_loop(strings) -> list[LengthAggregate]:
    """aggregate_by_length as a loop over the strings, one at a time in emission order."""
    by_n: dict[int, tuple[float, float]] = {}
    for n, prob, error in zip(strings.n.tolist(), strings.prob.tolist(),
                              strings.true_error.tolist()):
        total, weighted = by_n.get(n, (0.0, 0.0))
        by_n[n] = (total + prob, weighted + prob * error)
    return [
        LengthAggregate(n=n, total_prob=total, mean_error=weighted / total if total else 0.0)
        for n, (total, weighted) in sorted(by_n.items())
    ]


def _cost_loop(strings):
    """cost_from_strings' sum of n * P(X_n) as a loop over the strings."""
    return sum(n * prob for n, prob in zip(strings.n.tolist(), strings.prob.tolist()))


def test_fbm_string_set(problem12):
    strings, residual = enumerate_strings(problem12, FBM, 0.179,
                                          coverage_target=1.0, max_depth=64)
    assert set(_labels(strings)) == PAPER_FBM_SET
    assert residual == pytest.approx(0.0, abs=1e-15)
    row = {label: i for i, label in enumerate(_labels(strings))}
    for label in PAPER_FBM_SET - {"111111"}:
        assert strings.true_error[row[label]] == 0.0
        assert strings.guess[row[label]] == 2
    assert strings.guess[row["111111"]] == 1


def test_ubm_aggregates(problem12):
    strings, residual = enumerate_strings(problem12, UBM, 0.179,
                                          coverage_target=1.0, max_depth=10)
    aggs = aggregate_by_length(strings)
    assert all(a.n % 2 == 0 for a in aggs)
    for a in aggs:
        assert a.mean_error == pytest.approx(0.1, abs=1e-12)
    total = sum(a.total_prob for a in aggs)
    assert total == pytest.approx(0.993, abs=2e-3)


def test_gof_string_set(problem12, gof_179):
    phi_opt, _ = gof_179
    spec = StrategySpec(StrategyKind.FIXED_ANGLE, phi=phi_opt)
    strings, _ = enumerate_strings(problem12, spec, 0.179)
    assert set(_labels(strings)[:8]) == PAPER_GOF_SET
    assert sum(strings.prob[:8].tolist()) >= 0.997


def test_descending_probability_order(problem12, gof_179):
    phi_opt, _ = gof_179
    spec = StrategySpec(StrategyKind.FIXED_ANGLE, phi=phi_opt)
    strings, _ = enumerate_strings(problem12, spec, 0.179)
    probs = strings.prob.tolist()
    assert all(a >= b for a, b in zip(probs, probs[1:]))


@pytest.mark.parametrize("spec,theta,eps", [
    (FBM, math.pi / 12, 0.179),
    (UBM, math.pi / 12, 0.179),
    (UBM, math.pi / 8, 0.125),
    (StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.9), math.pi / 12, 0.1),
    (StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.5), math.pi / 8, 0.2),
])
def test_conservation_and_prefix_freeness(spec, theta, eps):
    p = DiscriminationProblem(theta=theta)
    # depth kept moderate: exhaustive coverage grows the live prefix set geometrically
    strings, residual = enumerate_strings(p, spec, eps, coverage_target=1.0, max_depth=24)
    total = sum(strings.prob.tolist())
    assert total + residual == pytest.approx(1.0, abs=1e-12)
    labels = sorted(_labels(strings))
    for a, b in zip(labels, labels[1:]):
        assert not b.startswith(a)
    # every emitted string respects the bound
    assert (strings.true_error <= eps + 1e-9).all()


@pytest.mark.parametrize("spec,eps", [(FBM, 0.179), (UBM, 0.1),
                                      (StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.7), 0.15)])
def test_bayes_identity(problem12, spec, eps):
    # e(X) from the terminal posterior equals q_wrong * P(X|wrong) / P(X)
    strings, _ = enumerate_strings(problem12, spec, eps, coverage_target=0.999, max_depth=24)
    for prob, pg1, pg2, error, guess in zip(*_columns(strings)[1:6]):
        wrong_prob = pg2 if guess == 1 else pg1
        q_wrong = problem12.q2 if guess == 1 else problem12.q1
        assert error == pytest.approx(q_wrong * wrong_prob / prob, abs=1e-12)


def test_lol_rejected(problem12):
    with pytest.raises(ValueError):
        enumerate_strings(problem12, StrategySpec(StrategyKind.LOL), 0.179)


def test_aggregate_edge_cases(problem12):
    strings, _ = enumerate_strings(problem12, FBM, 0.179, coverage_target=1.0, max_depth=64)
    assert aggregate_by_length(_subset(strings, slice(0, 0))) == []
    one = _subset(strings, strings.labels == b"2")
    aggs = aggregate_by_length(one)
    assert len(one) == len(aggs) == 1
    assert aggs[0].n == 1
    assert aggs[0].total_prob == one.prob[0]
    assert aggs[0].mean_error == one.true_error[0]


def test_string_set_is_read_only_columns(problem12):
    strings, _ = enumerate_strings(problem12, UBM, 0.179, coverage_target=1.0, max_depth=10)
    assert isinstance(strings, StringSet)
    assert len(strings) > 8
    assert all(len(column) == len(strings) for column in _columns(strings))
    assert strings.n.tolist() == [len(label) for label in _labels(strings)]
    assert aggregate_by_length(strings) == _aggregate_loop(strings)
    # both sum in emission order, left to right
    assert cost_from_strings(strings, 0.0, 10).expected_copies == _cost_loop(strings)
    with pytest.raises(ValueError):
        strings.prob[0] = 1.0
    with pytest.raises(AttributeError):
        strings.prob = strings.prob[:1]


# fig4's three sets, the benchmark's large UBM set, a fixed angle, and (at one copy) none
_AGGREGATE_CASES = [
    ("fig4-fbm", FBM, 0.179, 64),
    ("fig4-ubm", UBM, 0.179, 64),
    ("fig4-gof", None, 0.179, 64),
    ("ubm-0.074", UBM, 0.074, 64),
    ("fixed:0.7", StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.7), 0.15, 64),
    ("empty", UBM, 0.01, 1),
]


@pytest.mark.parametrize("name,spec,eps,max_depth", _AGGREGATE_CASES,
                         ids=[case[0] for case in _AGGREGATE_CASES])
def test_column_aggregates_match_the_loops_bit_for_bit(problem12, gof_179, name, spec, eps,
                                                       max_depth):
    if spec is None:
        spec = StrategySpec(StrategyKind.FIXED_ANGLE, phi=gof_179[0])
    strings, residual = enumerate_strings(problem12, spec, eps, max_depth=max_depth)
    assert (len(strings) == 0) == (name == "empty")
    aggs, expected = aggregate_by_length(strings), _aggregate_loop(strings)
    assert aggs == expected
    assert [(a.n, a.total_prob.hex(), a.mean_error.hex()) for a in aggs] == \
        [(a.n, a.total_prob.hex(), a.mean_error.hex()) for a in expected]
    cost = cost_from_strings(strings, residual, max_depth).expected_copies
    assert cost == _cost_loop(strings)
    assert float(cost).hex() == float(_cost_loop(strings)).hex()


def test_string_set_survives_copy_and_pickle(problem12):
    strings, _ = enumerate_strings(problem12, UBM, 0.179, coverage_target=1.0, max_depth=10)
    columns = _columns(strings)
    part = [column[2:7] for column in columns]
    for twin, expected in ((copy.copy(strings), columns), (copy.deepcopy(strings), columns),
                           (pickle.loads(pickle.dumps(strings)), columns),
                           (pickle.loads(pickle.dumps(_subset(strings, slice(2, 7)))), part)):
        assert isinstance(twin, StringSet)
        assert _columns(twin) == expected
        assert not twin.prob.flags.writeable
        with pytest.raises(AttributeError):
            twin.prob = twin.prob[:1]


def test_empty_string_set(problem12):
    # UBM's single copy errs with probability about 0.37: nothing stops at depth 1
    strings, residual = enumerate_strings(problem12, UBM, 0.01, max_depth=1)
    assert len(strings) == 0 and _columns(strings) == [[]] * len(COLUMNS) and residual == 1.0
    assert aggregate_by_length(strings) == []
    assert cost_from_strings(strings, residual, 1).expected_copies == 0.0


def test_outcome_labels_match_a_loop():
    rng = np.random.default_rng(3)
    twos = rng.random((300, 70)) < 0.5
    n = rng.integers(1, 71, len(twos))
    n[0] = 70
    labels = outcome_labels(twos, n)
    assert labels.dtype == np.dtype("S70")
    assert [b.decode() for b in labels.tolist()] == [
        "".join("2" if two else "1" for two in row[:k]) for row, k in zip(twos.tolist(), n.tolist())
    ]


def test_cost_from_strings_fbm(problem12):
    strings, residual = enumerate_strings(problem12, FBM, 0.179,
                                          coverage_target=1.0, max_depth=64)
    result = cost_from_strings(strings, residual, 64)
    assert result.exact
    assert result.expected_copies == pytest.approx(
        fbm_cost(problem12, 0.179).expected_copies, abs=1e-12
    )


def test_cost_from_strings_ubm_enclosure(problem12):
    strings, residual = enumerate_strings(problem12, UBM, 0.179,
                                          coverage_target=1.0, max_depth=10)
    tail = worst_case_tail(problem12, math.pi / 4, 0.179)
    result = cost_from_strings(strings, residual, 10, tail_bound=tail)
    oracle = ubm_cost(problem12, 0.179).expected_copies
    assert result.expected_copies < oracle
    assert oracle < result.expected_copies + result.bound_width


def test_single_certain_string(problem12):
    strings, _ = enumerate_strings(problem12, UBM, 0.01, max_depth=1)
    result = cost_from_strings(strings, 0.0, 5)
    assert result.expected_copies == 0.0


def _heap_reference(problem, strategy, eps, coverage_target, max_depth):
    """The best-first heap enumerator that the depth-wise frontier replaced."""
    config = MeasurementConfig.for_problem(problem, strategy_angle(problem, strategy))
    q1, q2 = problem.q1, problem.q2
    # (outcome, likelihood under psi1, likelihood under psi2, count increments)
    steps = [(b"1", config.likelihood(1, 1), config.likelihood(1, 2), 1, 0),
             (b"2", config.likelihood(2, 1), config.likelihood(2, 2), 0, 1)]
    verdicts = {}  # (m1, m2) -> (guess, true error), guess 0 while the posterior goes on
    # outcomes as ASCII bytes (b"121"), which order as the outcome tuples do
    heap = [(-1.0, b"", 0, 0, 1.0, 1.0)]
    emitted = []  # (label, prob, prob_given_psi1, prob_given_psi2, true_error, guess)
    covered = 0.0
    dropped = 0.0
    while heap and covered < coverage_target:
        neg_prob, outcomes, m1, m2, pg1, pg2 = heapq.heappop(heap)
        n = len(outcomes)
        if n > 0:
            verdict = verdicts.get((m1, m2))
            if verdict is None:
                state = posterior_from_counts(problem, config, m1, m2)
                guess = 0
                if meets_error_bound(posterior_error(state), eps):
                    guess = 1 if state.p1 >= 0.5 else 2
                verdict = verdicts[m1, m2] = (guess, (1.0 - state.p1) if guess == 1 else state.p1)
            guess, error = verdict
            if guess:
                emitted.append((outcomes, -neg_prob, pg1, pg2, error, guess))
                covered += -neg_prob
                continue
            if n >= max_depth:
                dropped += -neg_prob
                continue
        for outcome, lik1, lik2, dm1, dm2 in steps:
            c1 = pg1 * lik1
            c2 = pg2 * lik2
            prob = q1 * c1 + q2 * c2
            if prob == 0.0:
                continue
            heapq.heappush(heap, (-prob, outcomes + outcome, m1 + dm1, m2 + dm2, c1, c2))
    return emitted, dropped + sum(-entry[0] for entry in heap)


def _exactness_grid():
    """(problem, spec, eps, coverage, max_depth) cases small enough for the heap reference."""
    pi12 = DiscriminationProblem(theta=math.pi / 12)
    cases = [
        (pi12, FBM, 0.179),
        # FBM strings 1...12 run to 72 copies: past one 64-outcome code word
        (pi12, FBM, 1e-9),
        (pi12, UBM, 0.179),
        (pi12, UBM, 0.08),
        (pi12, StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.7), 0.15),
        (DiscriminationProblem(theta=math.pi / 8, q1=0.3),
         StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.5), 0.2),
    ]
    grid = []
    for problem, spec, eps in cases:
        for coverage in (0.998, 0.999, 1.0):
            for max_depth in (10, 24, 64, 70):
                # exhaustive sets of walks grow about as 2**(max_depth / 2)
                if coverage == 1.0 and max_depth > 24 and spec.kind is not StrategyKind.FBM:
                    continue
                # 10**5 strings or more: one such case, the benchmark's, is enough
                if eps == 0.08 and max_depth != 10 and (coverage, max_depth) != (0.998, 64):
                    continue
                grid.append((problem, spec, eps, coverage, max_depth))
    # the coverage cut falls after prefixes were cut off at max_depth, so the
    # residual counts those that popped before the cut
    grid += [(pi12, StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.9), 0.179, 0.8, 3),
             (pi12, StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.5), 0.01, 0.5, 8)]
    return grid


@pytest.mark.parametrize("problem,spec,eps,coverage,max_depth", _exactness_grid())
def test_frontier_matches_heap_reference(problem, spec, eps, coverage, max_depth):
    strings, residual = enumerate_strings(problem, spec, eps, coverage, max_depth)
    expected, expected_residual = _heap_reference(problem, spec, eps, coverage, max_depth)
    labels, *floats, guess = zip(*expected) if expected else [()] * 6
    assert strings.labels.tolist() == list(labels)
    # the floats bit for bit
    for name, column in zip(COLUMNS[1:5], floats):
        assert np.array_equal(getattr(strings, name).view(np.uint64),
                              np.array(column, dtype=np.float64).view(np.uint64)), name
    assert strings.guess.tolist() == list(guess)
    assert strings.n.tolist() == [len(label) for label in labels]
    assert residual == pytest.approx(expected_residual, abs=1e-14)
    if eps == 1e-9 and max_depth == 70:
        assert strings.n.max() == 70


def test_string_lab_tabulates_through_its_posterior_attribute(problem12, monkeypatch):
    # perfbench/tracing.py counts stopping tests by replacing this attribute
    calls = []
    original = seqdisc.stringlab.posterior_from_counts

    def counted(*args):
        calls.append(args[2:])
        return original(*args)

    monkeypatch.setattr(seqdisc.stringlab, "posterior_from_counts", counted)
    strings, _ = enumerate_strings(problem12, UBM, 0.179, coverage_target=1.0, max_depth=10)
    # one test per count state (m1, m2) with 1 <= m1 + m2 <= 10, not one per prefix
    assert sorted(calls) == sorted((m1, n - m1) for n in range(1, 11) for m1 in range(n + 1))
    assert len(strings) > len(calls) / 2
