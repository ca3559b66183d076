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
from seqdisc.stringlab import StringSet, TerminationString, outcome_labels

FBM = StrategySpec(StrategyKind.FBM)
UBM = StrategySpec(StrategyKind.UBM)

PAPER_FBM_SET = {"2", "12", "112", "1112", "11112", "111112", "111111"}
PAPER_GOF_SET = {"2", "11", "122", "1212", "12111", "121122", "1211212", "12112111"}


def test_fbm_string_set(problem12):
    strings, residual = enumerate_strings(problem12, FBM, 0.179,
                                          coverage_target=1.0, max_depth=64)
    assert {s.label for s in strings} == PAPER_FBM_SET
    assert residual == pytest.approx(0.0, abs=1e-15)
    by_label = {s.label: s for s in strings}
    for label in PAPER_FBM_SET - {"111111"}:
        assert by_label[label].true_error == 0.0
        assert by_label[label].guess == 2
    assert by_label["111111"].guess == 1


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
    top8 = strings[:8]
    assert {s.label for s in top8} == PAPER_GOF_SET
    assert sum(s.prob for s in top8) >= 0.997


def test_descending_probability_order(problem12, gof_179):
    phi_opt, _ = gof_179
    spec = StrategySpec(StrategyKind.FIXED_ANGLE, phi=phi_opt)
    strings, _ = enumerate_strings(problem12, spec, 0.179)
    probs = [s.prob for s in strings]
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
    total = sum(s.prob for s in strings)
    assert total + residual == pytest.approx(1.0, abs=1e-12)
    labels = sorted(s.label for s in strings)
    for a, b in zip(labels, labels[1:]):
        assert not b.startswith(a)
    # every emitted string respects the bound
    for s in strings:
        assert s.true_error <= eps + 1e-9


@pytest.mark.parametrize("spec,eps", [(FBM, 0.179), (UBM, 0.1),
                                      (StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.7), 0.15)])
def test_bayes_identity(problem12, spec, eps):
    # e(X) from the terminal posterior equals q_wrong * P(X|wrong) / P(X)
    strings, _ = enumerate_strings(problem12, spec, eps, coverage_target=0.999, max_depth=24)
    for s in strings:
        wrong_prob = s.prob_given_psi2 if s.guess == 1 else s.prob_given_psi1
        q_wrong = problem12.q2 if s.guess == 1 else problem12.q1
        assert s.true_error == pytest.approx(q_wrong * wrong_prob / s.prob, abs=1e-12)


def test_lol_rejected(problem12):
    with pytest.raises(ValueError):
        enumerate_strings(problem12, StrategySpec(StrategyKind.LOL), 0.179)


def test_aggregate_edge_cases(problem12):
    assert aggregate_by_length([]) == []
    strings, _ = enumerate_strings(problem12, FBM, 0.179, coverage_target=1.0, max_depth=64)
    one = [s for s in strings if s.label == "2"]
    aggs = aggregate_by_length(one)
    assert len(aggs) == 1
    assert aggs[0].n == 1
    assert aggs[0].total_prob == one[0].prob
    assert aggs[0].mean_error == one[0].true_error


def test_string_set_behaves_as_a_list_of_its_items(problem12):
    strings, _ = enumerate_strings(problem12, UBM, 0.179, coverage_target=1.0, max_depth=10)
    assert isinstance(strings, StringSet)
    items = list(strings)
    assert len(strings) == len(items) > 8
    for i in (0, 5, len(items) - 1, -1, -3, -len(items)):
        assert strings[i] == items[i]
        assert strings[i].label == items[i].label == "".join(map(str, items[i].outcomes))
    for cut in (slice(None, 8), slice(3, -2), slice(-5, None), slice(None, None, -3),
                slice(5, 5), slice(len(items) + 3, None)):
        part = strings[cut]
        assert isinstance(part, StringSet)
        assert len(part) == len(items[cut])
        assert list(part) == items[cut]
        assert [part[i] for i in range(len(part))] == items[cut]
    for i in (len(items), -len(items) - 1):
        with pytest.raises(IndexError):
            strings[i]
    assert list(reversed(strings)) == items[::-1]
    assert strings.index(items[4]) == 4 and items[4] in strings
    assert strings.n.tolist() == [s.n for s in items]
    assert aggregate_by_length(strings) == aggregate_by_length(items)
    # both sum in emission order, left to right
    assert cost_from_strings(strings, 0.0, 10).expected_copies == sum(s.n * s.prob for s in items)
    with pytest.raises(ValueError):
        strings.prob[0] = 1.0
    with pytest.raises(AttributeError):
        strings.prob = strings.prob[:1]


def test_string_set_survives_copy_and_pickle(problem12):
    strings, _ = enumerate_strings(problem12, UBM, 0.179, coverage_target=1.0, max_depth=10)
    items = list(strings)
    for twin, expected in ((copy.copy(strings), items), (copy.deepcopy(strings), items),
                           (pickle.loads(pickle.dumps(strings)), items),
                           (pickle.loads(pickle.dumps(strings[2:7])), items[2:7])):
        assert isinstance(twin, StringSet)
        assert list(twin) == expected
        assert not twin.prob.flags.writeable
        with pytest.raises(AttributeError):
            twin.prob = twin.prob[:1]


def test_empty_string_set(problem12):
    # UBM's single copy errs with probability about 0.37: nothing stops at depth 1
    strings, residual = enumerate_strings(problem12, UBM, 0.01, max_depth=1)
    assert len(strings) == 0 and list(strings) == [] and residual == 1.0
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


def test_single_certain_string():
    result = cost_from_strings([], 0.0, 5)
    assert result.expected_copies == 0.0


def _heap_reference(problem, strategy, eps, coverage_target, max_depth):
    """The best-first heap enumerator that the depth-wise frontier replaced."""
    config = MeasurementConfig.for_problem(problem, strategy_angle(problem, strategy))
    q1, q2 = problem.q1, problem.q2
    heap = [(-1.0, (), 0, 0, 1.0, 1.0)]
    emitted = []
    covered = 0.0
    dropped = 0.0
    while heap and covered < coverage_target:
        neg_prob, outcomes, m1, m2, pg1, pg2 = heapq.heappop(heap)
        n = len(outcomes)
        if n > 0:
            state = posterior_from_counts(problem, config, m1, m2)
            if meets_error_bound(posterior_error(state), eps):
                guess = 1 if state.p1 >= 0.5 else 2
                emitted.append(TerminationString(
                    outcomes=outcomes, prob=-neg_prob, prob_given_psi1=pg1, prob_given_psi2=pg2,
                    true_error=(1.0 - state.p1) if guess == 1 else state.p1, guess=guess,
                ))
                covered += -neg_prob
                continue
            if n >= max_depth:
                dropped += -neg_prob
                continue
        for d in (1, 2):
            c1 = pg1 * config.likelihood(d, 1)
            c2 = pg2 * config.likelihood(d, 2)
            prob = q1 * c1 + q2 * c2
            if prob == 0.0:
                continue
            k1, k2 = (m1 + 1, m2) if d == 1 else (m1, m2 + 1)
            heapq.heappush(heap, (-prob, outcomes + (d,), k1, k2, c1, c2))
    return emitted, dropped + sum(-entry[0] for entry in heap)


def _bits(s):
    return (s.outcomes, s.prob.hex(), s.prob_given_psi1.hex(), s.prob_given_psi2.hex(),
            s.true_error.hex(), s.guess)


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
    assert [_bits(s) for s in strings] == [_bits(s) for s in expected]
    assert residual == pytest.approx(expected_residual, abs=1e-14)
    if eps == 1e-9 and max_depth == 70:
        assert max(s.n for s in strings) == 70


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
