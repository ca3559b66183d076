import copy
import hashlib
import heapq
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest

import seqdisc.stringlab
from seqdisc import (
    DiscriminationProblem,
    StoppingRule,
    StrategyKind,
    StrategySpec,
    aggregate_by_length,
    enumerate_strings,
    fbm_cost,
    likelihoods,
    meets_error_bound,
    posterior_from_counts,
    strategy_angle,
    ubm_cost,
)
from seqdisc.engine import _tail
from seqdisc.stringlab import LengthAggregate, StringSet, outcome_labels

from oracles import cost_from_strings

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


@pytest.mark.parametrize("spec,eps,max_depth", [
    # UBM's single copy errs with probability about 0.37: nothing stops at depth 1
    (UBM, 0.01, 1),
    # at and next to phi = 0 nothing stops within max_depth, which is known
    # before any lattice is built (a 3,000-depth lattice took 0.7 s and 20 MiB)
    (StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.0), 0.179, 3000),
    (StrategySpec(StrategyKind.FIXED_ANGLE, phi=1e-6), 0.179, 200),
])
def test_empty_string_set(problem12, spec, eps, max_depth):
    tracemalloc.start()
    try:
        strings, residual = enumerate_strings(problem12, spec, eps, max_depth=max_depth)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert len(strings) == 0 and _columns(strings) == [[]] * len(COLUMNS) and residual == 1.0
    assert aggregate_by_length(strings) == []
    cost = cost_from_strings(strings, residual, 1).expected_copies
    assert cost == 0.0 and type(cost) is float


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


def test_outcome_labels_match_a_per_row_reference():
    rng = np.random.default_rng(11)
    for width in range(1, 131):
        # a column slice of a wider matrix, so its rows are not contiguous
        twos = (rng.random((40, width + 3)) < 0.5)[:, 2:width + 2]
        assert not twos.flags.c_contiguous
        n = rng.integers(0, width + 1, len(twos))
        n[:3] = 0, width, width  # empty and full rows
        expected = ["".join("2" if two else "1" for two in row[:k]).encode()
                    for row, k in zip(twos.tolist(), n.tolist())]
        for given in (n, n.tolist()):
            labels = outcome_labels(twos, given)
            assert labels.dtype == np.dtype(f"S{width}")
            assert labels.tolist() == expected
    # no row longer than 0: one byte per row, every label empty
    labels = outcome_labels(np.ones((4, 5), bool), np.zeros(4, np.int64))
    assert labels.dtype == np.dtype("S1") and labels.tolist() == [b""] * 4


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
    tail = float(_tail(StoppingRule(problem12, math.pi / 4, 0.179), 0.179))
    result = cost_from_strings(strings, residual, 10, tail_bound=tail)
    oracle = ubm_cost(problem12, 0.179).expected_copies
    assert result.expected_copies < oracle
    assert oracle < result.expected_copies + result.bound_width


def test_cost_from_strings_default_enclosure_holds_the_exact_cost(problem12):
    # with a tail bound of 0 this enclosure was [3.102, 3.176], against the exact 3.2
    strings, residual = enumerate_strings(problem12, UBM, 0.179,
                                          coverage_target=1.0, max_depth=10)
    result = cost_from_strings(strings, residual, 10)
    oracle = ubm_cost(problem12, 0.179).expected_copies
    assert residual > 0.0 and not result.exact
    assert result.bound_width == math.inf
    assert result.expected_copies < oracle < result.expected_copies + result.bound_width


def test_residual_is_at_most_one():
    # 127 strings stop, of about 1e-101 of the mass; the masses left summed to 1 + 2^-52
    problem = DiscriminationProblem(theta=math.pi / 8)
    spec = StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.002080083823051904)
    strings, residual = enumerate_strings(problem, spec, 0.074, max_depth=128)
    assert len(strings) == 127 and residual == 1.0
    assert cost_from_strings(strings, residual, 128).residual_mass == 1.0


def test_single_certain_string(problem12):
    strings, _ = enumerate_strings(problem12, UBM, 0.01, max_depth=1)
    result = cost_from_strings(strings, 0.0, 5)
    assert result.expected_copies == 0.0


def _heap_reference(problem, strategy, eps, coverage_target, max_depth):
    """The best-first heap enumerator that the depth-wise frontier replaced."""
    lik = likelihoods(problem, strategy_angle(problem, strategy))
    q1, q2 = problem.q1, problem.q2
    # (outcome, likelihood under psi1, likelihood under psi2, count increments)
    steps = [(b"1", lik[0], lik[2], 1, 0), (b"2", lik[1], lik[3], 0, 1)]
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
                p1 = posterior_from_counts(problem, lik, m1, m2)
                guess = 0
                if meets_error_bound(min(p1, 1.0 - p1), eps):
                    guess = 1 if p1 >= 0.5 else 2
                verdict = verdicts[m1, m2] = (guess, (1.0 - p1) if guess == 1 else p1)
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
    # the cut falls inside a group of strings of one probability: those of UBM's
    # mirror states (n, m1) and (n, n - m1) at q1 = q2, here (4, 1) and (4, 3),
    # then (10, 4) and (10, 6), and at q1 != q2 those of the one state (12, 3)
    grid += [(pi12, UBM, 0.1, 0.75, 24), (pi12, UBM, 0.1, 0.99, 64),
             (DiscriminationProblem(theta=math.pi / 12, q1=0.4), UBM, 0.1, 0.95, 24)]
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


def test_string_lab_evaluates_true_errors_through_its_posterior_attribute(problem12, monkeypatch):
    # perfbench/tracing.py counts these evaluations by replacing this attribute
    calls = []
    original = seqdisc.stringlab.posterior_from_counts

    def counted(*args):
        calls.append(args[2:])
        return original(*args)

    monkeypatch.setattr(seqdisc.stringlab, "posterior_from_counts", counted)
    strings, _ = enumerate_strings(problem12, UBM, 0.179, coverage_target=1.0, max_depth=10)
    # one call per distinct count state (m1, m2) of the strings: not one per
    # string, none repeated, and none for a state that continues
    m1 = [label.count(b"1") for label in strings.labels.tolist()]
    states = {(k, n - k) for k, n in zip(m1, strings.n.tolist())}
    assert sorted(calls) == sorted(states)
    assert len(strings) > len(calls) / 2


def test_labels_decoded_in_small_chunks_are_the_same(problem12, monkeypatch):
    # chunks of 1 and 7 rows cut through every round's strings; FBM at eps =
    # 1e-20 to depth 200 decodes strings of up to 161 copies from four-word codes
    cases = [(UBM, 0.1, 0.999, 24), (FBM, 1e-20, 0.998, 200),
             (StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.5), 0.01, 0.5, 8)]
    expected = [enumerate_strings(problem12, *case)[0] for case in cases]
    assert expected[1].n.max() == 161
    for label_rows in (1, 7):
        monkeypatch.setattr(seqdisc.stringlab, "_LABEL_ROWS", label_rows)
        for case, strings in zip(cases, expected):
            twin, _ = enumerate_strings(problem12, *case)
            assert all(getattr(twin, name).tobytes() == getattr(strings, name).tobytes()
                       for name in COLUMNS)


def test_string_set_holds_no_column_twice(problem12):
    # the labels are decoded a chunk at a time and the true errors looked up in
    # a table of the count states: for 158,744 strings (9.7 MiB) the build takes
    # the set itself and 1.4 MiB more, where decoding all labels at once took
    # 9.8 MiB, and sorting the count states 6.4 MiB
    phi = strategy_angle(problem12, UBM)
    rule = StoppingRule(problem12, phi, 0.074)
    columns, _ = seqdisc.stringlab._select(problem12, rule, 0.998, 64)
    tracemalloc.start()
    try:
        strings = seqdisc.stringlab._string_set(problem12, rule, columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = sum(getattr(strings, name).nbytes for name in COLUMNS)
    assert peak <= size + 2 * 2**20


def test_search_past_its_string_cap_fails(problem12, monkeypatch):
    # UBM at eps = 0.179 to depth 64 walks 254 strings to emit 184, and at eps =
    # 0.074 177,146 to emit 158,744
    expected, residual = enumerate_strings(problem12, UBM, 0.179)
    monkeypatch.setattr(seqdisc.stringlab, "_MAX_STRINGS", 254)
    strings, twin_residual = enumerate_strings(problem12, UBM, 0.179)
    assert all(getattr(strings, name).tobytes() == getattr(expected, name).tobytes()
               for name in COLUMNS)
    assert twin_residual == residual
    monkeypatch.setattr(seqdisc.stringlab, "_MAX_STRINGS", 253)
    with pytest.raises(seqdisc.stringlab.PrefixLimitError,
                       match="needs to walk more than 253 strings"):
        enumerate_strings(problem12, UBM, 0.179)
    monkeypatch.setattr(seqdisc.stringlab, "_MAX_STRINGS", 100_000)
    with pytest.raises(seqdisc.stringlab.PrefixLimitError, match="--coverage.*--max-depth"):
        enumerate_strings(problem12, UBM, 0.074)


def test_search_past_its_string_cap_fails_before_any_walk(problem12):
    # UBM at eps = 0.03 needs more than 2^22 strings; the count comes from the
    # count lattice alone, where a walk to depth 25 took 95.5 MiB
    tracemalloc.start()
    try:
        with pytest.raises(seqdisc.stringlab.PrefixLimitError, match="--coverage.*--max-depth"):
            enumerate_strings(problem12, UBM, 0.03)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("keyword,value", [
    ("max_depth", True), ("max_depth", np.True_), ("max_depth", 2.5), ("max_depth", 24.0),
    ("max_depth", "24"), ("max_depth", 0), ("max_depth", -3), ("max_depth", np.int64(0)),
    ("coverage_target", True),
])
def test_settings_of_the_wrong_type_are_rejected(problem12, keyword, value, monkeypatch):
    # checked before any work: max_depth=True used to run as depth 1, and 2.5
    # to fail in numpy with a TypeError
    monkeypatch.setattr(seqdisc.stringlab, "_select", None)
    message = keyword
    if keyword == "max_depth":
        message = f"max_depth must be an integer >= 1, got {value!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        enumerate_strings(problem12, UBM, 0.179, **{keyword: value})


def test_numpy_integer_depths_are_accepted(problem12):
    expected, residual = enumerate_strings(problem12, UBM, 0.179, max_depth=10)
    for depth in (np.int64(10), np.uint8(10)):
        strings, twin_residual = enumerate_strings(problem12, UBM, 0.179, max_depth=depth)
        assert _columns(strings) == _columns(expected) and twin_residual == residual


def test_large_enumeration_stays_in_bounded_memory(problem12):
    # 158,744 strings, 9.7 MiB of columns: the working memory stays a small multiple of that
    tracemalloc.start()
    try:
        strings, _ = enumerate_strings(problem12, UBM, 0.074)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(strings) == 158_744
    assert peak <= 40 * 2**20


# sha256 of each column's bytes, in COLUMNS order: a change to any bit of a column fails
_COLUMN_DIGESTS = {
    "ubm-0.074": (UBM, 0.074, (
        "cdbabd263b8107bf222ee5391bf3221e59800decabc1c18631e812af52cf4a4c",
        "ea4a9893488ce9d9b34a466eb5f52cc8eda7a1a7bf8e5cae8ac28283e41b158c",
        "5525cd87f744f8c9eaaa7e49e512d7e103904f6417826dafe3f0fd0f063471f0",
        "3946b912bfb15f9c778154ba8c2a623f0d877cd638ed5efa939605fbadfc363c",
        "7ccb49a9aeee9b339d0401dc5a368eb484745b5f73a7e983636a56029850327b",
        "9bf5bcaaaf751b5542931d5311e0d8e5bde0a58e8c3fd00ecacd9322f6f6a64f",
        "da94e4251a9451dc1f7023626fd8ef2d92502f9c4f5278887f011d8033dd8c54",
    )),
    "fig4-fbm": (FBM, 0.179, (
        "6524daff1f77163d86b84b9406f25b28a4ba93e12c419c38bfa03a4f6689f9b5",
        "fdd6adda733e5b8b5493c94cdd1f166fcbba4173f52417c34761dd30630c818b",
        "29294b7b64b48923bbe5d0ab141834536d4bfa133c29e689e5217956bcf00331",
        "ff15044368af596f774a5097919998f19831a445bbf33854e3fbbe43eb4a2f88",
        "bacfabe3dc2ed872d9ae368bf0eb15316d23ba442b09be24213c63fa929c5b07",
        "b7b4b2c4dafc7d55a6844fd38867abe2bad77c0aa2ab6f6a44ad9b4f3d6852d5",
        "bde841d5dcc2f07e192f18cfae205d7b06570901d49daf39864651e5946478a7",
    )),
    "fig4-ubm": (UBM, 0.179, (
        "b50ec363cfbb007ed26b573bdbcd29099bcbc480106efac481e4ae13fa0d0df7",
        "c392681163bf781fe2f84abb2d46e620da3799700895bdb794aaf10cf7cfde97",
        "86bc91b892c9de32bb1d0a6026d9881812b8484f53b984c15413262734bf75f8",
        "59776d1bbd60636b9381235c4c0137bb330d3896b7613296ff6d789659a6308a",
        "237cc31e6b4845412d8f3c0fff850a67540a8ef9a98708d6d70ff7e71f0d3d4d",
        "84d084c0bfc4b9c7b99f7fd6d73d38a9b8399207570efee5d71946bd0e42bbc9",
        "4374a75443cf561b11c27a3afb98c1c7697c12e6f6174790fdb96061b17e8a7e",
    )),
    "fig4-gof": (None, 0.179, (
        "f465f946105f04252943ee248da396bae698e9aa55cd9c08a7b48af85921b6e5",
        "5dd01b81fc91814fafada682d61ff35067481eddfb95642b17c22b62749081a0",
        "320556d68e39b1383b7008d5d6c7969b63af37355232c6a12c51b5829f71f75f",
        "2401717d3932bc1a5968a4b382f5b70b9a1e5b9f0baa58480ac1768144b7ea0c",
        "63874497c551dddadcdd9ed176294523ce93ab260ac8f17719f4780483cb8460",
        "62edcf89a3b4b84e9602e0b8451c535332454341a6526cf16907aafab60e18aa",
        "1426400e5626977b4758db259ef55ecb52084ca05a14e8c7adbe132a880c56df",
    )),
}


@pytest.mark.parametrize("name", list(_COLUMN_DIGESTS))
def test_string_set_columns_keep_their_bytes(problem12, gof_179, name):
    spec, eps, digests = _COLUMN_DIGESTS[name]
    if spec is None:
        spec = StrategySpec(StrategyKind.FIXED_ANGLE, phi=gof_179[0])
    strings, _ = enumerate_strings(problem12, spec, eps)
    assert tuple(hashlib.sha256(getattr(strings, column).tobytes()).hexdigest()
                 for column in COLUMNS) == digests
