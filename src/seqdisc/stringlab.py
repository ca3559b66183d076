"""Enumeration of successful termination strings with probabilities and true errors.

A termination string is an outcome sequence whose posterior first satisfies
the error bound at its last copy; the set of such strings is prefix-free by
construction.  Strings are emitted in descending observation probability with
a lexicographic tie-break, exactly as a best-first expansion of prefixes would
emit them, up to the first at which their running sum reaches the coverage
target.  Whether a string stops, the hypothesis it then guesses, its true
error and its exact probability depend only on its count state (n, m1).  So
the search first walks the count lattice: the StoppingRule's verdicts, taken
for a block of depths in one call, and the number of strings that reach each
state through continuing ones.  It then chooses the most probable stopping
states that hold the coverage target, counts their strings against
_MAX_STRINGS before walking any (PrefixLimitError past it), and walks only
the prefixes that lead to them, each with its own float path product, as the
best-first expansion computes it.  A string's true error is evaluated once
per count state emitted.
The strings come back as a StringSet, one numpy column per field and no
object per string; aggregate_by_length and cost_from_strings read the columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DiscriminationProblem
from .posterior import StoppingRule, posterior_error, posterior_from_counts
from .strategies import CostResult, StrategyKind, StrategySpec, strategy_angle

__all__ = [
    "StringSet",
    "LengthAggregate",
    "PrefixLimitError",
    "enumerate_strings",
    "aggregate_by_length",
    "cost_from_strings",
]

DEFAULT_COVERAGE = 0.998
DEFAULT_MAX_DEPTH = 64
_WORD_BITS = 64  # outcomes packed per code word
# strings decoded into labels at a time
_LABEL_ROWS = 1 << 14
# the most strings a search may walk, about 50 bytes each; UBM at theta =
# pi/12, eps = 0.074 walks 177,146.  A search that needs more fails before
# walking any, instead of growing without bound.
_MAX_STRINGS = 1 << 22


class PrefixLimitError(RuntimeError):
    """The string search needs to walk more strings than _MAX_STRINGS."""


class StringSet:
    """Termination strings in emission order, as seven read-only columns of equal length.

    labels holds the outcome strings as ASCII bytes (b"121"); prob,
    prob_given_psi1, prob_given_psi2, true_error, guess and n are numpy
    columns.  The record has no item access and no ==: callers read, slice
    and compare the columns.
    """

    __slots__ = ("labels", "prob", "prob_given_psi1", "prob_given_psi2", "true_error", "guess",
                 "n")

    def __init__(self, labels, prob, prob_given_psi1, prob_given_psi2, true_error, guess, n):
        for name, column in zip(self.__slots__, (labels, prob, prob_given_psi1, prob_given_psi2,
                                                 true_error, guess, n)):
            column = column.view()
            column.flags.writeable = False
            object.__setattr__(self, name, column)

    def __setattr__(self, name, value):
        raise AttributeError(f"StringSet is immutable; cannot set {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not __setattr__
        return StringSet, tuple(getattr(self, name) for name in self.__slots__)

    def __len__(self) -> int:
        return len(self.n)


@dataclass(frozen=True)
class LengthAggregate:
    """Strings of one length combined: total probability and mean true error."""

    n: int
    total_prob: float
    mean_error: float


def enumerate_strings(
    problem: DiscriminationProblem,
    strategy: StrategySpec,
    eps: float,
    coverage_target: float = DEFAULT_COVERAGE,
    max_depth: int = DEFAULT_MAX_DEPTH,
) -> tuple[StringSet, float]:
    """Termination strings of a fixed-angle strategy, in descending probability.

    Emits the strings a best-first expansion of outcome prefixes would emit
    until they cover coverage_target of the probability mass or every live
    prefix reaches max_depth.  Returns (strings, residual) with residual the
    unemitted mass.  LOL is rejected: its strings are angle-adaptive and its
    copy count is deterministic (see lol_cost).
    """
    if strategy.kind is StrategyKind.LOL:
        raise ValueError("LOL has no fixed-angle string set; its copy count is lol_cost(eps)")
    if isinstance(coverage_target, bool) or not 0.0 < coverage_target <= 1.0:
        raise ValueError(f"coverage_target must lie in (0, 1], got {coverage_target!r}")
    if isinstance(max_depth, bool) or not isinstance(max_depth, (int, np.integer)):
        raise ValueError(f"max_depth must be an integer, got {max_depth!r}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    phi = strategy_angle(problem, strategy)
    rule = StoppingRule(problem, phi, eps)
    columns, residual = _select(problem, rule, coverage_target, int(max_depth))
    return _string_set(problem, rule, columns), residual


def _start(n):
    """The flat index of the count state (n, 0): state (n, m1) sits at n(n + 1)/2 + m1."""
    return n * (n + 1) // 2


def _state_probs(problem, rule, n, m1) -> np.ndarray:
    """The probability of one outcome string of each count state (n, m1)."""
    p11, p21, p12, p22 = rule.likelihoods
    return problem.q1 * p11 ** m1 * p21 ** (n - m1) + problem.q2 * p12 ** m1 * p22 ** (n - m1)


def _choose(prob, mass, coverage_target) -> tuple[np.ndarray, float]:
    """The stopping states to walk, given each one's string probability and mass,
    and the probability below which the states are left out (0 when none is).

    The states sorted by descending probability: the fewest whose mass reaches
    coverage_target * (1 + 1e-6), or all of them, and every further state
    within a relative 1e-9 of the last one.  A string's float probability is
    off from its state's by about one ulp a copy, so every string of a state
    left out sorts after every string of the states taken, and the float sum
    of those strings reaches coverage_target if the states' mass does.
    """
    order = np.argsort(-prob, kind="stable")
    reached = np.flatnonzero(np.cumsum(mass[order]) >= coverage_target * (1 + 1e-6))
    if not len(reached):
        return order, 0.0
    floor = prob[order[reached[0]]] * (1 - 1e-9)
    return order[:np.count_nonzero(prob >= floor)], floor


def _select(problem, rule, coverage_target, max_depth) -> tuple[tuple, float]:
    """The strings a best-first expansion emits, as columns (n, code, prob, c1, c2,
    m1, guess) in emission order, and the mass it leaves.

    A best-first queue pops prefixes in descending probability, ties in
    ascending outcome tuple.  An extension never outranks its prefix (its
    float probability is never larger), so the pops follow the sorted order
    of all prefixes that have no stopped or cut-off proper prefix, and the
    strings are the stopping ones in that order, up to the first at which the
    running sum of their probabilities reaches coverage_target.

    The count lattice is built DEFAULT_MAX_DEPTH depths at a time, each
    block's verdicts in one call, up to max_depth or the first depth that no
    continuing state reaches.  It ends sooner once its live states are all
    less probable than the states _choose keeps: no deeper string can then
    come before the cut.  The strings of the states chosen are counted before
    any is walked; past _MAX_STRINGS, PrefixLimitError.  Then _walk walks
    only the prefixes whose state leads to a chosen state, each with its own
    float path product, and the walked strings are sorted and cut.  The
    residual is the mass of the stopping states left out, of the walked
    strings past the cut and of the live states where the lattice ends.
    """
    p11, p21, p12, p22 = rule.likelihoods.tolist()
    steps = np.array([[[1.0], [p11], [p12]], [[1.0], [p21], [p22]]])  # by outcome
    # per state (n, m1): the number of strings that reach it through continuing
    # states, and their mass under psi1 and psi2, q1 and q2 included
    live, depth = np.array([[1.0], [problem.q1], [problem.q2]]), 0
    verdicts = [np.zeros(1, np.int8)]  # per state in flat order
    found = []  # per block: the stopping states reached, their depths and their rows
    while True:
        first, top = depth + 1, min(depth + DEFAULT_MAX_DEPTH, max_depth)
        depths = np.repeat(np.arange(first, top + 1), np.arange(first + 1, top + 2))
        m1 = np.arange(len(depths)) + _start(first) - _start(depths)
        block = rule.verdicts(m1, depths - m1)
        rows = []
        with np.errstate(over="ignore"):  # a count past 2^1024 reads inf, past any cap
            for depth in range(first, top + 1):
                reach = np.zeros((3, depth + 1))
                reach[:, 1:] = live * steps[0]
                reach[:, :-1] += live * steps[1]
                rows.append(reach)
                start = _start(depth) - _start(first)
                live = np.where(block[start:start + depth + 1] == 0, reach, 0.0)
                if not np.count_nonzero(live[0]):
                    break
        block = block[:_start(depth + 1) - _start(first)]
        rows = np.concatenate(rows, axis=1)
        at = np.flatnonzero((block != 0) & (rows[0] > 0.0))
        verdicts.append(block)
        found.append((at + _start(first), depths[at], rows[:, at]))
        stops, n, (count, mass1, mass2) = (np.concatenate(c, axis=-1) for c in zip(*found))
        prob = _state_probs(problem, rule, n, stops - _start(n))
        mass = mass1 + mass2
        chosen, floor = _choose(prob, mass, coverage_target)
        at = np.flatnonzero(live[0])
        if (not len(at) or depth == max_depth
                or _state_probs(problem, rule, depth, at).max() * (1 + 1e-9) < floor):
            break
    left = float(np.delete(mass, chosen).sum() + (live[1] + live[2]).sum())
    if count[chosen].sum() > _MAX_STRINGS:
        raise PrefixLimitError(
            f"the string search needs to walk more than {_MAX_STRINGS} strings; "
            f"lower the coverage (--coverage) or the depth (--max-depth)")
    deepest = int(n[chosen].max(initial=0))
    if not deepest:
        return (), left
    # the chosen states and the continuing ones that lead to them, by one pass up the lattice
    verdict = np.concatenate(verdicts)
    goal = np.zeros(len(verdict), bool)
    goal[stops[chosen]] = True
    for d in range(deepest, 0, -1):
        below = goal[_start(d):_start(d + 1)]
        goal[_start(d - 1):_start(d)] |= (verdict[_start(d - 1):_start(d)] == 0) & (
            below[1:] | below[:-1])
    columns = _walk(problem, rule, verdict, goal, deepest)
    order = np.lexsort((columns[0], *columns[1].T[::-1], -columns[2]))
    # the running sum in pop order, exactly as a one-by-one loop adds it
    reached = np.flatnonzero(np.cumsum(columns[2][order]) >= coverage_target)
    end = int(reached[0]) + 1 if len(reached) else len(order)
    left += float(columns[2][order[end:]].sum())
    order = order[:end]
    for j, column in enumerate(columns):  # each unsorted copy released as it is sorted
        columns[j] = column[order]
    return tuple(columns), left


def _walk(problem, rule, verdict, goal, deepest) -> list[np.ndarray]:
    """The columns n, code, prob, c1, c2, m1 and guess of the strings whose states
    are stopping states marked in `goal`, the flat count lattice, in no order.

    The walk extends, depth by depth, only the prefixes at continuing states
    marked in `goal`, with the float operations of a best-first expansion, and
    drops the extensions of probability 0 as it does.  A prefix's outcomes are
    packed first to last in `code`, from the top bit of each uint64 word down,
    outcome 2 as a set bit: comparing the words in order compares the outcome
    tuples, except that a string and its extensions by outcome 1 share a code
    and differ only in n.
    """
    q1, q2 = problem.q1, problem.q2
    likelihoods = rule.likelihoods.reshape(2, 2)  # P(d|psi1), then P(d|psi2), by outcome d
    c1 = c2 = np.ones(1)
    m1 = np.zeros(1, np.int64)
    code = np.zeros((1, -(-deepest // _WORD_BITS)), np.uint64)
    walked = [[] for _ in range(7)]  # a part of each column per depth
    for d in range(deepest):
        # each prefix's extensions by outcome 1 and 2, side by side
        c1 = (c1[:, None] * likelihoods[0]).ravel()
        c2 = (c2[:, None] * likelihoods[1]).ravel()
        prob = q1 * c1 + q2 * c2
        m1 = (m1[:, None] + [1, 0]).ravel()
        code = code.repeat(2, axis=0)
        code[1::2, d // _WORD_BITS] |= np.uint64(1 << (_WORD_BITS - 1 - d % _WORD_BITS))
        state = _start(d + 1) + m1
        keep = goal[state] & (prob != 0.0)
        stop = keep & (verdict[state] != 0)
        if stop.any():
            for parts, column in zip(walked, (np.full(len(prob), d + 1), code, prob, c1, c2, m1,
                                              verdict[state])):
                parts.append(column[stop])
        keep &= ~stop
        c1, c2, m1, code = c1[keep], c2[keep], m1[keep], code[keep]
    # a column's parts are released as it is joined
    columns = []
    for parts in walked:
        columns.append(np.concatenate(parts))
        parts.clear()
    return columns


def outcome_labels(twos: np.ndarray, n) -> np.ndarray:
    """Row i of bool matrix `twos` (True for outcome 2) cut at length n[i], as ASCII
    bytes such as b"121": one S{width} array, width the longest length."""
    n = np.asarray(n)
    width = int(n.max(initial=1))
    # bool is one byte: 0 and 1 become "1" and "2", and past n a 0, where a bytes view stops
    chars = twos[:, :width].view(np.uint8) + np.uint8(ord("1"))
    chars *= np.arange(width) < n[:, None]
    return chars.view(f"S{width}").ravel()


def _true_errors(problem, rule, n: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """The posterior error at each count state (m1, n - m1), that of the hypothesis
    guessed on stopping there, evaluated once per distinct state in a table of (m1, m2)."""
    errors = np.zeros((int(m1.max()) + 1, int((n - m1).max()) + 1))
    errors[m1, n - m1] = 1.0  # marks the states of the strings
    for k, j in np.argwhere(errors).tolist():
        errors[k, j] = posterior_error(posterior_from_counts(problem, rule.likelihoods.tolist(), k, j))
    return errors[m1, n - m1]


def _string_set(problem, rule, columns: tuple) -> StringSet:
    """The columns (n, code, prob, c1, c2, m1, guess) of _select as a StringSet.

    The outcomes are decoded a chunk of rows at a time into one preallocated
    label array, so no bit matrix of all the strings is held.
    """
    if not columns or not len(columns[0]):
        none = np.zeros(0)
        return StringSet(none.astype("S1"), none, none, none, none, none.astype(np.int8),
                         none.astype(np.int64))
    n, code, prob, c1, c2, m1, guess = columns
    labels = np.zeros(len(n), f"S{int(n.max())}")
    for first in range(0, len(n), _LABEL_ROWS):
        rows = slice(first, first + _LABEL_ROWS)
        labels[rows] = _decode(code[rows], n[rows])
    return StringSet(labels, prob, c1, c2, _true_errors(problem, rule, n, m1), guess, n)


def _decode(code: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The outcome strings packed in `code`, cut at lengths n, as outcome_labels gives them."""
    # one bit per outcome, from the big-endian bytes of each word that the strings use
    width = int(n.max())
    used = code[:, :-(-width // _WORD_BITS)].astype(">u8").view(np.uint8)[:, :-(-width // 8)]
    return outcome_labels(np.unpackbits(used, axis=1).view(bool), n)


def aggregate_by_length(strings: StringSet) -> list[LengthAggregate]:
    """Combine strings of equal length: summed probability, probability-weighted error.

    Both sums add the strings in emission order.
    """
    lengths, index = np.unique(strings.n, return_inverse=True)
    total = np.bincount(index, strings.prob, len(lengths))
    weighted = np.bincount(index, strings.prob * strings.true_error, len(lengths))
    return [
        LengthAggregate(n=n, total_prob=t, mean_error=w / t if t else 0.0)
        for n, t, w in zip(lengths.tolist(), total.tolist(), weighted.tolist())
    ]


def cost_from_strings(
    strings: StringSet,
    residual: float,
    max_depth: int,
    tail_bound: float = math.inf,
) -> CostResult:
    """Expected copies from an enumerated string set: sum of n * P(X_n).

    The residual (unemitted) mass widens the enclosure by residual *
    (max_depth + tail_bound), where tail_bound bounds the expected copies
    still needed from any state that has not stopped, since unemitted
    strings can run past max_depth.  The default, inf, keeps the enclosure
    rigorous without one: its bound_width is inf whenever residual > 0.  A
    finite bound is the engine's Wald bound
    float(engine._tail(StoppingRule(problem, phi, eps), eps)).
    """
    cost = sum((strings.n * strings.prob).tolist(), 0.0)
    if residual <= 0.0:
        return CostResult(expected_copies=cost, exact=True)
    return CostResult(
        expected_copies=cost,
        exact=False,
        residual_mass=residual,
        bound_width=residual * (max_depth + tail_bound),
    )
