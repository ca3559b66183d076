"""Enumeration of successful termination strings with probabilities and true errors.

A termination string is an outcome sequence whose posterior first satisfies
the error bound at its last copy; the set of such strings is prefix-free by
construction.  Strings are emitted in descending observation probability with
a lexicographic tie-break, exactly as a best-first expansion of prefixes would
emit them.  The prefixes are held as a frontier of numpy arrays (conditional
probabilities, outcome-1 count, outcomes packed into uint64 words) and
advanced one depth at a time, above a probability threshold that falls in
rounds until the emitted strings reach the coverage target.  The frontier of
a depth is a list of parts, each split, classified and extended on its own,
so that the working memory stays a small multiple of the prefixes held, and
a search that would hold more than _MAX_PREFIXES fails with PrefixLimitError.
Whether a prefix stops, and the hypothesis it then guesses, depend only on
its outcome counts: the StoppingRule's verdicts are computed once per depth,
for every count state, and a string's true error once per count state
emitted, whatever the number of prefixes that reach it.
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
# only prefixes of probability >= threshold are expanded; while the strings
# found do not reach the coverage target, the threshold falls by this step
_FIRST_THRESHOLD = 2.0 ** -10
_THRESHOLD_STEP = 0.5
# runs of smaller parts of the frontier are joined into one part
_PART_ROWS = 1 << 16
# strings decoded into labels at a time
_LABEL_ROWS = 1 << 14
# the most prefixes a round of the search may hold (recorded for the residual
# or waiting), about 30 bytes each; UBM at theta = pi/12, eps = 0.074 holds
# 0.94M.  A search that needs more fails instead of growing without bound.
_MAX_PREFIXES = 1 << 22


class PrefixLimitError(RuntimeError):
    """The string search needs more live prefixes than _MAX_PREFIXES."""


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


class _Prefixes:
    """Outcome prefixes of one length n, as parallel arrays.

    c1 and c2 are the prefix's probabilities under psi1 and psi2 and m1 its
    count of outcome 1, in the smallest unsigned type that holds max_depth.
    code packs the outcomes first to last, from the top bit of each uint64
    word down, outcome 2 as a set bit: comparing the words in order compares
    the outcome tuples, except that a prefix and its extensions by outcome 1
    share a code and differ only in n.  The prefix's probability q1 * c1 +
    q2 * c2 is held in prob only while the prefix is in a round, not while it
    waits for one.  parent, the prob of the prefix one outcome shorter, is
    read only by the residual, and only for the prefixes created in the
    current round: a part of prefixes carried into the round has parent None,
    and a joined part gives them parent inf, which pops first.
    """

    __slots__ = ("n", "c1", "c2", "m1", "code", "prob", "parent")

    def __init__(self, n, c1, c2, m1, code, prob=None, parent=None):
        self.n = n
        self.c1 = c1
        self.c2 = c2
        self.m1 = m1
        self.code = code
        self.prob = prob
        self.parent = parent

    def __len__(self) -> int:
        return len(self.c1)

    def take(self, mask) -> "_Prefixes":
        return _Prefixes(self.n, self.c1[mask], self.c2[mask], self.m1[mask], self.code[mask],
                         self.prob[mask], None if self.parent is None else self.parent[mask])

    def lean(self) -> "_Prefixes":
        """The same prefixes without prob and parent, as they wait for a later round."""
        return _Prefixes(self.n, self.c1, self.c2, self.m1, self.code)

    @staticmethod
    def join(parts: list["_Prefixes"]) -> "_Prefixes":
        if len(parts) == 1:
            return parts[0]
        joined = _Prefixes(parts[0].n, *(np.concatenate(cols) for cols in zip(*(
            (part.c1, part.c2, part.m1, part.code, part.prob) for part in parts))))
        if any(part.parent is not None for part in parts):
            joined.parent = np.concatenate([np.full(len(part), np.inf) if part.parent is None
                                            else part.parent for part in parts])
        return joined

    def extend(self, rule: StoppingRule, q1: float, q2: float) -> list["_Prefixes"]:
        """Both one-outcome extensions of every prefix, as up to two parts whose
        parent is this prob, less those of probability 0."""
        n = self.n
        parts = []
        likelihoods = rule.likelihoods.tolist()
        for d in (1, 2):
            c1 = self.c1 * likelihoods[d - 1]  # P(d|psi1)
            c2 = self.c2 * likelihoods[d + 1]  # P(d|psi2)
            prob = q1 * c1 + q2 * c2
            if d == 1:
                m1, code = self.m1 + 1, self.code
            else:
                m1, code = self.m1, _with_bit(self.code, n, True)
            child = _Prefixes(n + 1, c1, c2, m1, code, prob, self.prob)
            parts.append(child if prob.all() else child.take(prob != 0.0))
        return [part for part in parts if len(part)]


def _packed(parts: list[_Prefixes]) -> list[_Prefixes]:
    """The parts taken out of list `parts`, each run of parts under _PART_ROWS
    rows joined into one as soon as the run reaches _PART_ROWS rows.

    The number of parts stays at most rows / _PART_ROWS + 1, and no joined
    copy holds 2 * _PART_ROWS rows.
    """
    packed, run, rows = [], [], 0
    while parts:
        part = parts.pop()
        if len(part) >= _PART_ROWS:
            packed.append(part)
            continue
        run.append(part)
        rows += len(part)
        if rows >= _PART_ROWS:
            packed.append(_Prefixes.join(run))
            run, rows = [], 0
    if run:
        packed.append(_Prefixes.join(run))
    return packed


def _split(part: _Prefixes, mask: np.ndarray) -> tuple[_Prefixes | None, _Prefixes | None]:
    """(the rows of `part` where mask is set, the others), None for an empty side."""
    count = np.count_nonzero(mask)
    if count == len(mask):
        return part, None
    if count == 0:
        return None, part
    return part.take(mask), part.take(~mask)


def _with_bit(code: np.ndarray, i: int, value: bool) -> np.ndarray:
    """A copy of `code` with the bit of outcome i set (outcome 2) or cleared (outcome 1)."""
    out = code.copy()
    bit = np.uint64(1 << (_WORD_BITS - 1 - i % _WORD_BITS))
    if value:
        out[:, i // _WORD_BITS] |= bit
    else:
        out[:, i // _WORD_BITS] &= ~bit
    return out


def _compare(prob, code, n, cut) -> np.ndarray:
    """-1, 0 or 1 per prefix: popped before, as, or after `cut` = (prob, code, n).

    Prefixes pop in descending probability, ties in ascending outcome tuple.
    """
    p, cut_code, cut_n = cut
    sign = np.where(prob > p, -1, 1)
    ties = np.flatnonzero(prob == p)
    if len(ties):
        differ = code[ties] != cut_code
        first = differ.argmax(axis=1)  # the first word that differs, if any
        later = code[ties, first] > cut_code[first]
        sign[ties] = np.where(differ.any(axis=1), np.where(later, 1, -1), np.sign(n - cut_n))
    return sign


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
    if not 0.0 < coverage_target <= 1.0:
        raise ValueError(f"coverage_target must lie in (0, 1], got {coverage_target}")
    if max_depth < 1:
        raise ValueError(f"max_depth must be >= 1, got {max_depth}")
    phi = strategy_angle(problem, strategy)
    rule = StoppingRule(problem, phi, eps)
    emitted, residual = _best_first(problem, rule, coverage_target, max_depth)
    return _string_set(problem, rule, emitted), residual


def _best_first(problem, rule, coverage_target, max_depth) -> tuple[list[tuple], float]:
    """The strings a best-first expansion emits, as columns, and the mass it leaves.

    A best-first queue pops prefixes in descending probability, ties in
    ascending outcome tuple.  An extension never outranks its prefix (its
    float probability is never larger), so the pops follow the sorted order
    of all prefixes that have no stopped or cut-off proper prefix, and the
    strings are the stopping ones in that order, up to the first at which the
    running sum of their probabilities reaches coverage_target.  This finds
    them in rounds, one depth at a time: a round classifies and expands the
    prefixes of probability >= threshold, and leaves the others for a later
    round with a lower threshold; no prefix is expanded twice.

    The prefixes of one depth are a list of parts, and each part is split at
    the threshold, classified and extended on its own, so that no copy of a
    whole depth is made next to its parts.  Only runs of small parts are
    joined (_packed), which keeps the number of parts bounded.  A prefix left
    below the threshold keeps no prob, and the residual reads the parent prob
    of this round's prefixes only.  A round that holds more than
    _MAX_PREFIXES prefixes, counting those recorded for the residual and
    those waiting, raises PrefixLimitError.
    """
    q1, q2 = problem.q1, problem.q2
    words = -(-max_depth // _WORD_BITS)
    one = np.ones(1)
    root = _Prefixes(0, one, one, np.zeros(1, np.min_scalar_type(max_depth)),
                     np.zeros((1, words), np.uint64), one)
    # unclassified prefixes below the threshold, by length
    pending: dict[int, list[_Prefixes]] = {1: [part.lean() for part in root.extend(rule, q1, q2)]}
    emitted: list[tuple] = []  # per round: (n, code, prob, c1, c2, m1, guess) in pop order
    verdicts: dict[int, np.ndarray] = {}  # the rule's verdicts at depth n, by m1
    covered = 0.0
    dropped = 0.0  # prefixes cut off at max_depth, in rounds before the last
    threshold = _FIRST_THRESHOLD
    while True:
        waiting = 0.0  # mass of the prefixes carried into the round that stay below it
        # (n, prob, code, parent) of the round's other prefixes; parent None or
        # inf for those carried into it
        seen: list[tuple] = []
        seen_rows = 0
        stopped: list[_Prefixes] = []
        cut_off: list[_Prefixes] = []
        below: dict[int, list[_Prefixes]] = {}
        highest = 0.0  # the largest prob below the threshold
        children: list[_Prefixes] = []
        for n in range(min(pending), max_depth + 1):
            for part in pending.get(n, []):  # carried into the round
                part.prob = q1 * part.c1 + q2 * part.c2
            children += pending.pop(n, [])  # all parts of length n
            parts = _packed(children)  # empties `children`, which collects length n + 1
            if not parts:
                if not pending:
                    break
                continue
            if n not in verdicts:
                m1s = np.arange(n + 1)
                verdicts[n] = rule.verdicts(m1s, n - m1s)
            while parts:  # popped, so that a part's arrays are freed once it is split
                part = parts.pop()
                low, part = _split(part, part.prob < threshold)
                if low is not None:
                    highest = max(highest, float(low.prob.max()))
                    if low.parent is None:
                        waiting += float(low.prob.sum())
                    else:
                        seen.append((n, low.prob, low.code, low.parent))
                        seen_rows += len(low)
                    below.setdefault(n, []).append(low.lean())
                if part is None:
                    continue
                seen.append((n, part.prob, part.code, part.parent))
                seen_rows += len(part)
                stop, live = _split(part, verdicts[n][part.m1] != 0)
                if stop is not None:
                    stopped.append(stop)
                if live is None:
                    continue
                if n == max_depth:
                    cut_off.append(live)
                else:
                    children += live.extend(rule, q1, q2)
            waiting_rows = sum(len(part) for parts in (children, *pending.values(),
                                                       *below.values()) for part in parts)
            if seen_rows + waiting_rows > _MAX_PREFIXES:
                raise PrefixLimitError(
                    f"the string search needs more than {_MAX_PREFIXES} live prefixes by depth "
                    f"{n + 1}; lower the coverage (--coverage) or the depth (--max-depth)")
        pending = below

        if stopped:
            columns, covered, reached = _pop_order(stopped, verdicts, covered, coverage_target)
            emitted.append(columns)
            if reached:
                n, code, prob = (column[-1] for column in columns[:3])
                return emitted, dropped + _unpopped((prob, code, int(n)), waiting, seen, cut_off)
        dropped += sum(float(part.prob.sum()) for part in cut_off)
        if not pending:
            return emitted, dropped
        threshold = min(threshold * _THRESHOLD_STEP, highest)


def _pop_order(stopped: list[_Prefixes], verdicts: dict[int, np.ndarray], covered: float,
               coverage_target: float) -> tuple[tuple, float, bool]:
    """The stopped prefixes in pop order, up to the first at which the running
    sum of their probabilities, from `covered`, reaches coverage_target.

    Returns their columns (n, code, prob, c1, c2, m1, guess), the running
    sum at the last of them, and whether it reached the target.  The columns
    are gathered one at a time, and only for the rows kept.
    """
    def gather(name) -> np.ndarray:
        return np.concatenate([getattr(part, name) for part in stopped])

    n = np.concatenate([np.full(len(part), part.n) for part in stopped])
    code, prob = gather("code"), gather("prob")
    order = np.lexsort((n, *code.T[::-1], -prob))
    prob = prob[order]
    # the running sum in pop order, exactly as a one-by-one loop adds it
    running = np.cumsum(np.concatenate(([covered], prob)))[1:]
    reached = np.flatnonzero(running >= coverage_target)
    end = int(reached[0]) + 1 if len(reached) else len(prob)
    order = order[:end]
    guess = np.concatenate([verdicts[part.n][part.m1] for part in stopped])
    columns = (n[order], code[order], prob[:end], gather("c1")[order], gather("c2")[order],
               gather("m1")[order], guess[order])
    return columns, float(running[end - 1]), len(reached) > 0


def _unpopped(cut, waiting, seen, cut_off) -> float:
    """Mass a best-first expansion leaves unemitted when it stops at string `cut`.

    That is the prefixes cut off at max_depth that popped before `cut`, plus
    the prefixes left in its queue: those popped after `cut` whose parent
    popped before it.  Only the last round's prefixes can be either, and the
    parents of the prefixes carried into that round popped before `cut`.
    Those of them that stayed below the round's threshold, of mass `waiting`,
    all pop after `cut`, whose probability is at least the threshold.
    """
    mass = waiting
    for part in cut_off:
        mass += float(part.prob[_compare(part.prob, part.code, part.n, cut) < 0].sum())
    for n, prob, code, parent in seen:
        left = _compare(prob, code, n, cut) > 0
        if parent is not None:
            left &= _compare(parent, _with_bit(code, n - 1, False), n - 1, cut) < 0
        mass += float(prob[left].sum())
    return mass


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


def _string_set(problem, rule, emitted: list[tuple]) -> StringSet:
    """The emitted columns as a StringSet; empties list `emitted`.

    The rounds' columns are joined one column at a time, each round's copy
    released once joined, and the outcomes are decoded a chunk of rows at a
    time into one preallocated label array, so only the column being joined
    is held twice.
    """
    if not emitted:
        none = np.zeros(0)
        return StringSet(none.astype("S1"), none, none, none, none, none.astype(np.int8),
                         none.astype(np.int64))
    rounds = [list(columns) for columns in emitted]
    emitted.clear()

    def join(j: int) -> np.ndarray:
        column = np.concatenate([columns[j] for columns in rounds])
        for columns in rounds:
            columns[j] = None
        return column

    n = join(0)
    labels = np.zeros(len(n), f"S{int(n.max())}")
    start = 0
    for columns in rounds:
        code, columns[1] = columns[1], None
        for first in range(0, len(code), _LABEL_ROWS):
            part = code[first:first + _LABEL_ROWS]
            rows = slice(start + first, start + first + len(part))
            labels[rows] = _decode(part, n[rows])
        start += len(code)
    prob, c1, c2, m1, guess = (join(j) for j in range(2, 7))
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
