"""Stochastic simulation of all four strategies with reproducible per-trial streams.

Every trial consumes its own deterministic uniform stream derived from the
master seed and the trial index: trial i reads row i of a seed-keyed
counter-based tableau, falling back to a stream seeded by (seed, i) in the
rare case a trial outlives its row.  Results are therefore bit-reproducible
for a fixed (seed, trials) regardless of execution order, and trials are
independent by construction.

The tableau is drawn in chunks of a fixed number of rows from one generator,
which reproduces the rows of a single draw, so memory does not grow with the
trial count.  Every trial of every strategy runs through one lockstep loop:
the live rows of a chunk advance one block of copies at a time (the first
few copies of every row, then the rest of the rows not stopped, then, 64
trials at a time, blocks of their fallback streams).  A stepper per kind of
strategy turns a block's uniforms into outcomes and stop verdicts:
fixed-angle trials carry their outcome-1 counts and take their verdicts from
the StoppingRule's `verdicts`; LOL trials carry an index into a table of the
distinct posterior beliefs met so far, whose entry maps each outcome to the
verdict and the next index, so that a copy is a few gathers per trial.
A fixed-angle chunk skips the stepper for its first block: one lookup of
each row's first few outcomes, packed into an integer, in a table of all
such patterns gives the copy at which the row stops and its guess.
Finished trials are tallied by packed outcome string, one key and two counts
per distinct string, merged a few chunks at a time, and each string's label
is built once, after the last chunk.  A fixed angle at which no count state
stops within TRIAL_COPY_CAP copies fails before any trial runs.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import DiscriminationProblem, likelihoods
from .posterior import StoppingRule, _check_eps, meets_error_bound
from .strategies import StrategyKind, StrategySpec, lol_next_angle, strategy_angle
from .stringlab import outcome_labels

__all__ = [
    "MonteCarloReport",
    "TrialLengthError",
    "run_trials",
    "empirical_string_errors",
]

# far above any desk-scale stopping depth; reaching it means the bound is unreachable
TRIAL_COPY_CAP = 1_000_000
_ROW = 64  # uniforms per trial in the seeded table (1 state draw + 63 copies)
_REFILL = 64  # refill size of the fallback stream of a trial that outlives its row
_CHUNK_ROWS = 4096  # table rows drawn and simulated at a time, whatever the trial count
_MERGE_CHUNKS = 8  # chunks whose finished trials are merged into the tally at a time
_FIRST_COPIES = 16  # copies of a row tried on all trials of a chunk before the rest


class TrialLengthError(RuntimeError):
    """A trial exceeded the hard per-trial copy cap without stopping."""


@dataclass(frozen=True)
class MonteCarloReport:
    trials: int
    mean_copies: float
    mean_copies_stderr: float
    empirical_error: float
    per_string: dict[str, tuple[int, int]]  # string -> (count, error count)
    seed: int
    min_copies: int
    max_copies: int


class _FixedAngle:
    """Fixed-angle trials: each row of a chunk carries its outcome-1 count.

    Within the _ROW - 1 copies of a table row the verdicts come from one flat
    triangle of count states, computed once; past the row, where the triangle
    would grow with the square of the depth, from the rule itself.  The first
    _FIRST_COPIES copies of a row are decided at once from `first_stop` and
    `first_guess`, indexed by the row's pattern of those outcomes, bit j set
    for outcome 2 at copy j + 1: the copy at which the row stops (0 if it does
    not) and the guess there.
    """

    def __init__(self, problem: DiscriminationProblem, strategy: StrategySpec, eps: float):
        phi = strategy_angle(problem, strategy)
        self.rule = StoppingRule(problem, phi, eps)
        if not self.rule.can_stop_within(TRIAL_COPY_CAP):
            raise TrialLengthError(
                f"no outcome string can stop within {TRIAL_COPY_CAP} copies at phi={phi}")
        # state (m1, n - m1) at flat index n * (n + 1) // 2 + m1, for n < _ROW
        n = np.repeat(np.arange(_ROW), np.arange(1, _ROW + 1))
        m1 = np.arange(len(n)) - n * (n + 1) // 2
        self.row_verdicts = self.rule.verdicts(m1, n - m1)
        stop = guess = twos = np.zeros(1, np.int8)
        for k in range(1, _FIRST_COPIES + 1):
            # the patterns of k copies: those of k - 1 copies, then each with outcome 2 at copy k
            stop, guess, twos = (np.concatenate([a, a + more])
                                 for a, more in ((stop, 0), (guess, 0), (twos, 1)))
            # the verdicts of the states of k copies, by their count of outcome 2
            verdict = self.row_verdicts[k * (k + 1) // 2:(k + 1) * (k + 2) // 2][::-1].take(twos)
            fresh = (stop == 0) & (verdict != 0)
            stop[fresh], guess[fresh] = k, verdict[fresh]
        self.first_stop, self.first_guess = stop, guess

    def start(self, psi1: np.ndarray) -> None:
        # P(outcome 1 | psi1) or P(outcome 1 | psi2), by the row's state
        self.p1 = np.where(psi1, *self.rule.likelihoods[::2].tolist())
        self.m1 = np.zeros(len(psi1), np.int64)

    def step(self, live: np.ndarray, u: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """The outcomes (True for 1) of rows `live` on the uniforms u of the copies after
        `depth`, and the verdict after each copy: 0 to continue, else the guess."""
        ones = u < self.p1[live, None]
        m1 = self.m1[live, None] + np.cumsum(ones, axis=1)
        self.m1[live] = m1[:, -1]
        n = np.arange(depth + 1, depth + u.shape[1] + 1)
        if n[-1] < _ROW:
            return ones, self.row_verdicts[n * (n + 1) // 2 + m1]
        return ones, self.rule.verdicts(m1, n - m1)


class _Lol:
    """LOL trials: each row of a chunk carries the index of its posterior belief in psi1
    in a table of the distinct beliefs met so far.

    A belief's entry holds the outcome-1 probabilities of its Helstrom
    measurement under psi1 and psi2 and, per outcome, the verdict after the
    update and the index of the updated belief if it does not stop.  An entry
    is built the first time a row holds its belief, so a copy is a few
    gathers per row.
    """

    def __init__(self, problem: DiscriminationProblem, eps: float):
        _check_eps(problem, eps)
        self.problem, self.eps = problem, eps
        self.index: dict[float, int] = {}  # belief -> index
        self.belief = np.zeros(0)
        self.built = np.zeros(0, bool)
        self.p1 = np.zeros((0, 2))  # P(outcome 1 | psi1), P(outcome 1 | psi2)
        # at 2 * index + outcome - 1: the verdict after the copy, the next index
        self.verdict = np.zeros(0, np.int8)
        self.next = np.zeros(0, np.int64)
        self._indices([problem.q1])

    def _indices(self, beliefs: list[float]) -> list[int]:
        """The index of each belief; a new one gets an entry still to build."""
        indices, fresh = [], []
        for b in beliefs:
            i = self.index.get(b)
            if i is None:
                i = self.index[b] = len(self.index)
                fresh.append(b)
            indices.append(i)
        if fresh:
            grow = len(fresh)
            self.belief = np.concatenate([self.belief, fresh])
            self.built = np.concatenate([self.built, np.zeros(grow, bool)])
            self.p1 = np.concatenate([self.p1, np.zeros((grow, 2))])
            self.verdict = np.concatenate([self.verdict, np.zeros(2 * grow, np.int8)])
            self.next = np.concatenate([self.next, np.zeros(2 * grow, np.int64)])
        return indices

    def _build(self, indices: np.ndarray) -> None:
        """Builds the entries at `indices`, with the float operations of a step per row."""
        b = self.belief[indices]
        # pdj = P(outcome d | psi_j)
        p11, p21, p12, p22 = np.array([likelihoods(self.problem, lol_next_angle(self.problem, x))
                                       for x in b.tolist()]).T
        self.p1[indices] = np.stack([p11, p12], axis=1)
        for outcome, num, den in ((1, p11, p12), (2, p21, p22)):
            # an outcome that the measurement cannot give may divide by 0; no row takes it
            with np.errstate(divide="ignore", invalid="ignore"):
                evidence = b * num + (1.0 - b) * den
                belief = b * num / evidence
            stop = meets_error_bound(np.minimum(belief, 1.0 - belief), self.eps)
            entry = 2 * indices + outcome - 1
            self.verdict[entry] = np.where(stop, np.where(belief >= 0.5, 1, 2), 0)
            following = self._indices(belief[~stop].tolist())
            self.next[entry[~stop]] = following
        self.built[indices] = True

    def start(self, psi1: np.ndarray) -> None:
        self.state = np.zeros(len(psi1), np.int64)
        self.side = np.where(psi1, 0, 1)

    def step(self, live: np.ndarray, u: np.ndarray, depth: int) -> tuple[np.ndarray, np.ndarray]:
        """As _FixedAngle.step; a row does not move past its stop."""
        ones = np.zeros(u.shape, bool)
        verdicts = np.zeros(u.shape, np.int8)
        at = np.arange(len(live))  # the rows not stopped yet, their beliefs and sides
        state, side = self.state[live], self.side[live]
        for k in range(u.shape[1]):
            if not len(at):
                break
            unbuilt = ~self.built[state]
            if unbuilt.any():
                fresh = np.zeros(len(self.built), bool)
                fresh[state[unbuilt]] = True
                self._build(np.flatnonzero(fresh))
            ones[at, k] = one = u[at, k] < self.p1[state, side]
            entry = 2 * state + ~one
            verdicts[at, k] = verdict = self.verdict[entry]
            state = self.next[entry]
            go = verdict == 0
            if not go.all():
                at, state, side = at[go], state[go], side[go]
        self.state[live[at]] = state
        return ones, verdicts


def _check_cap(copies) -> None:
    """Fails if a trial needs `copies` copies, its stop or one past its block, past the cap."""
    if copies > TRIAL_COPY_CAP:
        raise TrialLengthError(f"trial exceeded {TRIAL_COPY_CAP} copies without reaching the bound")


def _tally(finished: list, ones: np.ndarray, n: np.ndarray, wrong: np.ndarray) -> None:
    """Adds to `finished` the key of each outcome string, the row of `ones` cut at n, and
    whether its guess is wrong.

    A key has bit j set for outcome 2 at copy j + 1, and bit n; it is a uint64
    up to n = 63, else the bytes of as many 64-bit words as the block needs.
    """
    width = ones.shape[1]
    words = width // 64 + 1  # room for bit n <= width
    bits = np.zeros((len(n), 64 * words), bool)
    bits[:, :width] = ~ones & (np.arange(width) < n[:, None])
    bits[np.arange(len(n)), n] = True
    packed = np.packbits(bits, axis=1, bitorder="little")
    finished.append((packed.view("<u8" if words == 1 else np.dtype((np.void, 8 * words))).ravel(),
                     wrong))


def _merge(tally: dict, finished: list) -> None:
    """Merges the (keys, wrong) pairs of `finished` into `tally`, which holds per key
    dtype the distinct keys, sorted, with the count and the error count of each."""
    for dtype in {keys.dtype for keys, _ in finished if len(keys)}:
        parts = [(keys, wrong) for keys, wrong in finished if keys.dtype == dtype]
        held, counts, errors = tally.get(dtype, (np.zeros(0, dtype), 0, 0))
        distinct, inverse = np.unique(np.concatenate([held, *(keys for keys, _ in parts)]),
                                      return_inverse=True)
        old, new = inverse[:len(held)], inverse[len(held):]
        wrong = np.concatenate([wrong for _, wrong in parts])
        tally[dtype] = merged = (distinct, np.bincount(new, minlength=len(distinct)),
                                 np.bincount(new[wrong], minlength=len(distinct)))
        merged[1][old] += counts
        merged[2][old] += errors


def _per_string(tally: dict) -> dict[str, tuple[int, int]]:
    """The merged tally as label -> (count, error count); each label is built once."""
    per_string = {}
    for keys, counts, errors in tally.values():
        bits = np.unpackbits(keys.view(np.uint8).reshape(len(keys), -1), axis=1,
                             bitorder="little").view(bool)
        n = bits.shape[1] - 1 - bits[:, ::-1].argmax(axis=1)  # the top bit
        labels = outcome_labels(bits, n).astype(str).tolist()
        per_string.update(zip(labels, zip(counts.tolist(), errors.tolist())))
    return per_string


def _step(stepper: _FixedAngle | _Lol, live: np.ndarray, u: np.ndarray, depth: int,
          blocks: list[tuple[np.ndarray, np.ndarray]], psi1: np.ndarray,
          finished: list) -> np.ndarray:
    """Advances rows `live` over the uniforms u, tallies those that stop; returns the rest.

    `blocks` holds the (rows kept, outcomes) of the blocks stepped so far; a row's
    outcomes are joined only when it stops.
    """
    ones, verdicts = stepper.step(live, u, depth)
    blocks.append((live, ones))
    stops = verdicts != 0
    at = stops.argmax(axis=1)
    hit = stops[np.arange(len(live)), at]
    _check_cap(np.where(hit, depth + at + 1, depth + u.shape[1] + 1).max(initial=0))
    done = live[hit]
    if len(done):
        history = np.concatenate([outcomes[np.searchsorted(kept, done)]
                                  for kept, outcomes in blocks], axis=1)
        guess = verdicts[hit, at[hit]]
        _tally(finished, history, depth + at[hit] + 1, guess != np.where(psi1[done], 1, 2))
    return live[~hit]


def _look_up(stepper: _FixedAngle, u: np.ndarray, blocks: list[tuple[np.ndarray, np.ndarray]],
             psi1: np.ndarray, finished: list) -> np.ndarray:
    """As _step for the first _FIRST_COPIES copies of all rows of a fixed-angle chunk, by
    one lookup of each row's pattern of outcomes in the stepper's table."""
    twos = u >= stepper.p1[:, None]
    # a row's _FIRST_COPIES bits, a whole number of bytes, packed as one integer
    pattern = np.packbits(twos.ravel(), bitorder="little").view(f"<u{_FIRST_COPIES // 8}")
    n = stepper.first_stop[pattern]
    hit = n != 0
    _check_cap(np.where(hit, n, _FIRST_COPIES + 1).max())
    # a stopped row's key: its pattern cut at n, and bit n
    stopped = pattern[hit]
    bit = np.uint64(1) << n[hit].astype(np.uint64)
    wrong = stepper.first_guess[stopped] != np.where(psi1[hit], 1, 2)
    finished.append((stopped & (bit - np.uint64(1)) | bit, wrong))
    rest = np.flatnonzero(~hit)
    blocks.append((rest, ~twos[rest]))
    stepper.m1[rest] = _FIRST_COPIES - np.bitwise_count(pattern[rest])
    return rest


def _run_chunk(problem: DiscriminationProblem, stepper: _FixedAngle | _Lol, rows: np.ndarray,
               seed: int, first: int) -> list:
    """Runs the trials of table rows first, first + 1, ... in lockstep; returns their
    (keys, wrong) pairs, as _tally makes them.

    The live rows advance one block of copies at a time: the first
    _FIRST_COPIES copies of the row, then the rest of it, then, _ROW trials at
    a time, blocks of _REFILL uniforms from each trial's fallback stream.
    """
    psi1 = rows[:, 0] < problem.q1
    stepper.start(psi1)
    blocks: list[tuple[np.ndarray, np.ndarray]] = []
    finished: list = []
    u = rows[:, 1:_FIRST_COPIES + 1]
    if isinstance(stepper, _FixedAngle):
        live = _look_up(stepper, u, blocks, psi1, finished)
    else:
        live = _step(stepper, np.arange(len(rows)), u, 0, blocks, psi1, finished)
    live = _step(stepper, live, rows[live, _FIRST_COPIES + 1:], _FIRST_COPIES, blocks, psi1,
                 finished)
    for start in range(0, len(live), _ROW):
        group = live[start:start + _ROW]
        streams = {j: np.random.default_rng((seed, first + j)) for j in group.tolist()}
        group_blocks = blocks.copy()
        depth = _ROW - 1
        while len(group):
            u = np.stack([streams[j].random(_REFILL) for j in group.tolist()])
            group = _step(stepper, group, u, depth, group_blocks, psi1, finished)
            depth += _REFILL
    return finished


def run_trials(
    problem: DiscriminationProblem,
    strategy: StrategySpec,
    eps: float,
    trials: int,
    seed: int = 0,
) -> MonteCarloReport:
    """Simulate independent discrimination runs and aggregate their statistics."""
    if isinstance(trials, bool) or not isinstance(trials, numbers.Integral) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    trials = int(trials)
    if strategy.kind is StrategyKind.LOL:
        stepper = _Lol(problem, eps)
    else:
        stepper = _FixedAngle(problem, strategy, eps)

    rng = np.random.default_rng(seed)
    tally: dict = {}
    finished: list = []
    for i, first in enumerate(range(0, trials, _CHUNK_ROWS), 1):
        # consecutive draws from one generator continue one table row by row
        rows = rng.random((min(_CHUNK_ROWS, trials - first), _ROW))
        finished += _run_chunk(problem, stepper, rows, seed, first)
        if i % _MERGE_CHUNKS == 0:
            _merge(tally, finished)
            finished = []
    _merge(tally, finished)
    per_string = _per_string(tally)

    total = total_sq = errors = 0
    for label, (count, errs) in per_string.items():
        total += count * len(label)
        total_sq += count * len(label) ** 2
        errors += errs
    mean = total / trials
    var = (total_sq - trials * mean * mean) / (trials - 1) if trials > 1 else 0.0
    stderr = math.sqrt(max(var, 0.0) / trials)
    return MonteCarloReport(
        trials=trials,
        mean_copies=mean,
        mean_copies_stderr=stderr,
        empirical_error=errors / trials,
        per_string=per_string,
        seed=seed,
        min_copies=min(map(len, per_string)),
        max_copies=max(map(len, per_string)),
    )


def empirical_string_errors(report: MonteCarloReport) -> list[tuple[str, float, float]]:
    """Per-string (label, observed conditional error, observed probability).

    Sorted by descending observed probability, then lexicographically, matching
    the enumeration order of the string laboratory.
    """
    rows = []
    for label, (count, err_count) in report.per_string.items():
        if count == 0:
            continue
        rows.append((label, err_count / count, count / report.trials))
    rows.sort(key=lambda r: (-r[2], r[0]))
    return rows
