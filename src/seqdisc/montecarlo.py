"""Stochastic simulation of all four strategies with reproducible per-trial streams.

Every trial consumes its own deterministic uniform stream derived from the
master seed and the trial index: trial i reads row i of a seed-keyed
counter-based tableau, falling back to a stream seeded by (seed, i) in the
rare case a trial outlives its row.  Results are therefore bit-reproducible
for a fixed (seed, trials) regardless of execution order, and trials are
independent by construction.

The tableau is drawn in chunks of a fixed number of rows from one generator,
which reproduces the rows of a single draw, so memory does not grow with the
trial count.  Within a chunk the fixed-angle trials advance in lockstep: the
outcomes of every copy of every row at once, the running outcome-1 counts,
the stop verdict of each count state from a VerdictTable, and the first stop
of each row (sought among the first few copies of all rows, then to the end
of the rows that have not stopped).  LOL trials, whose angle adapts, run one
at a time on the rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import DiscriminationProblem, MeasurementConfig
from .posterior import VerdictTable, _check_eps, meets_error_bound
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


class _Uniforms:
    """Sequential uniforms: a table row, then a spawned per-trial stream."""

    __slots__ = ("_buf", "_i", "_seed", "_trial", "_ext")

    def __init__(self, row: np.ndarray, seed: int, trial: int):
        self._buf = row
        self._i = 0
        self._seed = seed
        self._trial = trial
        self._ext = None

    def next(self) -> float:
        if self._i == len(self._buf):
            if self._ext is None:
                self._ext = np.random.default_rng((self._seed, self._trial))
            self._buf = self._ext.random(_REFILL)
            self._i = 0
        u = self._buf[self._i]
        self._i += 1
        return u


def _fixed_angle_chunk(
    problem: DiscriminationProblem,
    config: MeasurementConfig,
    table: VerdictTable,
    rows: np.ndarray,
    seed: int,
    first: int,
    per_string: dict[str, list[int]],
) -> None:
    """Runs the fixed-angle trials of table rows first, first + 1, ... in lockstep.

    Each trial's outcomes are decided for its whole row at once; its counts
    after each copy index the verdict table, and it stops at the first
    stopping state.  A trial that does not stop within its row continues one
    copy at a time on its fallback stream.
    """
    psi1 = rows[:, 0] < problem.q1
    p1 = np.where(psi1, config.p1_given_psi1, config.p1_given_psi2)
    ones = rows[:, 1:] < p1[:, None]  # outcome 1 at each copy of the row
    copies = ones.shape[1]
    n, guess = _first_stops(table, ones)
    done = np.flatnonzero(n)
    wrong = guess[done] != np.where(psi1[done], 1, 2)
    # one integer per outcome string: bit j for outcome 2 at copy j, and bit n
    twos = ~ones[done] & (np.arange(copies) < n[done, None])
    keys = np.packbits(twos, axis=1, bitorder="little").view("<u8").ravel()
    keys |= np.uint64(1) << n[done].astype(np.uint64)
    _, where, inverse = np.unique(keys, return_index=True, return_inverse=True)
    counts = np.bincount(inverse, minlength=len(where))
    errors = np.bincount(inverse[wrong], minlength=len(where))
    for label, count, errs in zip(_labels(ones[done[where]], n[done[where]]), counts.tolist(),
                                  errors.tolist()):
        _count(per_string, label, count, errs)
    for j in np.flatnonzero(n == 0).tolist():
        label, guess_j = _fixed_angle_fallback(
            table, p1[j], _Uniforms(rows[j, copies + 1:], seed, first + j),
            _labels(ones[j:j + 1], [copies])[0],
        )
        _count(per_string, label, 1, int(guess_j != (1 if psi1[j] else 2)))


def _first_stops(table: VerdictTable, ones: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(copies used, guess) of each row at its first stopping state; (0, 0) if none."""
    n = np.zeros(len(ones), np.int64)
    guess = np.zeros(len(ones), np.int8)
    live = np.arange(len(ones))
    # most trials stop within a few copies, so a short prefix of the row is
    # tried first, and only the rows not stopped in it are run to the end
    for width in (min(_FIRST_COPIES, ones.shape[1]), ones.shape[1]):
        table.reach(width)
        depth = np.arange(1, width + 1)
        verdicts = table.guess[table.index(depth, np.cumsum(ones[live, :width], axis=1))]
        stops = verdicts != 0
        at = stops.argmax(axis=1)
        hit = stops[np.arange(len(live)), at]
        n[live[hit]] = at[hit] + 1
        guess[live[hit]] = verdicts[hit, at[hit]]
        live = live[~hit]
    return n, guess


def _labels(ones: np.ndarray, n) -> list[str]:
    """The outcome strings of the rows of `ones`, each cut at its length in `n`."""
    return outcome_labels(~ones, n).astype(str).tolist()


def _fixed_angle_fallback(
    table: VerdictTable,
    p1: float,
    u: _Uniforms,
    outcomes: str,
) -> tuple[str, int]:
    """Continues a fixed-angle trial that outlived its row; returns (outcome string, guess)."""
    m1 = outcomes.count("1")
    m2 = len(outcomes) - m1
    chars = list(outcomes)
    while True:
        if u.next() < p1:
            m1 += 1
            chars.append("1")
        else:
            m2 += 1
            chars.append("2")
        guess, _ = table.verdict(m1, m2)
        if guess:
            return "".join(chars), guess
        if len(chars) >= TRIAL_COPY_CAP:
            raise TrialLengthError(
                f"trial exceeded {TRIAL_COPY_CAP} copies without reaching the bound"
            )


def _count(per_string: dict[str, list[int]], label: str, count: int, errors: int) -> None:
    tally = per_string.get(label)
    if tally is None:
        tally = per_string[label] = [0, 0]
    tally[0] += count
    tally[1] += errors


def _lol_trial(
    problem: DiscriminationProblem,
    eps: float,
    u: _Uniforms,
    angle_cache: dict[float, MeasurementConfig],
) -> tuple[int, str, int]:
    """One adaptive run: Helstrom angle recomputed from the posterior each copy."""
    true_state = 1 if u.next() < problem.q1 else 2
    belief = problem.q1  # posterior of psi1, updated exactly each copy
    outcomes = []
    while True:
        config = angle_cache.get(belief)
        if config is None:
            config = MeasurementConfig.for_problem(problem, lol_next_angle(problem, belief))
            angle_cache[belief] = config
        p1 = config.p1_given_psi1 if true_state == 1 else config.p1_given_psi2
        if u.next() < p1:
            outcomes.append("1")
            num, den = config.p1_given_psi1, config.p1_given_psi2
        else:
            outcomes.append("2")
            num, den = config.p2_given_psi1, config.p2_given_psi2
        evidence = belief * num + (1.0 - belief) * den
        belief = belief * num / evidence
        if meets_error_bound(min(belief, 1.0 - belief), eps):
            return true_state, "".join(outcomes), (1 if belief >= 0.5 else 2)
        if len(outcomes) >= TRIAL_COPY_CAP:
            raise TrialLengthError(
                f"trial exceeded {TRIAL_COPY_CAP} copies without reaching the bound"
            )


def run_trials(
    problem: DiscriminationProblem,
    strategy: StrategySpec,
    eps: float,
    trials: int,
    seed: int = 0,
) -> MonteCarloReport:
    """Simulate independent discrimination runs and aggregate their statistics."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    adaptive = strategy.kind is StrategyKind.LOL
    if adaptive:
        _check_eps(problem, eps)
    else:
        config = MeasurementConfig.for_problem(problem, strategy_angle(problem, strategy))
        table = VerdictTable(problem, config, eps)  # its StoppingRule checks eps
    angle_cache: dict[float, MeasurementConfig] = {}

    rng = np.random.default_rng(seed)
    per_string: dict[str, list[int]] = {}
    for first in range(0, trials, _CHUNK_ROWS):
        # consecutive draws from one generator continue one table row by row
        rows = rng.random((min(_CHUNK_ROWS, trials - first), _ROW))
        if not adaptive:
            _fixed_angle_chunk(problem, config, table, rows, seed, first, per_string)
            continue
        for j, row in enumerate(rows):
            true_state, label, guess = _lol_trial(problem, eps, _Uniforms(row, seed, first + j),
                                                  angle_cache)
            _count(per_string, label, 1, int(guess != true_state))

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
        per_string={k: (c, e) for k, (c, e) in per_string.items()},
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
