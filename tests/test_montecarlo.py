import math
import re
import time
import tracemalloc

import numpy as np
import pytest

import seqdisc.montecarlo
from seqdisc import (
    DiscriminationProblem,
    MonteCarloReport,
    StrategyKind,
    StrategySpec,
    enumerate_strings,
    likelihoods,
    lol_cost,
    lol_next_angle,
    run_trials,
    strategy_angle,
    ubm_cost,
)
from seqdisc.cli import main
from seqdisc.montecarlo import (
    _CHUNK_ROWS,
    _FIRST_COPIES,
    _REFILL,
    TRIAL_COPY_CAP,
    TrialLengthError,
    _FixedAngle,
)
from seqdisc.posterior import _log_ratio, meets_error_bound

from oracles import empirical_string_errors

UBM = StrategySpec(StrategyKind.UBM)
FBM = StrategySpec(StrategyKind.FBM)
LOL = StrategySpec(StrategyKind.LOL)

# theta = 0.05, q1 = 0.3, eps = 0.01: every LOL run takes lol_cost = 305
# copies, all but 63 of them past its table row
SLOW_LOL = DiscriminationProblem(theta=0.05, q1=0.3)

TRIALS = 20_000
# at phi = 0.62, eps = 0.01 some trials stop at the last copy of the first block and some at
# the copy after it
TABLE_EDGE = (StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.62), 0.01)
# the reference trial's own slack on the error bound
BOUNDARY_TOL = 1e-12


def test_input_validation(problem12):
    with pytest.raises(ValueError):
        run_trials(problem12, UBM, 0.179, 0)


@pytest.mark.parametrize("trials", [True, False, 2.5, 3.0, np.float64(3), "3", 0, -1,
                                    np.int64(0)])
def test_trials_must_be_a_positive_integer(problem12, monkeypatch, trials):
    def no_chunk(*args):
        raise AssertionError("a chunk of trials ran")

    monkeypatch.setattr(seqdisc.montecarlo, "_run_chunk", no_chunk)
    message = re.escape(f"trials must be an integer >= 1, got {trials!r}")
    with pytest.raises(ValueError, match=message):
        run_trials(problem12, UBM, 0.179, trials)


@pytest.mark.parametrize("trials", [np.int64(300), np.int32(300), np.uint16(300)])
def test_trials_may_be_a_numpy_integer(problem12, trials):
    report = run_trials(problem12, UBM, 0.179, trials, seed=4)
    assert type(report.trials) is int
    assert report == run_trials(problem12, UBM, 0.179, 300, seed=4)


def test_reproducibility(problem12):
    a = run_trials(problem12, UBM, 0.179, 2000, seed=42)
    b = run_trials(problem12, UBM, 0.179, 2000, seed=42)
    assert a == b
    c = run_trials(problem12, UBM, 0.179, 2000, seed=43)
    assert c != a


def test_trial_prefix_stability(problem12):
    # trial i's stream depends only on (seed, i): a longer run extends the
    # per-string tallies without changing earlier trials
    small = run_trials(problem12, FBM, 0.179, 500, seed=9)
    large = run_trials(problem12, FBM, 0.179, 1000, seed=9)
    assert sum(c for c, _ in small.per_string.values()) == 500
    for label, (count, _) in small.per_string.items():
        assert large.per_string[label][0] >= count


def test_ubm_mean_matches_linear_solve(problem12):
    report = run_trials(problem12, UBM, 0.179, TRIALS, seed=0)
    oracle = ubm_cost(problem12, 0.179).expected_copies
    assert abs(report.mean_copies - oracle) <= 3.0 * report.mean_copies_stderr


def test_lol_is_deterministic_in_length(problem12):
    report = run_trials(problem12, LOL, 0.179, 5000, seed=3)
    assert report.min_copies == report.max_copies == lol_cost(problem12, 0.179)
    assert report.mean_copies_stderr == 0.0


def test_fbm_string_frequencies_match_enumeration(problem12):
    report = run_trials(problem12, FBM, 0.179, TRIALS, seed=1)
    strings, _ = enumerate_strings(problem12, FBM, 0.179, coverage_target=1.0, max_depth=64)
    expected = dict(zip(strings.labels.astype(str).tolist(), strings.prob.tolist()))
    assert set(report.per_string) <= set(expected)
    for label, prob in expected.items():
        count = report.per_string.get(label, (0, 0))[0]
        sigma = math.sqrt(TRIALS * prob * (1.0 - prob))
        assert abs(count - TRIALS * prob) <= 4.0 * sigma + 1.0


def test_per_string_errors_within_wilson_interval(problem12):
    # observed conditional error vs the enumerated true error, 99% Wilson band
    report = run_trials(problem12, UBM, 0.179, TRIALS, seed=2)
    strings, _ = enumerate_strings(problem12, UBM, 0.179, coverage_target=1.0, max_depth=20)
    expected = dict(zip(strings.labels.astype(str).tolist(), strings.true_error.tolist()))
    z = 2.5758
    checked = 0
    for label, observed_err, _ in empirical_string_errors(report):
        if label not in expected:
            continue
        count = report.per_string[label][0]
        if count < 100:
            continue
        p_hat = observed_err
        denom = 1.0 + z * z / count
        center = (p_hat + z * z / (2 * count)) / denom
        half = z * math.sqrt(p_hat * (1 - p_hat) / count + z * z / (4 * count * count)) / denom
        assert center - half <= expected[label] <= center + half
        checked += 1
    assert checked >= 3


def test_fbm_outcome2_strings_have_zero_observed_error(problem12):
    report = run_trials(problem12, FBM, 0.179, TRIALS, seed=4)
    for label, (count, errs) in report.per_string.items():
        if label.endswith("2"):
            assert errs == 0


def test_empirical_string_errors_sorted(problem12):
    report = run_trials(problem12, UBM, 0.179, 5000, seed=5)
    rows = empirical_string_errors(report)
    probs = [r[2] for r in rows]
    assert probs == sorted(probs, reverse=True)
    assert all(count > 0 for count, _ in report.per_string.values())


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


def _lol_trial(
    problem: DiscriminationProblem,
    eps: float,
    u: _Uniforms,
    angle_cache: dict[float, tuple[float, float, float, float]],
) -> tuple[int, str, int]:
    """One adaptive run: Helstrom angle recomputed from the posterior each copy."""
    true_state = 1 if u.next() < problem.q1 else 2
    belief = problem.q1  # posterior of psi1, updated exactly each copy
    outcomes = []
    while True:
        lik = angle_cache.get(belief)  # P(1|psi1), P(2|psi1), P(1|psi2), P(2|psi2)
        if lik is None:
            lik = likelihoods(problem, lol_next_angle(problem, belief))
            angle_cache[belief] = lik
        p1 = lik[0] if true_state == 1 else lik[2]
        if u.next() < p1:
            outcomes.append("1")
            num, den = lik[0], lik[2]
        else:
            outcomes.append("2")
            num, den = lik[1], lik[3]
        evidence = belief * num + (1.0 - belief) * den
        belief = belief * num / evidence
        if meets_error_bound(min(belief, 1.0 - belief), eps):
            return true_state, "".join(outcomes), (1 if belief >= 0.5 else 2)
        if len(outcomes) >= TRIAL_COPY_CAP:
            raise TrialLengthError(
                f"trial exceeded {TRIAL_COPY_CAP} copies without reaching the bound"
            )


def _fixed_angle_reference_trial(problem, lik, eps, u):
    """One fixed-angle trial, every copy stepped in Python with the stopping test inline."""
    true_state = 1 if u.next() < problem.q1 else 2
    p1 = lik[0] if true_state == 1 else lik[2]
    d1 = _log_ratio(lik[2], lik[0])
    d2 = _log_ratio(lik[3], lik[1])
    logit0 = math.log(problem.q2 / problem.q1)
    bound = eps + BOUNDARY_TOL
    m1 = m2 = 0
    outcomes = []
    while True:
        if u.next() < p1:
            m1 += 1
            outcomes.append("1")
        else:
            m2 += 1
            outcomes.append("2")
        logit = logit0
        if m1 > 0:
            logit = d1 if math.isinf(d1) else logit + m1 * d1
        if m2 > 0:
            logit = d2 if math.isinf(d2) else logit + m2 * d2
        if logit > 700.0:
            p = 0.0
        elif logit < -700.0:
            p = 1.0
        else:
            p = 1.0 / (1.0 + math.exp(logit))
        if min(p, 1.0 - p) <= bound:
            return true_state, "".join(outcomes), (1 if p >= 0.5 else 2)


def _per_trial_reference(problem, strategy, eps, trials, seed):
    """The per-trial run_trials that the chunked lockstep replaced.

    It draws the whole trials x 64 table at once and runs one trial at a time.
    """
    lik = None
    if strategy.kind is not StrategyKind.LOL:
        lik = likelihoods(problem, strategy_angle(problem, strategy))
    block = np.random.default_rng(seed).random((trials, 64))
    angle_cache = {}
    per_string = {}
    lengths = []
    for i in range(trials):
        u = _Uniforms(block[i], seed, i)
        if lik is None:
            true_state, label, guess = _lol_trial(problem, eps, u, angle_cache)
        else:
            true_state, label, guess = _fixed_angle_reference_trial(problem, lik, eps, u)
        tally = per_string.setdefault(label, [0, 0])
        tally[0] += 1
        tally[1] += guess != true_state
        lengths.append(len(label))
    mean = sum(lengths) / trials
    var = (sum(n * n for n in lengths) - trials * mean * mean) / (trials - 1)
    return MonteCarloReport(
        trials=trials,
        mean_copies=mean,
        mean_copies_stderr=math.sqrt(max(var, 0.0) / trials),
        empirical_error=sum(e for _, e in per_string.values()) / trials,
        per_string={k: (c, e) for k, (c, e) in per_string.items()},
        seed=seed,
        min_copies=min(lengths),
        max_copies=max(lengths),
    )


@pytest.mark.parametrize("offset", [-1, 0, 1])
@pytest.mark.parametrize("spec,eps,seed", [
    (UBM, 0.179, 11),
    (FBM, 0.1, 12),
    (StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.62), 0.08, 13),
    (LOL, 0.05, 14),
    # about 30 copies a trial, through a belief table of a few hundred entries
    (LOL, 1e-4, 15),
    (*TABLE_EDGE, 16),
])
def test_lockstep_matches_per_trial_reference(problem12, spec, eps, seed, offset):
    trials = _CHUNK_ROWS + offset
    report = run_trials(problem12, spec, eps, trials, seed)
    assert report == _per_trial_reference(problem12, spec, eps, trials, seed)
    if (spec, eps) == TABLE_EDGE:
        lengths = {len(label) for label in report.per_string}
        assert {_FIRST_COPIES, _FIRST_COPIES + 1} <= lengths


@pytest.mark.parametrize("problem,spec,eps,trials,seed,twos_past_row", [
    # at eps = 1e-9 trials need more than the 63 copies of a table row; past
    # their row FBM trials see only outcome 1, UBM trials both outcomes
    (DiscriminationProblem(theta=math.pi / 12), FBM, 1e-9, _CHUNK_ROWS + 300, 7, False),
    (DiscriminationProblem(theta=math.pi / 12), UBM, 1e-9, _CHUNK_ROWS + 300, 7, True),
    (SLOW_LOL, LOL, 0.01, 300, 3, True),
    # every LOL trial takes 68 copies at eps = 1e-9
    (DiscriminationProblem(theta=math.pi / 12), LOL, 1e-9, 300, 5, True),
], ids=["fbm", "ubm", "lol", "lol-68"])
def test_lockstep_fallback_matches_per_trial_reference(problem, spec, eps, trials, seed,
                                                       twos_past_row):
    report = run_trials(problem, spec, eps, trials, seed)
    assert report.max_copies > 63
    past_row = [label[63:] for label in report.per_string if len(label) > 63]
    assert any("2" in tail for tail in past_row) == twos_past_row
    assert report == _per_trial_reference(problem, spec, eps, trials, seed)


@pytest.mark.parametrize("problem,spec,eps,trials,seed,max_copies", [
    (DiscriminationProblem(theta=math.pi / 12), FBM, 1e-9, 4396, 7, 73),
    (SLOW_LOL, LOL, 0.01, 300, 3, 305),
    # every trial stops within the first block, the longest at copy 12
    (DiscriminationProblem(theta=math.pi / 12), UBM, 0.2, 300, 7, 12),
], ids=["fbm", "lol", "ubm-first-block"])
def test_copy_cap_is_exact(monkeypatch, problem, spec, eps, trials, seed, max_copies):
    # a trial may stop at the cap's own copy, and must not run past it
    monkeypatch.setattr(seqdisc.montecarlo, "TRIAL_COPY_CAP", max_copies)
    assert run_trials(problem, spec, eps, trials, seed).max_copies == max_copies
    monkeypatch.setattr(seqdisc.montecarlo, "TRIAL_COPY_CAP", max_copies - 1)
    with pytest.raises(TrialLengthError, match=f"exceeded {max_copies - 1} copies"):
        run_trials(problem, spec, eps, trials, seed)


@pytest.mark.parametrize("spec,impossible_outcome", [
    # at phi = theta outcome 2 cannot occur under psi1: a pattern with it at copy 1,
    # half of them, stops there
    (FBM, True),
    (UBM, False),
    (StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.62), False),
], ids=["fbm", "ubm", "fixed"])
def test_first_block_table_matches_stepping_each_copy(problem12, spec, impossible_outcome):
    # every pattern of the first copies' outcomes, bit j for outcome 2 at copy j + 1,
    # stepped one copy at a time through the verdicts of the row's count states
    stepper = _FixedAngle(problem12, spec, 0.01)
    patterns = np.arange(2**_FIRST_COPIES)
    stop = np.zeros(len(patterns), np.int64)
    guess = np.zeros(len(patterns), np.int64)
    m2 = np.zeros(len(patterns), np.int64)
    for k in range(1, _FIRST_COPIES + 1):
        m2 += patterns >> (k - 1) & 1
        verdict = stepper.row_verdicts[k * (k + 1) // 2 + k - m2]
        fresh = (stop == 0) & (verdict != 0)
        stop[fresh], guess[fresh] = k, verdict[fresh]
    assert np.array_equal(stepper.first_stop, stop)
    assert np.array_equal(stepper.first_guess, guess)
    assert np.isinf(stepper.rule.d2) == impossible_outcome
    assert ((stop == 1).sum() == 2**(_FIRST_COPIES - 1)) == impossible_outcome


def test_trials_past_their_row_hold_bounded_memory(problem12, monkeypatch):
    # at phi = 1e-5 a state can stop within the cap, but after 20,000 copies
    # the log-odds have moved by about 6e-3 against a threshold of 1.52, so no
    # trial stops; the trials past their row advance a _ROW-trial group at a
    # time, so what is held stays at most 64 x cap
    monkeypatch.setattr(seqdisc.montecarlo, "TRIAL_COPY_CAP", 20_000)
    spec = StrategySpec(StrategyKind.FIXED_ANGLE, phi=1e-5)
    tracemalloc.start()
    start = time.perf_counter()
    try:
        # the cap of the fallback path, not the check made before any trial
        with pytest.raises(TrialLengthError, match="trial exceeded 20000 copies"):
            run_trials(problem12, spec, 0.179, _CHUNK_ROWS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert time.perf_counter() - start < 10.0


@pytest.mark.parametrize("phi,cap", [(0.0, None), (1e-7, None), (math.pi / 4, 1)])
def test_angles_that_cannot_stop_fail_before_any_trial(problem12, monkeypatch, phi, cap):
    # no state stops within the cap (read when the run starts): not one chunk runs
    if cap is not None:
        monkeypatch.setattr(seqdisc.montecarlo, "TRIAL_COPY_CAP", cap)

    def no_chunk(*args):
        raise AssertionError("a chunk of trials ran")

    monkeypatch.setattr(seqdisc.montecarlo, "_run_chunk", no_chunk)
    spec = StrategySpec(StrategyKind.FIXED_ANGLE, phi=phi)
    message = f"no outcome string can stop within {cap or TRIAL_COPY_CAP} copies at phi={phi}"
    with pytest.raises(TrialLengthError, match=re.escape(message)):
        run_trials(problem12, spec, 0.1, 5000)


def _loop_labels(twos, n):
    """The outcome strings of the rows of `twos`, one outcome at a time."""
    return np.array(["".join("2" if two else "1" for two in row[:k]).encode()
                     for row, k in zip(twos.tolist(), np.asarray(n).tolist())])


@pytest.mark.parametrize("strategy", ["ubm", "fixed:0.6", "lol"])
def test_simulate_json_matches_loop_labels(tmp_path, monkeypatch, strategy):
    argv = ["simulate", "--theta", repr(math.pi / 12), "--epsilon", "0.074", "--strategy",
            strategy, "--trials", str(TRIALS), "--seed", "7", "--format", "json", "-o"]
    assert main([*argv, str(tmp_path / "bulk.json")]) == 0
    monkeypatch.setattr(seqdisc.montecarlo, "outcome_labels", _loop_labels)
    assert main([*argv, str(tmp_path / "loop.json")]) == 0
    assert (tmp_path / "bulk.json").read_bytes() == (tmp_path / "loop.json").read_bytes()


@pytest.mark.parametrize("merge_chunks", [1, 3, 8])
@pytest.mark.parametrize("spec", [UBM, LOL], ids=["ubm", "lol"])
def test_tally_does_not_depend_on_how_chunks_are_merged(problem12, monkeypatch, spec,
                                                        merge_chunks):
    # 2,050 trials in chunks of 100: 21 chunks, the last one short, so the last merge
    # takes fewer chunks than the others
    whole = run_trials(problem12, spec, 0.074, 2050, seed=9)
    monkeypatch.setattr(seqdisc.montecarlo, "_CHUNK_ROWS", 100)
    monkeypatch.setattr(seqdisc.montecarlo, "_MERGE_CHUNKS", merge_chunks)
    assert run_trials(problem12, spec, 0.074, 2050, seed=9) == whole


def test_chunked_table_rows_continue_one_stream():
    # drawing the table in chunks must reproduce the rows of one big draw
    whole = np.random.default_rng(5).random((10, 64))
    rng = np.random.default_rng(5)
    assert np.array_equal(np.concatenate([rng.random((4, 64)), rng.random((6, 64))]), whole)
