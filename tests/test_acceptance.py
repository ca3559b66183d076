"""End-to-end acceptance checks for the headline quantitative results.

Each test prints a single PASS/FAIL line (visible even under output capture)
so the whole gate can be audited from the pytest log at a glance.
"""

import math
import random

import pytest

from seqdisc import (
    DiscriminationProblem,
    EngineOptions,
    StrategyKind,
    StrategySpec,
    brute_force_cost,
    collective_error,
    enumerate_strings,
    fbm_cost,
    fbm_threshold,
    fixed_angle_cost,
    helstrom_angle,
    likelihoods,
    lol_cost,
    optimize_angle,
    run_trials,
    scan_angles,
    ubm_boundary,
    ubm_cost,
)

FBM = StrategySpec(StrategyKind.FBM)
UBM = StrategySpec(StrategyKind.UBM)
LOL = StrategySpec(StrategyKind.LOL)

TIGHT = EngineOptions(max_copies=50_000, mass_tolerance=1e-14)

PAPER_FBM_SET = {"2", "12", "112", "1112", "11112", "111112", "111111"}
PAPER_GOF_SET = {"2", "11", "122", "1212", "12111", "121122", "1211212", "12112111"}

_gof_cache: dict[float, tuple[float, object]] = {}


def _gof(problem12, eps):
    if eps not in _gof_cache:
        _gof_cache[eps] = optimize_angle(problem12, eps)
    return _gof_cache[eps]


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\n[acceptance {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"acceptance {num} {name}: {detail}"


def test_acceptance_01_lol_cost(problem12, capsys):
    value = lol_cost(problem12, 0.179)
    _report(capsys, 1, "adaptive-strategy copy count", value == 2, f"lol_cost = {value}")


def test_acceptance_02_gof_cost(problem12, capsys):
    phi_opt, result = _gof(problem12, 0.179)
    ok = 1.955 <= result.expected_copies <= 2.055
    _report(capsys, 2, "optimized fixed-angle cost", ok,
            f"cost = {result.expected_copies:.6f} at phi = {phi_opt:.6f} "
            f"(window [1.955, 2.055])")


def test_acceptance_03_ubm_semianalytic(problem12, capsys):
    k = ubm_boundary(problem12, 0.179)
    cost = ubm_cost(problem12, 0.179).expected_copies
    strings, _ = enumerate_strings(problem12, UBM, 0.179, coverage_target=1.0,
                                   max_depth=20)
    errors_ok = bool((abs(strings.true_error - 0.1) <= 1e-12).all())
    ok = k == 2 and abs(cost - 3.2) <= 1e-12 and errors_ok
    _report(capsys, 3, "symmetric-walk strategy", ok,
            f"K = {k}, cost = {cost!r}, per-string error 0.1: {errors_ok}")


def test_acceptance_04_fbm_closed_form(problem12, capsys):
    n_t = fbm_threshold(problem12, 0.179)
    cost = fbm_cost(problem12, 0.179).expected_copies
    strings, _ = enumerate_strings(problem12, FBM, 0.179, coverage_target=1.0,
                                   max_depth=64)
    labels = set(strings.labels.astype(str).tolist())
    ok = n_t == 6 and abs(cost - 4.6441) <= 5e-4 and labels == PAPER_FBM_SET
    _report(capsys, 4, "biased-strategy closed form", ok,
            f"threshold = {n_t}, cost = {cost:.6f}, string set match: "
            f"{labels == PAPER_FBM_SET}")


def test_acceptance_05_string_sets(problem12, capsys):
    phi_opt, _ = _gof(problem12, 0.179)
    spec = StrategySpec(StrategyKind.FIXED_ANGLE, phi=phi_opt)
    gof_strings, _ = enumerate_strings(problem12, spec, 0.179)
    gof_cum = sum(gof_strings.prob[:8].tolist())
    gof_ok = set(gof_strings.labels[:8].astype(str).tolist()) == PAPER_GOF_SET and gof_cum >= 0.997

    ubm_strings, _ = enumerate_strings(problem12, UBM, 0.179, coverage_target=1.0,
                                       max_depth=10)
    ubm_cum = sum(ubm_strings.prob.tolist())
    ubm_ok = ubm_cum >= 0.99
    _report(capsys, 5, "termination-string sets", gof_ok and ubm_ok,
            f"optimized top-8 cum = {gof_cum:.5f} (set match {gof_ok}), "
            f"symmetric-walk n<=10 cum = {ubm_cum:.5f}")


def test_acceptance_06_cross_engine_agreement(capsys):
    rng = random.Random(6)
    worst = 0.0
    count = 0
    for _ in range(18):
        theta = rng.uniform(0.1, 0.7)
        eps = rng.uniform(0.05, 0.35)
        phi = rng.uniform(0.15, 1.4)
        p = DiscriminationProblem(theta=theta)
        dp_fbm = fixed_angle_cost(p, theta, eps, TIGHT).expected_copies
        worst = max(worst, abs(dp_fbm - fbm_cost(p, eps).expected_copies))
        dp_ubm = fixed_angle_cost(p, math.pi / 4, eps, TIGHT).expected_copies
        worst = max(worst, abs(dp_ubm - ubm_cost(p, eps).expected_copies))
        bf = brute_force_cost(p, phi, eps, 20)
        dp = fixed_angle_cost(
            p, phi, eps,
            EngineOptions(max_copies=20, mass_tolerance=1e-300,
                          bound_width_limit=math.inf),
        )
        worst = max(worst, abs(dp.expected_copies - bf.expected_copies))
        count += 3
    ok = worst <= 1e-9
    _report(capsys, 6, "cross-engine oracle agreement", ok,
            f"{count} randomized instances, worst discrepancy = {worst:.3e}")


_ENUM_CONFIGS = [
    (FBM, math.pi / 12, 0.179),
    (UBM, math.pi / 12, 0.179),
    (UBM, math.pi / 8, 0.125),
    (StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.9), math.pi / 12, 0.1),
    (StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.5), math.pi / 8, 0.2),
    (StrategySpec(StrategyKind.FIXED_ANGLE, phi=0.6257), math.pi / 12, 0.179),
]


def test_acceptance_07_conservation_prefix_free(capsys):
    worst_gap = 0.0
    prefix_free = True
    for spec, theta, eps in _ENUM_CONFIGS:
        p = DiscriminationProblem(theta=theta)
        strings, residual = enumerate_strings(p, spec, eps, coverage_target=1.0,
                                              max_depth=24)
        worst_gap = max(worst_gap, abs(sum(strings.prob.tolist()) + residual - 1.0))
        labels = sorted(strings.labels.astype(str).tolist())
        for a, b in zip(labels, labels[1:]):
            if b.startswith(a):
                prefix_free = False
    ok = worst_gap <= 1e-12 and prefix_free
    _report(capsys, 7, "probability conservation and prefix-freeness", ok,
            f"worst |sum + residual - 1| = {worst_gap:.3e}, prefix-free: {prefix_free}")


def test_acceptance_08_per_string_error_bound(capsys):
    worst_excess = -math.inf
    for spec, theta, eps in _ENUM_CONFIGS:
        p = DiscriminationProblem(theta=theta)
        strings, _ = enumerate_strings(p, spec, eps, coverage_target=1.0, max_depth=24)
        for error in strings.true_error.tolist():
            worst_excess = max(worst_excess, error - eps)
    ok = worst_excess <= 1e-9
    _report(capsys, 8, "per-string error bound", ok,
            f"max(true_error - eps) = {worst_excess:.3e}")


def test_acceptance_09_monte_carlo_consistency(problem12, capsys):
    trials = 100_000
    details = []
    ok = True
    for i, eps in enumerate((0.05, 0.125, 0.179)):
        targets = {
            "fbm": (FBM, fbm_cost(problem12, eps).expected_copies),
            "ubm": (UBM, ubm_cost(problem12, eps).expected_copies),
            "lol": (LOL, float(lol_cost(problem12, eps))),
        }
        phi_opt, gof = _gof(problem12, eps)
        targets["gof"] = (StrategySpec(StrategyKind.FIXED_ANGLE, phi=phi_opt),
                          gof.expected_copies)
        for j, (name, (spec, target)) in enumerate(sorted(targets.items())):
            report = run_trials(problem12, spec, eps, trials, seed=100 * i + j)
            sigma = max(report.mean_copies_stderr, 1e-12)
            pulls = abs(report.mean_copies - target) / sigma
            if name == "lol":
                if not (report.min_copies == report.max_copies == int(target)):
                    ok = False
                    details.append(f"{name}@{eps}: length not constant")
            elif pulls > 3.0:
                ok = False
                details.append(f"{name}@{eps}: {pulls:.1f} sigma off")
    _report(capsys, 9, "simulation vs analytic means", ok,
            "all strategies within 3 standard errors at eps in {0.05, 0.125, 0.179}"
            if ok else "; ".join(details))


def test_acceptance_10_figure_structure(problem12, capsys):
    p8 = DiscriminationProblem(theta=math.pi / 8)
    scan = scan_angles(p8, 0.125, 0.05, math.pi / 2 - 1e-9, 400)
    at_theta = fixed_angle_cost(p8, p8.theta, 0.125).expected_copies
    at_quarter = fixed_angle_cost(p8, math.pi / 4, 0.125).expected_copies
    a_ok = scan.best_cost < at_theta - 1e-6 and scan.best_cost < at_quarter - 1e-6

    _, gof_small = _gof(problem12, 1e-3)
    lol_small = lol_cost(problem12, 1e-3)
    b_ok = gof_small.expected_copies < lol_small
    _report(capsys, 10, "figure-level structure", a_ok and b_ok,
            f"scan min {scan.best_cost:.4f} < {{phi=theta: {at_theta:.4f}, "
            f"phi=pi/4: {at_quarter:.4f}}}; optimized {gof_small.expected_copies:.3f} "
            f"< adaptive {lol_small} at eps = 1e-3")


def test_acceptance_11_adaptive_step_identity(problem12, capsys):
    phi = helstrom_angle(problem12)
    p11, p21, p12, p22 = likelihoods(problem12, phi)  # pdj = P(outcome d | psi_j)
    target = collective_error(problem12, 1)
    worst = 0.0
    for num, den in ((p11, p12), (p21, p22)):
        evidence = 0.5 * num + 0.5 * den
        p1 = 0.5 * num / evidence
        worst = max(worst, abs(min(p1, 1.0 - p1) - target))
    ok = worst <= 1e-12 and abs(target - 0.25) <= 1e-12
    _report(capsys, 11, "adaptive update outcome-independence", ok,
            f"both outcomes leave error {target!r} (worst deviation {worst:.2e})")
