import json
import math

import numpy as np
import pytest

from seqdisc import (
    DiscriminationProblem,
    EngineOptions,
    NonConvergenceError,
    fbm_cost,
    fixed_angle_cost,
    helstrom_angle,
    optimize_angle,
    scan_angles,
    ubm_cost,
)
from seqdisc import optimizer
from seqdisc.engine import CostCapExceeded, fixed_angle_costs

RES = 400  # coarse enough for fast tests, fine enough for stable minima


def test_scan_validation(problem12):
    with pytest.raises(ValueError):
        scan_angles(problem12, 0.179, 0.5, 0.4, 10)
    with pytest.raises(ValueError):
        scan_angles(problem12, 0.179, 0.0, 1.0, 1)


@pytest.mark.parametrize("resolution", [2.5, True, 1.0])
def test_scan_resolution_must_be_an_integer(problem12, monkeypatch, resolution):
    # rejected before any angle is run
    monkeypatch.setattr(optimizer, "fixed_angle_costs", None)
    with pytest.raises(ValueError, match="resolution must be an integer >= 2"):
        scan_angles(problem12, 0.179, 0.4, 0.9, resolution)
    with pytest.raises(ValueError, match="resolution must be an integer >= 2"):
        optimize_angle(problem12, 0.179, resolution=resolution)


def test_scan_accepts_numpy_integer_resolution(problem12):
    scan = scan_angles(problem12, 0.179, 0.4, 0.9, np.int64(3))
    assert scan.samples == scan_angles(problem12, 0.179, 0.4, 0.9, 3).samples


def test_scan_resolution_two_returns_endpoints(problem12):
    scan = scan_angles(problem12, 0.179, 0.4, 0.9, 2)
    assert [phi for phi, _ in scan.samples] == [0.4, 0.9]
    assert all(r is not None for _, r in scan.samples)


def test_scan_minimum_beats_fbm_and_ubm(problem12):
    scan = scan_angles(problem12, 0.179, 0.1, math.pi / 2 - 1e-9, RES)
    assert scan.best_cost <= min(4.6441, 3.2)


def test_scan_records_failures(problem12):
    # phi = 0 carries no information and must be recorded, not fatal
    scan = scan_angles(problem12, 0.179, 0.0, 1.0, 5)
    assert 0.0 in scan.failures
    assert scan.samples[0][1] is None
    assert math.isfinite(scan.best_cost)


def test_minimum_away_from_both_reference_angles():
    # at theta = pi/8, eps = 0.125 the optimum is at neither phi = theta nor pi/4
    p = DiscriminationProblem(theta=math.pi / 8)
    phi_opt, result = optimize_angle(p, 0.125, resolution=RES)
    at_theta = fixed_angle_cost(p, p.theta, 0.125)
    at_quarter = fixed_angle_cost(p, math.pi / 4, 0.125)
    assert result.expected_copies < at_theta.expected_copies - 1e-6
    assert result.expected_copies < at_quarter.expected_copies - 1e-6


def test_optimize_angle_paper_value(problem12, gof_179):
    phi_opt, result = gof_179
    assert 1.955 <= result.expected_copies <= 2.055
    assert 0.0 < phi_opt < math.pi / 2


def test_optimum_tie_breaks_to_smaller_phi(problem12, gof_179):
    # symmetric priors: the mirror angle pi/2 - phi is an exact tie; the
    # smaller of the two must be returned
    phi_opt, _ = gof_179
    assert phi_opt < math.pi / 4


def test_dominance_over_specific_strategies(problem12):
    for eps in (0.05, 0.125, 0.2):
        _, result = optimize_angle(problem12, eps, resolution=RES)
        slack = result.bound_width + 1e-9
        assert result.expected_copies <= fbm_cost(problem12, eps).expected_copies + slack
        assert result.expected_copies <= ubm_cost(problem12, eps).expected_copies + slack


def test_deterministic_rescan(problem12):
    a = scan_angles(problem12, 0.15, 0.2, 1.2, 50)
    b = scan_angles(problem12, 0.15, 0.2, 1.2, 50)
    assert [(phi, r.expected_copies if r else None) for phi, r in a.samples] == \
           [(phi, r.expected_copies if r else None) for phi, r in b.samples]
    assert (a.best_phi, a.best_cost) == (b.best_phi, b.best_cost)


def test_refinement_soundness(problem12):
    coarse = scan_angles(problem12, 0.179, 0.0, math.pi / 2 - 1e-9, RES)
    _, refined = optimize_angle(problem12, 0.179, resolution=RES)
    assert refined.expected_copies <= coarse.best_cost + 1e-12


def test_scan_counts_its_depths(problem12):
    scan = scan_angles(problem12, 0.179, 0.0, 1.2, 20)
    opts = EngineOptions(max_copies=20_000)
    depths = [fixed_angle_costs(problem12, [phi], 0.179, opts).angle_steps for phi, _ in scan.samples]
    assert scan.angle_steps == sum(depths)
    assert max(depths) <= scan.depth_iterations < sum(depths)
    batch = fixed_angle_costs(problem12, [phi for phi, _ in scan.samples], 0.179, opts)
    assert 1 <= scan.blocks == batch.blocks <= scan.depth_iterations
    # plain ints, so the counts serialize as JSON
    counts = [scan.angle_steps, scan.depth_iterations, scan.blocks, *depths]
    assert all(type(c) is int for c in counts)
    assert json.loads(json.dumps(counts)) == counts


def test_capped_scan_counts_its_row_copies(problem12):
    # the 19 grid points past the pre-screened phi = 0 ride one block of 88
    # copies, though the cap drops most of them within a few copies
    scan = scan_angles(problem12, 0.179, 0.0, 1.2, 20, initial_cap=3.0)
    assert (scan.blocks, scan.depth_iterations, scan.angle_steps) == (1, 88, 101)
    assert scan.row_copies == 19 * 88 >= scan.angle_steps
    assert type(scan.row_copies) is int


class _sequential_reference:
    """scan_angles and optimize_angle as they were before scans were batched.

    One engine call per grid point, in order, each capped by the best point
    before it; the refinement rounds start uncapped.
    """

    @staticmethod
    def scan(problem, eps, phi_min, phi_max, resolution, abandon_above_best=False,
             initial_cap=None):
        opts = EngineOptions(max_copies=20_000)
        samples, failures = [], {}
        best_phi, best_cost = math.nan, math.inf
        step = (phi_max - phi_min) / (resolution - 1)
        for i in range(resolution):
            phi = phi_min + i * step
            cap = None
            if abandon_above_best:
                cap = min(best_cost, initial_cap if initial_cap is not None else math.inf)
                if not math.isfinite(cap):
                    cap = None
            try:
                result = fixed_angle_cost(problem, phi, eps, opts, cost_cap=cap)
            except (CostCapExceeded, NonConvergenceError, ValueError) as exc:
                samples.append((phi, None))
                failures[phi] = str(exc)
                continue
            samples.append((phi, result))
            if result.expected_copies < best_cost:
                best_cost, best_phi = result.expected_copies, phi
        if not math.isfinite(best_cost):
            raise NonConvergenceError("no grid point converged over the scan range")
        return samples, failures, best_phi, best_cost

    @classmethod
    def optimize(cls, problem, eps, resolution):
        opts = EngineOptions(max_copies=20_000)
        lo, hi = 0.0, math.pi / 2 - 1e-9
        cap = fbm_cost(problem, eps).expected_copies
        if problem.q1 == problem.q2:
            cap = min(cap, ubm_cost(problem, eps).expected_copies)
        cap = 2.0 * cap + 2.0
        try:
            samples, _, best_phi, best_cost = cls.scan(problem, eps, lo, hi, resolution, True, cap)
        except NonConvergenceError:
            samples, _, best_phi, best_cost = cls.scan(problem, eps, lo, hi, resolution)
        best_result = next(r for p, r in samples if p == best_phi)
        for anchor in (problem.theta, helstrom_angle(problem)):
            if not 0.0 < anchor < math.pi / 2 - 1e-9:
                continue
            try:
                result = fixed_angle_cost(problem, anchor, eps, opts)
            except (NonConvergenceError, ValueError):
                continue
            if result.expected_copies < best_cost:
                best_phi, best_cost, best_result = anchor, result.expected_copies, result
        cell = (hi - lo) / (resolution - 1)
        while cell > 1e-6:
            lo = max(0.0, best_phi - cell)
            hi = min(math.pi / 2 - 1e-9, best_phi + cell)
            try:
                samples, _, phi, cost = cls.scan(problem, eps, lo, hi, 17, True)
            except NonConvergenceError:
                break
            if cost < best_cost:
                best_phi, best_cost = phi, cost
                best_result = next(r for p, r in samples if p == phi)
            cell = (hi - lo) / 16
        if problem.q1 == problem.q2 and best_phi > math.pi / 4:
            mirror = math.pi / 2 - best_phi
            try:
                mirror_result = fixed_angle_cost(problem, mirror, eps, opts)
            except (NonConvergenceError, ValueError):
                mirror_result = None
            if mirror_result is not None:
                slack = best_result.bound_width + mirror_result.bound_width + 1e-9
                if mirror_result.expected_copies <= best_cost + slack:
                    return mirror, mirror_result
        return best_phi, best_result


def _reference_cases(eps_values):
    return [(theta, q1, eps)
            for theta in (math.pi / 16, math.pi / 12, math.pi / 8)
            for q1 in (0.5, 0.3)
            for eps in eps_values]


@pytest.mark.parametrize("theta,q1,eps", _reference_cases((0.25, 0.179, 0.1, 0.05, 0.02)))
def test_optimize_matches_sequential_reference(theta, q1, eps):
    problem = DiscriminationProblem(theta=theta, q1=q1)
    phi_opt, result = optimize_angle(problem, eps, resolution=300)
    ref_phi, ref_result = _sequential_reference.optimize(problem, eps, 300)
    assert (phi_opt, result.expected_copies) == (ref_phi, ref_result.expected_copies)
    assert result == ref_result


@pytest.mark.parametrize("theta,q1,eps", _reference_cases((0.179, 0.05)))
def test_uncapped_scan_matches_sequential_reference(theta, q1, eps):
    problem = DiscriminationProblem(theta=theta, q1=q1)
    scan = scan_angles(problem, eps, 0.0, math.pi / 2 - 1e-9, 40)
    samples, failures, best_phi, best_cost = _sequential_reference.scan(
        problem, eps, 0.0, math.pi / 2 - 1e-9, 40)
    assert scan.samples == samples
    assert scan.failures == failures
    assert (scan.best_phi, scan.best_cost) == (best_phi, best_cost)


@pytest.mark.parametrize("theta,q1,eps", _reference_cases((0.179, 0.05)))
def test_capped_scan_finds_the_uncapped_best(theta, q1, eps):
    # a capped scan drops only points that cost more than the best one, so
    # its best point and best result are the uncapped scan's on the same grid
    problem = DiscriminationProblem(theta=theta, q1=q1)
    cap = 2.0 * fbm_cost(problem, eps).expected_copies + 2.0
    scan = scan_angles(problem, eps, 0.0, math.pi / 2 - 1e-9, 80, initial_cap=cap)
    uncapped = scan_angles(problem, eps, 0.0, math.pi / 2 - 1e-9, 80)
    assert (scan.best_phi, scan.best_cost) == (uncapped.best_phi, uncapped.best_cost)
    assert dict(scan.samples)[scan.best_phi] == dict(uncapped.samples)[uncapped.best_phi]
    assert scan.failures.keys() > uncapped.failures.keys()


def test_capped_bracket_scan_finds_the_uncapped_best():
    # refinement-like brackets, where neighbouring costs differ by about
    # 1e-11, capped by nothing and by the bracket's own best cost
    problem = DiscriminationProblem(theta=math.pi / 12)
    eps = 0.031072325059538608
    for lo, hi in ((0.575100830886013, 0.5752972786506196),
                   (0.5751499428271647, 0.5751744987977405),
                   (0.5751637555606136, 0.5751668250569356)):
        uncapped = scan_angles(problem, eps, lo, hi, 17)
        for cap in (math.inf, uncapped.best_cost):
            scan = scan_angles(problem, eps, lo, hi, 17, initial_cap=cap)
            assert (scan.best_phi, scan.best_cost) == (uncapped.best_phi, uncapped.best_cost)
            assert dict(scan.samples)[scan.best_phi] == dict(uncapped.samples)[uncapped.best_phi]


@pytest.mark.parametrize("theta,q1,eps", [
    (math.pi / 12, 0.5, 0.0234),
    (math.pi / 12, 0.5, 0.179),
    (math.pi / 16, 0.5, 0.05),
    (math.pi / 8, 0.5, 0.125),
    (math.pi / 12, 0.3, 0.1),
    (math.pi / 8, 0.3, 0.02),
])
def test_optimize_matches_the_uncapped_optimizer(theta, q1, eps, monkeypatch):
    # the caps are sound, so the search gives, bit for bit, what the same
    # search gives with every scan uncapped
    problem = DiscriminationProblem(theta=theta, q1=q1)
    opts = EngineOptions(max_copies=5_000)
    capped = optimize_angle(problem, eps, 100, opts)
    batch = optimizer.fixed_angle_costs
    monkeypatch.setattr(optimizer, "fixed_angle_costs",
                        lambda problem, phis, eps, opts=None, cost_cap=None:
                        batch(problem, phis, eps, opts))
    assert optimize_angle(problem, eps, 100, opts) == capped


def test_optimize_refines_from_an_anchor_when_no_grid_point_converges(problem12):
    # both grid points are uninformative endpoints; the anchors converge
    phi_opt, result = optimize_angle(problem12, 0.179, resolution=2)
    assert (phi_opt, result.expected_copies) == (0.4442016634537347, 2.4083758482755773)


def test_optimize_without_a_converged_anchor_runs_on_the_grid():
    # with 8 copies neither anchor converges and 3 of the 100 grid points do
    problem = DiscriminationProblem(theta=math.pi / 12, q1=0.3)
    opts = EngineOptions(max_copies=8)
    for anchor in (problem.theta, helstrom_angle(problem)):
        with pytest.raises(NonConvergenceError):
            fixed_angle_cost(problem, anchor, 0.05, opts)
    phi_opt, result = optimize_angle(problem, 0.05, 100, opts)
    assert (phi_opt, result.expected_copies) == (1.2789971548184305, 5.859402693114662)


def test_optimize_raises_when_nothing_converges(problem12):
    with pytest.raises(NonConvergenceError, match="no grid point converged"):
        optimize_angle(problem12, 0.01, opts=EngineOptions(max_copies=3))


@pytest.mark.parametrize("eps,cost,phi", [
    (0.023403473193207174, 7.1659065300743165, 0.7171037881686134),
    (0.031072325059538608, 6.584819817031055, 0.5751664413698954),
])
def test_fig3_rows_at_full_resolution(eps, cost, phi):
    # two rows of cost-curve --preset fig3, each equal to what the optimizer
    # with every scan uncapped returns at the full 2,000-point resolution
    phi_opt, result = optimize_angle(DiscriminationProblem(theta=math.pi / 12), eps)
    assert (result.expected_copies, phi_opt) == (cost, phi)
