"""Seeded inputs of the three figure workloads.

A workload is one pass: a list of CLI invocations (argv without the output
path) drawn from the workload seed.  Every input range is cut into equal cells
and one value is drawn uniformly in each cell, so each seed covers the whole
range and the total work of a pass varies little from seed to seed.
"""

from __future__ import annotations

import math
import random

NAMES = ("gof_curve", "angle_landscape", "strings_mc")

THETA_PI_12 = repr(math.pi / 12)

# gof_curve: Fig. 3 at theta = pi/12, eps log-uniform over [0.01, 0.3].  The
# time per eps jumps with eps, so a pass needs many eps to vary little between
# seeds; a 500-point grid (the CLI default is 2,000) makes room for 24.
GOF_EPS_CELLS = 24
GOF_RESOLUTION = "500"

# angle_landscape: Fig. 1 at eps = 0.125, theta uniform over [pi/16, pi/8].
# 100 grid points keep the two doomed endpoint angles (phi = 0 and
# phi -> pi/2), which use up the 20,000-copy budget, at about half the time.
LANDSCAPE_THETA_CELLS = 2
LANDSCAPE_RESOLUTION = "100"

# strings_mc: Fig. 4 plus the Monte Carlo cross-check at theta = pi/12.  The
# eps cells follow the UBM absorbing boundary K at theta = pi/12: K = 3 below
# eps = 0.1 (158,744 UBM strings, the heavy case), K <= 2 above.  eps stays
# above 0.07 because the string heap grows without bound below it (see
# README.md, known limits).  Draw i takes its phi from phi cell i.
STRINGS_EPS_CELLS = ((0.07, 0.1), (0.1, 0.3))
STRINGS_PHI_RANGE = (0.55, 0.70)


def _cells(rng: random.Random, lo: float, hi: float, k: int) -> list[float]:
    width = (hi - lo) / k
    return [lo + (i + rng.random()) * width for i in range(k)]


def _gof_curve(rng: random.Random, smoke: bool) -> list[list[str]]:
    cells = 1 if smoke else GOF_EPS_CELLS
    resolution = "50" if smoke else GOF_RESOLUTION
    return [
        ["cost-curve", "--theta", THETA_PI_12, "--epsilon", repr(math.exp(x)),
         "--resolution", resolution]
        for x in _cells(rng, math.log(0.01), math.log(0.3), cells)
    ]


def _angle_landscape(rng: random.Random, smoke: bool) -> list[list[str]]:
    cells = 1 if smoke else LANDSCAPE_THETA_CELLS
    # 3 points: both doomed endpoints plus pi/4, so one angle converges
    resolution = "3" if smoke else LANDSCAPE_RESOLUTION
    return [
        ["angle-scan", "--epsilon", "0.125", "--theta", repr(theta), "--resolution", resolution]
        for theta in _cells(rng, math.pi / 16, math.pi / 8, cells)
    ]


def _strings_mc(rng: random.Random, smoke: bool) -> list[list[str]]:
    eps_cells = STRINGS_EPS_CELLS[1:2] if smoke else STRINGS_EPS_CELLS
    eps_values = [lo + rng.random() * (hi - lo) for lo, hi in eps_cells]
    phis = _cells(rng, *STRINGS_PHI_RANGE, len(eps_values))
    extra = ["--trials", "2000"] if smoke else []
    argvs = []
    for eps, phi in zip(eps_values, phis):
        common = ["--theta", THETA_PI_12, "--epsilon", repr(eps)]
        fixed = f"fixed:{phi!r}"
        mc_seed = str(rng.randrange(2**31))
        for strategy in ("fbm", "ubm", fixed):
            argvs.append(["strings", *common, "--strategy", strategy])
        for strategy in ("ubm", "lol", fixed):
            argvs.append(["simulate", *common, "--strategy", strategy,
                          "--seed", mc_seed, "--format", "json", *extra])
    return argvs


_MAKERS = {
    "gof_curve": _gof_curve,
    "angle_landscape": _angle_landscape,
    "strings_mc": _strings_mc,
}

# one cheap call of each command a workload uses, made before timing starts;
# angle-scan always evaluates the two doomed endpoints, so angle_landscape
# warms the same engine and scan path through a coarse cost-curve instead
_COARSE_COST_CURVE = ["cost-curve", "--theta", THETA_PI_12, "--epsilon", "0.3", "--resolution", "20"]
WARMUP = {
    "gof_curve": [_COARSE_COST_CURVE],
    "angle_landscape": [_COARSE_COST_CURVE],
    "strings_mc": [
        ["strings", "--theta", THETA_PI_12, "--epsilon", "0.3", "--strategy", "ubm"],
        ["simulate", "--theta", THETA_PI_12, "--epsilon", "0.3", "--strategy", "lol",
         "--trials", "100", "--format", "json"],
    ],
}


def invocations(name: str, seed: int, smoke: bool = False) -> list[list[str]]:
    """The argv list of one pass of workload `name`, drawn from `seed`."""
    return _MAKERS[name](random.Random(seed), smoke)
