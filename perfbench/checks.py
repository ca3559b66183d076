"""Output checks for the benchmark's CLI invocations, run outside the timed region.

`check(argv, text, residual)` returns (problems, digest).  `problems` lists
the checks the output fails; they hold for any seed.  `digest` is what
`compare_reference` compares against the reference recorded for the default
seed.  Library calls made here go to the library's own modules, never to the
names the tracer wraps, so checking adds nothing to the traced counts.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

from seqdisc import engine, strategies
from seqdisc.model import DiscriminationProblem

# relative allowance for float rounding on top of each enclosure width
REL_TOL = 1e-12
STRING_ERROR_SLACK = 1e-12
NORMALIZATION_TOL = 1e-9
MC_SIGMAS = 5.0
# the optimizer's scan depth budget (seqdisc.optimizer._scan_options)
SCAN_MAX_COPIES = 20_000


def flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def strategy_spec(token: str) -> strategies.StrategySpec:
    if token.startswith("fixed:"):
        return strategies.StrategySpec(strategies.StrategyKind.FIXED_ANGLE, phi=float(token[6:]))
    return strategies.StrategySpec(strategies.StrategyKind(token))


def _close(a: float, b: float, width: float = 0.0) -> bool:
    return abs(a - b) <= width + REL_TOL * max(1.0, abs(a), abs(b))


def _csv_rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def check(argv: list[str], text: str, residual: float | None = None) -> tuple[list[str], dict]:
    """Checks one invocation's output.

    `residual` is the unemitted probability mass that the string lab returned
    alongside a `strings` output; the CLI does not write it.
    """
    command = argv[0]
    eps = float(flag(argv, "--epsilon"))
    problem = DiscriminationProblem(theta=float(flag(argv, "--theta")))
    if command == "cost-curve":
        return _check_cost_curve(problem, eps, text)
    if command == "angle-scan":
        return _check_angle_scan(int(flag(argv, "--resolution")), text)
    if command == "strings":
        return _check_strings(eps, text, residual)
    if command == "simulate":
        return _check_simulate(problem, eps, flag(argv, "--strategy"), text)
    raise ValueError(f"no checks for command {command!r}")


def _check_strings(eps, text, residual):
    rows = _csv_rows(text)
    problems = []
    total = 0.0
    for row in rows:
        total += float(row["prob"])
        if float(row["true_error"]) > eps + STRING_ERROR_SLACK:
            problems.append(f"string {row['string']} has true_error {row['true_error']} > eps")
        if int(row["n"]) != len(row["string"]):
            problems.append(f"string {row['string']} has n = {row['n']}")
    if residual is None:
        problems.append("the string lab's residual mass was not recorded")
    elif abs(total + residual - 1.0) > NORMALIZATION_TOL:
        problems.append(f"probabilities plus residual sum to {total + residual!r}, not 1")
    digest = {"strings": len(rows), "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return problems, digest


def _check_cost_curve(problem, eps, text):
    rows = _csv_rows(text)
    if len(rows) != 1:
        return [f"expected 1 cost-curve row, got {len(rows)}"], {}
    row = {k: float(v) for k, v in rows[0].items()}
    problems = []
    if not _close(row["epsilon"], eps):
        problems.append(f"row epsilon {row['epsilon']!r} is not the requested {eps!r}")
    at_opt = engine.fixed_angle_cost(
        problem, row["phi_opt"], eps, engine.EngineOptions(max_copies=SCAN_MAX_COPIES)
    )
    width = at_opt.bound_width
    if not _close(row["cost_gof"], at_opt.expected_copies, width):
        problems.append(f"cost_gof {row['cost_gof']!r} is not the engine cost at phi_opt "
                        f"{at_opt.expected_copies!r} (width {width!r})")
    best_named = min(row["cost_fbm"], row["cost_ubm"])
    if row["cost_gof"] > best_named + width + REL_TOL * best_named:
        problems.append(f"cost_gof {row['cost_gof']!r} exceeds min(FBM, UBM) {best_named!r} "
                        f"+ width {width!r}")
    digest = {k: row[k] for k in ("cost_fbm", "cost_ubm", "cost_lol", "cost_gof")}
    digest["gof_width"] = width
    return problems, digest


def _check_angle_scan(resolution, text):
    rows = _csv_rows(text)
    problems = []
    if len(rows) != resolution:
        problems.append(f"expected {resolution} angle-scan rows, got {len(rows)}")
    digest_rows = []
    for row in rows:
        phi = float(row["phi"])
        if row["cost"] == "":  # a non-converged angle is a result, not a failure
            if not row["note"]:
                problems.append(f"phi={phi!r} has no cost and no note")
            digest_rows.append([phi, None, None])
            continue
        cost, residual, width = (float(row[k]) for k in ("cost", "residual_mass", "bound_width"))
        if not (cost >= 1.0 and residual >= 0.0 and width >= 0.0) or row["note"]:
            problems.append(f"phi={phi!r} has an invalid converged row {row}")
        digest_rows.append([phi, cost, width])
    if not any(r[1] is not None for r in digest_rows):
        problems.append("no angle converged")
    return problems, {"rows": digest_rows}


def _check_simulate(problem, eps, token, text):
    report = json.loads(text)
    spec = strategy_spec(token)
    width = 0.0
    if spec.kind is strategies.StrategyKind.UBM:
        expected = strategies.ubm_cost(problem, eps).expected_copies
    elif spec.kind is strategies.StrategyKind.LOL:
        expected = float(strategies.lol_cost(problem, eps))
    else:
        result = engine.fixed_angle_cost(problem, spec.phi, eps)
        expected, width = result.expected_copies, result.bound_width
    problems = []
    mean, stderr = report["mean_copies"], report["mean_copies_stderr"]
    if not _close(mean, expected, MC_SIGMAS * stderr + width):
        problems.append(f"{token}: mean copies {mean!r} is more than {MC_SIGMAS:g} standard "
                        f"errors ({stderr!r}) from the exact cost {expected!r}")
    sigma = math.sqrt(eps * (1.0 - eps) / report["trials"])
    if report["empirical_error"] > eps + MC_SIGMAS * sigma:
        problems.append(f"{token}: empirical error {report['empirical_error']!r} exceeds "
                        f"eps + {MC_SIGMAS:g} sigma")
    return problems, {"sha256": hashlib.sha256(text.encode()).hexdigest()}


def _overlap(a, a_width, b, b_width) -> bool:
    """Enclosures [a, a + a_width] and [b, b + b_width] meet (up to rounding)."""
    slack = REL_TOL * max(1.0, abs(a), abs(b))
    return a <= b + b_width + slack and b <= a + a_width + slack


def compare_reference(command: str, digest: dict, ref: dict) -> list[str]:
    """Differences between this output's digest and the default-seed reference."""
    if command == "cost-curve":
        problems = [f"{k} {digest[k]!r} != reference {ref[k]!r}"
                    for k in ("cost_fbm", "cost_ubm", "cost_lol") if not _close(digest[k], ref[k])]
        if not _overlap(digest["cost_gof"], digest["gof_width"], ref["cost_gof"], ref["gof_width"]):
            problems.append(f"cost_gof {digest['cost_gof']!r} outside the reference enclosure")
        return problems
    if command == "angle-scan":
        rows, ref_rows = digest["rows"], ref["rows"]
        if [r[0] for r in rows] != [r[0] for r in ref_rows]:
            return ["angle grid differs from the reference"]
        failed = {r[0] for r in rows if r[1] is None}
        ref_failed = {r[0] for r in ref_rows if r[1] is None}
        if failed != ref_failed:
            return [f"non-converged angles {sorted(failed)} != reference {sorted(ref_failed)}"]
        return [f"phi={r[0]!r}: cost {r[1]!r} outside the reference enclosure"
                for r, q in zip(rows, ref_rows)
                if r[1] is not None and not _overlap(r[1], r[2], q[1], q[2])]
    return [] if digest == ref else [f"output differs from the reference: {digest} != {ref}"]
