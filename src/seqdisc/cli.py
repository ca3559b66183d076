"""Command-line surface: reproduces the figure-level results as CSV/JSON/SVG files.

Every command is a pure function of its parsed configuration; identical
invocations produce byte-identical output files.  Exit codes: 0 success,
2 usage or validation error, 3 numerical non-convergence, a simulated trial
past its copy cap or a string search past its string cap, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from .engine import NonConvergenceError
from .model import DiscriminationProblem
from .montecarlo import TrialLengthError, run_trials
from .optimizer import optimize_angle, scan_angles
from .stringlab import (
    DEFAULT_COVERAGE,
    DEFAULT_MAX_DEPTH,
    PrefixLimitError,
    aggregate_by_length,
    enumerate_strings,
)
from .strategies import (
    CostResult,
    StrategyKind,
    StrategySpec,
    fbm_cost,
    lol_cost,
    ubm_cost,
)

__all__ = ["main"]

_PRESETS = {
    "fig1": {
        "command": "angle-scan",
        "theta": [math.pi / 8, math.pi / 12, math.pi / 16],
        "epsilon": 0.125,
    },
    "fig3": {
        "command": "cost-curve",
        "theta": [math.pi / 12],
        "epsilon_range": "0.01:0.3:25:log",
    },
    "fig4": {
        "command": "strings",
        "theta": [math.pi / 12],
        "epsilon": 0.179,
        "strategy": ["fbm", "ubm", "gof"],
    },
}


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_rows(run: _Run, header: list[str], rows, svg=None) -> None:
    """Writes the iterable `rows` as CSV, each row as soon as it is formatted, or as JSON,
    or `svg` = (series, xlabel, ylabel) as SVG."""
    if run.fmt == "csv":
        with open(run.output, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(_fmt, row)) + "\n")
    elif run.fmt == "json":
        _write_json(run.output, [dict(zip(header, row)) for row in rows])
    else:
        _write_svg(run.output, *svg)


def _write_svg(path: str, series: list[tuple[str, list[tuple[float, float]]]],
               xlabel: str, ylabel: str) -> None:
    """Minimal self-contained scatter/line plot; one polyline per series."""
    width, height, margin = 640, 480, 60
    points = [p for _, pts in series for p in pts if math.isfinite(p[1])]
    if not points:
        raise ValueError("nothing to plot")
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0

    def sx(x):
        return margin + (x - x0) / (x1 - x0) * (width - 2 * margin)

    def sy(y):
        return height - margin - (y - y0) / (y1 - y0) * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-size="14">{xlabel}</text>',
        f'<text x="18" y="{height / 2:.1f}" text-anchor="middle" font-size="14" '
        f'transform="rotate(-90 18 {height / 2:.1f})">{ylabel}</text>',
        f'<text x="{margin}" y="{height - margin + 20}" font-size="11">{_fmt(x0)}</text>',
        f'<text x="{width - margin}" y="{height - margin + 20}" text-anchor="end" '
        f'font-size="11">{_fmt(x1)}</text>',
        f'<text x="{margin - 5}" y="{height - margin}" text-anchor="end" '
        f'font-size="11">{_fmt(y0)}</text>',
        f'<text x="{margin - 5}" y="{margin}" text-anchor="end" font-size="11">{_fmt(y1)}</text>',
    ]
    for k, (label, pts) in enumerate(series):
        color = colors[k % len(colors)]
        finite = [(x, y) for x, y in pts if math.isfinite(y)]
        if not finite:
            continue
        path_d = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in finite)
        parts.append(f'<polyline points="{path_d}" fill="none" stroke="{color}"/>')
        for x, y in finite:
            parts.append(f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="2.5" fill="{color}"/>')
        parts.append(
            f'<text x="{width - margin + 5}" y="{margin + 16 * k}" font-size="12" '
            f'fill="{color}">{label}</text>'
        )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def _parse_epsilon_range(spec: str) -> list[float]:
    parts = spec.split(":")
    if len(parts) != 4:
        raise ValueError("epsilon range must be lo:hi:count:log|lin")
    lo, hi, count, scale = float(parts[0]), float(parts[1]), int(parts[2]), parts[3]
    if not 0.0 < lo < hi or count < 2 or scale not in ("log", "lin"):
        raise ValueError(f"bad epsilon range {spec!r}")
    if scale == "log":
        llo, lhi = math.log(lo), math.log(hi)
        return [math.exp(llo + i * (lhi - llo) / (count - 1)) for i in range(count)]
    return [lo + i * (hi - lo) / (count - 1) for i in range(count)]


def _parse_strategy(token: str) -> tuple[str, StrategySpec | None]:
    """Returns (name, spec); spec is None for 'gof' (angle found at run time)."""
    if token in ("fbm", "ubm", "lol"):
        return token, StrategySpec(StrategyKind(token))
    if token == "gof":
        return token, None
    if token.startswith("fixed:"):
        return token, StrategySpec(StrategyKind.FIXED_ANGLE, phi=float(token[6:]))
    raise ValueError(f"unknown strategy {token!r}")


@functools.cache  # built once per process; parsing leaves it unchanged
def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, dict[str, argparse.Action]]]:
    """The parser, and per command the setting options it reads, by name."""
    parser = argparse.ArgumentParser(
        prog="seqdisc",
        description="Bounded-error sequential discrimination of two nonorthogonal qubit states",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    settings = {  # name: (flag, keywords)
        "theta": ("--theta", {"type": float, "action": "append"}),
        "q1": ("--q1", {"type": float}),
        "epsilon": ("--epsilon", {"type": float}),
        "epsilon_range": ("--epsilon-range", {}),
        "strategy": ("--strategy", {"action": "append"}),
        "resolution": ("--resolution", {"type": int}),
        "trials": ("--trials", {"type": int}),
        "seed": ("--seed", {"type": int}),
        "coverage": ("--coverage", {"type": float}),
        "max_depth": ("--max-depth", {"type": int}),
        "aggregate": ("--aggregate", {"action": "store_true", "default": None}),
        "fmt": ("--format", {"choices": ("csv", "json", "svg")}),
    }
    # a command is given only the settings it reads; resolution is gof's angle grid
    shared = {"theta", "q1", "epsilon", "resolution", "fmt"}
    reads = {
        "angle-scan": shared,
        "cost-curve": shared | {"epsilon_range"},
        "strings": shared | {"strategy", "coverage", "max_depth", "aggregate"},
        "optimize": shared | {"epsilon_range"},
        "simulate": shared | {"epsilon_range", "strategy", "trials", "seed"},
    }
    options = {}
    for name, keys in reads.items():
        p = sub.add_parser(name)
        options[name] = {key: p.add_argument(flag, dest=key, **kwargs)
                         for key, (flag, kwargs) in settings.items() if key in keys}
        p.add_argument("--preset", choices=sorted(_PRESETS))
        p.add_argument("--config", help="JSON config file; explicit flags win")
        p.add_argument("-o", "--output", required=True)
    return parser, options


def _checked(source: str, cfg: dict, options: dict[str, argparse.Action]) -> dict:
    """The settings `cfg` of `source`, a config file or a preset, each as its command's option
    would give it; a JSON integer stands for a float."""
    settings = {}
    for key, value in cfg.items():
        option = options.get(key)
        if option is None:
            raise ValueError(f"{source}: unknown setting {key!r}")
        kind = bool if option.nargs == 0 else option.type or str  # nargs 0: a switch
        listed = isinstance(option, argparse._AppendAction)  # a repeatable flag gives a list
        items = value if listed and isinstance(value, list) else [value]
        items = [float(x) if kind is float and type(x) is int else x for x in items]
        if listed != isinstance(value, list) or any(
                type(x) is not kind or option.choices and x not in option.choices for x in items):
            raise ValueError(f"{source}: {key!r} cannot be {value!r}")
        settings[key] = items if listed else items[0]
    return settings


def _read_config(path: str, options: dict[str, argparse.Action]) -> dict:
    """The checked settings of the JSON config file at `path`."""
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"config file {path} must hold a JSON object")
    return _checked(f"config file {path}", cfg, options)


class _Run:
    """Resolved configuration: flags over config file over preset over defaults.

    Each setting is read here, in one place, and the output format is checked
    before any work.
    """

    def __init__(self, args: argparse.Namespace, options: dict[str, argparse.Action]):
        merged = {}
        if args.preset:
            preset = dict(_PRESETS[args.preset])
            if preset.pop("command") != args.command:
                raise ValueError(f"preset {args.preset!r} belongs to another command")
            merged.update(_checked(f"preset {args.preset!r}", preset, options))
        if args.config:
            merged.update(_read_config(args.config, options))
        merged.update((k, v) for k, v in vars(args).items() if k in options and v is not None)
        self.command = args.command
        self.output = args.output
        self._cfg = merged
        self.fmt = merged.get("fmt", "csv")
        self.resolution = merged.get("resolution", 2000)
        if self.fmt == "svg" and self.command in ("strings", "optimize"):
            raise ValueError(f"{self.command} supports csv or json output")
        if self.fmt == "svg" and self.command == "simulate" and len(self.epsilons) < 2:
            raise ValueError("svg output needs an --epsilon-range")

    def get(self, key, default=None):
        return self._cfg.get(key, default)

    @property
    def problems(self) -> list[DiscriminationProblem]:
        thetas = self.get("theta")
        if not thetas:
            raise ValueError("--theta is required (or use a preset)")
        return [DiscriminationProblem(theta=theta, q1=self.get("q1", 0.5)) for theta in thetas]

    @property
    def problem(self) -> DiscriminationProblem:
        problems = self.problems
        if len(problems) != 1:
            raise ValueError("this command takes a single --theta")
        return problems[0]

    @property
    def epsilons(self) -> list[float]:
        rng = self.get("epsilon_range")
        if rng is not None:
            return _parse_epsilon_range(rng)
        eps = self.get("epsilon")
        if eps is None:
            raise ValueError("--epsilon or --epsilon-range is required")
        return [eps]

    @property
    def epsilon(self) -> float:
        """The --epsilon of a command that has no --epsilon-range."""
        eps = self.get("epsilon")
        if eps is None:
            raise ValueError("--epsilon is required")
        return eps

    def strategies(self, default: str) -> list[tuple[str, StrategySpec | None]]:
        """(name, spec) of each --strategy, or of the command's `default`."""
        names = self.get("strategy") or [default]
        if self.command == "simulate" and len(names) != 1:
            raise ValueError("simulate takes a single --strategy")
        return [_parse_strategy(name) for name in names]

    def fixed(self, problem: DiscriminationProblem, spec: StrategySpec | None,
              eps: float) -> StrategySpec:
        """`spec`, or for gof (None) the fixed angle that optimize_angle finds at eps."""
        if spec is None:
            phi_opt, _ = optimize_angle(problem, eps, resolution=self.resolution)
            spec = StrategySpec(StrategyKind.FIXED_ANGLE, phi=phi_opt)
        return spec


def _cmd_angle_scan(run: _Run) -> None:
    eps = run.epsilon
    header = ["theta", "phi", "cost", "residual_mass", "bound_width", "note"]
    rows = []
    series = []
    for problem in run.problems:
        theta = problem.theta
        scan = scan_angles(problem, eps, 0.0, math.pi / 2 - 1e-9, run.resolution)
        pts = []
        for phi, result in scan.samples:
            if isinstance(result, CostResult):
                rows.append([theta, phi, result.expected_copies,
                             result.residual_mass, result.bound_width, ""])
                pts.append((phi, result.expected_copies))
            else:
                rows.append([theta, phi, None, None, None, str(result)])
        series.append((f"theta={theta:.4f}", pts))
    _write_rows(run, header, rows, (series, "measurement angle phi (rad)", "expected copies"))


def _cmd_cost_curve(run: _Run) -> None:
    problem = run.problem
    if problem.q1 != 0.5:
        raise ValueError("cost-curve includes UBM and requires q1 = 0.5")
    header = ["epsilon", "neg_log_epsilon", "cost_fbm", "cost_ubm", "cost_lol",
              "cost_gof", "phi_opt"]
    rows = []
    for eps in run.epsilons:
        phi_opt, gof = optimize_angle(problem, eps, resolution=run.resolution)
        rows.append([
            eps,
            -math.log(eps),
            fbm_cost(problem, eps).expected_copies,
            ubm_cost(problem, eps).expected_copies,
            lol_cost(problem, eps),
            gof.expected_copies,
            phi_opt,
        ])
    series = [(name, [(r[1], r[idx]) for r in rows])
              for name, idx in (("FBM", 2), ("UBM", 3), ("LOL", 4), ("GOF", 5))]
    _write_rows(run, header, rows, (series, "-ln(epsilon)", "expected copies"))


def _cmd_strings(run: _Run) -> None:
    problem = run.problem
    eps = run.epsilon
    coverage = run.get("coverage", DEFAULT_COVERAGE)
    max_depth = run.get("max_depth", DEFAULT_MAX_DEPTH)
    header = ["strategy", "string", "n", "prob", "true_error", "guess"]
    results = []
    for name, spec in run.strategies("fbm"):
        spec = run.fixed(problem, spec, eps)
        strings, _residual = enumerate_strings(problem, spec, eps, coverage, max_depth)
        results.append((name, strings))

    if run.get("aggregate"):  # one row per length, labelled "len=<n>", with an empty guess
        _write_rows(run, header, ((name, f"len={a.n}", a.n, a.total_prob, a.mean_error, "")
                                  for name, strings in results for a in aggregate_by_length(strings)))
        return
    _write_strings(run, header, results)


# rows formatted per write, so the text held at once stays a few hundred KiB
_CHUNK_ROWS = 4096


def _write_strings(run: _Run, header: list[str], results) -> None:
    """Writes the rows of `results`, (name, strings) pairs, as _write_rows would, in CSV or
    JSON: each distinct row's text before and after its label is made once."""
    is_json = run.fmt == "json"
    lead, sep = (b"\n", b",\n") if is_json else (b"", b"")
    with open(run.output, "wb") as fh:
        fh.write(b"[" if is_json else (",".join(header) + "\n").encode())
        for name, strings in results:
            rows, index = _distinct_rows(strings)
            before, after = np.empty((2, len(rows)), dtype=object)
            for i, (n, p, e, g) in enumerate(zip(
                    strings.n[rows].tolist(), strings.prob[rows].tolist(),
                    strings.true_error[rows].tolist(), strings.guess[rows].tolist())):
                if is_json:  # json.dump's text of the row, keys sorted, indent 2, after `sep`
                    texts = (f',\n  {{\n    "guess": {g},\n    "n": {n},\n    "prob": {json.dumps(p)},'
                             f'\n    "strategy": {json.dumps(name)},\n    "string": "',
                             f'",\n    "true_error": {json.dumps(e)}\n  }}')
                else:
                    texts = (f"{name},", f",{n},{_fmt(p)},{_fmt(e)},{g}\n")
                before[i], after[i] = (text.encode() for text in texts)
            for start in range(0, len(strings), _CHUNK_ROWS):
                part = slice(start, start + _CHUNK_ROWS)
                flat = [b""] * (3 * len(strings.n[part]))  # the rows' pieces in turn, one join
                flat[0::3], flat[1::3], flat[2::3] = (
                    before[index[part]].tolist(), strings.labels[part].tolist(),
                    after[index[part]].tolist())
                flat[0] = lead + flat[0][len(sep):]  # the file's first row follows no other
                fh.write(b"".join(flat))
                lead = sep
        if is_json:
            fh.write(b"\n]\n" if lead == sep else b"]\n")


def _distinct_rows(strings) -> tuple[np.ndarray, np.ndarray]:
    """The first row of each distinct (n, prob, true_error, guess) of `strings`, and
    for each row the index of its own among them.

    A row is keyed on its n, the bits of its prob and true_error, and its
    guess, all at full width.  Rows of one probability are adjacent in
    emission order, so the keys are first cut into runs of equal rows, and
    only the runs' keys are sorted.
    """
    key = np.stack([strings.n.astype(np.uint64), strings.prob.view(np.uint64),
                    strings.true_error.view(np.uint64), strings.guess.astype(np.uint64)], axis=1)
    starts = np.ones(len(key), bool)
    starts[1:] = (key[1:] != key[:-1]).any(axis=1)
    _, first, of_run = np.unique(key[starts], axis=0, return_index=True, return_inverse=True)
    return np.flatnonzero(starts)[first], of_run.reshape(-1)[np.cumsum(starts) - 1]


def _cmd_optimize(run: _Run) -> None:
    header = ["theta", "epsilon", "phi_opt", "cost", "bound_width"]
    rows = []
    for problem in run.problems:
        for eps in run.epsilons:
            phi_opt, result = optimize_angle(problem, eps, resolution=run.resolution)
            rows.append([problem.theta, eps, phi_opt, result.expected_copies, result.bound_width])
    _write_rows(run, header, rows)


def _cmd_simulate(run: _Run) -> None:
    problem = run.problem
    trials = run.get("trials", 100_000)
    seed = run.get("seed", 0)
    [(name, spec)] = run.strategies("ubm")
    reports = [(eps, run_trials(problem, run.fixed(problem, spec, eps), eps, trials, seed))
               for eps in run.epsilons]
    if run.fmt == "json":
        payload = [
            {
                "epsilon": eps,
                "neg_log_epsilon": -math.log(eps),
                "strategy": name,
                "trials": r.trials,
                "mean_copies": r.mean_copies,
                "mean_copies_stderr": r.mean_copies_stderr,
                "empirical_error": r.empirical_error,
                "min_copies": r.min_copies,
                "max_copies": r.max_copies,
                "seed": r.seed,
                "per_string": {k: list(v) for k, v in sorted(r.per_string.items())},
            }
            for eps, r in reports
        ]
        _write_json(run.output, payload if len(payload) > 1 else payload[0])
        return
    header = ["epsilon", "string", "count", "errors", "observed_error", "observed_prob"]
    rows = ([eps, label, count, errs, errs / count, count / r.trials]
            for eps, r in reports
            for label, (count, errs) in sorted(r.per_string.items(),
                                               key=lambda kv: (-kv[1][0], kv[0])))
    pts = [(-math.log(eps), r.mean_copies) for eps, r in reports]
    _write_rows(run, header, rows, ([(name, pts)], "-ln(epsilon)", "mean copies"))


_COMMANDS = {
    "angle-scan": _cmd_angle_scan,
    "cost-curve": _cmd_cost_curve,
    "strings": _cmd_strings,
    "optimize": _cmd_optimize,
    "simulate": _cmd_simulate,
}


def main(argv: list[str] | None = None) -> int:
    parser, options = _build_parser()
    args = parser.parse_args(argv)
    try:
        run = _Run(args, options[args.command])
        _COMMANDS[run.command](run)
    except (ValueError, NonConvergenceError, TrialLengthError, PrefixLimitError, OSError) as exc:
        print(f"seqdisc: {exc}", file=sys.stderr)  # a json.JSONDecodeError is a ValueError
        return 2 if isinstance(exc, ValueError) else 4 if isinstance(exc, OSError) else 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
