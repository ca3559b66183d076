"""One workload in one fresh process: set up, run timed passes, check the outputs.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE --seconds S [--smoke]

Run from the repository root with PYTHONPATH=src (perfbench/run.py does this).
Modes: `setup` stops after the warm-up; `measure` runs passes over the same
inputs while they fit in --seconds (at least one), with the host's speed
probed every 0.1 s meanwhile (hostspeed.py);
`trace` runs one pass with the tracer installed; `record` runs one pass and
writes its output digests as the workload's default-seed reference;
`stringlab-heap` and `montecarlo-heap` make the pass's calls into that module
directly and report how far they raise the process's peak RSS.  The last line
of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import hostspeed
import workloads

ROOT = Path.cwd()
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
DEFAULT_SEED = 0
MAX_REPORTED_PROBLEMS = 20
HEAP_MODES = {"stringlab-heap": "strings", "montecarlo-heap": "simulate"}
CLI_DEFAULT_TRIALS = 100_000


def _parse_args(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace", "record", *HEAP_MODES))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--smoke", action="store_true")
    return parser.parse_args(argv)


def _invoke(cli, argv: list[str]) -> int:
    """seqdisc's exit code for argv; an escaping exception counts as exit 1."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        traceback.print_exc()
        return 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    import seqdisc.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"worker: seqdisc imported from {cli.__file__}, not from ./src", file=sys.stderr)
        return 2
    invocations = workloads.invocations(args.workload, args.seed, args.smoke)
    out_dir = OUT_ROOT / f"{args.workload}-seed{args.seed}-{args.mode}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    for warm in workloads.WARMUP[args.workload]:
        if _invoke(cli, [*warm, "-o", str(out_dir / "warmup.out")]) != 0:
            print(f"worker: warm-up {warm} failed", file=sys.stderr)
            return 1
    result = {"setup_end_ns": time.monotonic_ns(), "setup_host_s": hostspeed.measure()}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0
    if args.mode in HEAP_MODES:
        calls = _module_calls(HEAP_MODES[args.mode], invocations)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for call in calls:
            call()  # the result is dropped before the next call
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        result["heap_peak_mb"] = (after - before) / 1024.0 if calls else 0.0
        print(json.dumps(result))
        return 0

    residuals = _tap_residuals(cli)
    tracer = None
    if args.mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    runs = []  # (argv, output path, exit code, string-lab residual or None)
    invocation_s = []  # [pass][invocation], without the host-speed probes' time
    host_s = []  # [pass][invocation]: mean kernel time of the probes around the invocation
    passes_start = time.monotonic()
    while True:
        intervals = []
        with hostspeed.Sampler() as sampler:
            for i, inv in enumerate(invocations):
                path = out_dir / f"pass{len(invocation_s)}-{i}.out"
                residuals.clear()
                span = tracer.open("cli.main") if tracer else None
                start = time.perf_counter()
                code = _invoke(cli, [*inv, "-o", str(path)])
                intervals.append((start, time.perf_counter()))
                if span:
                    tracer.close(span)
                runs.append((inv, path, code, residuals[0] if len(residuals) == 1 else None))
        invocation_s.append([sampler.own_s(*iv) for iv in intervals])
        host_s.append([sampler.host_s(*iv) for iv in intervals])
        if len(invocation_s) == 1:
            # later passes raise the peak by heap fragmentation, and how many
            # passes fit depends on the host's speed
            result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        elapsed = time.monotonic() - passes_start
        # one pass in trace and record mode; otherwise add passes while they fit
        if args.mode != "measure" or elapsed * (1 + 1 / len(invocation_s)) > args.seconds:
            break
    if tracer:
        tracer.uninstall()
        tracer.dump(out_dir / "spans.json")
        per_layer = tracer.metrics()
        result["per_layer"] = {name: [per_layer[name], unit] for name, unit in tracing.UNITS.items()}

    failed, problems, digests = _check(args, runs)
    result.update(invocation_s=invocation_s, host_s=host_s, attempted=len(runs), failed=failed,
                  problems=problems[:MAX_REPORTED_PROBLEMS], env=_environment())
    if args.mode == "record":
        if failed:
            print(f"worker: not recording a failing pass: {problems}", file=sys.stderr)
            return 1
        REFERENCE_DIR.mkdir(exist_ok=True)
        with open(REFERENCE_DIR / f"{args.workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"seed": args.seed, "invocations": digests}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    for run in runs:
        run[1].unlink(missing_ok=True)
    print(json.dumps(result))
    return 0


def _tap_residuals(cli) -> list[float]:
    """Collects the residual mass of each string-lab call the CLI makes.

    The CLI does not write the residual, and the normalization check needs it.
    The tap adds one Python call per `strings` invocation to the timed region.
    """
    residuals: list[float] = []
    enumerate_strings = cli.enumerate_strings

    @functools.wraps(enumerate_strings)
    def tapped(*args, **kwargs):
        strings, residual = enumerate_strings(*args, **kwargs)
        residuals.append(residual)
        return strings, residual

    cli.enumerate_strings = tapped
    return residuals


def _module_calls(command: str, invocations):
    """The library calls that the pass's `command` invocations make, as thunks.

    Heap peaks are taken as peak-RSS growth over these direct calls in a fresh
    process: tracemalloc would slow the string lab about eightfold.
    """
    from checks import flag, strategy_spec
    from seqdisc.model import DiscriminationProblem
    from seqdisc.montecarlo import run_trials
    from seqdisc.stringlab import enumerate_strings

    calls = []
    for inv in invocations:
        if inv[0] != command:
            continue
        problem = DiscriminationProblem(theta=float(flag(inv, "--theta")))
        spec = strategy_spec(flag(inv, "--strategy"))
        eps = float(flag(inv, "--epsilon"))
        if command == "strings":
            calls.append(functools.partial(enumerate_strings, problem, spec, eps))
        else:
            trials = int(flag(inv, "--trials") or CLI_DEFAULT_TRIALS)
            calls.append(functools.partial(run_trials, problem, spec, eps, trials,
                                           int(flag(inv, "--seed"))))
    return calls


def _reference(args) -> dict | None:
    """Digests recorded at the default seed, keyed by invocation."""
    if args.seed != DEFAULT_SEED or args.smoke or args.mode == "record":
        return None
    with open(REFERENCE_DIR / f"{args.workload}.json", encoding="utf-8") as fh:
        return json.load(fh)["invocations"]


def _check(args, runs):
    """(failed invocations, problems, digests by invocation) for the timed runs."""
    import checks

    reference = _reference(args)
    failed = 0
    problems = []
    digests = {}
    for inv, path, code, residual in runs:
        key = " ".join(inv)
        if code != 0:
            found = [f"exit code {code}"]
        else:
            try:
                found, digest = checks.check(inv, path.read_text(encoding="utf-8"), residual)
            except (ValueError, KeyError, TypeError) as exc:  # malformed output
                found, digest = [f"output could not be read: {exc!r}"], {}
            digests[key] = digest
            if reference is not None:
                if key in reference:
                    found += checks.compare_reference(inv[0], digest, reference[key])
                else:
                    found.append("no reference output recorded for this invocation")
        if found:
            failed += 1
            problems += [f"{key}: {p}" for p in found]
    return failed, problems, digests


def _environment() -> dict:
    import numpy

    blas = "unknown"
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        pass
    return {"python": sys.version.split()[0], "numpy": numpy.__version__, "blas": blas}


if __name__ == "__main__":
    sys.exit(main())
