"""Benchmark of the paper's figure computations through the seqdisc CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each workload runs in its own fresh,
single-threaded Python process (perfbench/worker.py) that calls
`seqdisc.cli.main(argv)` in-process on seeded inputs and checks every output.

--trace 0 prints the end-to-end metrics: wall_s (one pass over the inputs, each
invocation timed as its median over the worker's passes), peak_rss_mb
(the workload process's ru_maxrss) and setup_s (median over SETUP_SAMPLES fresh
processes of the time from process start until the import, the inputs and the
warm-up are done).  Both times are rescaled to a reference host speed by the
kernel timings of hostspeed.py; the measured times are printed beside them.
--trace 1 runs one untraced and one traced pass, and two processes that
measure the string lab's and the Monte Carlo simulator's peak memory, and
prints the per-module metrics plus trace.overhead_frac.  The last line of
standard output is one JSON object; see README.md for the metrics and
workloads.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import workloads

ROOT = Path.cwd()
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_SAMPLES = 8  # setup-only processes; the measuring process adds one more
WORKER_TIMEOUT_S = 170
# every thread pool numpy's BLAS might start is pinned to one thread
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerFailed(RuntimeError):
    pass


def _spawn(args, mode: str, seconds: float) -> dict:
    """Run one worker process to completion; its result plus its setup time."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--mode", mode, "--seconds", repr(seconds)]
    if args.smoke:
        cmd.append("--smoke")
    env = {**os.environ, **THREAD_ENV, "PYTHONPATH": str(ROOT / "src")}
    start_ns = time.monotonic_ns()
    # subprocess.run kills the worker on timeout and waits for it to end
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=WORKER_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_raw_s"] = (result["setup_end_ns"] - start_ns) / 1e9
    result["setup_s"] = hostspeed.rescale(result["setup_raw_s"], result["setup_host_s"])
    return result


def _pass_s(run: dict, rescaled: bool = True) -> float:
    """One pass's wall time, each invocation taken at its median over the passes.

    Each invocation's time is rescaled to the reference host by the host-speed
    probes taken around it, unless `rescaled` is False.
    """
    passes = [
        [hostspeed.rescale(t, h) if rescaled else t for t, h in zip(times, host)]
        for times, host in zip(run["invocation_s"], run["host_s"])
    ]
    return sum(statistics.median(times) for times in zip(*passes))


def _git_revision() -> str | None:
    """HEAD's commit, read from ./.git without running git; None outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    return ref_file.read_text().strip() if ref_file.is_file() else ref


def _end_to_end(args) -> tuple[dict, dict, list[dict]]:
    setups = [_spawn(args, "setup", args.seconds) for _ in range(SETUP_SAMPLES)]
    run = _spawn(args, "measure", args.seconds)
    processes = [*setups, run]
    metrics = {
        "wall_s": (_pass_s(run), "s"),
        "peak_rss_mb": (run["peak_rss_kib"] / 1024.0, "MiB"),
        "setup_s": (statistics.median(r["setup_s"] for r in processes), "s"),
    }
    measured = {
        "wall_raw_s": (_pass_s(run, rescaled=False), "s"),
        "setup_raw_s": (statistics.median(r["setup_raw_s"] for r in processes), "s"),
        "host_kernel_ms": (1e3 * statistics.median(s for p in run["host_s"] for s in p), "ms"),
    }
    return metrics, measured, [run]


def _per_layer(args) -> tuple[dict, dict, list[dict]]:
    base = _spawn(args, "measure", 0.0)
    traced = _spawn(args, "trace", 0.0)
    metrics = {name: tuple(value_unit) for name, value_unit in traced["per_layer"].items()}
    for module in ("stringlab", "montecarlo"):
        heap = _spawn(args, f"{module}-heap", 0.0)
        metrics[f"{module}.heap_peak_mb"] = (heap["heap_peak_mb"], "MiB")
    untraced_s, traced_s = _pass_s(base), _pass_s(traced)
    metrics["trace.overhead_frac"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    return metrics, {}, [base, traced]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="smallest size of the workload (self-test)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "seqdisc" / "cli.py").is_file():
        print("run.py: no src/seqdisc here; run from the repository root", file=sys.stderr)
        return 2
    try:
        metrics, measured, runs = (_per_layer if args.trace else _end_to_end)(args)
    except (WorkerFailed, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    env = {**runs[0]["env"], "git_revision": _git_revision(), "nproc": os.cpu_count(),
           "cpus_usable": len(os.sched_getaffinity(0)), **THREAD_ENV}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "measured": measured, "runs": runs}
    out = ROOT / ".perfbench_out" / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"env {json.dumps(env, sort_keys=True)}")
    for r in runs:
        for problem in r["problems"]:
            print(f"FAILED {problem}")
    print(f"{args.workload} failed_frac {failed / attempted!r} ratio ({failed}/{attempted})")
    for name, (value, unit) in {**metrics, **measured}.items():
        print(f"{args.workload} {name} {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
