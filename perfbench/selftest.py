"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Run from the repository root.  It runs every workload at its smallest size
(`run.py --smoke`), untraced and traced, and asserts that each prints exactly
the metrics BENCHMARK.json names, with their units, and no failure.  It then
corrupts one output row of each command the checks know and asserts that the
worker counts the invocation as failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
import worker  # noqa: E402

THETA = workloads.THETA_PI_12


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metrics_printed() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        expected = {m["name"]: m["unit"] for m in spec[key]}
        for workload in workloads.NAMES:
            result = _run(workload, trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            assert printed == expected, (workload, trace, set(printed) ^ set(expected))
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
            print(f"ok {workload} --trace {trace}: {len(printed)} metrics")


def _replace_field(text: str, column: str, value: str) -> str:
    """The CSV text with `column` of its first data row set to `value`."""
    lines = text.splitlines()
    index = lines[0].split(",").index(column)
    fields = lines[1].split(",")
    fields[index] = value
    lines[1] = ",".join(fields)
    return "\n".join(lines) + "\n"


def _corrupt_simulate(text: str) -> str:
    report = json.loads(text)
    report["mean_copies"] += 1.0
    return json.dumps(report)


def test_corrupted_rows_fail() -> None:
    import seqdisc.cli

    out = ROOT / ".perfbench_out" / "selftest"
    out.mkdir(parents=True, exist_ok=True)
    cases = [
        (["cost-curve", "--theta", THETA, "--epsilon", "0.2", "--resolution", "50"],
         lambda text: _replace_field(text, "cost_gof", "9.5")),
        (["strings", "--theta", THETA, "--epsilon", "0.2", "--strategy", "ubm"],
         lambda text: _replace_field(text, "true_error", "0.25")),
        (["simulate", "--theta", THETA, "--epsilon", "0.2", "--strategy", "ubm",
          "--trials", "2000", "--format", "json"], _corrupt_simulate),
    ]
    args = argparse.Namespace(workload="strings_mc", seed=1, smoke=True, mode="measure")
    residuals = worker._tap_residuals(seqdisc.cli)
    for i, (argv, corrupt) in enumerate(cases):
        path = out / f"case{i}.out"
        residuals.clear()
        assert seqdisc.cli.main([*argv, "-o", str(path)]) == 0
        run = (argv, path, 0, residuals[0] if residuals else None)
        good = path.read_text(encoding="utf-8")
        failed, problems, _ = worker._check(args, [run])
        assert failed == 0, problems
        path.write_text(corrupt(good), encoding="utf-8")
        failed, problems, _ = worker._check(args, [run])
        assert failed == 1 and problems, f"corrupted {argv[0]} output passed the checks"
        print(f"ok corrupted {argv[0]} output counted as failed: {problems[0]}")
    failed, _, _ = worker._check(args, [(cases[0][0], out / "case0.out", 3, None)])
    assert failed == 1, "a non-zero exit code was not counted as failed"


if __name__ == "__main__":
    test_corrupted_rows_fail()
    test_metrics_printed()
    print("selftest passed")
