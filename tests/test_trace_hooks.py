"""The names the benchmark's tracer replaces stay module attributes of seqdisc.

perfbench/tracing.py wraps each name in its `_WRAPPED` list and counts, through
`seqdisc.stringlab.posterior_from_counts`, the string lab's true-error
evaluations, one per count state it emits (its metric `posterior.stop_tests`).
A name that moves or is no longer looked up there would make `--trace 1`
fail, or report zeros, without any other test noticing.
"""

import importlib.util
import math
from pathlib import Path

import seqdisc.cli
import seqdisc.stringlab

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_are_module_attributes():
    tracing = _tracing()
    for module, attr, _ in tracing._WRAPPED:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    assert callable(getattr(seqdisc.stringlab, "posterior_from_counts", None))


def test_tracer_counts_string_lab_calls_and_stop_tests(tmp_path):
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        code = seqdisc.cli.main(["strings", "--theta", repr(math.pi / 12), "--epsilon", "0.179",
                                 "--strategy", "ubm", "-o", str(tmp_path / "strings.csv")])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.metrics()
    assert metrics["stringlab.calls"] == 1
    rows = (tmp_path / "strings.csv").read_text().splitlines()[1:]
    assert metrics["stringlab.strings"] == len(rows) > 0
    assert metrics["posterior.stop_tests"] > 0


def test_cli_calls_the_string_lab_through_its_module_attribute(tmp_path, monkeypatch):
    # perfbench's worker taps residuals by replacing this attribute
    specs = []
    original = seqdisc.cli.enumerate_strings

    def counted(problem, spec, *args):
        specs.append(spec)
        return original(problem, spec, *args)

    monkeypatch.setattr(seqdisc.cli, "enumerate_strings", counted)
    argv = ["strings", "--theta", repr(math.pi / 12), "--epsilon", "0.179"]
    for strategy in ("fbm", "ubm", "fixed:0.7"):
        argv += ["--strategy", strategy]
    assert seqdisc.cli.main([*argv, "-o", str(tmp_path / "strings.csv")]) == 0
    assert [spec.kind.name for spec in specs] == ["FBM", "UBM", "FIXED_ANGLE"]
