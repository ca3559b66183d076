"""The names the benchmark's tracer replaces stay module attributes of seqdisc.

perfbench/tracing.py wraps each name in its `_WRAPPED` list and counts the
string lab's stopping tests through `seqdisc.stringlab.posterior_from_counts`.
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
    assert metrics["stringlab.strings"] > 0
    assert metrics["posterior.stop_tests"] > 0
