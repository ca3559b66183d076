"""Per-module tracing from outside the library.

`Tracer.install()` replaces each public function under the name its caller
looks it up by with a wrapper that records a span (name, start, end, parent,
outcome).  Spans stay in memory until `dump`; `metrics` turns them into the
per-module numbers.  Module heap peaks are measured elsewhere (worker.py), since
tracemalloc slows the string lab about eightfold.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

import seqdisc.cli
import seqdisc.optimizer
import seqdisc.stringlab

# a Monte Carlo trial reads one preallocated row of 64 uniforms: one for the
# true state and 63 for copies; longer trials draw from the fallback stream
ROW_COPIES = 63

# (module, attribute, span name)
_WRAPPED = (
    (seqdisc.cli, "optimize_angle", "optimizer.optimize_angle"),
    (seqdisc.cli, "scan_angles", "optimizer.scan_angles"),
    (seqdisc.cli, "enumerate_strings", "stringlab.enumerate_strings"),
    (seqdisc.cli, "run_trials", "montecarlo.run_trials"),
    (seqdisc.cli, "fbm_cost", "strategies.fbm_cost"),
    (seqdisc.cli, "ubm_cost", "strategies.ubm_cost"),
    (seqdisc.cli, "lol_cost", "strategies.lol_cost"),
    (seqdisc.optimizer, "scan_angles", "optimizer.scan_angles"),
    (seqdisc.optimizer, "fixed_angle_cost", "engine.fixed_angle_cost"),
    (seqdisc.optimizer, "fbm_cost", "strategies.fbm_cost"),
    (seqdisc.optimizer, "ubm_cost", "strategies.ubm_cost"),
)

# name -> unit, in report order; every name is reported, 0 if never reached
UNITS = {
    "engine.calls": "count",
    "engine.calls.ok": "count",
    "engine.calls.capped": "count",
    "engine.calls.nonconverged": "count",
    "engine.s.ok": "s",
    "engine.s.capped": "s",
    "engine.s.nonconverged": "s",
    "engine.call_ms.p50": "ms",
    "engine.call_ms.p99": "ms",
    "engine.call_ms.samples": "count",
    "engine.useful_frac": "ratio",
    "optimizer.optimize_angle.calls": "count",
    "optimizer.optimize_angle.s": "s",
    "optimizer.scan_angles.calls": "count",
    "optimizer.scan_angles.s": "s",
    "optimizer.scan_retries": "count",
    "optimizer.self_s": "s",
    "stringlab.calls": "count",
    "stringlab.s": "s",
    "stringlab.strings": "count",
    "stringlab.us_per_string": "us",
    "posterior.stop_tests": "count",
    "stringlab.useful_frac": "ratio",
    "montecarlo.calls": "count",
    "montecarlo.s": "s",
    "montecarlo.trials": "count",
    "montecarlo.copies": "count",
    "montecarlo.ns_per_copy": "ns",
    "montecarlo.fallback_trials": "count",
    "montecarlo.per_string_keys": "count",
    "strategies.calls": "count",
    "strategies.s": "s",
    "cli.invocations": "count",
    "cli.self_s": "s",
}


class Span:
    __slots__ = ("id", "parent", "name", "start", "end", "outcome", "data")

    def __init__(self, span_id: int, parent: int | None, name: str):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = time.perf_counter()
        self.end = self.start
        self.outcome = "ok"
        self.data: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stop_tests = 0
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def install(self) -> None:
        for module, attr, name in _WRAPPED:
            self._patch(module, attr, self._spanned(getattr(module, attr), name))
        original = seqdisc.stringlab.posterior_from_counts

        @functools.wraps(original)
        def counted(*args, **kwargs):
            self.stop_tests += 1
            return original(*args, **kwargs)

        self._patch(seqdisc.stringlab, "posterior_from_counts", counted)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _patch(self, module, attr: str, replacement) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def _spanned(self, original, name: str):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            if name == "optimizer.scan_angles":
                # optimize_angle's first, capped scan is the one it redoes uncapped
                span.data["capped"] = kwargs.get("initial_cap") is not None
            try:
                result = original(*args, **kwargs)
            except Exception as exc:
                span.outcome = type(exc).__name__
                raise
            finally:
                tracer.close(span)
            _record(span, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "posterior_stop_tests": self.stop_tests,
                "spans": [
                    {"id": s.id, "parent": s.parent, "name": s.name, "start": s.start,
                     "end": s.end, "outcome": s.outcome, **s.data}
                    for s in self.spans
                ],
            }, fh)

    def metrics(self) -> dict[str, float]:
        by_name: dict[str, list[Span]] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            by_name[s.name].append(s)
            if s.parent is not None:
                child_time[s.parent] += s.duration

        def total(spans):
            return sum(s.duration for s in spans)

        def self_time(spans):
            return sum(s.duration - child_time[s.id] for s in spans)

        m: dict[str, float] = {}
        engine = by_name["engine.fixed_angle_cost"]
        classes = {"ok": "ok", "capped": "CostCapExceeded", "nonconverged": "NonConvergenceError"}
        m["engine.calls"] = len(engine)
        for key, outcome in classes.items():
            spans = [s for s in engine if s.outcome == outcome]
            m[f"engine.calls.{key}"] = len(spans)
            m[f"engine.s.{key}"] = total(spans)
        call_ms = sorted(s.duration * 1e3 for s in engine)
        m["engine.call_ms.p50"] = statistics.median(call_ms) if call_ms else 0.0
        m["engine.call_ms.p99"] = _percentile(call_ms, 0.99)
        m["engine.call_ms.samples"] = len(call_ms)
        m["engine.useful_frac"] = m["engine.calls.ok"] / len(engine) if engine else 0.0

        optimize, scans = by_name["optimizer.optimize_angle"], by_name["optimizer.scan_angles"]
        m["optimizer.optimize_angle.calls"] = len(optimize)
        m["optimizer.optimize_angle.s"] = total(optimize)
        m["optimizer.scan_angles.calls"] = len(scans)
        m["optimizer.scan_angles.s"] = total(scans)
        m["optimizer.scan_retries"] = sum(
            1 for s in scans if s.data.get("capped") and s.outcome == "NonConvergenceError"
        )
        m["optimizer.self_s"] = self_time(optimize) + self_time(scans)

        strings = by_name["stringlab.enumerate_strings"]
        n_strings = sum(s.data.get("strings", 0) for s in strings)
        m["stringlab.calls"] = len(strings)
        m["stringlab.s"] = total(strings)
        m["stringlab.strings"] = n_strings
        m["stringlab.us_per_string"] = total(strings) / n_strings * 1e6 if n_strings else 0.0
        m["posterior.stop_tests"] = self.stop_tests
        m["stringlab.useful_frac"] = n_strings / self.stop_tests if self.stop_tests else 0.0

        trials = by_name["montecarlo.run_trials"]
        copies = sum(s.data.get("copies", 0) for s in trials)
        m["montecarlo.calls"] = len(trials)
        m["montecarlo.s"] = total(trials)
        m["montecarlo.trials"] = sum(s.data.get("trials", 0) for s in trials)
        m["montecarlo.copies"] = copies
        m["montecarlo.ns_per_copy"] = total(trials) / copies * 1e9 if copies else 0.0
        m["montecarlo.fallback_trials"] = sum(s.data.get("fallback", 0) for s in trials)
        m["montecarlo.per_string_keys"] = sum(s.data.get("keys", 0) for s in trials)

        strategy_spans = [s for name, spans in by_name.items()
                          if name.startswith("strategies.") for s in spans]
        m["strategies.calls"] = len(strategy_spans)
        m["strategies.s"] = total(strategy_spans)
        m["cli.invocations"] = len(by_name["cli.main"])
        m["cli.self_s"] = self_time(by_name["cli.main"])
        return m


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]


def _record(span: Span, result) -> None:
    """Work counts taken from a wrapped call's result."""
    if span.name == "stringlab.enumerate_strings":
        span.data["strings"] = len(result[0])
    elif span.name == "montecarlo.run_trials":
        span.data["trials"] = result.trials
        span.data["copies"] = sum(len(k) * c for k, (c, _) in result.per_string.items())
        span.data["fallback"] = sum(c for k, (c, _) in result.per_string.items()
                                    if len(k) > ROW_COPIES)
        span.data["keys"] = len(result.per_string)
