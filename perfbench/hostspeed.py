"""Host speed, measured during the workload so that its times can be rescaled.

A few vCPUs of a shared machine change speed in steps: on a 2-vCPU x86-64 VM
a fixed pure-Python loop ran at 62 ms for 45 s and then at 40 ms for the next
100 s, on the same vCPU, with no steal time reported.  Medians over a run
cannot remove such a step.  So while the worker times its invocations, a
`Sampler` times `kernel()` every PERIOD_S from a SIGALRM handler (no extra
thread or process), and `rescale` turns each invocation's time into seconds
on a reference host, one on which `kernel()` takes REFERENCE_S.

The kernel is a fixed mix of the interpreter work the library does: float
arithmetic and function calls in a Python loop, heap operations, and numpy
calls on small arrays.  It does not use seqdisc, so a change to the library
moves the rescaled times and not the kernel.  On that VM, kernel times taken
once before and once after a 10 s string-lab call explained its time poorly
(correlation 0.65 of the logs over 20 calls); the mean of the probes taken
during the call explained it well (0.96).
"""

from __future__ import annotations

import heapq
import math
import signal
import statistics
import time

import numpy as np

REFERENCE_S = 0.002  # kernel time on the reference host
PERIOD_S = 0.1  # wall time between probes
WINDOW_S = 1.0  # probes this close to an invocation stand for the host's speed during it
SETUP_SAMPLES = 5  # kernel runs for the speed right after set-up; their median is taken


def kernel() -> float:
    x = np.linspace(0.0, 1.0, 64)
    heap: list[tuple[float, int]] = []
    acc = 0.0
    for i in range(200):
        acc += math.sqrt(i + 1.0) * 0.5
        heapq.heappush(heap, (acc % 7.0, i))
        if len(heap) > 32:
            heapq.heappop(heap)
        y = np.where(x > acc % 1.0, x, 0.0)
        acc += float(np.exp(-y).sum()) * 1e-3
    return acc


def measure() -> float:
    """Seconds the kernel takes on this host now (median of SETUP_SAMPLES runs)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        kernel()
        samples.append(time.perf_counter() - start)
    return statistics.median(samples)


def rescale(seconds: float, host_s: float) -> float:
    """`seconds` measured while the kernel took `host_s`, as reference-host seconds."""
    return seconds * REFERENCE_S / host_s


class Sampler:
    """Probes the host's speed every PERIOD_S while in a `with` block.

    A probe runs `kernel()` in the main thread from a SIGALRM handler, so it
    interrupts the timed work between two Python bytecodes; one more probe
    runs on entry and one on exit.  `own_s` takes the probes' time back out of
    an interval, and `host_s` is the mean probe time around an interval.
    """

    def __init__(self) -> None:
        self.probes: list[tuple[float, float]] = []  # (start, seconds), perf_counter
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        kernel()
        self.probes.append((start, time.perf_counter() - start))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        self._probe()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._probe()

    def own_s(self, start: float, end: float) -> float:
        """Time from `start` to `end` minus the time of the probes within it."""
        return end - start - sum(s for t, s in self.probes if start <= t < end)

    def host_s(self, start: float, end: float) -> float:
        """Mean kernel time of the probes within WINDOW_S of [start, end]."""
        near = [s for t, s in self.probes if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:  # a C call held the signal off for longer than WINDOW_S
            near = [min(self.probes, key=lambda p: min(abs(p[0] - start), abs(p[0] - end)))[1]]
        return statistics.fmean(near)
