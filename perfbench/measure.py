"""Timing primitives: the op recorder, the tail rule and host probes."""

from __future__ import annotations

import os
import platform
import resource
import statistics
import time
from collections import defaultdict

import numpy as np

TAIL_BEYOND = 10


def tail(samples: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it.

    That is the eleventh-largest sample: exactly ten lie above it. Returns
    ``(value, percentile)``. With eleven samples or fewer no percentile
    qualifies, so the maximum is returned at percentile 100.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    if n <= TAIL_BEYOND + 1:
        return max(samples), 100.0
    ordered = sorted(samples)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def ref_loop_s() -> float:
    """Wall time of a fixed pure-Python loop: a probe of host speed.

    It touches no program code, so a slow reading means a slow host, not
    a slow program.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return time.perf_counter() - start


def host_probe(repeats: int = 5) -> list[float]:
    return [ref_loop_s() * 1e3 for _ in range(repeats)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
    }


class Recorder:
    """Per-op latency and CPU samples of one run's timed window.

    ``op`` times one call to the program; everything else a workload
    does between ops (input generation, answer checks, buffer purges) is
    outside the window. ``timed_s`` is the window's running length.
    """

    def __init__(self):
        #: Installed around each op, outside its timed window.
        self.tracer = None
        self.latency: dict[str, list[float]] = defaultdict(list)
        self.cpu_s = 0.0
        self.timed_s = 0.0
        self.ops = 0
        self.failed = 0
        self.io: list[float] = []
        self.tests: list[int] = []
        self.phase_walls: list[dict[str, float]] = []
        #: Per request type: (queue wait, execution, client overhead) in s.
        self.service_split: dict[str, list[tuple[float, float, float]]] = defaultdict(list)
        self._last: tuple[str, float] = ("", 0.0)

    def op(self, kind: str, fn, *args, **kwargs):
        if self.tracer is not None:
            self.tracer.install()
        try:
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            out = fn(*args, **kwargs)
            elapsed = time.perf_counter() - t0
            self.cpu_s += time.process_time() - cpu0
        finally:
            if self.tracer is not None:
                self.tracer.uninstall()
        self.timed_s += elapsed
        self.ops += 1
        self.latency[kind].append(elapsed)
        self._last = (kind, elapsed)
        return out

    def service(self, response) -> None:
        """Split the last op's client latency by the service's timestamps."""
        kind, latency = self._last
        wait, run = response.queue_wait_s, response.service_s
        self.service_split[kind].append((wait, run, latency - wait - run))

    def fail(self, count: int = 1) -> None:
        self.failed += count

    def join_cost(self, io: float, tests: int) -> None:
        self.io.append(io)
        self.tests.append(tests)

    def median_ms(self, kind: str) -> float:
        return statistics.median(self.latency[kind]) * 1e3

    def tail_ms(self, kind: str) -> tuple[float, float]:
        value, pct = tail(self.latency[kind])
        return value * 1e3, pct
