#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload stj-derived --seed 1 --seconds 18 --trace 0

The run builds its inputs from ``--seed`` and runs in epochs: each sets
the system up afresh (``setup_s`` is the median set-up) and then runs
rounds. The first epoch always runs all its rounds; later ones stop once
the calls into the program have taken ``--seconds`` of wall time, and
there are at least three set-ups. Every answer is checked against an
oracle outside the timed window.

``--trace 0`` reports the end-to-end metrics with no wrapper installed.
``--trace 1`` alternates plain and traced rounds and reports the
per-layer metrics, the unattributed remainder of each join phase and
the tracing overhead. The last line of standard output is the result
object; the lines before it are diagnostics. Exit status 1 means a
wrong or failed answer; 2 means the run refused to start.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

from measure import Recorder, environment, host_probe, peak_rss_mb
from tracer import LAYER_CALLS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _refuse(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _guard() -> None:
    """Measure the default program only, from this checkout's sources."""
    switches = sorted(k for k in os.environ if k.startswith("REPRO_"))
    if switches:
        _refuse(f"unset the program's switches first: {', '.join(switches)}")
    if not (SRC / "repro" / "__init__.py").is_file():
        _refuse(f"no program sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rec, setup_times, attempted: int, failed: int) -> dict:
    return {
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "join_ms": _metric(rec.median_ms("join"), "ms"),
        "query_ms": _metric(rec.median_ms("query"), "ms"),
        "update_ms": _metric(rec.median_ms("update"), "ms"),
        "cpu_ms_per_op": _metric(rec.cpu_s / rec.ops * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
        "io_per_join": _metric(statistics.fmean(rec.io), "units"),
        "tests_per_join": _metric(statistics.fmean(rec.tests), "count"),
        "correct_frac": _metric((attempted - failed) / attempted, "ratio"),
    }


def per_layer(plain, traced, tracer, host_ms, pages_per_round) -> dict:
    rounds = len(traced.latency["join"])

    def per_round_ms(name):
        return _metric(tracer.ms(name) / rounds, "ms")

    def per_round_count(value):
        return _metric(value / rounds, "count")

    out = {}
    for phase in ("prepare", "construct", "match"):
        walls = [w.get(phase, 0.0) for w in traced.phase_walls]
        out[f"join.{phase}_ms"] = _metric(sum(walls) * 1e3 / rounds, "ms")
        out[f"join.{phase}.unattributed_ms"] = per_round_ms(f"join.{phase}.unattributed")
    for name in dict.fromkeys([n for n, _, _ in LAYER_CALLS] + ["kernels.column_snapshot"]):
        out[f"{name}_ms"] = per_round_ms(name)
    out["seeded.replay_hits"] = per_round_count(tracer.count("seeded.replay"))
    out["kernels.least_enlargement_calls"] = per_round_count(
        tracer.count("kernels.least_enlargement"))
    out["kernels.column_builds"] = per_round_count(tracer.count("kernels.column_build"))
    out["kernels.resident_column_builds"] = per_round_count(tracer.resident_builds)
    out["rtree.insert_calls"] = per_round_count(tracer.count("rtree.insert"))
    out["zorder.decompose_calls"] = per_round_count(tracer.count("zorder.decompose"))
    out["zorder.redundancy"] = _metric(
        statistics.fmean(tracer.redundancy) if tracer.redundancy else 0.0, "ratio")
    hits, misses = tracer.buffer_hits, tracer.buffer_misses
    out["storage.buffer.fetches"] = per_round_count(hits + misses)
    out["storage.buffer.hit_ratio"] = _metric(
        hits / (hits + misses) if hits + misses else 0.0, "ratio")
    for key, value in tracer.io.items():
        out[f"storage.disk.{key}"] = per_round_count(value)
    out["storage.disk.written_pages"] = _metric(pages_per_round, "pages")
    for kind in ("join", "query", "update"):
        split = plain.service_split.get(kind) or [(0.0, 0.0, 0.0)]
        for i, part in enumerate(("queue_wait_ms", "exec_ms", "overhead_ms")):
            out[f"service.{kind}.{part}"] = _metric(
                statistics.median(s[i] for s in split) * 1e3, "ms")
    out["python.gc_ms"] = _metric(tracer.gc_s * 1e3 / rounds, "ms")
    out["host.ref_loop_ms"] = _metric(statistics.median(host_ms), "ms")
    out["round.unattributed_ms"] = _metric(
        (traced.timed_s - tracer.attributed_s()) * 1e3 / rounds, "ms")
    base = plain.median_ms("join")
    out["trace.join_ms"] = _metric(traced.median_ms("join"), "ms")
    out["trace.overhead_pct"] = _metric(
        100.0 * (traced.median_ms("join") - base) / base, "%")
    return out


def run(workload, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """One run of a workload class; returns ``(result object, diagnostics)``."""
    host_before = host_probe()
    gc_before = sum(s["collections"] for s in gc.get_stats())
    wl = workload(seed)
    plain, traced = Recorder(), Recorder()
    tracer = Tracer() if trace else None
    traced.tracer = tracer
    setup_times: list[float] = []
    pages = 0

    def timed_s() -> float:
        return plain.timed_s + traced.timed_s

    # The first epoch always runs to its end (it is the cost prefix);
    # later ones stop when time is up, and set-ups continue until there
    # are enough samples of setup_s.
    while len(setup_times) < wl.min_epochs or timed_s() < seconds:
        if setup_times:
            pages += wl.substrate()[1].written_pages - base_pages
            wl.teardown()
            # Collect the dropped epoch now, untimed, so the next set-up
            # does not pay for the benchmark's discarded substrate.
            # Automatic collection stays on throughout.
            gc.collect()
        wl.prepare_setup()
        start = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - start)
        wl.after_setup(plain)
        buffer, disk = wl.substrate()
        base_pages = disk.written_pages
        if tracer is not None:
            tracer.resident, tracer.buffer = wl.resident, buffer
        for _ in range(wl.epoch_rounds):
            if len(setup_times) > 1 and timed_s() >= seconds:
                break
            wl.round(traced if trace and wl.rounds % 2 else plain)
    pages += wl.substrate()[1].written_pages - base_pages
    host_after = host_probe()

    # Each set-up's warm-up join is checked, so it counts as attempted.
    attempted = plain.ops + traced.ops + len(setup_times)
    failed = plain.failed + traced.failed
    if trace:
        metrics = per_layer(plain, traced, tracer, host_before + host_after,
                            pages / wl.rounds)
    else:
        metrics = end_to_end(plain, setup_times, attempted, failed)
    wl.teardown()
    diagnostics = {
        "workload": wl.name,
        "seed": seed,
        "environment": environment(),
        "rounds": wl.rounds,
        "epochs": len(setup_times),
        "cost_prefix_joins": len(plain.io) + len(traced.io),
        "setup_s": setup_times,
        "host_ref_loop_ms": {"before": host_before, "after": host_after},
        "gc_collections": sum(s["collections"] for s in gc.get_stats()) - gc_before,
        "samples": {k: len(v) for k, v in plain.latency.items()},
        "tail_ms": {k: plain.tail_ms(k) for k in ("join", "query") if plain.latency[k]},
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, diagnostics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _guard()
    if args.workload not in WORKLOADS:
        _refuse(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")
    result, diagnostics = run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    print(json.dumps(diagnostics))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
