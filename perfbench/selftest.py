#!/usr/bin/env python3
"""Tiny-size self-test of the benchmark itself.

Runs in well under a minute, from the root of a source checkout::

    python3 perfbench/selftest.py

It checks that every workload runs end to end at a tiny size in both
modes and prints exactly the metrics ``BENCHMARK.json`` names, that the
oracle agrees with brute force and catches a corrupted answer inside a
run, that the tail rule picks the right sample, that the tracer puts
every wrapped callable back, and that the environment guard refuses a
set ``REPRO_*`` switch. Exit status is non-zero on the first failure.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

import inputs
import oracle
import run
import workloads
from measure import tail
from tracer import LAYER_CALLS, Tracer, _resolve

SPEC = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def tiny(cls, **extra):
    """The workload at a size that runs in about a second."""
    small = {"n_r": 2_000, "n_s": 300, "epoch_rounds": 4, "min_epochs": 2}
    small.update(extra)
    return type(f"Tiny{cls.__name__}", (cls,), small)


def test_workloads() -> None:
    names = {
        0: [m["name"] for m in SPEC["end_to_end"]],
        1: [m["name"] for m in SPEC["per_layer"]],
    }
    check(sorted(workloads.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"]),
          "workload names differ from BENCHMARK.json")
    for name, cls in workloads.WORKLOADS.items():
        for trace in (0, 1):
            result, diag = run.run(tiny(cls), seed=7, seconds=0.0, trace=bool(trace))
            check(result["correct"] and result["failed"] == 0,
                  f"{name} trace={trace}: {result['failed']} wrong answers")
            check(sorted(result["metrics"]) == sorted(names[trace]),
                  f"{name} trace={trace}: metric names differ from BENCHMARK.json")
            if trace == 0:
                check(all(m["value"] > 0 for m in result["metrics"].values()),
                      f"{name}: an end-to-end metric reads 0")
        print(f"ok  {name} runs in both modes ({diag['rounds']} rounds)")
    churn = run.run(tiny(workloads.ServiceChurn), seed=7, seconds=0.0, trace=True)[0]
    check(churn["metrics"]["kernels.resident_column_builds"]["value"] == 1.0,
          "service-churn should rebuild the resident snapshot once per round")


def test_repeatable_costs() -> None:
    first = run.run(tiny(workloads.StjDerived), seed=3, seconds=0.0, trace=False)[0]
    again = run.run(tiny(workloads.StjDerived), seed=3, seconds=0.3, trace=False)[0]
    for key in ("io_per_join", "tests_per_join"):
        check(first["metrics"][key] == again["metrics"][key],
              f"{key} differs between runs of one seed")
    print("ok  io_per_join and tests_per_join repeat exactly for a seed")


def test_oracle() -> None:
    rng = np.random.default_rng(5)
    for n_s, n_r in ((50, 400), (300, 2_000)):
        # Cover quotient 1, so the two sets overlap.
        s = inputs.rects_in(rng, inputs.cluster_rects(rng, n_s, 1.0), n_s, 100_000)
        r = inputs.rects_in(rng, inputs.cluster_rects(rng, n_r, 1.0), n_r, 0)
        # Some large rectangles, so pairs span many grid cells.
        r.xhi[:20] = np.minimum(1.0, r.xlo[:20] + 0.3)
        r.yhi[:20] = np.minimum(1.0, r.ylo[:20] + 0.2)
        expected = oracle.brute_join(s, r)
        check(oracle.grid_join(s, r) == expected, "grid oracle differs from brute force")
        check(len(expected) > 0, "oracle test inputs produce no pairs")
        pairs = sorted(expected)
        check(oracle.join_errors(pairs, expected) == 0, "correct answer flagged")
        check(oracle.join_errors(pairs[1:], expected) == 1, "missing pair not caught")
        check(oracle.join_errors(pairs + pairs[:1], expected) == 1, "repeat not caught")
        s_oid, r_oid = pairs[0]
        bad = [(s_oid, r_oid + 1)] + pairs[1:]
        check(oracle.join_errors(bad, expected) >= 1, "corrupted pair not caught")

    class Corrupting(tiny(workloads.StjDerived)):
        def _join(self, ws, tree, data_s):
            result = super()._join(ws, tree, data_s)
            if self.rounds == 2:
                s_oid, r_oid = result.pairs[0] if result.pairs else (-1, -1)
                result.pairs[:1] = [(s_oid, r_oid + 1)]
            return result

    result = run.run(Corrupting, seed=7, seconds=0.0, trace=False)[0]
    check(not result["correct"] and result["failed"] == 1,
          "a corrupted pair inside a run was not reported")
    print("ok  oracle matches brute force and catches a corrupted pair")


def test_tail_rule() -> None:
    check(tail(list(range(1, 101))) == (90, 90.0), "tail of 1..100")
    check(tail(list(range(20, 0, -1))) == (10, 50.0), "tail of 20 samples")
    check(tail([3.0] * 5 + [9.0]) == (9.0, 100.0), "tail of too few samples")
    print("ok  tail rule: eleventh-largest sample")


def test_tracer_restores() -> None:
    targets = [_resolve(module, path) for _, module, path in LAYER_CALLS]
    from repro.join import batch, engine
    from repro.metrics.collector import MetricsCollector

    targets += [(engine.JoinPipeline, "_run_phase"), (batch, "column_tree_of"),
                (MetricsCollector, "record_read"), (MetricsCollector, "record_write")]

    def raw(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)

    before = [raw(o, a) for o, a in targets]
    with Tracer():
        during = [raw(o, a) for o, a in targets]
    after = [raw(o, a) for o, a in targets]
    check(all(b is not d for b, d in zip(before, during)), "a target was not wrapped")
    check(all(b is a for b, a in zip(before, after)), "a wrapped callable was not restored")
    print(f"ok  tracer wraps and restores {len(targets)} callables")


def test_guard() -> None:
    env = dict(os.environ, REPRO_KERNELS="0")
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "stj-derived",
         "--seed", "1", "--seconds", "1"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    check(proc.returncode == 2 and proc.stdout == "", "REPRO_* switch not refused")
    print("ok  a set REPRO_* switch is refused")


if __name__ == "__main__":
    run._guard()
    test_tail_rule()
    test_oracle()
    test_tracer_restores()
    test_guard()
    test_repeatable_costs()
    test_workloads()
    print("selftest passed")
