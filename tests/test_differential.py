"""Differential tests: partition-parallel runs vs sequential runs.

For every facade join method and ten fixed workload seeds, a
partition-parallel execution (``workers``/``partitions`` drawn
round-robin from a small grid) must be *observationally equivalent* to
the plain sequential execution on the same inputs:

* identical pair sets — replication plus reference-point dedup loses
  nothing and double-counts nothing;
* duplicate-free merged pair list — dedup happened in the workers, not
  by accident of set semantics at the end;
* exactly reconcilable accounting — the parent collector's merged
  :class:`~repro.metrics.CostSummary` equals the integer sum of the
  per-partition snapshots (``repro.partition.summed_summary``), field
  by field.

The fanout-4 physical design keeps trees tall on small inputs, so the
default ``STJ`` (two seed levels) runs sequentially without clamping
while each test stays fast.
"""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.join import spatial_join
from repro.partition import summed_summary
from repro.workload import ClusteredConfig, generate_clustered
from repro.workspace import Workspace

CFG = SystemConfig(page_size=104, buffer_pages=64)

METHODS = ("BFJ", "RTJ", "STJ", "NAIVE", "ZJOIN", "2STJ")
SEEDS = tuple(range(10))

#: The ISSUE's parallel-shape grid, cycled so every (method, seed) cell
#: exercises some shape and every shape appears with every method.
PARALLEL_SHAPES = ((2, 4), (2, 16), (4, 4), (4, 16))

_ENV_CACHE: dict[int, tuple[list, list]] = {}


def _workload(seed: int):
    if seed not in _ENV_CACHE:
        d_r = generate_clustered(ClusteredConfig(
            220, cover_quotient=2.0, objects_per_cluster=11, seed=900 + seed,
        ))
        d_s = generate_clustered(ClusteredConfig(
            140, cover_quotient=2.0, objects_per_cluster=7, seed=950 + seed,
            oid_start=10**6,
        ))
        _ENV_CACHE[seed] = (d_r, d_s)
    return _ENV_CACHE[seed]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("method", METHODS)
def test_parallel_equals_sequential(method: str, seed: int) -> None:
    d_r, d_s = _workload(seed)
    workers, partitions = PARALLEL_SHAPES[
        (seed + METHODS.index(method)) % len(PARALLEL_SHAPES)
    ]

    ws = Workspace(CFG)
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)

    ws.start_measurement()
    sequential = spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
    )

    ws.start_measurement()
    parallel = spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
        workers=workers, partitions=partitions, parallel_seed=seed,
    )

    # -- answers ---------------------------------------------------- #
    assert parallel.pair_set() == sequential.pair_set()
    assert len(parallel.pairs) == len(set(parallel.pairs)), (
        "merged pair list contains duplicates"
    )
    assert parallel.algorithm == sequential.algorithm == method

    # -- accounting ------------------------------------------------- #
    stats = parallel.partitions
    assert stats, "parallel result carries no per-partition stats"
    assert sum(s.pairs for s in stats) == len(parallel.pairs)
    merged = ws.metrics.summary()
    summed = summed_summary(stats, ws.config)
    for field in (
        "match_read", "match_write", "construct_read", "construct_write",
        "bbox_tests", "xy_tests",
    ):
        assert getattr(merged, field) == getattr(summed, field), (
            f"{field}: merged collector disagrees with partition sum"
        )


# --------------------------------------------------------------------- #
# Kernels-on vs kernels-off
# --------------------------------------------------------------------- #

#: Wider data rectangles than the parallel workloads above, so the
#: kernel-path sweep actually emits pairs (the contract being pinned is
#: emission *order*, which zero-pair runs never exercise).
_KERNEL_CACHE: dict[int, tuple[list, list]] = {}

SUMMARY_FIELDS = (
    "match_read", "match_write", "construct_read", "construct_write",
    "bbox_tests", "xy_tests",
)


def _kernel_workload(seed: int):
    if seed not in _KERNEL_CACHE:
        d_r = generate_clustered(ClusteredConfig(
            220, cover_quotient=2.0, objects_per_cluster=11,
            data_side_bound=0.06, seed=900 + seed,
        ))
        d_s = generate_clustered(ClusteredConfig(
            140, cover_quotient=2.0, objects_per_cluster=7,
            data_side_bound=0.06, seed=950 + seed, oid_start=10**6,
        ))
        _KERNEL_CACHE[seed] = (d_r, d_s)
    return _KERNEL_CACHE[seed]


def _run_sequential(method: str, seed: int):
    d_r, d_s = _kernel_workload(seed)
    ws = Workspace(CFG)
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    ws.start_measurement()
    result = spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
    )
    return result.pairs, ws.metrics.summary()


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("method", METHODS)
def test_kernels_bit_identical_to_scalar(method, seed, monkeypatch):
    """The vectorized kernel layer changes nothing observable: pair list
    (including order) and every CostSummary field match the scalar path
    bit for bit."""
    monkeypatch.setenv("REPRO_KERNELS", "1")
    pairs_on, summary_on = _run_sequential(method, seed)
    monkeypatch.setenv("REPRO_KERNELS", "0")
    pairs_off, summary_off = _run_sequential(method, seed)

    assert pairs_on, "workload produced no pairs; order is untested"
    assert pairs_on == pairs_off
    for field in SUMMARY_FIELDS:
        assert getattr(summary_on, field) == getattr(summary_off, field), (
            f"{field}: kernels-on disagrees with kernels-off"
        )


@pytest.mark.parametrize("method", ("STJ", "BFJ"))
def test_kernels_bit_identical_under_sanitizer(method, monkeypatch):
    """Kernels + sanitizer together still match the plain scalar run —
    and the sanitizer's cache-coherence sweep stays silent."""
    monkeypatch.setenv("REPRO_KERNELS", "1")
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    pairs_san, summary_san = _run_sequential(method, 0)
    monkeypatch.setenv("REPRO_KERNELS", "0")
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    pairs_plain, summary_plain = _run_sequential(method, 0)

    assert pairs_san == pairs_plain
    for field in SUMMARY_FIELDS:
        assert getattr(summary_san, field) == getattr(summary_plain, field)


def test_kernels_bit_identical_in_parallel(monkeypatch):
    """Workers inherit REPRO_KERNELS through fork; a kernels-on parallel
    run must reconcile exactly with a kernels-off one."""
    d_r, d_s = _kernel_workload(0)

    def run(kernels: str):
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        ws.start_measurement()
        result = spatial_join(
            file_s, tree_r, ws.buffer, ws.config, ws.metrics, method="STJ",
            workers=2, partitions=4, parallel_seed=0,
        )
        return result.pair_set(), ws.metrics.summary()

    pairs_on, summary_on = run("1")
    pairs_off, summary_off = run("0")
    assert pairs_on == pairs_off
    for field in SUMMARY_FIELDS:
        assert getattr(summary_on, field) == getattr(summary_off, field)


# --------------------------------------------------------------------- #
# Batch-first traversal vs per-node kernels vs scalar
# --------------------------------------------------------------------- #

#: (REPRO_KERNELS, REPRO_BATCH): the columnar batch-first path, PR 5's
#: per-node kernel path, and the scalar reference.
BATCH_MODES = (("1", "1"), ("1", "0"), ("0", "0"))


def _set_modes(monkeypatch, kernels: str, batch: str) -> None:
    monkeypatch.setenv("REPRO_KERNELS", kernels)
    monkeypatch.setenv("REPRO_BATCH", batch)


@pytest.mark.parametrize("seed", (0, 1, 2))
@pytest.mark.parametrize("method", METHODS)
def test_batch_bit_identical_to_scalar(method, seed, monkeypatch):
    """The batch-first layer changes nothing observable on a cold
    workspace: pair list (including order) and every CostSummary field
    match both the per-node kernel path and the scalar path."""
    outputs = []
    for kernels, batch in BATCH_MODES:
        _set_modes(monkeypatch, kernels, batch)
        outputs.append(_run_sequential(method, seed))
    (pairs_b, sum_b), (pairs_k, _), (pairs_s, sum_s) = outputs
    assert pairs_b, "workload produced no pairs; order is untested"
    assert pairs_b == pairs_k == pairs_s
    for field in SUMMARY_FIELDS:
        assert getattr(sum_b, field) == getattr(sum_s, field), (
            f"{field}: batch disagrees with scalar"
        )


@pytest.mark.parametrize("method", METHODS)
def test_batch_repeat_runs_bit_identical(method, monkeypatch):
    """Repeated joins in ONE workspace — the resident steady state,
    where the traversal plan caches and the construction replay cache
    actually engage (a fresh workspace never hits them) — stay
    bit-identical to the scalar path run by run, down to the buffer's
    cumulative hit and miss counts."""
    d_r, d_s = _kernel_workload(0)

    def runs(kernels: str, batch: str):
        _set_modes(monkeypatch, kernels, batch)
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        out = []
        for _ in range(3):
            ws.start_measurement()
            result = spatial_join(
                file_s, tree_r, ws.buffer, ws.config, ws.metrics,
                method=method,
            )
            out.append((
                result.pairs, ws.metrics.summary(),
                ws.buffer.stats.hits, ws.buffer.stats.misses,
            ))
        return out

    batch_runs = runs("1", "1")
    scalar_runs = runs("0", "0")
    assert batch_runs[0][0], "workload produced no pairs"
    for i, (b, s) in enumerate(zip(batch_runs, scalar_runs)):
        assert b[0] == s[0], f"run {i}: pairs differ"
        for field in SUMMARY_FIELDS:
            assert getattr(b[1], field) == getattr(s[1], field), (
                f"run {i}: CostSummary.{field} differs"
            )
        assert b[2] == s[2], f"run {i}: buffer hits differ"
        assert b[3] == s[3], f"run {i}: buffer misses differ"


@pytest.mark.parametrize("method", ("STJ", "BFJ"))
def test_batch_bit_identical_under_sanitizer(method, monkeypatch):
    """Batch + sanitizer together still match the plain scalar run (the
    replay cache stands down under the sanitizer; the traversal caches
    must stay coherent under its peeks)."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    _set_modes(monkeypatch, "1", "1")
    pairs_b, summary_b = _run_sequential(method, 0)
    monkeypatch.setenv("REPRO_SANITIZE", "0")
    _set_modes(monkeypatch, "0", "0")
    pairs_s, summary_s = _run_sequential(method, 0)

    assert pairs_b == pairs_s
    for field in SUMMARY_FIELDS:
        assert getattr(summary_b, field) == getattr(summary_s, field)


def test_pooled_batch_on_off_bit_identical(monkeypatch) -> None:
    """Batch on vs off through the pooled parallel route: identical
    pairs and counters (workers inherit REPRO_BATCH at task time)."""
    d_r, d_s = _kernel_workload(1)

    def run(batch: str):
        _set_modes(monkeypatch, "1", batch)
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        ws.start_measurement()
        result = spatial_join(
            file_s, tree_r, ws.buffer, ws.config, ws.metrics, method="STJ",
            workers=2, partitions=4, parallel_seed=1, parallel_guard=False,
        )
        assert result.parallel_decision.pooled
        return result.pair_set(), ws.metrics.summary()

    pairs_on, summary_on = run("1")
    pairs_off, summary_off = run("0")
    assert pairs_on == pairs_off
    for field in SUMMARY_FIELDS:
        assert getattr(summary_on, field) == getattr(summary_off, field)


# --------------------------------------------------------------------- #
# Pooled mode vs sequential
# --------------------------------------------------------------------- #


def _run_routed(method: str, seed: int, **parallel_kw):
    """One parallel run on the workload of ``seed``, any route."""
    d_r, d_s = _workload(seed)
    ws = Workspace(CFG)
    tree_r = ws.install_rtree(d_r)
    file_s = ws.install_datafile(d_s)
    ws.start_measurement()
    result = spatial_join(
        file_s, tree_r, ws.buffer, ws.config, ws.metrics, method=method,
        **parallel_kw,
    )
    return result, ws.metrics.summary(), ws


@pytest.mark.parametrize("seed", (0, 1))
@pytest.mark.parametrize("method", METHODS)
def test_pooled_equals_sequential(method: str, seed: int) -> None:
    """The persistent-pool route (guard disabled so it always engages)
    is observationally equivalent to sequential: same pair set, no
    duplicates, exactly reconcilable accounting."""
    sequential, _summary, _ws = _run_routed(method, seed)
    pooled, merged, ws = _run_routed(
        method, seed, workers=2, partitions=4, parallel_seed=seed,
        parallel_guard=False,
    )
    assert pooled.parallel_decision is not None
    assert pooled.parallel_decision.pooled, pooled.parallel_decision
    assert pooled.pair_set() == sequential.pair_set()
    assert len(pooled.pairs) == len(set(pooled.pairs))
    summed = summed_summary(pooled.partitions, ws.config)
    for field in SUMMARY_FIELDS:
        assert getattr(merged, field) == getattr(summed, field), (
            f"{field}: merged collector disagrees with partition sum"
        )


def test_pooled_kernels_on_off_bit_identical(monkeypatch) -> None:
    """Kernels on vs off through the pooled route: identical pairs and
    counters (workers inherit REPRO_KERNELS at task time)."""
    d_r, d_s = _kernel_workload(1)

    def run(kernels: str):
        monkeypatch.setenv("REPRO_KERNELS", kernels)
        ws = Workspace(CFG)
        tree_r = ws.install_rtree(d_r)
        file_s = ws.install_datafile(d_s)
        ws.start_measurement()
        result = spatial_join(
            file_s, tree_r, ws.buffer, ws.config, ws.metrics, method="STJ",
            workers=2, partitions=4, parallel_seed=1, parallel_guard=False,
        )
        assert result.parallel_decision.pooled
        return result.pair_set(), ws.metrics.summary()

    pairs_on, summary_on = run("1")
    pairs_off, summary_off = run("0")
    assert pairs_on == pairs_off
    for field in SUMMARY_FIELDS:
        assert getattr(summary_on, field) == getattr(summary_off, field)
