"""Layer wrappers for the traced run, installed from outside the program.

:class:`Tracer` replaces the public calls into each ``repro`` layer with
wrappers that time and count them, then puts the originals back. A
function imported by name is patched where its caller looks it up (for
example ``least_enlargement_index`` in ``repro.seeded.tree`` and in
``repro.rtree.insertion``), so the wrapper sees every call the program
makes.

Timing is *self time*: a span's duration minus the time covered by the
spans it encloses. Engine phases (``JoinPipeline._run_phase``) are
spans too, so a phase's self time is exactly the part of the phase that
no layer wrapper explains — the unattributed remainder.

The span stack is shared by all threads. That is sound here because the
benchmark drives the program with one closed-loop client: at any moment
only one thread runs program code.
"""

from __future__ import annotations

import functools
import gc
import importlib
import inspect
import time
from collections import defaultdict

#: (metric stem, module, attribute path). One stem may cover several
#: callables; nested calls under one stem still count self time once.
LAYER_CALLS = [
    ("seeded.seed", "repro.seeded.tree", "SeededTree.seed"),
    ("seeded.grow", "repro.seeded.tree", "SeededTree.grow_from"),
    ("seeded.cleanup", "repro.seeded.tree", "SeededTree.cleanup"),
    ("seeded.list_flush", "repro.seeded.linked_lists", "LinkedListManager.flush_all"),
    ("seeded.list_flush", "repro.seeded.linked_lists", "LinkedListManager.regroup_and_drain"),
    # The batch flush that growth triggers when list pages fill the buffer.
    ("seeded.list_flush", "repro.seeded.linked_lists", "LinkedListManager._flush_batch"),
    ("seeded.replay", "repro.storage.buffer", "BufferPool.replay_ops"),
    ("kernels.least_enlargement", "repro.seeded.tree", "least_enlargement_index"),
    ("kernels.least_enlargement", "repro.rtree.insertion", "least_enlargement_index"),
    ("kernels.column_build", "repro.kernels.node_store", "ColumnTree.build"),
    ("kernels.window_plan", "repro.join.batch", "build_window_plans"),
    ("kernels.match_plan", "repro.join.batch", "build_match_plans"),
    ("join.batch.window_join", "repro.join.bfj", "window_join_batch"),
    ("join.batch.match_trees", "repro.join.matching", "match_trees_batch"),
    ("rtree.insert", "repro.rtree.rtree", "RTree.insert"),
    ("rtree.delete", "repro.rtree.rtree", "RTree.delete"),
    ("rtree.window_query", "repro.rtree.rtree", "RTree.window_query"),
    ("storage.buffer.fetch", "repro.storage.buffer", "BufferPool.fetch"),
    ("storage.buffer.fetch", "repro.storage.buffer", "BufferPool.fetch_run"),
    ("storage.disk.io", "repro.storage.disk", "DiskSimulator.read"),
    ("storage.disk.io", "repro.storage.disk", "DiskSimulator.write"),
    ("storage.disk.io", "repro.storage.disk", "DiskSimulator.read_run"),
    ("storage.disk.io", "repro.storage.disk", "DiskSimulator.write_run"),
    ("zorder.zfile_build", "repro.zorder.zfile", "ZFile.build"),
    ("zorder.decompose", "repro.zorder.zfile", "decompose"),
    ("service.admission", "repro.service.admission", "AdmissionController.assess"),
]


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Self time and call counts per layer, plus I/O and GC counters.

    The caller points ``resident`` at the workload's resident ``T_R``,
    whose snapshot builds are counted apart from the join-time trees',
    and ``buffer`` at its substrate's pool, whose hit and miss counters
    are read at install and uninstall.
    """

    def __init__(self):
        self.resident = None
        self.buffer = None
        self.buffer_hits = 0
        self.buffer_misses = 0
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.io = {"reads_random": 0, "reads_seq": 0, "writes": 0}
        self.redundancy: list[float] = []
        self.resident_builds = 0
        self.gc_s = 0.0
        self._stack: list[list[float]] = [[0.0]]
        self._saved: list[tuple[object, str, object]] = []
        self._gc_start = 0.0

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #

    def _span(self, name, fn, name_of=None):
        if inspect.isgeneratorfunction(fn):
            return self._span_generator(name, fn)
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                key = name if name_of is None else name_of(args)
                self_s[key] += elapsed - frame[0]
                calls[key] += 1
                stack[-1][0] += elapsed

        return wrapper

    def _span_generator(self, name, fn):
        """Time each step of a generator, not the caller's work between."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            step = self._span(name, fn(*args, **kwargs).__next__)
            while True:
                try:
                    item = step()
                except StopIteration:
                    return
                yield item

        return wrapper

    def _patch(self, owner, attr, make) -> None:
        """Replace ``owner.attr`` with ``make(original function)``."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, module, path in LAYER_CALLS:
            owner, attr = _resolve(module, path)
            self._patch(owner, attr, functools.partial(self._span, name))
        self._patch_special()
        gc.callbacks.append(self._on_gc)
        if self.buffer is not None:
            stats = self.buffer.stats
            self.buffer_hits -= stats.hits
            self.buffer_misses -= stats.misses

    def _patch_special(self) -> None:
        from repro.join import batch, engine
        from repro.metrics.collector import MetricsCollector
        from repro.zorder.zfile import ZFile

        self._patch(
            engine.JoinPipeline, "_run_phase",
            lambda fn: self._span(
                None, fn, name_of=lambda a: f"join.{a[2].name}.unattributed"
            ),
        )

        def snapshot(fn):
            @functools.wraps(fn)
            def column_tree_of(tree):
                before = self.calls["kernels.column_build"]
                out = fn(tree)
                if tree is self.resident and self.calls["kernels.column_build"] > before:
                    self.resident_builds += 1
                return out
            return self._span("kernels.column_snapshot", column_tree_of)

        self._patch(batch, "column_tree_of", snapshot)

        def zfile_build(fn):
            @functools.wraps(fn)
            def build(*args, **kwargs):
                zfile = fn(*args, **kwargs)
                self.redundancy.append(zfile.redundancy)
                return zfile
            return build

        self._patch(ZFile, "build", zfile_build)

        io = self.io

        def reads(fn):
            @functools.wraps(fn)
            def record_read(collector, sequential=False, count=1):
                io["reads_seq" if sequential else "reads_random"] += count
                return fn(collector, sequential, count)
            return record_read

        def writes(fn):
            @functools.wraps(fn)
            def record_write(collector, sequential=False, count=1):
                io["writes"] += count
                return fn(collector, sequential, count)
            return record_write

        self._patch(MetricsCollector, "record_read", reads)
        self._patch(MetricsCollector, "record_write", writes)

    def uninstall(self) -> None:
        if self.buffer is not None and self._saved:
            stats = self.buffer.stats
            self.buffer_hits += stats.hits
            self.buffer_misses += stats.misses
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start

    # ------------------------------------------------------------------ #
    # Readout
    # ------------------------------------------------------------------ #

    def attributed_s(self) -> float:
        """Total self time of every span recorded so far."""
        return sum(self.self_s.values())

    def ms(self, name: str) -> float:
        return self.self_s.get(name, 0.0) * 1e3

    def count(self, name: str) -> int:
        return self.calls.get(name, 0)
