"""The four workloads: what each round sends and how it is checked.

Every workload owns one resident ``T_R`` and runs rounds of three request
types against it: a write, ten window queries, and one join of a
fresh derived set ``D_S``. Inputs come from :mod:`inputs` (seeded by the
run's seed), answers are checked against :mod:`oracle`, and only the
calls into the program sit inside :meth:`Recorder.op`.

* ``stj-derived`` / ``bfj-derived`` / ``zjoin-derived`` — the paper's
  protocol: the write stores the arriving ``D_S`` as a data file, the
  buffer is purged (untimed) before the join, and the queries run after
  it. ``T_R`` never changes.
* ``service-churn`` — the same shape through :class:`JoinService` with
  one closed-loop client: the write is an update batch on ``T_R``, the
  buffer stays warm, and every request carries a deadline far above its
  latency.
"""

from __future__ import annotations

import asyncio
import os

import numpy as np

import inputs
import oracle

#: Quarter Table-2 storage: 512-byte pages, 280-page buffer.
PAGE_SIZE = 512
BUFFER_PAGES = 280
QUERIES_PER_ROUND = 10
#: Deadline on every service request, far above any request's latency.
DEADLINE_S = 60.0
D_S_OID_BASE = 10_000_000
FRESH_OID_BASE = 50_000_000
#: ``T_R`` is one fixed map, like any resident index; the run's seed
#: drives everything that arrives: the ``D_S`` stream, the query windows
#: and the update batches. So the spread between runs measures the
#: program and the host, not which map was drawn.
RESIDENT_SEED = 1994


def _config():
    from repro.config import SystemConfig

    return SystemConfig(page_size=PAGE_SIZE, buffer_pages=BUFFER_PAGES)


class Workload:
    """Shared round structure; subclasses supply setup and the calls.

    A run is a series of *epochs*: a fresh set-up followed by at most
    ``epoch_rounds`` rounds, and at least ``min_epochs`` of them. The
    program's disk keeps every page it is given, so without epochs the
    heap, and every full garbage collection with it, would grow all
    through a run. ``epoch_rounds`` is sized so that three epochs take
    about 18 s of timed calls.

    The first epoch always runs to the end, so it is also the *cost
    prefix*: ``io_per_join`` and ``tests_per_join`` average its joins,
    and are identical for a given seed.
    """

    name = ""
    n_r = 25_000
    n_s = 2_500
    per_cluster = inputs.OBJECTS_PER_CLUSTER
    epoch_rounds = 40
    min_epochs = 3

    def __init__(self, seed: int):
        self.seed = seed
        rng = np.random.default_rng([RESIDENT_SEED, self.n_r])
        self.clusters_r = inputs.cluster_rects(rng, self.n_r, per_cluster=self.per_cluster)
        self.boxes_r = inputs.rects_in(rng, self.clusters_r, self.n_r, 0)
        self.index_r = oracle.GridIndex(self.boxes_r)
        self.warm_s = inputs.clustered(
            np.random.default_rng([seed, 1]), self.n_s, D_S_OID_BASE - self.n_s,
            self.per_cluster,
        )
        self.stream = np.random.default_rng([seed, 2])
        self.query_rng = np.random.default_rng([seed, 3])
        self.rounds = 0

    def next_d_s(self) -> inputs.Boxes:
        oid = D_S_OID_BASE + self.rounds * self.n_s
        return inputs.clustered(self.stream, self.n_s, oid, self.per_cluster)

    def query_windows(self, live: inputs.Boxes) -> list:
        from repro.geometry import Rect

        ws = inputs.windows(self.query_rng, live, QUERIES_PER_ROUND)
        return [(w, Rect(*w)) for w in ws]

    def prepare_setup(self) -> None:
        """Make the set-up's inputs; the benchmark drops them after set-up,
        so its own objects add as little as possible to the traced heap."""
        self._entries_r = self.boxes_r.entries()
        self._warm_entries = self.warm_s.entries()

    # Subclass hooks ---------------------------------------------------- #

    def setup(self) -> None:
        """Build the system under test and run one warm-up join (timed)."""
        raise NotImplementedError

    def after_setup(self, rec) -> None:
        """Check the warm-up answer and reset the client's state (untimed)."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what :meth:`setup` built."""

    def round(self, rec) -> None:
        raise NotImplementedError

    @property
    def resident(self):
        """The resident ``T_R`` (tracers tell its snapshot builds apart)."""
        raise NotImplementedError

    def substrate(self):
        """``(buffer, disk)`` of the resident session, for layer counters."""
        raise NotImplementedError


class DerivedJoin(Workload):
    """A stream of distinct derived sets joined against a static ``T_R``."""

    method = ""

    def setup(self) -> None:
        from repro.workspace import Workspace

        ws = Workspace(_config())
        tree = ws.install_rtree(self._entries_r)
        warm = ws.install_datafile(self._warm_entries)
        ws.start_measurement()
        self._warm_result = self._join(ws, tree, warm)
        self.ws, self.tree = ws, tree

    def after_setup(self, rec) -> None:
        expected = self.index_r.join(self.warm_s)
        if oracle.join_errors(self._warm_result.pairs, expected):
            rec.fail()
        self._warm_result = self._entries_r = self._warm_entries = None

    def teardown(self) -> None:
        self.ws = self.tree = None

    @property
    def resident(self):
        return self.tree

    def substrate(self):
        return self.ws.buffer, self.ws.disk

    def _join(self, ws, tree, data_s):
        from repro.join import spatial_join

        return spatial_join(
            data_s, tree, ws.buffer, ws.config, ws.metrics, method=self.method
        )

    def round(self, rec) -> None:
        ws, tree = self.ws, self.tree
        d_s = self.next_d_s()
        entries = d_s.entries()
        expected = self.index_r.join(d_s)
        windows = self.query_windows(self.boxes_r)

        data_s = rec.op("update", ws.install_datafile, entries)
        ws.start_measurement()
        result = rec.op("join", self._join, ws, tree, data_s)
        summary = ws.metrics.summary()
        if self.rounds < self.epoch_rounds:
            rec.join_cost(summary.total_io, summary.bbox_tests + summary.xy_tests)
        rec.fail(min(1, oracle.join_errors(result.pairs, expected)))
        rec.phase_walls.append(result.phase_walls)

        for w, rect in windows:
            hits = rec.op("query", ws.window_query, tree, rect)
            if len(hits) != len(set(hits)) or set(hits) != oracle.window_hits(self.boxes_r, w):
                rec.fail()
        self.rounds += 1


class StjDerived(DerivedJoin):
    name = "stj-derived"
    method = "STJ1-2N"


class BfjDerived(DerivedJoin):
    name = "bfj-derived"
    method = "BFJ"
    epoch_rounds = 320


class ZjoinDerived(DerivedJoin):
    """ZJOIN at a tenth of the size: 50 objects per cluster keeps ten
    clusters in each ``D_S``, so one set's cost does not hinge on where
    three clusters land. Its heap grows slowly, so one epoch covers
    about the whole run and the cost prefix is as long as it can be."""

    name = "zjoin-derived"
    method = "ZJOIN"
    n_r = 2_500
    n_s = 500
    per_cluster = 50
    epoch_rounds = 20


class ServiceChurn(Workload):
    """A resident session behind :class:`JoinService`, one client, churn."""

    name = "service-churn"
    session = "tr"
    epoch_rounds = 22

    def setup(self) -> None:
        from repro.service import (
            JoinRequest, JoinService, ServiceConfig, WorkspaceRegistry,
        )

        self.loop = asyncio.new_event_loop()
        registry = WorkspaceRegistry(_config())
        registry.create(self.session, self._entries_r)
        # The default two workers, but never more than the host has cores.
        workers = min(ServiceConfig.workers, os.cpu_count() or 1)
        self.service = JoinService(registry, ServiceConfig(workers=workers))
        self.loop.run_until_complete(self.service.start())
        self._warm = self.submit(JoinRequest(
            self.session, self._warm_entries, deadline_s=DEADLINE_S,
        ))
        self.session_obj = registry.get(self.session)

    def after_setup(self, rec) -> None:
        from repro.service import Outcome

        expected = self.index_r.join(self.warm_s)
        if (self._warm.outcome is not Outcome.SERVED
                or oracle.join_errors(self._warm.result.pairs, expected)):
            rec.fail()
        self._warm = self._entries_r = self._warm_entries = None
        # Every epoch starts a fresh session from the same map, so the
        # client's model and its update stream start afresh too.
        self.live = inputs.LiveSet(self.boxes_r)
        self.next_oid = FRESH_OID_BASE
        self.churn_rng = np.random.default_rng([self.seed, 4])

    def teardown(self) -> None:
        self.loop.run_until_complete(self.service.stop())
        self.loop.close()
        self.service = self.loop = self.session_obj = None

    @property
    def resident(self):
        return self.session_obj.tree

    def substrate(self):
        ws = self.session_obj.workspace
        return ws.buffer, ws.disk

    def submit(self, request):
        return self.loop.run_until_complete(self.service.submit(request))

    def round(self, rec) -> None:
        from repro.geometry import Rect
        from repro.service import (
            JoinRequest, Outcome, UpdateRequest, WindowQueryRequest,
        )
        from repro.workload.updates import DELETE, INSERT, MOVE, UpdateOp

        live = self.live
        batch = inputs.churn(self.churn_rng, live, self.clusters_r, self.next_oid)
        self.next_oid += len(batch.inserts)
        ops = (
            [UpdateOp(INSERT, o, Rect(*r)) for o, r in batch.inserts]
            + [UpdateOp(DELETE, o, Rect(*r)) for o, r in batch.deletes]
            + [UpdateOp(MOVE, o, Rect(*a), Rect(*b)) for o, a, b in batch.moves]
        )
        resp = rec.op("update", self.submit,
                      UpdateRequest(self.session, ops, deadline_s=DEADLINE_S))
        rec.service(resp)
        for o, r in batch.inserts:
            live.add(o, r)
        for o, _ in batch.deletes:
            live.remove(o)
        for o, _, b in batch.moves:
            live.remove(o)
            live.add(o, b)
        report = resp.result
        if report is None or (
            report.inserts, report.deletes, report.moves, report.missing,
            report.tree_size,
        ) != (len(batch.inserts), len(batch.deletes), len(batch.moves), 0, len(live)):
            rec.fail()

        boxes = live.boxes()
        for w, rect in self.query_windows(boxes):
            resp = rec.op("query", self.submit, WindowQueryRequest(
                self.session, rect, deadline_s=DEADLINE_S))
            rec.service(resp)
            hits = resp.result if resp.outcome is Outcome.SERVED else None
            if hits is None or len(hits) != len(set(hits)) or (
                set(hits) != oracle.window_hits(boxes, w)
            ):
                rec.fail()

        d_s = self.next_d_s()
        request = JoinRequest(self.session, d_s.entries(), deadline_s=DEADLINE_S)
        expected = oracle.grid_join(d_s, boxes)
        metrics = self.session_obj.workspace.metrics
        before = metrics.summary()
        resp = rec.op("join", self.submit, request)
        rec.service(resp)
        after = metrics.summary()
        if self.rounds < self.epoch_rounds:
            rec.join_cost(
                after.total_io - before.total_io,
                after.bbox_tests + after.xy_tests - before.bbox_tests - before.xy_tests,
            )
        if resp.outcome is not Outcome.SERVED or oracle.join_errors(resp.result.pairs, expected):
            rec.fail()
        else:
            rec.phase_walls.append(resp.result.phase_walls)
        self.rounds += 1


WORKLOADS = {w.name: w for w in (StjDerived, BfjDerived, ZjoinDerived, ServiceChurn)}
