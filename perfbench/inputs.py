"""Seeded input generation, independent of the program under test.

Every input the benchmark feeds the program is made here from the run's
seed with numpy, so a change to the program's own workload generators
cannot change what the benchmark measures. Shapes follow the paper's
Section 4 generator: rectangles whose centres fall inside clustering
rectangles that together cover a fixed share of the unit map (the
*cover quotient*), 200 objects per cluster, data sides below 0.004.

Inputs travel as :class:`Boxes` (coordinate columns plus object ids);
:meth:`Boxes.entries` turns them into the ``(Rect, oid)`` list the
program's public API takes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

OBJECTS_PER_CLUSTER = 200
DATA_SIDE_BOUND = 0.004
COVER_QUOTIENT = 0.2


@dataclass
class Boxes:
    """Columns of closed rectangles ``[xlo, xhi] x [ylo, yhi]`` with oids."""

    xlo: np.ndarray
    ylo: np.ndarray
    xhi: np.ndarray
    yhi: np.ndarray
    oid: np.ndarray

    def __len__(self) -> int:
        return len(self.oid)

    def entries(self) -> list:
        from repro.geometry import Rect

        return [
            (Rect(a, b, c, d), o)
            for a, b, c, d, o in zip(
                self.xlo.tolist(), self.ylo.tolist(), self.xhi.tolist(),
                self.yhi.tolist(), self.oid.tolist(),
            )
        ]


def cluster_rects(rng: np.random.Generator, n: int,
                  cover_quotient: float = COVER_QUOTIENT,
                  per_cluster: int = OBJECTS_PER_CLUSTER) -> np.ndarray:
    """``ceil(n / per_cluster)`` clustering rectangles covering the quotient.

    Sides are drawn from ``U(0, 1)`` and scaled by one common factor so
    the unclipped total area equals ``cover_quotient``; rectangles are
    then clipped to the map. Returns an ``(k, 4)`` array of
    ``xlo, ylo, xhi, yhi``.
    """
    k = max(1, math.ceil(n / per_cluster))
    cx, cy = rng.random(k), rng.random(k)
    w, h = rng.random(k), rng.random(k)
    scale = math.sqrt(cover_quotient / float(np.sum(w * h)))
    w, h = w * scale, h * scale
    out = np.empty((k, 4))
    out[:, 0] = np.clip(cx - w / 2, 0.0, 1.0)
    out[:, 1] = np.clip(cy - h / 2, 0.0, 1.0)
    out[:, 2] = np.clip(cx + w / 2, 0.0, 1.0)
    out[:, 3] = np.clip(cy + h / 2, 0.0, 1.0)
    return out


def rects_in(rng: np.random.Generator, clusters: np.ndarray, n: int,
             oid_start: int) -> Boxes:
    """``n`` data rectangles, centres uniform in randomly chosen clusters.

    Objects are dealt to clusters round-robin in a shuffled order, so
    the clusters hold equal shares and the file order carries no spatial
    locality (the paper's order-free input).
    """
    which = rng.permutation(np.arange(n) % len(clusters))
    c = clusters[which]
    cx = c[:, 0] + rng.random(n) * (c[:, 2] - c[:, 0])
    cy = c[:, 1] + rng.random(n) * (c[:, 3] - c[:, 1])
    w = rng.random(n) * DATA_SIDE_BOUND
    h = rng.random(n) * DATA_SIDE_BOUND
    return Boxes(
        np.clip(cx - w / 2, 0.0, 1.0), np.clip(cy - h / 2, 0.0, 1.0),
        np.clip(cx + w / 2, 0.0, 1.0), np.clip(cy + h / 2, 0.0, 1.0),
        np.arange(oid_start, oid_start + n, dtype=np.int64),
    )


def clustered(rng: np.random.Generator, n: int, oid_start: int = 0,
              per_cluster: int = OBJECTS_PER_CLUSTER) -> Boxes:
    """One clustered data set of ``n`` objects (its own clusters)."""
    return rects_in(rng, cluster_rects(rng, n, per_cluster=per_cluster), n, oid_start)


def windows(rng: np.random.Generator, around: Boxes, count: int,
            side: float = 0.03) -> list[tuple[float, float, float, float]]:
    """``count`` square query windows centred on random live objects."""
    pick = rng.integers(0, len(around), count)
    cx = (around.xlo[pick] + around.xhi[pick]) / 2
    cy = (around.ylo[pick] + around.yhi[pick]) / 2
    half = side / 2
    return [
        (max(0.0, x - half), max(0.0, y - half),
         min(1.0, x + half), min(1.0, y + half))
        for x, y in zip(cx.tolist(), cy.tolist())
    ]


class LiveSet:
    """The client's model of a mutable resident tree's contents.

    Columns grow by doubling; deletion swaps the last row into the hole,
    so every update is O(1) and the oracle always sees dense columns.
    """

    def __init__(self, boxes: Boxes):
        n = len(boxes)
        self._cols = np.zeros((4, max(16, 2 * n)))
        self._oids = np.zeros(max(16, 2 * n), dtype=np.int64)
        self.n = 0
        self._pos: dict[int, int] = {}
        for row in zip(boxes.xlo.tolist(), boxes.ylo.tolist(),
                       boxes.xhi.tolist(), boxes.yhi.tolist(),
                       boxes.oid.tolist()):
            self.add(row[4], row[:4])

    def __len__(self) -> int:
        return self.n

    def add(self, oid: int, rect: tuple) -> None:
        if oid in self._pos:
            raise ValueError(f"oid {oid} already live")
        if self.n == len(self._oids):
            self._cols = np.concatenate([self._cols, np.zeros_like(self._cols)], axis=1)
            self._oids = np.concatenate([self._oids, np.zeros_like(self._oids)])
        i = self.n
        self._cols[:, i] = rect
        self._oids[i] = oid
        self._pos[oid] = i
        self.n += 1

    def remove(self, oid: int) -> None:
        i = self._pos.pop(oid)
        last = self.n - 1
        if i != last:
            self._cols[:, i] = self._cols[:, last]
            moved = int(self._oids[last])
            self._oids[i] = moved
            self._pos[moved] = i
        self.n = last

    def rect_of(self, oid: int) -> tuple:
        return tuple(self._cols[:, self._pos[oid]].tolist())

    def oid_at(self, i: int) -> int:
        return int(self._oids[i])

    def boxes(self) -> Boxes:
        n = self.n
        c = self._cols
        return Boxes(c[0, :n], c[1, :n], c[2, :n], c[3, :n], self._oids[:n])


@dataclass(frozen=True)
class Churn:
    """One update batch as plain tuples: what the client will send."""

    inserts: list  # [(oid, rect)]
    deletes: list  # [(oid, rect)]
    moves: list    # [(oid, from_rect, to_rect)]


def churn(rng: np.random.Generator, live: LiveSet, clusters: np.ndarray,
          next_oid: int, inserts: int = 20, deletes: int = 20,
          moves: int = 10, max_shift: float = 0.01) -> Churn:
    """An update batch against ``live``: distinct victims, fresh oids.

    Inserts land in the resident set's own clusters; deletes and moves
    pick distinct live objects uniformly, so no op in a batch targets an
    object another op of the batch touched. Moves shift an object by up
    to ``max_shift`` per axis, clipped to the map.
    """
    new = rects_in(rng, clusters, inserts, next_oid)
    victims = rng.choice(len(live), size=deletes + moves, replace=False)
    oids = [live.oid_at(int(i)) for i in victims]
    shift = (rng.random((moves, 2)) * 2 - 1) * max_shift
    moved = []
    for oid, (dx, dy) in zip(oids[deletes:], shift.tolist()):
        x0, y0, x1, y1 = live.rect_of(oid)
        dx = min(max(dx, -x0), 1.0 - x1)
        dy = min(max(dy, -y0), 1.0 - y1)
        moved.append((oid, (x0, y0, x1, y1), (x0 + dx, y0 + dy, x1 + dx, y1 + dy)))
    return Churn(
        inserts=[(o, r) for r, o in zip(
            zip(new.xlo.tolist(), new.ylo.tolist(), new.xhi.tolist(), new.yhi.tolist()),
            new.oid.tolist())],
        deletes=[(o, live.rect_of(o)) for o in oids[:deletes]],
        moves=moved,
    )
