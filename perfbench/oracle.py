"""Answer oracles that share no code with the program.

The program's joins and queries are checked against these, outside
every timed window. Rectangles are closed, as in the paper: touching
edges intersect.

* :func:`grid_join` — a uniform-grid hash join in numpy, exact for any
  rectangle sizes: each rectangle is listed in every cell it overlaps,
  candidates meet in shared cells, and a pair is kept only in the cell
  holding the lower-left corner of its intersection, so it is reported
  once.
* :func:`brute_join` — all pairs, for cross-checking the grid oracle on
  small inputs.
* :func:`window_hits` — one window against a column set.
"""

from __future__ import annotations

import numpy as np

from inputs import Boxes

GRID = 64


def _cells(b: Boxes, g: int) -> tuple[np.ndarray, np.ndarray]:
    """Expand every rectangle into (cell key, row) for the cells it overlaps."""
    cx0 = np.clip((b.xlo * g).astype(np.int64), 0, g - 1)
    cy0 = np.clip((b.ylo * g).astype(np.int64), 0, g - 1)
    cx1 = np.clip((b.xhi * g).astype(np.int64), 0, g - 1)
    cy1 = np.clip((b.yhi * g).astype(np.int64), 0, g - 1)
    nx, ny = cx1 - cx0 + 1, cy1 - cy0 + 1
    counts = nx * ny
    rows = np.repeat(np.arange(len(b)), counts)
    k = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    nxr = nx[rows]
    keys = (cx0[rows] + k % nxr) * g + (cy0[rows] + k // nxr)
    return keys, rows


class GridIndex:
    """One side of :func:`grid_join`, bucketed once and probed many times."""

    def __init__(self, r: Boxes, g: int = GRID):
        self.r, self.g = r, g
        keys, rows = _cells(r, g)
        order = np.argsort(keys, kind="stable")
        self.keys, self.rows = keys[order], rows[order]

    def join(self, s: Boxes) -> set[tuple[int, int]]:
        """Every ``(s oid, r oid)`` whose rectangles intersect."""
        r, g = self.r, self.g
        if len(s) == 0 or len(r) == 0:
            return set()
        sk, sr = _cells(s, g)
        lo = np.searchsorted(self.keys, sk, side="left")
        n = np.searchsorted(self.keys, sk, side="right") - lo
        cs = np.repeat(sr, n)
        ckey = np.repeat(sk, n)
        start = np.repeat(lo - (np.cumsum(n) - n), n)
        cr = self.rows[start + np.arange(len(cs))]
        keep = (
            (s.xlo[cs] <= r.xhi[cr]) & (r.xlo[cr] <= s.xhi[cs])
            & (s.ylo[cs] <= r.yhi[cr]) & (r.ylo[cr] <= s.yhi[cs])
        )
        cs, cr, ckey = cs[keep], cr[keep], ckey[keep]
        # Report a pair only from the cell holding its intersection's
        # lower-left corner; every other shared cell is a duplicate.
        px = np.clip((np.maximum(s.xlo[cs], r.xlo[cr]) * g).astype(np.int64), 0, g - 1)
        py = np.clip((np.maximum(s.ylo[cs], r.ylo[cr]) * g).astype(np.int64), 0, g - 1)
        own = ckey == px * g + py
        return set(zip(s.oid[cs[own]].tolist(), r.oid[cr[own]].tolist()))


def grid_join(s: Boxes, r: Boxes, g: int = GRID) -> set[tuple[int, int]]:
    """Every ``(s oid, r oid)`` whose rectangles intersect."""
    return GridIndex(r, g).join(s)


def brute_join(s: Boxes, r: Boxes) -> set[tuple[int, int]]:
    """All-pairs reference for small inputs."""
    m = (
        (s.xlo[:, None] <= r.xhi[None, :]) & (r.xlo[None, :] <= s.xhi[:, None])
        & (s.ylo[:, None] <= r.yhi[None, :]) & (r.ylo[None, :] <= s.yhi[:, None])
    )
    i, j = np.nonzero(m)
    return set(zip(s.oid[i].tolist(), r.oid[j].tolist()))


def window_hits(b: Boxes, w: tuple[float, float, float, float]) -> set[int]:
    """Oids of ``b`` intersecting the closed window ``w``."""
    xlo, ylo, xhi, yhi = w
    m = (b.xlo <= xhi) & (xlo <= b.xhi) & (b.ylo <= yhi) & (ylo <= b.yhi)
    return set(b.oid[m].tolist())


def join_errors(pairs: list, expected: set) -> int:
    """Wrong answers in one join: missing, extra and repeated pairs."""
    got = set(pairs)
    return len(expected - got) + len(got - expected) + (len(pairs) - len(got))
