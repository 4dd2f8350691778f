"""The Z (Morton) curve and quadtree-element decomposition.

Space is quantised to a ``2^RESOLUTION x 2^RESOLUTION`` grid; a point's
*z-value* interleaves the bits of its cell coordinates. A quadtree cell
at depth ``d`` covers a contiguous z-interval of length ``4^(RES-d)``,
so cells nest exactly like their intervals — two elements overlap if
and only if one's interval contains the other's. That containment
structure is what makes the merge join of Orenstein's method work.

Rectangles are decomposed conservatively into at most ``max_elements``
cells that together cover the rectangle (cells may overhang it — the
join applies an exact bounding-box test afterwards). More elements mean
a tighter cover but more index entries: the redundancy trade-off studied
in [Ore89], exposed here as a parameter and explored by an ablation
benchmark.
"""

from __future__ import annotations

from math import ceil, floor
from typing import NamedTuple

from ..errors import GeometryError
from ..geometry import Rect

#: Bits per axis; the curve addresses a 65536 x 65536 grid.
RESOLUTION = 16

#: Total z-address bits.
_Z_BITS = 2 * RESOLUTION

#: The map area the curve addresses (the paper's unit square).
MAP = Rect(0.0, 0.0, 1.0, 1.0)

#: Grid cells per map side.
_GRID = 1 << RESOLUTION

#: One grid unit of the map: the dilation that keeps closed rectangles
#: touching after decomposition.
_UNIT = 1.0 / _GRID


def _spread(v: int) -> int:
    """Spread the low 16 bits of ``v`` to the even bit positions."""
    v &= 0xFFFF
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    v = (v | (v << 1)) & 0x55555555
    return v


def interleave(x: int, y: int) -> int:
    """Morton code of grid cell ``(x, y)`` (x in even bits)."""
    return _spread(x) | (_spread(y) << 1)


def _quantize(coord: float, lo: float, extent: float) -> int:
    """Map a coordinate into the grid, clamped to the map."""
    cell = int((coord - lo) / extent * (1 << RESOLUTION))
    return min(max(cell, 0), (1 << RESOLUTION) - 1)


def z_point(x: float, y: float, map_area: Rect = MAP) -> int:
    """Z-value of a point of the map."""
    if map_area.width <= 0 or map_area.height <= 0:
        raise GeometryError("map area must have positive extent")
    gx = _quantize(x, map_area.xlo, map_area.width)
    gy = _quantize(y, map_area.ylo, map_area.height)
    return interleave(gx, gy)


class ZElement(NamedTuple):
    """One quadtree cell as a closed z-interval.

    ``zlo`` is the z-value of the cell's first grid point, ``zhi`` of
    its last; a cell at depth ``d`` spans ``4^(RESOLUTION-d)`` values.
    Cells nest: ``a`` overlaps ``b`` iff one interval contains the
    other.
    """

    zlo: int
    zhi: int

    def contains(self, other: "ZElement") -> bool:
        return self.zlo <= other.zlo and other.zhi <= self.zhi

    def overlaps(self, other: "ZElement") -> bool:
        return self.contains(other) or other.contains(self)

    @property
    def depth(self) -> int:
        """Quadtree depth of the cell (0 = whole map)."""
        span = self.zhi - self.zlo + 1
        return RESOLUTION - (span.bit_length() - 1) // 2


def _element(x: int, y: int, depth: int) -> ZElement:
    """The z-interval of the depth-``depth`` cell with origin ``(x, y)``."""
    zlo = interleave(x, y)
    return ZElement(zlo, zlo + (1 << (2 * (RESOLUTION - depth))) - 1)


def decompose(rect: Rect, max_elements: int = 4) -> list[ZElement]:
    """Cover ``rect`` with at most ``max_elements`` quadtree cells.

    Budgeted refinement: starting from the root cell, repeatedly split
    the largest cell that only partially overlaps the rectangle, as long
    as splitting keeps the total cell count within budget. Cells
    entirely inside the rectangle are never split. The result is sorted
    by ``zlo`` and covers the (map-clipped) rectangle completely.

    The rectangle is dilated by one grid unit before decomposition:
    rectangles are *closed* (touching counts as overlapping, the R-tree
    convention used throughout), but grid cells tile the map disjointly,
    so two merely-touching rectangles could otherwise land in disjoint
    z-intervals and the merge would miss their candidate pair. The exact
    bounding-box test after the merge removes the extra candidates the
    dilation admits.

    Cells are plain integers: a cell's edges sit at ``k / 2**16`` on the
    unit map, and both those edges and a coordinate scaled by ``2**16``
    are exact in binary floating point. So "edge ``k`` lies at or below
    ``hi``" is ``k <= floor(hi * 2**16)`` and "edge ``k`` lies at or
    above ``lo``" is ``k >= ceil(lo * 2**16)``: four integer bounds per
    rectangle decide every closed-rectangle test the refinement makes,
    with the same outcome as comparing the cells' float rectangles.
    """
    if max_elements < 1:
        raise GeometryError("max_elements must be at least 1")
    dilated = Rect(
        rect.xlo - _UNIT, rect.ylo - _UNIT,
        rect.xhi + _UNIT, rect.yhi + _UNIT,
    )
    clipped = dilated.intersection(MAP)
    if clipped is None:
        return []
    xlo = ceil(clipped.xlo * _GRID)
    ylo = ceil(clipped.ylo * _GRID)
    xhi = floor(clipped.xhi * _GRID)
    yhi = floor(clipped.yhi * _GRID)

    done: list[tuple[int, int, int]] = []    # cells fully inside
    # Partial cells, first in first out: children are one level deeper
    # than their parent, so the queue stays ordered by depth and its
    # head is always a shallowest partial cell (the largest overhang).
    partial: list[tuple[int, int, int]] = []
    head = 0
    if xlo <= 0 and ylo <= 0 and _GRID <= xhi and _GRID <= yhi:
        done.append((0, 0, 0))
    else:
        partial.append((0, 0, 0))

    while head < len(partial):
        x, y, depth = partial[head]
        if depth >= RESOLUTION:
            break
        depth += 1
        half = 1 << (RESOLUTION - depth)
        # Children in z order (SW, SE, NW, NE) that meet the rectangle.
        survivors = [
            (cx, cy)
            for cy in (y, y + half) if cy <= yhi and cy + half >= ylo
            for cx in (x, x + half) if cx <= xhi and cx + half >= xlo
        ]
        if len(done) + len(partial) - head - 1 + len(survivors) > max_elements:
            break
        head += 1
        for cx, cy in survivors:
            if xlo <= cx and cx + half <= xhi and ylo <= cy and cy + half <= yhi:
                done.append((cx, cy, depth))
            else:
                partial.append((cx, cy, depth))

    elements = [_element(*cell) for cell in done + partial[head:]]
    elements.sort()
    return elements
