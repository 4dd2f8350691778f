"""The float-geometry z-element decomposition, kept as a test oracle.

This is the original :func:`repro.zorder.curve.decompose`: every
quadtree cell is materialised as a :class:`Rect` of the map and tested
against the dilated, clipped rectangle with float predicates. The
library now decides the same predicates on integer grid coordinates;
the tests assert the two agree element for element.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.errors import GeometryError
from repro.geometry import Rect
from repro.zorder.curve import MAP, RESOLUTION, ZElement, interleave


class Cell(NamedTuple):
    x: int          # grid x of the cell origin, in full-resolution units
    y: int
    depth: int

    def rect(self, map_area: Rect) -> Rect:
        size = 1 << (RESOLUTION - self.depth)
        scale_x = map_area.width / (1 << RESOLUTION)
        scale_y = map_area.height / (1 << RESOLUTION)
        return Rect(
            map_area.xlo + self.x * scale_x,
            map_area.ylo + self.y * scale_y,
            map_area.xlo + (self.x + size) * scale_x,
            map_area.ylo + (self.y + size) * scale_y,
        )

    def element(self) -> ZElement:
        zlo = interleave(self.x, self.y)
        span = 1 << (2 * (RESOLUTION - self.depth))
        return ZElement(zlo, zlo + span - 1)

    def children(self):
        half = 1 << (RESOLUTION - self.depth - 1)
        d = self.depth + 1
        yield Cell(self.x, self.y, d)
        yield Cell(self.x + half, self.y, d)
        yield Cell(self.x, self.y + half, d)
        yield Cell(self.x + half, self.y + half, d)


def reference_decompose(
    rect: Rect,
    max_elements: int = 4,
    map_area: Rect = MAP,
) -> list[ZElement]:
    """Cover ``rect`` with at most ``max_elements`` quadtree cells."""
    if max_elements < 1:
        raise GeometryError("max_elements must be at least 1")
    eps_x = map_area.width / (1 << RESOLUTION)
    eps_y = map_area.height / (1 << RESOLUTION)
    dilated = Rect(
        rect.xlo - eps_x, rect.ylo - eps_y,
        rect.xhi + eps_x, rect.yhi + eps_y,
    )
    clipped = dilated.intersection(map_area)
    if clipped is None:
        return []

    root = Cell(0, 0, 0)
    done: list[Cell] = []      # cells fully inside the rectangle
    partial: list[Cell] = []
    if clipped.contains(root.rect(map_area)):
        done.append(root)
    else:
        partial.append(root)

    while partial:
        # Refine the shallowest partial cell first (largest overhang).
        partial.sort(key=lambda c: c.depth)
        cell = partial[0]
        if cell.depth >= RESOLUTION:
            break
        survivors = [
            child for child in cell.children()
            if child.rect(map_area).intersects(clipped)
        ]
        if len(done) + len(partial) - 1 + len(survivors) > max_elements:
            break
        partial.pop(0)
        for child in survivors:
            if clipped.contains(child.rect(map_area)):
                done.append(child)
            else:
                partial.append(child)

    elements = [c.element() for c in done + partial]
    elements.sort()
    return elements
