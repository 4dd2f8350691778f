"""Tests for the Z curve and quadtree decomposition."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Rect
from repro.zorder.curve import (
    MAP,
    RESOLUTION,
    ZElement,
    decompose,
    interleave,
    z_point,
)

from .reference import Cell, reference_decompose


class TestInterleave:
    def test_origin(self):
        assert interleave(0, 0) == 0

    def test_unit_steps(self):
        assert interleave(1, 0) == 0b01
        assert interleave(0, 1) == 0b10
        assert interleave(1, 1) == 0b11

    def test_bit_interleaving(self):
        # x = 0b10, y = 0b11 -> z = y1 x1 y0 x0 = 1 1 1 0
        assert interleave(0b10, 0b11) == 0b1110

    def test_max_coordinate(self):
        top = (1 << RESOLUTION) - 1
        assert interleave(top, top) == (1 << (2 * RESOLUTION)) - 1

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
           st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    def test_injective(self, x1, y1, x2, y2):
        if (x1, y1) != (x2, y2):
            assert interleave(x1, y1) != interleave(x2, y2)


class TestZPoint:
    def test_corners(self):
        assert z_point(0.0, 0.0) == 0
        assert z_point(1.0, 1.0) == (1 << (2 * RESOLUTION)) - 1

    def test_clamps_outside_map(self):
        assert z_point(-5.0, -5.0) == 0
        assert z_point(5.0, 5.0) == (1 << (2 * RESOLUTION)) - 1

    def test_quadrant_ordering(self):
        # Z order visits quadrants SW, SE, NW, NE.
        sw = z_point(0.1, 0.1)
        se = z_point(0.9, 0.1)
        nw = z_point(0.1, 0.9)
        ne = z_point(0.9, 0.9)
        assert sw < se < nw < ne

    def test_degenerate_map_rejected(self):
        with pytest.raises(GeometryError):
            z_point(0.5, 0.5, map_area=Rect(0, 0, 0, 1))


class TestZElement:
    def test_root_cell(self):
        root = Cell(0, 0, 0).element()
        assert root == ZElement(0, (1 << (2 * RESOLUTION)) - 1)
        assert root.depth == 0

    def test_child_nesting(self):
        root = Cell(0, 0, 0)
        for child in root.children():
            assert root.element().contains(child.element())
            assert child.element().depth == 1

    def test_sibling_intervals_disjoint_and_ordered(self):
        intervals = [c.element() for c in Cell(0, 0, 0).children()]
        for a, b in zip(intervals, intervals[1:]):
            assert a.zhi + 1 == b.zlo

    def test_overlap_is_containment(self):
        root = Cell(0, 0, 0).element()
        child = next(Cell(0, 0, 0).children()).element()
        assert root.overlaps(child)
        assert child.overlaps(root)
        other = ZElement(child.zhi + 1, child.zhi + 4)
        assert not child.overlaps(other)


class TestDecompose:
    def test_whole_map_is_one_element(self):
        [element] = decompose(MAP, max_elements=8)
        assert element.depth == 0

    def test_budget_respected(self):
        rect = Rect(0.13, 0.27, 0.56, 0.61)
        for budget in (1, 4, 16, 64):
            elements = decompose(rect, max_elements=budget)
            assert 1 <= len(elements) <= budget

    def test_elements_sorted(self):
        elements = decompose(Rect(0.1, 0.1, 0.8, 0.3), max_elements=32)
        assert elements == sorted(elements)

    def test_elements_pairwise_disjoint(self):
        elements = decompose(Rect(0.2, 0.2, 0.7, 0.7), max_elements=32)
        for a, b in zip(elements, elements[1:]):
            assert a.zhi < b.zlo

    def test_outside_map_is_empty(self):
        assert decompose(Rect(5, 5, 6, 6)) == []

    def test_more_budget_means_tighter_cover(self):
        rect = Rect(0.1, 0.1, 0.35, 0.15)

        def cover_span(elements):
            return sum(e.zhi - e.zlo + 1 for e in elements)

        loose = cover_span(decompose(rect, max_elements=1))
        tight = cover_span(decompose(rect, max_elements=32))
        assert tight < loose

    def test_point_rect(self):
        elements = decompose(Rect.point(0.5, 0.5), max_elements=8)
        assert elements  # a point still gets a (dilated) cover

    def test_bad_budget_rejected(self):
        with pytest.raises(GeometryError):
            decompose(Rect(0, 0, 1, 1), max_elements=0)


def coord():
    return st.integers(0, 256).map(lambda v: v / 256.0)


@given(coord(), coord(), coord(), coord(), st.integers(1, 16))
def test_decomposition_covers_rect(x1, y1, x2, y2, budget):
    """Every grid point of the rectangle lies in some element."""
    xlo, xhi = sorted((x1, x2))
    ylo, yhi = sorted((y1, y2))
    rect = Rect(xlo, ylo, xhi, yhi)
    elements = decompose(rect, max_elements=budget)
    assert elements
    # Probe the corners and center: their z-values must be covered.
    for px, py in [(xlo, ylo), (xhi, yhi), (xlo, yhi), (xhi, ylo),
                   ((xlo + xhi) / 2, (ylo + yhi) / 2)]:
        z = z_point(px, py)
        assert any(e.zlo <= z <= e.zhi for e in elements)


@given(coord(), coord(), coord(), coord())
def test_touching_rects_share_an_element_overlap(x, y, w, h):
    """Two rectangles sharing only an edge still produce overlapping
    element covers (the dilation guarantee)."""
    cut = min(max(x, 1 / 128), 127 / 128)
    left = Rect(0.0, 0.0, cut, 1.0)
    right = Rect(cut, 0.0, 1.0, 1.0)
    a = decompose(left, max_elements=16)
    b = decompose(right, max_elements=16)
    assert any(ea.overlaps(eb) for ea in a for eb in b)


# --------------------------------------------------------------------- #
# Equivalence with the float-geometry reference
# --------------------------------------------------------------------- #

_UNIT = 1.0 / (1 << RESOLUTION)


def _grid_coord():
    """Map coordinates chosen to sit on, beside, or away from cell edges.

    Cell edges are multiples of ``2**-16``; the one-unit dilation moves
    a rectangle's sides by exactly one such step, so coordinates on an
    edge, one unit off it, and one ulp off it all land on or next to the
    boundary cases the integer bounds must decide like the float tests.
    """
    on_edge = st.integers(-3, (1 << RESOLUTION) + 3).map(lambda k: k * _UNIT)
    coarse = st.integers(-8, 24).map(lambda k: k / 16.0)
    nudged = st.tuples(on_edge, st.sampled_from([-1, 1])).map(
        lambda p: p[0] + p[1] * 2.0 ** -40
    )
    anywhere = st.floats(-0.5, 1.5, allow_nan=False)
    special = st.sampled_from([0.0, 1.0, -_UNIT, 1.0 + _UNIT, 5e-324,
                               1.0 - 2.0 ** -53, 2.0, -1.0])
    return st.one_of(on_edge, coarse, nudged, anywhere, special)


@st.composite
def _map_rects(draw) -> Rect:
    """Rectangles on grid lines, touching cell edges, degenerate,
    straddling the map border, wholly outside it, or covering it."""
    shape = draw(st.sampled_from(["free", "point", "hline", "small"]))
    x1, y1 = draw(_grid_coord()), draw(_grid_coord())
    if shape == "point":
        return Rect.point(x1, y1)
    if shape == "small":
        w = draw(st.integers(0, 64)) * _UNIT
        h = draw(st.integers(0, 64)) * _UNIT
        return Rect(x1, y1, x1 + w, y1 + h)
    x2 = draw(_grid_coord())
    y2 = y1 if shape == "hline" else draw(_grid_coord())
    return Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))


@settings(max_examples=400, deadline=None)
@given(_map_rects(), st.integers(1, 64))
@example(MAP, 1)
@example(MAP, 64)
@example(Rect(-1.0, -1.0, 2.0, 2.0), 4)
@example(Rect(5.0, 5.0, 6.0, 6.0), 4)
@example(Rect(1.0 + 2 * _UNIT, 0.0, 2.0, 1.0), 4)
@example(Rect(1.0 + _UNIT, 0.0, 2.0, 1.0), 4)
@example(Rect(0.5, 0.5, 0.5, 0.5), 16)
@example(Rect(0.25, 0.25, 0.75, 0.75), 16)
@example(Rect(0.5 - _UNIT, 0.0, 0.5 + _UNIT, 1.0), 64)
def test_decompose_matches_float_reference(rect, budget):
    """The integer-cell refinement emits the reference's elements,
    element for element."""
    assert decompose(rect, budget) == reference_decompose(rect, budget)


def test_decompose_builds_no_rect_per_cell(monkeypatch):
    """Only the dilated and the clipped rectangle are materialised,
    however deep the refinement goes; the float reference, which builds
    one ``Rect`` per examined quadrant, is what this guards against."""
    built = []
    original = Rect.__init__

    def counting_init(self, *args):
        built.append(args)
        original(self, *args)

    monkeypatch.setattr(Rect, "__init__", counting_init)
    for side in (2.0 ** -2, 2.0 ** -8, 2.0 ** -14, 0.0):
        rect = Rect(0.3, 0.3, 0.3 + side, 0.3 + side)
        built.clear()
        elements = decompose(rect, max_elements=4)
        assert elements
        assert len(built) <= 2, (side, len(built))
        built.clear()
        assert reference_decompose(rect, max_elements=4) == elements
        assert len(built) > 2 * RESOLUTION  # the counter does see them
