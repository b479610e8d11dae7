"""Unit and property tests for region sizing (dilate/erode) and morphology."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Polygon, Rect, Region


def square_region(size=100):
    return Region(Rect(0, 0, size, size))


class TestDilation:
    def test_square_grows_on_all_sides(self):
        r = square_region(100).sized(10)
        assert r.bbox() == Rect(-10, -10, 110, 110)
        assert r.area == 120 * 120

    def test_zero_is_merge(self):
        r = square_region().sized(0)
        assert r.area == 100 * 100

    def test_two_close_features_merge(self):
        r = Region.from_rects([Rect(0, 0, 10, 100), Rect(30, 0, 40, 100)])
        grown = r.sized(10)
        assert len(grown.outer_polygons()) == 1

    def test_two_far_features_stay_apart(self):
        r = Region.from_rects([Rect(0, 0, 10, 100), Rect(40, 0, 50, 100)])
        grown = r.sized(10)
        assert len(grown.outer_polygons()) == 2

    def test_l_shape_concave_corner(self):
        ell = Region(Polygon([(0, 0), (40, 0), (40, 20), (20, 20), (20, 40), (0, 40)]))
        grown = ell.sized(5)
        # Area: mitred offset of an L adds perimeter*d + d^2*(sum of corner
        # signs): 5 convex corners (+1) and 1 concave (-1) -> +4*d^2.
        assert grown.area == 1200 + 160 * 5 + 4 * 25

    def test_hole_shrinks_when_dilating(self):
        r = Region(Rect(0, 0, 100, 100)) - Region(Rect(40, 40, 60, 60))
        grown = r.sized(5)
        holes = grown.holes()
        assert len(holes) == 1
        assert holes[0].area == 10 * 10

    def test_hole_fills_completely(self):
        r = Region(Rect(0, 0, 100, 100)) - Region(Rect(40, 40, 60, 60))
        grown = r.sized(10)
        assert not grown.holes()
        assert grown.area == 120 * 120


class TestErosion:
    def test_square_shrinks(self):
        r = square_region(100).sized(-10)
        assert r.bbox() == Rect(10, 10, 90, 90)

    def test_feature_vanishes(self):
        r = Region(Rect(0, 0, 10, 100)).sized(-5)
        assert r.is_empty

    def test_neck_splits(self):
        # A dumbbell: two 40-wide pads joined by a 10-wide neck.
        pads = Region.from_rects(
            [Rect(0, 0, 40, 40), Rect(100, 0, 140, 40), Rect(40, 15, 100, 25)]
        )
        shrunk = pads.sized(-6)
        assert len(shrunk.outer_polygons()) == 2

    def test_hole_grows_when_eroding(self):
        r = Region(Rect(0, 0, 100, 100)) - Region(Rect(40, 40, 60, 60))
        shrunk = r.sized(-5)
        assert shrunk.holes()[0].area == 30 * 30

    def test_dilate_then_erode_square_roundtrip(self):
        r = square_region(100)
        assert (r.sized(7).sized(-7) ^ r).is_empty


class TestMorphology:
    def test_opening_removes_sliver(self):
        r = Region.from_rects([Rect(0, 0, 100, 100), Rect(100, 45, 200, 55)])
        opened = r.opened(10)
        assert opened.bbox() == Rect(0, 0, 100, 100)

    def test_opening_keeps_big_feature(self):
        r = square_region(100)
        assert (r.opened(10) ^ r).is_empty

    def test_closing_fills_gap(self):
        r = Region.from_rects([Rect(0, 0, 50, 100), Rect(60, 0, 110, 100)])
        closed = r.closed(10)
        assert len(closed.outer_polygons()) == 1
        assert closed.area == 110 * 100

    def test_closing_keeps_big_gap(self):
        r = Region.from_rects([Rect(0, 0, 50, 100), Rect(90, 0, 140, 100)])
        closed = r.closed(10)
        assert len(closed.outer_polygons()) == 2

    def test_negative_amount_rejected(self):
        with pytest.raises(GeometryError):
            square_region().opened(-1)
        with pytest.raises(GeometryError):
            square_region().closed(-1)


class TestIntegerAmounts:
    def test_non_integral_amount_rejected(self):
        ring = Region(Rect(0, 0, 30, 30)) - Region(Rect(10, 10, 20, 20))
        for size in (ring.sized, ring.opened, ring.closed):
            with pytest.raises(GeometryError, match="sizing amount must be an integer"):
                size(2.5)
        with pytest.raises(GeometryError):
            ring.sized(-0.5)
        assert ring.sized(2.0).loops == ring.sized(2).loops


@st.composite
def small_rect_sets(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    rects = []
    for _ in range(n):
        x1 = draw(st.integers(min_value=0, max_value=60))
        y1 = draw(st.integers(min_value=0, max_value=60))
        w = draw(st.integers(min_value=8, max_value=40))
        h = draw(st.integers(min_value=8, max_value=40))
        rects.append(Rect(x1, y1, x1 + w, y1 + h))
    return rects


@given(rects=small_rect_sets(), d=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_dilation_contains_original(rects, d):
    r = Region.from_rects(rects)
    grown = r.sized(d)
    assert (r - grown).is_empty
    assert grown.area >= r.area


@given(rects=small_rect_sets(), d=st.integers(min_value=1, max_value=6))
@settings(max_examples=40, deadline=None)
def test_erosion_contained_in_original(rects, d):
    r = Region.from_rects(rects)
    shrunk = r.sized(-d)
    assert (shrunk - r).is_empty
    assert shrunk.area <= r.area


@given(rects=small_rect_sets(), d=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_erode_dilate_duality(rects, d):
    """erode(P, d) == frame - dilate(frame - P, d) restricted to the frame."""
    r = Region.from_rects(rects).merged()
    box = r.bbox().expanded(4 * d)
    frame = Region(box)
    dual = frame - (frame - r).sized(d)
    assert (r.sized(-d) ^ dual).is_empty


@given(rects=small_rect_sets(), d=st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_opening_closing_are_contained(rects, d):
    r = Region.from_rects(rects).merged()
    assert (r.opened(d) - r).is_empty  # opening is anti-extensive
    assert (r - r.closed(d)).is_empty  # closing is extensive
