"""Unit tests for decomposition/fracture, the grid index, and measurement."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    EdgeIndex,
    GridIndex,
    Polygon,
    Rect,
    Region,
    decompose_max_rects,
    feature_widths,
    fracture_array,
)


class TestDecompose:
    def test_rect_is_single_figure(self):
        r = Region(Rect(0, 0, 100, 50))
        assert decompose_max_rects(r) == [Rect(0, 0, 100, 50)]

    def test_max_rects_not_more_than_slabs(self):
        ell = Region(Polygon([(0, 0), (40, 0), (40, 20), (20, 20), (20, 40), (0, 40)]))
        assert len(decompose_max_rects(ell)) <= len(ell.rects())

    def test_max_rects_cover_exactly(self):
        r = Region(Rect(0, 0, 100, 100)) - Region(Rect(30, 30, 70, 70))
        rects = decompose_max_rects(r)
        assert sum(x.area for x in rects) == r.area
        assert (Region.from_rects(rects) ^ r).is_empty

    def test_fracture_respects_max_figure(self):
        r = Region(Rect(0, 0, 1000, 300))
        figs = fracture_array(r, 256)
        width, height = figs[:, 2] - figs[:, 0], figs[:, 3] - figs[:, 1]
        assert (width <= 256).all() and (height <= 256).all()
        assert (width * height).sum() == r.area

    def test_fracture_small_feature_unsplit(self):
        r = Region(Rect(0, 0, 100, 100))
        assert fracture_array(r, 256).tolist() == [[0, 0, 100, 100]]

    def test_fracture_rejects_bad_max(self):
        with pytest.raises(GeometryError):
            fracture_array(Region(Rect(0, 0, 10, 10)), 0)


class TestGridIndex:
    def test_insert_and_query(self):
        idx = GridIndex(cell_size=100)
        idx.insert(Rect(0, 0, 50, 50), "a")
        idx.insert(Rect(500, 500, 550, 550), "b")
        hits = idx.query_items(Rect(-10, -10, 60, 60))
        assert hits == ["a"]

    def test_item_spanning_cells_reported_once(self):
        idx = GridIndex(cell_size=10)
        idx.insert(Rect(0, 0, 100, 100), "big")
        hits = idx.query_items(Rect(0, 0, 100, 100))
        assert hits == ["big"]

    def test_len(self):
        idx = GridIndex(cell_size=10)
        idx.insert_all([(Rect(0, 0, 5, 5), 1), (Rect(7, 7, 9, 9), 2)])
        assert len(idx) == 2

    def test_bad_cell_size(self):
        with pytest.raises(GeometryError):
            GridIndex(cell_size=0)

    def test_negative_coordinates(self):
        idx = GridIndex(cell_size=100)
        idx.insert(Rect(-250, -250, -150, -150), "neg")
        assert idx.query_items(Rect(-300, -300, -100, -100)) == ["neg"]


class TestEdgeIndex:
    def make(self):
        # Two vertical 100-wide lines separated by a 200 space.
        region = Region.from_rects([Rect(0, 0, 100, 1000), Rect(300, 0, 400, 1000)])
        return region, EdgeIndex(region)

    def test_space_measurement(self):
        _, idx = self.make()
        # From the right edge of line 1 looking right: 200 to line 2.
        assert idx.ray_distance((100, 500), (1, 0), 10000) == 200

    def test_width_measurement(self):
        _, idx = self.make()
        assert idx.ray_distance((100, 500), (-1, 0), 10000) == 100

    def test_nothing_found_returns_none(self):
        _, idx = self.make()
        assert idx.ray_distance((400, 500), (1, 0), 10000) is None

    def test_max_distance_respected(self):
        _, idx = self.make()
        assert idx.ray_distance((100, 500), (1, 0), 100) is None

    def test_clearances(self):
        _, idx = self.make()
        space, width = idx.clearances((100, 500), (1, 0), 10000)
        assert (space, width) == (200, 100)

    def test_vertical_ray(self):
        region = Region.from_rects([Rect(0, 0, 1000, 100), Rect(0, 300, 1000, 400)])
        idx = EdgeIndex(region)
        assert idx.ray_distance((500, 100), (0, 1), 10000) == 200

    def test_diagonal_direction_rejected(self):
        _, idx = self.make()
        with pytest.raises(GeometryError):
            idx.ray_distance((0, 0), (1, 1), 100)


class TestFeatureWidths:
    def test_line_widths(self):
        r = Region.from_rects([Rect(0, 0, 100, 1000), Rect(300, 0, 450, 1000)])
        assert feature_widths(r, "x") == [100, 150]

    def test_axis_validation(self):
        with pytest.raises(GeometryError):
            feature_widths(Region(), "z")


@given(
    w=st.integers(min_value=50, max_value=300),
    s=st.integers(min_value=50, max_value=300),
)
@settings(max_examples=30, deadline=None)
def test_measured_space_matches_construction(w, s):
    region = Region.from_rects([Rect(0, 0, w, 1000), Rect(w + s, 0, 2 * w + s, 1000)])
    idx = EdgeIndex(region)
    assert idx.ray_distance((w, 500), (1, 0), 10 * (w + s)) == s
    assert idx.ray_distance((w, 500), (-1, 0), 10 * (w + s)) == w
