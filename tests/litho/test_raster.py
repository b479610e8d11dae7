"""Unit and property tests for the grid and exact rasterization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import LithoError
from repro.geometry import Rect, Region
from repro.litho import Grid, rasterize


class TestGrid:
    def test_over_window(self):
        grid = Grid.over_window(Rect(0, 0, 100, 60), pixel_nm=10)
        assert grid.shape == (6, 10)
        assert grid.window == Rect(0, 0, 100, 60)

    def test_centers(self):
        grid = Grid(0, 0, 10, 4, 2)
        assert np.allclose(grid.x_centers(), [5, 15, 25, 35])
        assert np.allclose(grid.y_centers(), [5, 15])

    def test_frequencies_shapes(self):
        grid = Grid(0, 0, 10, 8, 4)
        fx, fy = grid.frequencies()
        assert fx.shape == (1, 8)
        assert fy.shape == (4, 1)
        assert fx[0, 0] == 0.0

    def test_validation(self):
        with pytest.raises(LithoError):
            Grid(0, 0, 0, 4, 4)
        with pytest.raises(LithoError):
            Grid(0, 0, 10, 1, 4)

    @pytest.mark.parametrize("pixel_nm", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_pixels_fail_at_construction(self, pixel_nm):
        with pytest.raises(LithoError, match="finite"):
            Grid(0, 0, pixel_nm, 4, 4)
        with pytest.raises(LithoError, match="finite"):
            Grid.over_window(Rect(0, 0, 100, 100), pixel_nm)

    def test_sample_bilinear(self):
        grid = Grid(0, 0, 10, 4, 4)
        image = np.outer(np.arange(4), np.ones(4)).astype(float)  # rows 0..3
        # At a pixel centre the sample is exact.
        assert grid.sample(image, [(5.0, 15.0)])[0] == pytest.approx(1.0)
        # Halfway between two rows interpolates.
        assert grid.sample(image, [(5.0, 20.0)])[0] == pytest.approx(1.5)

    def test_sample_shape_mismatch(self):
        grid = Grid(0, 0, 10, 4, 4)
        with pytest.raises(LithoError):
            grid.sample(np.zeros((3, 3)), [(0.0, 0.0)])


class TestRasterize:
    def test_pixel_aligned_rect(self):
        grid = Grid(0, 0, 10, 10, 10)
        cov = rasterize(Region(Rect(10, 20, 40, 50)), grid)
        assert cov.sum() * 100 == pytest.approx(30 * 30)
        assert cov[2, 1] == 1.0  # fully covered pixel
        assert cov[0, 0] == 0.0

    def test_subpixel_rect(self):
        grid = Grid(0, 0, 10, 4, 4)
        cov = rasterize(Region(Rect(2, 3, 7, 8)), grid)
        assert cov[0, 0] == pytest.approx(0.25)  # 5x5 of a 10x10 pixel

    def test_rect_spanning_pixel_boundary(self):
        grid = Grid(0, 0, 10, 4, 4)
        cov = rasterize(Region(Rect(5, 0, 15, 10)), grid)
        assert cov[0, 0] == pytest.approx(0.5)
        assert cov[0, 1] == pytest.approx(0.5)

    def test_clipping_outside_window(self):
        grid = Grid(0, 0, 10, 4, 4)
        cov = rasterize(Region(Rect(-100, -100, 200, 200)), grid)
        assert np.allclose(cov, 1.0)

    def test_empty_region(self):
        grid = Grid(0, 0, 10, 4, 4)
        assert rasterize(Region(), grid).sum() == 0.0

    def test_l_shape_total_area(self):
        grid = Grid(0, 0, 5, 20, 20)
        region = Region(Rect(0, 0, 60, 60)) - Region(Rect(30, 30, 60, 60))
        cov = rasterize(region, grid)
        assert cov.sum() * 25 == pytest.approx(region.area)

    def test_coverage_bounded(self):
        grid = Grid(0, 0, 7, 12, 12)
        region = Region.from_rects([Rect(3, 3, 40, 40), Rect(20, 20, 70, 70)])
        cov = rasterize(region, grid)
        assert cov.max() <= 1.0 + 1e-12
        assert cov.min() >= 0.0


@given(
    x1=st.integers(min_value=0, max_value=80),
    y1=st.integers(min_value=0, max_value=80),
    w=st.integers(min_value=1, max_value=40),
    h=st.integers(min_value=1, max_value=40),
    pixel=st.sampled_from([3, 5, 8, 10]),
)
@settings(max_examples=50, deadline=None)
def test_rasterized_area_is_exact(x1, y1, w, h, pixel):
    grid = Grid(0, 0, pixel, 40, 40)
    region = Region(Rect(x1, y1, x1 + w, y1 + h))
    clipped_area = (region & Region(grid.window)).area
    cov = rasterize(region, grid)
    assert cov.sum() * pixel * pixel == pytest.approx(clipped_area)
