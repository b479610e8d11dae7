"""Unit tests for contour extraction, CD/EPE measurement, and metrics."""

import numpy as np
import pytest

from repro.errors import LithoError
from repro.geometry import Rect
from repro.litho import (
    Grid,
    cutline_cd,
    edge_offset,
    edge_offset_state,
    edge_offsets_batch,
    image_contrast,
    image_log_slope,
    meef,
    nils,
    printed_region,
)


def ramp_image(grid, x_edge, width=100.0):
    """A synthetic image rising linearly from 0 to 1 across [x_edge-w/2, x_edge+w/2]."""
    xs = grid.x_centers()
    profile = np.clip((xs - (x_edge - width / 2)) / width, 0.0, 1.0)
    return np.tile(profile, (grid.ny, 1))


@pytest.fixture()
def grid():
    return Grid(0, 0, 10, 64, 64)


class TestPrintedRegion:
    def test_single_block(self, grid):
        develop = np.zeros(grid.shape, dtype=bool)
        develop[10:20, 30:40] = True
        region = printed_region(develop, grid)
        assert region.area == 100 * 100
        assert region.bbox() == Rect(300, 100, 400, 200)

    def test_two_blocks(self, grid):
        develop = np.zeros(grid.shape, dtype=bool)
        develop[5:10, 5:10] = True
        develop[40:50, 40:50] = True
        region = printed_region(develop, grid)
        assert len(region.outer_polygons()) == 2

    def test_empty(self, grid):
        assert printed_region(np.zeros(grid.shape, dtype=bool), grid).is_empty

    def test_shape_mismatch(self, grid):
        with pytest.raises(LithoError):
            printed_region(np.zeros((3, 3), dtype=bool), grid)


class TestEdgeOffset:
    def test_exact_crossing(self, grid):
        image = ramp_image(grid, x_edge=320.0)
        # The 0.5 threshold crossing sits exactly at x=320.
        offset = edge_offset(image, grid, (320.0, 320.0), (1.0, 0.0), 0.5)
        assert offset == pytest.approx(0.0, abs=0.5)

    def test_signed_offset(self, grid):
        image = ramp_image(grid, x_edge=320.0)
        offset = edge_offset(image, grid, (300.0, 320.0), (1.0, 0.0), 0.5)
        assert offset == pytest.approx(20.0, abs=0.5)
        offset = edge_offset(image, grid, (340.0, 320.0), (1.0, 0.0), 0.5)
        assert offset == pytest.approx(-20.0, abs=0.5)

    def test_none_when_no_crossing(self, grid):
        image = np.full(grid.shape, 0.9)
        assert edge_offset(image, grid, (320.0, 320.0), (1.0, 0.0), 0.5) is None

    def test_zero_direction_rejected(self, grid):
        with pytest.raises(LithoError):
            edge_offset(np.zeros(grid.shape), grid, (0, 0), (0.0, 0.0), 0.5)


NAN, INF = float("nan"), float("inf")


class TestProbeSpans:
    """Bad probe spans fail with `LithoError` on the scalar and batch paths."""

    SITES = [((40.0, 40.0), (1.0, 0.0)), ((70.0, 20.0), (0.0, -1.0))]

    @pytest.mark.parametrize(
        "search_nm, step_nm",
        [(-3.0, 1.0), (NAN, 1.0), (INF, 1.0), (80.0, 0.0), (80.0, -1.0), (80.0, NAN), (80.0, INF)],
    )
    def test_scalar_and_batch_reject_the_same_span(self, grid, search_nm, step_nm):
        image = np.random.default_rng(3).random(grid.shape)
        with pytest.raises(LithoError):
            edge_offset_state(
                image, grid, *self.SITES[0], 0.5, search_nm=search_nm, step_nm=step_nm
            )
        with pytest.raises(LithoError):
            edge_offsets_batch(
                image, grid, self.SITES, 0.5, search_nm=search_nm, step_nm=step_nm
            )
        with pytest.raises(LithoError):
            edge_offsets_batch(image, grid, [], 0.5, search_nm=search_nm, step_nm=step_nm)

    def test_the_reported_span_reproducer(self):
        grid = Grid(0, 0, 8.0, 16, 16)
        with pytest.raises(LithoError, match="search_nm"):
            edge_offset_state(np.zeros((16, 16)), grid, (40, 40), (1, 0), 0.5, search_nm=-3)
        with pytest.raises(LithoError, match="search_nm"):
            edge_offsets_batch(np.zeros((16, 16)), grid, [((40, 40), (1, 0))], 0.5, search_nm=-3)

    @pytest.mark.parametrize(
        "max_width_nm, step_nm", [(-4.0, 1.0), (NAN, 1.0), (INF, 1.0), (400.0, 0.0), (400.0, NAN)]
    )
    def test_cutline_rejects_bad_spans(self, grid, max_width_nm, step_nm):
        with pytest.raises(LithoError):
            cutline_cd(
                np.zeros(grid.shape), grid, (320.0, 320.0), "x", 0.5,
                max_width_nm=max_width_nm, step_nm=step_nm,
            )

    def test_zero_span_is_still_a_probe(self, grid):
        image = np.full(grid.shape, 0.9)
        assert edge_offset_state(image, grid, *self.SITES[0], 0.5, search_nm=0.0) == (
            None,
            "bright",
        )
        assert cutline_cd(image, grid, (320.0, 320.0), "x", 0.5, max_width_nm=0.0) is None


class TestCutlineCD:
    def make_line_image(self, grid, x1, x2):
        """Dark (low intensity) vertical stripe between x1 and x2."""
        xs = grid.x_centers()
        ramp_in = np.clip((xs - (x1 - 40)) / 80.0, 0, 1)
        ramp_out = np.clip((xs - (x2 - 40)) / 80.0, 0, 1)
        profile = 1.0 - ramp_in + ramp_out
        return np.tile(profile, (grid.ny, 1))

    def test_dark_feature_cd(self, grid):
        image = self.make_line_image(grid, 250.0, 400.0)
        cd = cutline_cd(image, grid, (325.0, 320.0), "x", threshold=0.5)
        assert cd == pytest.approx(150.0, abs=1.0)

    def test_bright_feature_cd(self, grid):
        image = 1.0 - self.make_line_image(grid, 250.0, 400.0)
        cd = cutline_cd(
            image, grid, (325.0, 320.0), "x", threshold=0.5, bright_feature=True
        )
        assert cd == pytest.approx(150.0, abs=1.0)

    def test_none_off_feature(self, grid):
        image = self.make_line_image(grid, 250.0, 400.0)
        assert cutline_cd(image, grid, (100.0, 320.0), "x", threshold=0.5) is None

    def test_axis_validation(self, grid):
        with pytest.raises(LithoError):
            cutline_cd(np.zeros(grid.shape), grid, (0, 0), "q", 0.5)


class TestMetrics:
    def test_image_log_slope_of_ramp(self, grid):
        image = ramp_image(grid, x_edge=320.0, width=100.0)
        # At the 0.5 crossing: dI/dx = 1/100, ILS = (1/100)/0.5 = 0.02 /nm.
        ils = image_log_slope(image, grid, (320.0, 320.0), (1.0, 0.0), delta_nm=2.0)
        assert ils == pytest.approx(0.02, rel=0.05)

    def test_nils_scales_by_cd(self, grid):
        image = ramp_image(grid, x_edge=320.0, width=100.0)
        value = nils(image, grid, (320.0, 320.0), (1.0, 0.0), cd_nm=180.0)
        assert value == pytest.approx(0.02 * 180, rel=0.05)
        with pytest.raises(LithoError):
            nils(image, grid, (320.0, 320.0), (1.0, 0.0), cd_nm=0)

    def test_contrast(self):
        image = np.array([[0.2, 0.8]])
        assert image_contrast(image) == pytest.approx(0.6)
        assert image_contrast(np.zeros((2, 2))) == 0.0

    def test_meef_linear_process_is_one(self):
        # A perfectly linear printing process: wafer CD == mask CD.
        target = 180.0
        assert meef(lambda b: target + 2.0 * b) == pytest.approx(1.0)

    def test_meef_amplifying_process(self):
        assert meef(lambda b: 180.0 + 6.0 * b) == pytest.approx(3.0)

    def test_meef_none_when_unprintable(self):
        assert meef(lambda b: None) is None

    def test_meef_bias_validation(self):
        with pytest.raises(LithoError):
            meef(lambda b: 180.0, bias_nm=0)
