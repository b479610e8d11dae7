"""Unit tests for mask data-volume accounting."""

import pytest

from repro.errors import GDSError, ReproError
from repro.geometry import Rect, Region
from repro.mask import (
    SHOT_RECORD_BYTES,
    mask_data_stats,
    write_time_estimate_s,
)
from repro.opc import add_serifs


class TestMaskDataStats:
    def test_single_small_rect(self):
        stats = mask_data_stats(Region(Rect(0, 0, 500, 500)))
        assert stats.figures == 1
        assert stats.vertices == 4
        assert stats.shots == 1
        assert stats.writer_bytes == SHOT_RECORD_BYTES
        assert stats.gds_bytes > 50  # real stream framing

    def test_large_rect_fractures(self):
        stats = mask_data_stats(Region(Rect(0, 0, 10_000, 10_000)))
        assert stats.shots == 25  # 5x5 grid at the 2 um default

    def test_empty_region(self):
        stats = mask_data_stats(Region())
        assert stats.figures == 0
        assert stats.shots == 0

    def test_serifs_multiply_everything(self):
        plain = Region(Rect(0, 0, 1000, 1000))
        decorated = add_serifs(plain, 60)
        before = mask_data_stats(plain)
        after = mask_data_stats(decorated)
        growth = after.ratio_to(before)
        assert growth.vertices > 2.0
        assert growth.shots > 2.0
        assert growth.bytes > 1.2

    def test_ratio_handles_zero_baseline(self):
        a = mask_data_stats(Region(Rect(0, 0, 100, 100)))
        z = mask_data_stats(Region())
        assert a.ratio_to(z).figures == float("inf")

    def test_max_figure_validation(self):
        with pytest.raises(ReproError):
            mask_data_stats(Region(Rect(0, 0, 10, 10)), max_figure_nm=0)

    def test_coordinate_outside_int32_is_a_gds_error(self):
        with pytest.raises(GDSError, match="coordinate 2147483648 is outside"):
            mask_data_stats(Region(Rect(0, 0, 2**31, 100)))

    def test_loop_past_8190_vertices_is_a_gds_error(self):
        steps = 4095  # a staircase of 2 * steps + 2 = 8,192 vertices
        points = [(0, 0), (steps * 10, 0)]
        for i in range(steps):
            points += [((steps - i) * 10, (i + 1) * 10), ((steps - i - 1) * 10, (i + 1) * 10)]
        with pytest.raises(GDSError, match="record too long"):
            mask_data_stats(Region(points))

    def test_write_time(self):
        stats = mask_data_stats(Region(Rect(0, 0, 10_000, 10_000)))
        assert write_time_estimate_s(stats, shots_per_second=25) == pytest.approx(1.0)
        with pytest.raises(ReproError):
            write_time_estimate_s(stats, shots_per_second=0)

    def test_gds_bytes_track_vertices(self):
        small = mask_data_stats(Region(Rect(0, 0, 400, 400)))
        jogged = Region.from_rects(
            [Rect(0, 100 * k, 400 + 20 * (k % 2), 100 * (k + 1)) for k in range(20)]
        )
        big = mask_data_stats(jogged)
        assert big.vertices > small.vertices
        assert big.gds_bytes > small.gds_bytes
