"""Tests for pre-OPC retargeting."""

import pytest

from repro.errors import OPCError
from repro.geometry import Rect, Region, feature_widths
from repro.opc.retarget import RetargetRules, retarget

RULES = RetargetRules(min_width_nm=180, min_space_nm=240)


class TestRetarget:
    def test_legal_geometry_untouched(self):
        r = Region.from_rects([Rect(0, 0, 200, 2000), Rect(500, 0, 700, 2000)])
        assert (retarget(r, RULES) ^ r).is_empty

    def test_narrow_line_widened(self):
        r = Region(Rect(0, 0, 140, 2000))  # 40 below minimum
        fixed = retarget(r, RULES)
        assert fixed.bbox().width >= 180
        # Widening is symmetric about the original centreline.
        assert fixed.bbox().x1 == pytest.approx(-20, abs=1)

    def test_tight_space_relieved(self):
        r = Region.from_rects([Rect(0, 0, 300, 2000), Rect(500, 0, 800, 2000)])
        fixed = retarget(r, RetargetRules(min_width_nm=180, min_space_nm=260))
        widths = feature_widths(fixed, "x")
        gap = 500 - max(
            p.bbox().x2 for p in fixed.outer_polygons() if p.bbox().x1 < 400
        )
        # Drawn space was 200; each facing edge retreats by half the deficit.
        assert gap >= 0  # left feature pulled back from x=300
        left = [p for p in fixed.outer_polygons() if p.bbox().x1 < 400][0]
        right = [p for p in fixed.outer_polygons() if p.bbox().x1 > 400][0]
        assert right.bbox().x1 - left.bbox().x2 >= 260
        del widths

    def test_width_repair_wins_over_space(self):
        # A narrow line close to a neighbour: width repair must not be
        # sacrificed to the space rule.
        r = Region.from_rects([Rect(0, 0, 140, 2000), Rect(300, 0, 800, 2000)])
        fixed = retarget(r, RetargetRules(min_width_nm=180, min_space_nm=200))
        narrow = [p for p in fixed.outer_polygons() if p.bbox().x1 < 200][0]
        assert narrow.bbox().width >= 180

    def test_empty_region(self):
        assert retarget(Region(), RULES).is_empty

    def test_validation(self):
        with pytest.raises(OPCError):
            RetargetRules(min_width_nm=0, min_space_nm=100).validated()
        with pytest.raises(OPCError):
            RetargetRules(min_width_nm=100, min_space_nm=100,
                          measure_range_nm=0).validated()

    @pytest.mark.parametrize("measure_range_nm", [float("nan"), float("inf"), -1.0])
    def test_measure_range_must_be_finite_and_positive(self, measure_range_nm):
        # With a NaN range no ray hit the neighbour, so two 40 nm lines
        # 40 nm apart were never widened: 80,000 nm2 kept, not 180,000.
        pair = Region.from_rects([Rect(0, 0, 40, 1000), Rect(80, 0, 120, 1000)])
        assert retarget(pair, RetargetRules(100, 100)).area == 180_000
        rules = RetargetRules(100, 100, measure_range_nm=measure_range_nm)
        with pytest.raises(OPCError, match="finite and positive"):
            retarget(pair, rules)

    def test_retarget_then_drc_width_clean(self):
        from repro.verify import check_width

        r = Region.from_rects(
            [Rect(0, 0, 150, 2000), Rect(600, 0, 900, 2000), Rect(1400, 0, 1560, 2000)]
        )
        fixed = retarget(r, RULES)
        assert check_width(fixed, 180).is_empty
