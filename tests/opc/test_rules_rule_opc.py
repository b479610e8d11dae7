"""Unit and integration tests for bias tables and rule-based OPC."""

import numpy as np
import pytest

from repro.errors import OPCError
from repro.geometry import EdgeIndex, Polygon, Rect, Region
from repro.litho import binary_mask
from repro.opc import (
    BiasRule,
    BiasTable,
    ISOLATED,
    RuleOPCRecipe,
    add_serifs,
    calibrate_bias_table,
    default_bias_table_180nm,
    rule_opc,
)


class TestBiasTable:
    def make(self):
        return BiasTable(
            [
                BiasRule(300, 0),
                BiasRule(600, 5),
                BiasRule(ISOLATED, 10),
            ]
        )

    def test_binning(self):
        table = self.make()
        assert table.bias_for(200) == 0
        assert table.bias_for(299) == 0
        assert table.bias_for(300) == 5
        assert table.bias_for(599) == 5
        assert table.bias_for(600) == 10

    def test_isolated(self):
        assert self.make().bias_for(None) == 10

    def test_empty_rejected(self):
        with pytest.raises(OPCError):
            BiasTable([])

    def test_duplicate_bounds_rejected(self):
        with pytest.raises(OPCError):
            BiasTable([BiasRule(300, 0), BiasRule(300, 5)])

    def test_default_table_monotone(self):
        table = default_bias_table_180nm()
        biases = [r.bias_nm for r in table.rules]
        assert biases == sorted(biases)

    @pytest.mark.parametrize(
        "rule",
        [
            BiasRule(ISOLATED, 2.7),
            BiasRule(ISOLATED, float("nan")),
            BiasRule(float("nan"), 5),
            BiasRule(600.5, 5),
            BiasRule(600, 5.0),
            BiasRule(float("inf"), 5),
        ],
    )
    def test_bounds_and_biases_must_be_whole_dbu(self, rule):
        # Unchecked, BiasRule(ISOLATED, 2.7) biased by 2 nm, a NaN bias
        # raised ValueError from int(), and a NaN bound never matched, so
        # its bin's edges took the next rule's bias.
        with pytest.raises(OPCError, match="whole dbu"):
            BiasTable([BiasRule(300, 0), rule])

    def test_isolated_and_numpy_integers_are_whole(self):
        table = BiasTable([BiasRule(np.int64(300), np.int32(3)), BiasRule(ISOLATED, 7)])
        assert table.bias_for(299) == 3 and table.bias_for(None) == 7
        assert type(table.bias_for(299)) is int

    def test_array_lookup_takes_no_hit_as_isolated(self):
        table = self.make()
        spaces = np.array([200, 300, 599, 600, EdgeIndex.NO_HIT, ISOLATED], dtype=np.int64)
        assert table.biases_for(spaces).tolist() == [0, 5, 5, 10, 10, 10]


class TestRuleOPC:
    def test_uniform_dense_lines_get_dense_bias(self):
        # 180/280: space 280 falls in the zero-bias bin of the default table.
        lines = Region.from_rects(
            [Rect(x, 0, x + 180, 2000) for x in range(0, 2000, 460)]
        )
        result = rule_opc(lines, RuleOPCRecipe(line_end_extension_nm=0))
        # Interior lines see dense space on both sides: widths unchanged.
        # (The outermost lines face open space and legitimately widen.)
        interior = [
            p
            for p in result.corrected.outer_polygons()
            if 0 < p.bbox().x1 and p.bbox().x2 < 2000
        ]
        assert interior
        for poly in interior:
            assert poly.bbox().width == 180

    def test_isolated_line_gets_widened(self):
        line = Region(Rect(0, 0, 180, 2000))
        result = rule_opc(line, RuleOPCRecipe(line_end_extension_nm=0))
        box = result.corrected.bbox()
        assert box.width == 180 + 2 * 16  # default iso bias both sides

    def test_line_end_extension(self):
        line = Region(Rect(0, 0, 180, 2000))
        plain = rule_opc(line, RuleOPCRecipe(line_end_extension_nm=0))
        extended = rule_opc(line, RuleOPCRecipe(line_end_extension_nm=25))
        assert (
            extended.corrected.bbox().height
            == plain.corrected.bbox().height + 2 * 25
        )

    def test_hammerhead_widens_ends_only(self):
        line = Region(Rect(0, 0, 180, 2000))
        result = rule_opc(
            line,
            RuleOPCRecipe(line_end_extension_nm=20, hammerhead_extra_nm=15),
        )
        box = result.corrected.bbox()
        # The hammerhead sticks out 15 nm past the biased line body sides.
        body_width = 180 + 2 * 16
        assert box.width == body_width + 2 * 15
        # But the middle of the line is only body_width wide.
        mid = result.corrected & Region(Rect(-200, 900, 400, 1100))
        assert mid.bbox().width == body_width

    def test_empty_region(self):
        result = rule_opc(Region())
        assert result.corrected.is_empty

    def test_recipe_validation(self):
        with pytest.raises(OPCError):
            RuleOPCRecipe(line_end_extension_nm=-1).validated()
        with pytest.raises(OPCError):
            RuleOPCRecipe(measure_range_nm=0).validated()

    @pytest.mark.parametrize("measure_range_nm", [float("nan"), float("inf"), -1.0])
    def test_measure_range_must_be_finite_and_positive(self, measure_range_nm):
        # With a NaN range every clearance ray read NO_HIT, so five dense
        # lines all took the isolated bias: 2,153,920 nm2, not 1,893,824.
        lines = Region.from_rects(
            [Rect(x, 0, x + 180, 2000) for x in range(0, 5 * 460, 460)]
        )
        assert rule_opc(lines, RuleOPCRecipe(line_end_extension_nm=0)).corrected.area == 1_893_824
        recipe = RuleOPCRecipe(line_end_extension_nm=0, measure_range_nm=measure_range_nm)
        with pytest.raises(OPCError, match="finite and positive"):
            rule_opc(lines, recipe)

    @pytest.mark.parametrize(
        "recipe",
        [
            RuleOPCRecipe(line_end_extension_nm=20.5),
            RuleOPCRecipe(hammerhead_extra_nm=float("nan")),
        ],
    )
    def test_line_end_corrections_must_be_whole_dbu(self, recipe):
        with pytest.raises(OPCError, match="whole dbu"):
            rule_opc(Region(Rect(0, 0, 180, 2000)), recipe)

    def test_result_reports_fragments(self):
        line = Region(Rect(0, 0, 180, 2000))
        assert rule_opc(line).fragment_count >= 4


class TestSerifs:
    def test_serif_added_at_convex_corner(self):
        square = Region(Rect(0, 0, 400, 400))
        with_serifs = add_serifs(square, 40)
        # Each corner gains 3/4 of a 40x40 square outside the original.
        assert with_serifs.area == 400 * 400 + 4 * (40 * 40 * 3 // 4)

    def test_antiserif_at_concave_corner(self):
        ell = Region(
            Polygon([(0, 0), (400, 0), (400, 200), (200, 200), (200, 400), (0, 400)])
        )
        result = add_serifs(ell, 40)
        # 5 convex corners add 1200 each; 1 concave removes 400 (the quarter
        # inside the L's notch is already empty, three quarters are material).
        assert result.area == ell.area + 5 * 1200 - 1200

    def test_size_validation(self):
        with pytest.raises(OPCError):
            add_serifs(Region(Rect(0, 0, 10, 10)), 0)


class TestCalibration:
    @pytest.fixture(scope="class")
    def table(self, simulator, anchor_dose):
        return calibrate_bias_table(
            simulator, 180, [280, 460, 900], dose=anchor_dose
        )

    def test_bins_cover_all_spaces(self, table):
        assert table.rules[-1].space_below_nm == ISOLATED

    def test_dense_bin_near_zero(self, table, anchor_dose):
        # The process is anchored at space 280, so its bias must be tiny.
        assert abs(table.bias_for(280)) <= 2

    def test_rule_opc_fixes_iso_dense_bias(
        self, simulator, anchor_dose, mixed_lines, table
    ):
        from repro.litho import binary_mask

        uncorrected = binary_mask(mixed_lines)
        corrected = binary_mask(
            rule_opc(mixed_lines, RuleOPCRecipe(bias_table=table)).corrected
        )
        window = Rect(600, -500, 1600, 500)
        cd_before = simulator.cd(uncorrected, window, (1090, 0), dose=anchor_dose)
        cd_after = simulator.cd(corrected, window, (1090, 0), dose=anchor_dose)
        assert abs(cd_after - 180.0) < abs(cd_before - 180.0) + 0.25

    def test_validation(self, simulator):
        with pytest.raises(OPCError):
            calibrate_bias_table(simulator, 0, [300])
        with pytest.raises(OPCError):
            calibrate_bias_table(simulator, 180, [])
