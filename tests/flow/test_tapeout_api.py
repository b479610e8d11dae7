"""Tests for the one-call tape-out pipeline API."""

import sys

import pytest

from repro.design import BlockSpec, node_180nm, random_logic_block
from repro.errors import PostflightError, ReproError
from repro.flow import (
    CorrectionLevel,
    TapeoutRecipe,
    tapeout_cell_layer,
    tapeout_region,
)
from repro.geometry import Rect, Region, smooth_jogs
from repro.layout import Cell, METAL1, METAL2, POLY
from repro.mask import mask_data_stats
from repro.opc import RetargetRules, RuleOPCRecipe, rule_opc
from repro.verify.mrc import check_mask_region, repair_mask_region


@pytest.fixture(scope="module")
def target():
    return Region.from_rects(
        [Rect(x, -1200, x + 180, 1200) for x in (0, 460, 1400)]
    )


@pytest.fixture(scope="module")
def dose(simulator, target):
    from repro.litho import binary_mask

    return simulator.dose_to_size(
        binary_mask(target), Rect(-400, -500, 700, 500), (90, 0), 180.0
    )


class TestTapeoutRegion:
    def test_full_pipeline_signs_off(self, simulator, target, dose):
        result = tapeout_region(target, simulator, dose)
        assert result.signoff_ok
        assert result.mrc_clean
        assert result.orc is not None and result.orc.is_clean
        assert result.data.vertices > 12  # correction happened

    def test_rule_level_pipeline(self, simulator, target, dose):
        result = tapeout_region(
            target, simulator, dose, TapeoutRecipe(level=CorrectionLevel.RULE)
        )
        assert result.correction.level is CorrectionLevel.RULE
        assert result.mrc_clean

    def test_retarget_stage_applies(self, simulator, dose):
        thin = Region(Rect(0, -1200, 150, 1200))  # below 180 minimum
        result = tapeout_region(
            thin,
            simulator,
            dose,
            TapeoutRecipe(
                level=CorrectionLevel.RULE,
                retarget_rules=RetargetRules(180, 240),
            ),
        )
        assert result.target.bbox().width >= 180

    def test_verify_can_be_skipped(self, simulator, target, dose):
        result = tapeout_region(target, simulator, dose, verify=False)
        assert result.orc is None
        assert result.signoff_ok == result.mrc_clean

    def test_empty_rejected(self, simulator, dose):
        with pytest.raises(ReproError):
            tapeout_region(Region(), simulator, dose)


class TestTapeoutCellLayer:
    def test_cell_entry_point(self, simulator, dose):
        cell = Cell("dut")
        cell.add(POLY, Rect(0, -1200, 180, 1200))
        result = tapeout_cell_layer(
            cell, POLY, simulator, dose,
            TapeoutRecipe(level=CorrectionLevel.RULE),
        )
        assert result.mrc_clean

    def test_missing_layer_rejected(self, simulator, dose):
        with pytest.raises(ReproError):
            tapeout_cell_layer(Cell("empty"), POLY, simulator, dose)


def count_calls(monkeypatch, function):
    """Count ``function``'s calls through every module binding of it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return function(*args, **kwargs)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro"):
            for name, value in list(vars(module).items()):
                if value is function:
                    monkeypatch.setattr(module, name, counted)
    return calls


def retired_rule_mask(drawn, recipe):
    """The rule-level mask tapeout_region shipped while it finished masks
    itself: the correction's repair of the rule OPC output, smoothed,
    then repaired again."""
    repaired = repair_mask_region(
        rule_opc(drawn.merged(), RuleOPCRecipe()).corrected, recipe.mrc
    ).mask
    smoothed = smooth_jogs(repaired, recipe.smooth_tolerance_nm)
    return repair_mask_region(smoothed, recipe.mrc).mask


class TestOneFinishingPath:
    """correct_region finishes the mask once; tapeout_region reuses its
    repaired mask, repair sweep, statistics and mask spec."""

    def test_one_repair_sweep_set_and_one_stats_call(
        self, simulator, monkeypatch
    ):
        sweeps = count_calls(monkeypatch, check_mask_region)
        stats = count_calls(monkeypatch, mask_data_stats)
        # Line-end extension narrows the 60 nm end-to-end gap under the
        # 40 nm space limit, so the repair has a gap to fill.
        drawn = Region.from_rects([Rect(0, 0, 180, 1000), Rect(0, 1060, 180, 2000)])
        result = tapeout_region(
            drawn, simulator, 1.0,
            TapeoutRecipe(level=CorrectionLevel.RULE), verify=False,
        )
        assert len(stats) == 1
        repair = result.correction.repair
        assert repair.passes >= 1
        assert len(sweeps) == repair.passes + 1
        assert result.mask_geometry is result.correction.corrected
        assert result.data is result.correction.data
        assert result.mrc_clean and result.mrc_report.is_clean

    def test_level_none_ships_the_drawn_geometry(self, simulator):
        # A writable 2 nm jog, which smoothing at 4 nm would remove.
        drawn = Region.from_rects(
            [Rect(0, -1200, 180, 1200), Rect(0, -1200, 182, 0)]
        )
        result = tapeout_region(
            drawn, simulator, 1.0,
            TapeoutRecipe(level=CorrectionLevel.NONE), verify=False,
        )
        assert result.mask_geometry.loops == drawn.merged().loops
        assert result.correction.repair.passes == 0
        assert result.mrc_clean

    def test_level_none_rejects_an_unwritable_layer(self, simulator):
        # The 30 nm sliver and 30 nm gap that a repair would have edited.
        drawn = Region.from_rects(
            [Rect(0, 0, 30, 200), Rect(200, 0, 430, 200), Rect(460, 0, 690, 200)]
        )
        with pytest.raises(PostflightError, match="^tapeout postflight"):
            tapeout_region(
                drawn, simulator, 1.0,
                TapeoutRecipe(level=CorrectionLevel.NONE),
                verify=False, preflight=False,
            )

    @pytest.mark.parametrize("tolerance", [4, 8])
    @pytest.mark.parametrize("seed", range(1, 13))
    def test_rule_mask_equals_the_retired_sequence(
        self, simulator, seed, tolerance
    ):
        library = random_logic_block(
            node_180nm(), BlockSpec(rows=2, seed=seed), name="block"
        )
        recipe = TapeoutRecipe(
            level=CorrectionLevel.RULE, smooth_tolerance_nm=tolerance
        )
        for layer in (POLY, METAL1, METAL2):
            drawn = library["block_top"].flat_region(layer)
            shipped = tapeout_region(
                drawn, simulator, 1.0, recipe, verify=False
            ).mask_geometry
            assert shipped.loops == retired_rule_mask(drawn, recipe).loops


class TestRecipeValidation:
    """A bad recipe dies at construction, not minutes into the flow."""

    def test_default_recipe_constructs(self):
        assert TapeoutRecipe().validated() is not None

    def test_level_must_be_the_enum(self):
        with pytest.raises(ReproError):
            TapeoutRecipe(level="model")

    def test_negative_smoothing_rejected(self):
        with pytest.raises(ReproError):
            TapeoutRecipe(smooth_tolerance_nm=-1)

    def test_negative_orc_margin_rejected(self):
        with pytest.raises(ReproError):
            TapeoutRecipe(orc_margin_nm=-5)

    def test_nested_recipes_validated_eagerly(self):
        from repro.opc import MRCRules, ModelOPCRecipe

        with pytest.raises(ReproError):
            TapeoutRecipe(mrc=MRCRules(min_width_nm=0))
        with pytest.raises(ReproError):
            TapeoutRecipe(model_recipe=ModelOPCRecipe(damping=0.0))

    def test_bad_retarget_rules_rejected(self):
        with pytest.raises(ReproError):
            TapeoutRecipe(
                retarget_rules=RetargetRules(min_width_nm=-10, min_space_nm=50)
            )
