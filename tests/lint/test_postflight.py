"""The ship-nothing-broken gate: bad masks die before any GDS export.

Mirror of ``test_preflight``: where that suite proves a doomed job never
touches the simulator, this one proves a mask the shop would bounce
never leaves ``correct_region`` / ``tapeout_region`` -- it dies as a
:class:`PostflightError` carrying the localized markers, unless the
caller explicitly ships it with ``postflight=False``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.errors import PostflightError
from repro.flow import (
    CorrectionLevel,
    TapeoutRecipe,
    correct_region,
    flow_quality,
    tapeout_region,
)
from repro.geometry import Rect, Region, Transform
from repro.layout import Layer, Library
from repro.lint import gate_postflight, postflight_mask, postflight_sweep
from repro.litho import LithoConfig, LithoSimulator, krf_annular
from repro.mask import mask_data_stats
from repro.obs import runs as obs_runs
from repro.opc import ModelOPCRecipe, RuleOPCRecipe, TilingSpec
from repro.verify.mrc import MRCRules, check_mask_region


@pytest.fixture(scope="module")
def simulator():
    return LithoSimulator(
        LithoConfig(optics=krf_annular(), pixel_nm=8.0, ambit_nm=600)
    )


def clean_target():
    return Region.from_rects(
        [Rect(x, -400, x + 180, 400) for x in (0, 460)]
    )


def dirty_target():
    """A 30nm bar and a 30nm gap: one MRC101 and one MRC102 by
    construction (the CI smoke mask)."""
    return Region.from_rects(
        [Rect(0, 0, 30, 200), Rect(200, 0, 430, 200), Rect(460, 0, 690, 200)]
    )


def span_names(roots):
    names = []

    def walk(span):
        names.append(span.name)
        for child in span.children:
            walk(child)

    for root in roots:
        walk(root)
    return names


def find_span(roots, name):
    def walk(span):
        if span.name == name:
            return span
        for child in span.children:
            found = walk(child)
            if found is not None:
                return found
        return None

    for root in roots:
        found = walk(root)
        if found is not None:
            return found
    return None


class TestGatePrimitives:
    def test_clean_mask_passes_with_full_report(self):
        result = postflight_mask(clean_target())
        assert result.ok
        assert result.mrc.is_clean
        assert result.mrc.shot_count > 0
        assert gate_postflight(result) is result

    def test_dirty_mask_raises_with_localized_diagnostics(self):
        result = postflight_mask(dirty_target())
        with pytest.raises(PostflightError) as err:
            gate_postflight(result, stage="correct")
        assert "correct postflight" in str(err.value)
        codes = {d.code for d in err.value.diagnostics}
        assert codes == {"MRC101", "MRC102"}


class TestReusedSweep:
    """A sweep already made of the shipped mask, rendered by
    postflight_sweep, is the verdict postflight_mask gives, field for
    field: lint diagnostics (overflow summaries included), markers
    attributed to their cells, fracture estimate and ledger summary."""

    LAYER = Layer(3, 0)

    def placed(self, rects):
        """The rects in a child cell placed twice under a top cell."""
        library = Library("soup")
        child = library.new_cell("CHILD")
        child.set_region(self.LAYER, Region.from_rects(rects))
        top = library.new_cell("TOP")
        top.place(child, Transform(dx=0))
        top.place(child, Transform(dx=1000))
        return top

    def assert_equal_verdicts(self, top, rules):
        mask = top.flat_region(self.LAYER)
        direct = postflight_mask(mask, rules, cell=top)
        sweep = check_mask_region(mask, rules, with_stats=False)
        reused = postflight_sweep(sweep, mask_data_stats(mask), cell=top)
        assert reused.mrc == direct.mrc
        assert reused.mrc.summary_dict() == direct.mrc.summary_dict()
        assert reused.report.diagnostics == direct.report.diagnostics
        assert reused.ok == direct.ok
        return direct

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        boxes=st.lists(
            st.tuples(
                st.integers(0, 700), st.integers(0, 700),
                st.integers(10, 200), st.integers(10, 200),
            ),
            min_size=2,
            max_size=30,
        ),
        rules=st.sampled_from(
            [MRCRules(40, 40), MRCRules(30, 60, min_edge_nm=20, corner_nm=50)]
        ),
    )
    def test_equals_postflight_mask_on_soups(self, boxes, rules):
        top = self.placed([Rect(x, y, x + w, y + h) for x, y, w, h in boxes])
        self.assert_equal_verdicts(top, rules)

    def test_equals_postflight_mask_past_the_location_cap(self):
        slivers = [Rect(60 * i, 0, 60 * i + 20, 100) for i in range(15)]
        direct = self.assert_equal_verdicts(self.placed(slivers), MRCRules(40, 40))
        assert any("more min-width" in d.message for d in direct.report.diagnostics)
        assert {v.cell for v in direct.mrc.violations} == {"CHILD"}

    def test_correct_region_ships_the_verdict_postflight_mask_gives(self):
        rules = MRCRules(40, 40)
        result = correct_region(
            dirty_target(), CorrectionLevel.RULE,
            rule_recipe=RuleOPCRecipe(hammerhead_extra_nm=30), mrc=rules,
        )
        assert result.mrc_report == postflight_mask(result.corrected, rules).mrc


class TestCorrectRegionGate:
    def test_dirty_mask_dies_before_returning(self):
        with pytest.raises(PostflightError) as err:
            correct_region(
                dirty_target(), CorrectionLevel.NONE, preflight=False
            )
        assert "MRC101" in str(err.value)

    def test_no_postflight_ships_the_dirty_mask(self):
        with obs.capture() as cap:
            result = correct_region(
                dirty_target(), CorrectionLevel.NONE,
                preflight=False, postflight=False,
            )
        assert result.mrc_report is None
        assert "mrc_violations" not in flow_quality(result.data, result.opc)
        span = find_span(cap.roots, "correct.postflight")
        assert span is not None and span.attrs["skipped"] is True

    def test_clean_mask_records_verdict_and_quality(self):
        with obs.capture() as cap:
            result = correct_region(
                clean_target(), CorrectionLevel.NONE, preflight=False
            )
        assert result.mrc_report is not None
        assert result.mrc_report.is_clean
        quality = flow_quality(result.data, result.opc, result.mrc_report)
        assert quality["mrc_violations"] == 0
        assert quality["mask_shot_count"] == result.mrc_report.shot_count
        span = find_span(cap.roots, "correct.postflight")
        assert span.attrs["violations"] == 0
        assert span.attrs["shots"] == result.mrc_report.shot_count

    def test_custom_limits_reach_the_gate(self):
        # 180nm bars are fine at the default 40nm but not at 200nm.
        with pytest.raises(PostflightError):
            correct_region(
                clean_target(), CorrectionLevel.NONE,
                preflight=False, mrc=MRCRules(200, 40),
            )


class TestTapeoutGate:
    def test_instrumented_tapeout_records_mrc_in_the_ledger(
        self, tmp_path, monkeypatch
    ):
        recipe = TapeoutRecipe(
            level=CorrectionLevel.MODEL,
            model_recipe=ModelOPCRecipe(max_iterations=1),
            tiling=TilingSpec(tile_nm=1500, halo_nm=300),
        )
        monkeypatch.setenv(obs_runs.RUNS_DIR_ENV, str(tmp_path))
        with obs.capture() as cap:
            result = tapeout_region(
                clean_target(), simulator=LithoSimulator(
                    LithoConfig(
                        optics=krf_annular(), pixel_nm=8.0, ambit_nm=600
                    )
                ),
                dose=1.0, recipe=recipe, verify=False,
            )
        assert result.mrc_report is not None
        assert result.mrc_report == postflight_mask(
            result.mask_geometry, recipe.mrc
        ).mrc
        assert result.mrc_clean
        record = obs_runs.RunLedger(tmp_path).load_entry(
            obs_runs.RunLedger(tmp_path).entries()[0]
        )
        assert record.mrc is not None
        assert record.mrc["ok"] is True
        assert record.mrc["shot_count"] == result.mrc_report.shot_count
        assert record.quality["mrc_violations"] == 0
        assert record.quality["mask_shot_count"] == \
            result.mrc_report.shot_count
        assert "tapeout.postflight" in span_names(cap.roots)


class TestPerTileAdvisory:
    """Tiled model OPC annotates each tile's MRC findings as advisory
    context; the stitched-whole postflight stays authoritative."""

    def test_multi_tile_run_evaluates_per_tile_mrc(self, simulator):
        result = correct_region(
            clean_target(), CorrectionLevel.MODEL, simulator=simulator,
            model_recipe=ModelOPCRecipe(max_iterations=1),
            tiling=TilingSpec(tile_nm=500, halo_nm=300),
            preflight=False,
        )
        assert result.opc is not None
        assert result.opc.tile_mrc is not None
        for finding in result.opc.tile_mrc:
            assert finding["rule_id"].startswith("MRC")

    def test_gate_off_disables_tile_evaluation(self, simulator):
        result = correct_region(
            clean_target(), CorrectionLevel.MODEL, simulator=simulator,
            model_recipe=ModelOPCRecipe(max_iterations=1),
            tiling=TilingSpec(tile_nm=500, halo_nm=300),
            preflight=False, postflight=False,
        )
        assert result.opc.tile_mrc is None
