"""Tests for hierarchical (context-reuse) model OPC."""

import pytest

from repro import obs
from repro.analysis import hierarchy_impact
from repro.design import node_180nm, sram_array
from repro.errors import OPCError
from repro.geometry import Rect
from repro.layout import Cell, POLY
from repro.litho import binary_mask
from repro.opc import ModelOPCRecipe, hierarchical_model_opc
from repro.verify import measure_epe


def leaf_cell():
    cell = Cell("leaf")
    cell.add(POLY, Rect(0, 0, 180, 2000))
    cell.add(POLY, Rect(460, 0, 640, 2000))
    return cell


@pytest.fixture(scope="module")
def uniform_top():
    top = Cell("uniform")
    leaf = leaf_cell()
    for i in range(5):
        top.place_at(leaf, i * 4000, 0)
    return top


class TestHierarchicalOPC:
    def test_identical_contexts_share_one_variant(
        self, simulator, anchor_dose, uniform_top
    ):
        result = hierarchical_model_opc(
            uniform_top, POLY, simulator, dose=anchor_dose
        )
        assert result.placements == 5
        assert result.variants_corrected == 1
        assert result.reuse_factor == pytest.approx(5.0)

    def test_quality_matches_direct_correction(
        self, simulator, anchor_dose, uniform_top
    ):
        result = hierarchical_model_opc(
            uniform_top, POLY, simulator, dose=anchor_dose
        )
        target = uniform_top.flat_region(POLY)
        stats, _ = measure_epe(
            simulator,
            binary_mask(result.corrected),
            target,
            Rect(-300, -200, 17000, 2200),
            dose=anchor_dose,
            include_corners=False,
        )
        assert stats.rms_nm < 2.5
        assert stats.missing == 0

    def test_disturbed_context_gets_own_variant(self, simulator, anchor_dose):
        top = Cell("mixed")
        leaf = leaf_cell()
        for i in range(4):
            top.place_at(leaf, i * 4000, 0)
        # A top-level intruder next to placement 0 only.
        top.add(POLY, Rect(700, 0, 880, 2000))
        result = hierarchical_model_opc(top, POLY, simulator, dose=anchor_dose)
        assert result.variants_corrected == 2  # disturbed + shared
        assert result.per_cell_variants["leaf"] == 2

    def test_mirrored_placements_share_when_context_mirrors(
        self, simulator, anchor_dose
    ):
        from repro.geometry import Transform

        top = Cell("mirrored")
        leaf = leaf_cell()
        top.place(leaf, Transform(dx=0, dy=0))
        top.place(leaf, Transform(dx=8000, dy=2000, mirror_x=True))
        result = hierarchical_model_opc(top, POLY, simulator, dose=anchor_dose)
        # Isolated placements: the mirrored one sees the same (empty)
        # local-frame context, so one variant serves both orientations.
        assert result.variants_corrected == 1
        from repro.geometry import Region

        first = result.corrected & Region(Rect(-100, -100, 4000, 2100))
        second = result.corrected & Region(Rect(4000, -100, 12000, 4100))
        assert first.area == second.area  # the same variant, mirrored
        assert first.area > 0

    def test_radius_validation(self, simulator, uniform_top):
        with pytest.raises(OPCError):
            hierarchical_model_opc(
                uniform_top, POLY, simulator, interaction_radius_nm=0
            )

    def test_empty_top_level_shapes_handled(self, simulator, anchor_dose):
        top = Cell("loose")
        top.add(POLY, Rect(0, 0, 180, 2000))  # no placements at all
        result = hierarchical_model_opc(top, POLY, simulator, dose=anchor_dose)
        assert result.placements == 0
        assert not result.corrected.is_empty
    def test_variants_are_the_analysis_contexts(self, simulator):
        """Hierarchical OPC corrects one variant per context the
        hierarchy-impact analysis counts, from the same placement index."""
        library = sram_array(node_180nm(), cols=4, rows=4)
        top = library.top_cells()[0]
        impact = hierarchy_impact(top, POLY, interaction_radius_nm=600)
        with obs.capture():
            result = hierarchical_model_opc(
                top, POLY, simulator, interaction_radius_nm=600,
                recipe=ModelOPCRecipe(max_iterations=1),
            )
            counts = obs.registry().snapshot()
        contexts = {
            stats.cell_name: stats.unique_contexts
            for stats in impact.per_cell
            if stats.figures_per_instance
        }
        assert contexts == {"SRAM6T": 6}
        assert result.per_cell_variants == contexts
        # One flat region per referenced cell, reused by the other 15.
        assert counts["hier.cell_cache_misses"]["value"] == 1
        assert counts["hier.cell_cache_hits"]["value"] == 15
