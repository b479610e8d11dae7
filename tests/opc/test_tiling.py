"""Tests for tiled model-based OPC."""

import pytest

from repro.errors import OPCError
from repro.geometry import Rect, Region, fragment_region
from repro.litho import binary_mask
from repro.opc import ModelOPCRecipe, TilingSpec, model_opc, model_opc_tiled
from repro.opc.tiling import _tile_grid, plan_tiles


class TestTileGrid:
    def test_single_tile(self):
        tiles = _tile_grid(Rect(0, 0, 1000, 1000), 2400)
        assert tiles == [Rect(0, 0, 1000, 1000)]

    def test_tiles_cover_exactly(self):
        box = Rect(0, 0, 5000, 3700)
        tiles = _tile_grid(box, 2400)
        assert sum(t.area for t in tiles) == box.area
        assert (Region.from_rects(tiles) ^ Region(box)).is_empty

    def test_tile_counts(self):
        tiles = _tile_grid(Rect(0, 0, 5000, 2000), 2400)
        assert len(tiles) == 3  # 3 columns x 1 row

    def test_spec_validation(self):
        with pytest.raises(OPCError):
            TilingSpec(tile_nm=100).validated()
        with pytest.raises(OPCError):
            TilingSpec(halo_nm=-1).validated()


class TestTiledOPC:
    def test_empty_target(self, simulator):
        result = model_opc_tiled(Region(), simulator)
        assert result.corrected.is_empty

    def test_single_tile_delegates(self, simulator, anchor_dose, iso_line):
        window = Rect(-600, -600, 800, 600)
        tiled = model_opc_tiled(
            iso_line,
            simulator,
            window,
            ModelOPCRecipe(max_iterations=2),
            tiling=TilingSpec(tile_nm=5000),
            dose=anchor_dose,
        )
        direct = model_opc(
            iso_line, simulator, window,
            ModelOPCRecipe(max_iterations=2), dose=anchor_dose,
        )
        assert (tiled.corrected ^ direct.corrected).is_empty

    def test_multi_tile_quality(self, simulator, anchor_dose, mixed_lines):
        window = Rect(-1200, -1600, 1400, 1600)
        result = model_opc_tiled(
            mixed_lines,
            simulator,
            window,
            tiling=TilingSpec(tile_nm=1500, halo_nm=600),
            dose=anchor_dose,
        )
        mask = binary_mask(result.corrected)
        iso_cd = simulator.cd(
            mask, Rect(600, -500, 1600, 500), (1090, 0), dose=anchor_dose
        )
        dense_cd = simulator.cd(
            mask, Rect(-500, -500, 500, 500), (90, 0), dose=anchor_dose
        )
        assert iso_cd == pytest.approx(180.0, abs=3.0)
        assert dense_cd == pytest.approx(180.0, abs=3.0)

    def test_corrected_stays_within_clamp(self, simulator, anchor_dose, mixed_lines):
        recipe = ModelOPCRecipe(max_iterations=2)
        result = model_opc_tiled(
            mixed_lines,
            simulator,
            Rect(-1200, -1600, 1400, 1600),
            recipe,
            tiling=TilingSpec(tile_nm=1500, halo_nm=600),
            dose=anchor_dose,
        )
        escaped = result.corrected - result.target.sized(
            recipe.max_total_move_nm + 1
        )
        assert escaped.is_empty

    def test_context_copies_not_duplicated(self, simulator, anchor_dose, mixed_lines):
        """Each tile corrects with halo context, but output appears once."""
        result = model_opc_tiled(
            mixed_lines,
            simulator,
            Rect(-1200, -1600, 1400, 1600),
            ModelOPCRecipe(max_iterations=1),
            tiling=TilingSpec(tile_nm=1500, halo_nm=600),
            dose=anchor_dose,
        )
        # The corrected area cannot exceed target grown by the clamp; a
        # duplicated context copy would blow the area up.
        assert result.corrected.area < 1.6 * result.target.area

    def test_history_accumulates_across_tiles(self, simulator, anchor_dose, mixed_lines):
        result = model_opc_tiled(
            mixed_lines,
            simulator,
            Rect(-1200, -1600, 1400, 1600),
            ModelOPCRecipe(max_iterations=1),
            tiling=TilingSpec(tile_nm=1500, halo_nm=600),
            dose=anchor_dose,
        )
        assert len(result.history) >= 2  # at least one entry per busy tile

    def test_final_epe_covers_every_tile(self, simulator, anchor_dose, mixed_lines):
        """The block EPE is over all tiles' final iterates, not the last tile's."""
        recipe = ModelOPCRecipe(max_iterations=2)
        tiling = TilingSpec(tile_nm=1500, halo_nm=600)
        window = Rect(-1200, -1600, 1400, 1600)
        result = model_opc_tiled(
            mixed_lines, simulator, window, recipe, tiling=tiling, dose=anchor_dose
        )
        # Each tile's history restarts at iteration 1; its last entry is its
        # final iterate, whose RMS covers its fragments minus missing edges.
        finals = []
        for stats in result.history:
            if stats.iteration == 1:
                finals.append(stats)
            else:
                finals[-1] = stats
        plans = plan_tiles(mixed_lines.merged(), window, tiling, simulator.config.ambit_nm)
        sites = [
            sum(len(loop) for loop in fragment_region(plan.context, recipe.fragmentation))
            for plan in plans
        ]
        assert len(finals) == len(sites) >= 2
        counted = [n - stats.missing_edges for n, stats in zip(sites, finals)]
        rms = (
            sum(stats.rms_epe_nm ** 2 * n for n, stats in zip(counted, finals))
            / sum(counted)
        ) ** 0.5
        assert result.final_rms_epe_nm == pytest.approx(rms, rel=1e-12)
        assert result.final_max_epe_nm == max(stats.max_epe_nm for stats in finals)
        assert result.final_rms_epe_nm != pytest.approx(finals[-1].rms_epe_nm)
