"""Tests for OPC result records and simulator internals."""


from repro.geometry import Rect, Region
from repro.litho import LithoConfig, LithoSimulator, krf_annular, krf_conventional
from repro.opc import IterationStats, OPCResult


class TestIterationStats:
    def test_str_format(self):
        stats = IterationStats(3, 1.234, 5.678, 42, 1)
        text = str(stats)
        assert "iter 3" in text
        assert "rms 1.23" in text
        assert "missing 1" in text


class TestOPCResult:
    def make(self, history=()):
        target = Region(Rect(0, 0, 180, 2000))
        corrected = target.sized(10)
        return OPCResult(
            target=target,
            corrected=corrected,
            history=list(history),
            fragment_count=8,
        )

    def test_empty_history_helpers(self):
        result = self.make()
        assert result.final_rms_epe_nm is None
        assert result.final_max_epe_nm is None
        assert result.iterations == 0

    def test_history_helpers(self):
        result = self.make(
            [IterationStats(1, 5.0, 9.0, 8, 0), IterationStats(2, 1.0, 2.0, 4, 0)]
        )
        assert result.final_rms_epe_nm == 1.0
        assert result.final_max_epe_nm == 2.0
        assert result.iterations == 2

    def test_tiled_epe_combines_every_tile_final_iterate(self):
        result = self.make(
            [IterationStats(1, 9.0, 20.0, 8, 0), IterationStats(1, 1.0, 2.0, 4, 0)]
        )
        # Tile 0 measured 8 - 2 sites at RMS 3, tile 1 all 4 at RMS 1;
        # tile 2 lost every site and measured nothing.
        result.tile_finals = [
            (8, IterationStats(2, 3.0, 7.0, 5, 2)),
            (4, IterationStats(2, 1.0, 2.0, 4, 0)),
            (3, IterationStats(1, float("inf"), float("inf"), 0, 3)),
        ]
        assert result.final_rms_epe_nm == ((9.0 * 6 + 1.0 * 4) / 10) ** 0.5
        assert result.final_max_epe_nm == 7.0
        result.tile_finals = [(3, IterationStats(1, float("inf"), float("inf"), 0, 3))]
        assert result.final_rms_epe_nm == float("inf")
        assert result.final_max_epe_nm == float("inf")
        result.tile_finals = []
        assert result.final_rms_epe_nm is None
        assert result.final_max_epe_nm is None

    def test_figure_growth(self):
        result = self.make()
        target_vertices, corrected_vertices = result.figure_growth()
        assert target_vertices == 4
        assert corrected_vertices == 4  # uniform sizing keeps the rectangle


class TestSimulatorInternals:
    def test_grid_quantisation_multiple(self):
        sim = LithoSimulator(LithoConfig(optics=krf_annular(), pixel_nm=8.0))
        for width in (333, 1000, 2471):
            grid = sim.grid_for(Rect(0, 0, width, width))
            assert grid.nx % LithoSimulator.GRID_QUANTUM == 0
            assert grid.ny % LithoSimulator.GRID_QUANTUM == 0

    def test_support_limit_triggers_abbe(self):
        sim = LithoSimulator(
            LithoConfig(optics=krf_annular(), pixel_nm=8.0, socs_support_limit=10)
        )
        grid = sim.grid_for(Rect(0, 0, 2000, 2000))
        assert sim._support_too_large(grid)
        big = LithoSimulator(
            LithoConfig(optics=krf_annular(), pixel_nm=8.0, socs_support_limit=10**9)
        )
        assert not big._support_too_large(grid)

    def test_abbe_fallback_matches_socs(self):
        """Whatever engine the limit picks, the physics must agree."""
        import numpy as np

        from repro.litho import binary_mask

        lines = Region.from_rects(
            [Rect(x, -800, x + 180, 800) for x in range(-600, 601, 460)]
        )
        window = Rect(-500, -400, 500, 400)
        socs = LithoSimulator(
            LithoConfig(optics=krf_conventional(), pixel_nm=8.0, max_kernels=64)
        )
        abbe = LithoSimulator(
            LithoConfig(optics=krf_conventional(), pixel_nm=8.0, socs_support_limit=1)
        )
        _g1, img_socs = socs.aerial_image(binary_mask(lines), window)
        _g2, img_abbe = abbe.aerial_image(binary_mask(lines), window)
        assert np.abs(img_socs - img_abbe).max() < 5e-3

    def test_config_resist_swap(self):
        from repro.litho import ThresholdResist

        config = LithoConfig(optics=krf_annular())
        swapped = config.with_resist(ThresholdResist(threshold=0.4))
        assert swapped.resist.threshold == 0.4
        assert swapped.optics is config.optics
