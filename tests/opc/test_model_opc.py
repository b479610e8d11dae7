"""Integration tests for model-based OPC convergence and quality."""

import pytest

from repro.errors import LithoError, OPCError
from repro.flow import CorrectionLevel, correct_region
from repro.geometry import Rect, Region
from repro.litho import binary_mask
from repro.opc import ModelOPCRecipe, model_opc


@pytest.fixture(scope="module")
def correction_window():
    return Rect(-1200, -600, 1400, 600)


@pytest.fixture(scope="module")
def result(simulator, anchor_dose, mixed_lines, correction_window):
    return model_opc(
        mixed_lines, simulator, correction_window, dose=anchor_dose
    )


class TestConvergence:
    def test_converges(self, result):
        assert result.converged
        assert result.history[-1].missing_edges == 0

    def test_epe_decreases(self, result):
        rms = [s.rms_epe_nm for s in result.history]
        assert rms[-1] < rms[0]
        assert rms[-1] < 1.0

    def test_history_recorded(self, result):
        assert result.iterations >= 2
        assert result.final_rms_epe_nm is not None
        assert result.final_max_epe_nm is not None

    def test_fragments_counted(self, result):
        assert result.fragment_count > 50


class TestQuality:
    def test_iso_cd_on_target(self, simulator, anchor_dose, result):
        cd = simulator.cd(
            binary_mask(result.corrected),
            Rect(600, -500, 1600, 500),
            (1090, 0),
            dose=anchor_dose,
        )
        assert cd == pytest.approx(180.0, abs=2.5)

    def test_dense_cd_on_target(self, simulator, anchor_dose, result):
        cd = simulator.cd(
            binary_mask(result.corrected),
            Rect(-500, -500, 500, 500),
            (90, 0),
            dose=anchor_dose,
        )
        assert cd == pytest.approx(180.0, abs=2.5)

    def test_beats_uncorrected(self, simulator, anchor_dose, mixed_lines, result):
        window = Rect(600, -500, 1600, 500)
        before = simulator.cd(binary_mask(mixed_lines), window, (1090, 0), dose=anchor_dose)
        after = simulator.cd(binary_mask(result.corrected), window, (1090, 0), dose=anchor_dose)
        assert abs(after - 180.0) <= abs(before - 180.0)

    def test_vertex_explosion(self, result):
        target_vertices, corrected_vertices = result.figure_growth()
        assert corrected_vertices > 2 * target_vertices  # the data explosion

    def test_total_move_clamped(self, result):
        # No corrected geometry strays farther than the clamp from target.
        clamp = ModelOPCRecipe().max_total_move_nm
        escaped = result.corrected - result.target.sized(clamp)
        assert escaped.is_empty


class TestRecipeHandling:
    def test_empty_target(self, simulator, correction_window):
        result = model_opc(Region(), simulator, correction_window)
        assert result.corrected.is_empty
        assert result.converged

    def test_recipe_validation(self):
        with pytest.raises(OPCError):
            ModelOPCRecipe(max_iterations=0).validated()
        with pytest.raises(OPCError):
            ModelOPCRecipe(damping=0.0).validated()
        with pytest.raises(OPCError):
            ModelOPCRecipe(damping=1.5).validated()
        with pytest.raises(OPCError):
            ModelOPCRecipe(epe_tolerance_nm=0).validated()

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("epe_tolerance_nm", float("nan"), "EPE tolerance"),
            ("epe_tolerance_nm", float("inf"), "EPE tolerance"),
            ("epe_search_nm", -5.0, "EPE search"),
            ("epe_search_nm", 0.0, "EPE search"),
            ("epe_search_nm", float("nan"), "EPE search"),
            ("epe_search_nm", float("inf"), "EPE search"),
            ("missing_edge_move_nm", -6, "missing-edge move"),
        ],
    )
    def test_recipe_validation_rejects_unusable_spans_and_moves(
        self, simulator, iso_line, field, value, message
    ):
        """Direct `model_opc` callers run no preflight, so the recipe
        itself must refuse what the loop cannot use."""
        recipe = ModelOPCRecipe(**{field: value})
        with pytest.raises(OPCError, match=message):
            recipe.validated()
        with pytest.raises(OPCError, match=message):
            model_opc(iso_line, simulator, Rect(-600, -600, 800, 600), recipe)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"dose": float("nan")}, "dose"),
            ({"dose": float("inf")}, "dose"),
            ({"defocus_nm": float("nan")}, "defocus"),
        ],
        ids=["dose-nan", "dose-inf", "defocus-nan"],
    )
    def test_non_finite_dose_or_defocus_raises(self, simulator, kwargs, message):
        """Neither value may become a mask: a NaN or infinite dose develops
        every site as missing and would ship the drawn target, and a NaN
        defocus would reach the kernel SVD."""
        target = Region([Rect(0, 0, 180, 1500), Rect(460, 0, 640, 1500)])
        window = Rect(-600, -600, 1240, 2100)
        with pytest.raises(LithoError, match=message):
            model_opc(target, simulator, window, **kwargs)
        if "dose" in kwargs:
            with pytest.raises(LithoError, match=message):
                correct_region(target, CorrectionLevel.MODEL, simulator=simulator, **kwargs)

    def test_single_iteration_runs(self, simulator, anchor_dose, iso_line):
        result = model_opc(
            iso_line,
            simulator,
            Rect(-600, -600, 800, 600),
            ModelOPCRecipe(max_iterations=1),
            dose=anchor_dose,
        )
        assert result.iterations == 1

    def test_line_end_correction_beats_uncorrected(
        self, simulator, anchor_dose
    ):
        """Model OPC pushes printed line-ends back out toward the target."""
        # A vertical line ending inside the window: measure the printed
        # end position before and after correction.
        line = Region(Rect(0, -1500, 180, 0))
        window = Rect(-600, -800, 800, 400)
        site = [((90.0, 0.0), (0.0, 1.0))]  # the line-end edge, facing +y
        before = simulator.edge_placement_errors(
            binary_mask(line), window, site, dose=anchor_dose, search_nm=150
        )[0]
        corrected = model_opc(
            line, simulator, window, dose=anchor_dose
        ).corrected
        after = simulator.edge_placement_errors(
            binary_mask(corrected), window, site, dose=anchor_dose, search_nm=150
        )[0]
        assert before is not None and before < -10  # heavy pullback uncorrected
        assert after is not None
        assert abs(after) < abs(before) / 2
