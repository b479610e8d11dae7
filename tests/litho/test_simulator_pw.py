"""Integration tests: the simulator facade and process-window analysis."""

import numpy as np
import pytest

from repro.errors import LithoError
from repro.geometry import Rect, Region
from repro.litho import (
    FocusExposureMatrix,
    LithoConfig,
    LithoSimulator,
    ThresholdResist,
    dof_at_exposure_latitude,
    dose_bounds,
    exposure_latitude_curve,
    krf_annular,
    run_fem,
)


@pytest.mark.parametrize(
    "field, value",
    [
        ("pixel_nm", 0),
        ("pixel_nm", -8),
        ("pixel_nm", float("nan")),
        ("pixel_nm", float("inf")),
        ("diffusion_nm", float("nan")),
        ("diffusion_nm", float("inf")),
        ("ambit_nm", 600.5),
        ("ambit_nm", 600.0),
        ("ambit_nm", float("nan")),
        ("ambit_nm", -1),
        ("max_kernels", 2.5),
        ("max_kernels", 0),
        ("max_kernels", float("nan")),
    ],
)
def test_bad_litho_numbers_fail_at_construction(field, value):
    """A pixel size, diffusion length, ambit or kernel count that no grid
    or kernel can use is rejected where it is given, not later inside a
    simulation.  The ambit is whole dbu, so padded grids start on it."""
    with pytest.raises(LithoError):
        if field == "diffusion_nm":
            ThresholdResist(diffusion_nm=value)
        else:
            LithoConfig(optics=krf_annular(), **{field: value})


def test_numpy_integer_ambit_and_kernel_count_are_accepted():
    config = LithoConfig(
        optics=krf_annular(), ambit_nm=np.int64(600), max_kernels=np.int32(24)
    )
    grid = LithoSimulator(config).grid_for(Rect(0, 0, 1000, 1000))
    assert grid.x0 == -600


class TestSimulatorFacade:
    def test_grid_padding_and_quantisation(self, simulator, window):
        grid = simulator.grid_for(window)
        assert grid.window.contains_rect(window.expanded(simulator.config.ambit_nm))
        assert grid.nx % LithoSimulator.GRID_QUANTUM == 0

    def test_printed_region_resembles_target(self, simulator, dense_mask, dense_lines, window):
        printed = simulator.printed(dense_mask, window)
        target = dense_lines & Region(window)
        # The uncorrected print differs from target but overlaps heavily.
        overlap = (printed & target).area / target.area
        assert overlap > 0.75
        assert printed.area < target.area  # positive-resist lines under-size

    def test_cd_measurement(self, simulator, dense_mask, window):
        cd = simulator.cd(dense_mask, window, center=(110, 0), axis="x")
        assert cd is not None
        assert 120 < cd < 180  # prints small without OPC and dose anchoring

    def test_dose_to_size(self, simulator, dense_mask, window):
        dose = simulator.dose_to_size(dense_mask, window, (110, 0), target_cd=180.0)
        cd = simulator.cd(dense_mask, window, (110, 0), dose=dose)
        assert cd == pytest.approx(180.0, abs=0.5)

    def test_dose_to_size_unreachable(self, simulator, dense_mask, window):
        with pytest.raises(LithoError):
            simulator.dose_to_size(
                dense_mask, window, (110, 0), target_cd=1000.0,
                dose_range=(0.9, 1.1),
            )

    @pytest.mark.parametrize(
        "dose_range",
        [(3.0, 0.4), (0.0, 3.0), (1.0, 1.0), (float("nan"), 3.0), (0.4, float("inf"))],
    )
    def test_dose_to_size_rejects_a_bad_range(
        self, simulator, dense_mask, window, dose_range
    ):
        with pytest.raises(LithoError, match="0 < lo < hi"):
            simulator.dose_to_size(
                dense_mask, window, (110, 0), target_cd=180.0, dose_range=dose_range
            )

    @pytest.mark.parametrize("dose", [float("nan"), float("inf")])
    def test_non_finite_dose_raises(self, simulator, dense_mask, window, dose):
        with pytest.raises(LithoError, match="dose"):
            simulator.cd(dense_mask, window, (110, 0), dose=dose)
        with pytest.raises(LithoError, match="dose"):
            simulator.printed_double_exposure([(dense_mask, dose)], window)

    @pytest.mark.parametrize("defocus_nm", [float("nan"), float("inf")])
    def test_non_finite_defocus_raises(self, simulator, dense_mask, window, defocus_nm):
        with pytest.raises(LithoError, match="defocus"):
            simulator.cd(dense_mask, window, (110, 0), defocus_nm=defocus_nm)

    def test_edge_placement_errors(self, simulator, dense_mask, window):
        # The centre line spans x in [0, 180]: edges at x=0 and x=180.
        sites = [((0.0, 0.0), (-1.0, 0.0)), ((180.0, 0.0), (1.0, 0.0))]
        epes = simulator.edge_placement_errors(dense_mask, window, sites)
        assert all(e is not None for e in epes)
        # Uncorrected lines print undersized: both edges pull in (negative EPE).
        assert all(e < 0 for e in epes)

    def test_defocus_shrinks_line_further(self, simulator, dense_mask, window):
        cd0 = simulator.cd(dense_mask, window, (110, 0))
        cd_def = simulator.cd(dense_mask, window, (110, 0), defocus_nm=500.0)
        assert cd_def is None or cd_def < cd0


class TestProcessWindow:
    def make_fem(self):
        """A synthetic, well-behaved FEM: CD falls with dose, bows with focus."""
        focuses = np.linspace(-600, 600, 7)
        doses = np.linspace(0.7, 1.3, 13)

        def cd(focus, dose):
            bow = 1.0 - (focus / 1500.0) ** 2
            return 180.0 * bow * (2.0 - dose)

        return run_fem(cd, focuses, doses)

    def test_fem_shape(self):
        fem = self.make_fem()
        assert fem.cd.shape == (7, 13)
        assert not np.isnan(fem.cd).any()

    def test_fem_shape_validation(self):
        with pytest.raises(LithoError):
            FocusExposureMatrix((0.0,), (1.0,), np.zeros((2, 2)))

    def test_bossung_extraction(self):
        fem = self.make_fem()
        focuses, cds = fem.bossung(dose=1.0)
        assert len(focuses) == 7
        # Bossung at nominal dose peaks at best focus (centre).
        assert cds[3] == max(cds)

    def test_dose_bounds_bracket_nominal(self):
        fem = self.make_fem()
        bounds = dose_bounds(fem, target_cd=180.0, tolerance=0.1)
        lo, hi = bounds[3]  # best focus
        assert lo < 1.0 < hi

    def test_el_curve_monotone_decreasing(self):
        fem = self.make_fem()
        curve = exposure_latitude_curve(fem, target_cd=180.0, tolerance=0.1)
        assert curve, "expected a non-empty ED curve"
        els = [el for _dof, el in curve]
        assert all(a >= b - 1e-9 for a, b in zip(els, els[1:]))

    def test_dof_at_el(self):
        fem = self.make_fem()
        curve = exposure_latitude_curve(fem, target_cd=180.0, tolerance=0.1)
        dof = dof_at_exposure_latitude(curve, min_el_percent=5.0)
        assert dof > 0

    def test_unreachable_target_gives_empty_curve(self):
        fem = self.make_fem()
        assert exposure_latitude_curve(fem, target_cd=5000.0) == []

    def test_failed_prints_recorded_as_nan(self):
        fem = run_fem(lambda f, d: None, [0.0], [1.0])
        assert np.isnan(fem.cd).all()

    def test_tolerance_validation(self):
        fem = self.make_fem()
        with pytest.raises(LithoError):
            dose_bounds(fem, 180.0, tolerance=0.0)


class TestSimulatedProcessWindow:
    """End-to-end: a real simulated ED window behaves physically."""

    @pytest.fixture(scope="class")
    def fem(self, simulator, dense_mask, window):
        dose0 = simulator.dose_to_size(dense_mask, window, (110, 0), 180.0)
        focuses = [-400.0, -200.0, 0.0, 200.0, 400.0]
        doses = [dose0 * k for k in (0.85, 0.95, 1.0, 1.05, 1.15)]

        def cd(focus, dose):
            return simulator.cd(dense_mask, window, (110, 0), defocus_nm=focus, dose=dose)

        return run_fem(cd, focuses, doses), dose0

    def test_best_focus_at_zero(self, fem):
        matrix, dose0 = fem
        focuses, cds = matrix.bossung(dose0)
        assert abs(focuses[int(np.nanargmax(cds))]) <= 200.0

    def test_nominal_dose_inside_window(self, fem):
        matrix, dose0 = fem
        bounds = dose_bounds(matrix, 180.0, tolerance=0.1)
        centre = bounds[2]
        assert centre is not None
        assert centre[0] < dose0 < centre[1]
