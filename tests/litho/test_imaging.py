"""Physics tests for the imaging engines: Abbe vs SOCS, known behaviours."""

import numpy as np
import pytest

from repro.errors import LithoError
from repro.geometry import Rect, Region
from repro.litho import (
    AbbeEngine,
    Aberrations,
    Grid,
    SOCSEngine,
    attpsm_mask,
    binary_mask,
    altpsm_mask,
    image_contrast,
    krf_annular,
    krf_conventional,
)


@pytest.fixture(scope="module")
def small_grid():
    return Grid(-640, -640, 10.0, 128, 128)


@pytest.fixture(scope="module")
def line_mask_field(small_grid):
    lines = Region.from_rects(
        [Rect(x, -640, x + 180, 640) for x in range(-640, 640, 460)]
    )
    return binary_mask(lines).field(small_grid)


class TestClearField:
    def test_open_frame_intensity_is_one(self, small_grid):
        optics = krf_conventional()
        engine = AbbeEngine(optics)
        field = np.ones(small_grid.shape, dtype=complex)
        image = engine.image(field, small_grid)
        assert np.allclose(image, 1.0, atol=1e-9)

    def test_opaque_frame_is_dark(self, small_grid):
        optics = krf_conventional()
        engine = AbbeEngine(optics)
        image = engine.image(np.zeros(small_grid.shape, dtype=complex), small_grid)
        assert np.allclose(image, 0.0, atol=1e-12)


class TestAbbeVsSOCS:
    def test_engines_agree_in_focus(self, small_grid, line_mask_field):
        optics = krf_annular()
        abbe = AbbeEngine(optics).image(line_mask_field, small_grid)
        socs = SOCSEngine(optics, max_kernels=80, eigen_cutoff=1e-8).image(
            line_mask_field, small_grid
        )
        assert np.abs(abbe - socs).max() < 2e-3

    def test_engines_agree_defocused(self, small_grid, line_mask_field):
        optics = krf_annular()
        abbe = AbbeEngine(optics).image(line_mask_field, small_grid, defocus_nm=300)
        socs = SOCSEngine(optics, max_kernels=80, eigen_cutoff=1e-8).image(
            line_mask_field, small_grid, defocus_nm=300
        )
        assert np.abs(abbe - socs).max() < 2e-3

    @pytest.mark.parametrize(
        "aberrations, defocus_nm",
        [
            (Aberrations(coma_x=0.05), 0.0),
            (Aberrations(coma_x=0.05, astigmatism_45=0.05), 200.0),
        ],
        ids=["coma", "coma-astig-defocus"],
    )
    def test_engines_agree_under_odd_aberrations(
        self, small_grid, aberrations, defocus_nm
    ):
        """With every kernel kept, SOCS is Abbe, odd pupil phase included.

        Hopkins kernels are the conjugated TCC eigenvectors; unconjugated
        ones mirror the image under odd aberrations such as coma, which
        is invisible for a perfect lens.
        """
        mask = binary_mask(
            Region.from_rects(
                [
                    Rect(-400, -300, -220, 500),
                    Rect(-60, -500, 120, 100),
                    Rect(200, 150, 520, 330),
                ]
            )
        ).field(small_grid)
        optics = krf_annular()
        abbe = AbbeEngine(optics, aberrations).image(mask, small_grid, defocus_nm)
        socs = SOCSEngine(
            optics, aberrations, max_kernels=200, eigen_cutoff=1e-12
        ).image(mask, small_grid, defocus_nm)
        assert np.abs(abbe - socs).max() <= 1e-9

    def test_kernel_truncation_energy_reported(self, small_grid):
        optics = krf_annular()
        engine = SOCSEngine(optics, max_kernels=12)
        kernels = engine.kernel_set(small_grid, 0.0)
        assert 0.5 < kernels.truncation_energy <= 1.0
        assert len(kernels.eigenvalues) <= 12

    def test_kernel_cache_reused(self, small_grid, line_mask_field):
        optics = krf_annular()
        engine = SOCSEngine(optics)
        engine.image(line_mask_field, small_grid)
        first = engine.kernel_set(small_grid, 0.0)
        engine.image(line_mask_field, small_grid)
        assert engine.kernel_set(small_grid, 0.0) is first

    def test_shape_mismatch_rejected(self, small_grid):
        optics = krf_conventional()
        with pytest.raises(LithoError):
            AbbeEngine(optics).image(np.ones((4, 4), dtype=complex), small_grid)
        with pytest.raises(LithoError):
            SOCSEngine(optics).image(np.ones((4, 4), dtype=complex), small_grid)


class TestImagingPhysics:
    def test_defocus_degrades_contrast(self, small_grid, line_mask_field):
        optics = krf_annular()
        engine = AbbeEngine(optics)
        in_focus = engine.image(line_mask_field, small_grid)
        defocused = engine.image(line_mask_field, small_grid, defocus_nm=600)
        mid = slice(40, 88)
        assert image_contrast(defocused[mid, mid]) < image_contrast(in_focus[mid, mid])

    def test_dark_line_under_chrome(self, small_grid, line_mask_field):
        optics = krf_annular()
        image = AbbeEngine(optics).image(line_mask_field, small_grid)
        # Sample the centre of the line at x in [-640+460*2=280..460]: line
        # at x=280..460nm -> centre 370nm -> pixel (370+640)/10=101.
        line_center = image[64, 101]
        space_center = image[64, 88]
        assert line_center < 0.3
        assert space_center > 0.5

    def test_attpsm_improves_contrast_over_binary(self, small_grid):
        optics = krf_conventional()
        lines = Region.from_rects(
            [Rect(x, -640, x + 180, 640) for x in range(-640, 640, 460)]
        )
        engine = AbbeEngine(optics)
        binary = engine.image(binary_mask(lines).field(small_grid), small_grid)
        attpsm = engine.image(attpsm_mask(lines).field(small_grid), small_grid)
        mid = slice(40, 88)
        assert image_contrast(attpsm[mid, mid]) > image_contrast(binary[mid, mid])

    def test_altpsm_resolves_sub_resolution_lines(self, small_grid):
        """Alternating apertures print a line pitch conventional sigma cannot."""
        optics = krf_conventional(sigma=0.3)
        pitch, width = 240, 120  # k1 = 0.33: hopeless for binary chrome
        lines = Region.from_rects(
            [Rect(x, -640, x + width, 640) for x in range(-600, 600, pitch)]
        )
        spaces0 = Region.from_rects(
            [Rect(x + width, -640, x + pitch, 640) for x in range(-600, 600, 2 * pitch)]
        )
        spaces180 = Region.from_rects(
            [
                Rect(x + width, -640, x + pitch, 640)
                for x in range(-600 + pitch, 600, 2 * pitch)
            ]
        )
        engine = AbbeEngine(optics)
        binary = engine.image(binary_mask(lines).field(small_grid), small_grid)
        alt = engine.image(
            altpsm_mask(lines, spaces0, spaces180).field(small_grid), small_grid
        )
        mid = slice(54, 74)
        assert image_contrast(alt[mid, mid]) > 2 * image_contrast(binary[mid, mid])

    def test_annular_beats_conventional_at_dense_pitch(self, small_grid):
        """Off-axis illumination wins at the tightest pitches -- why fabs adopted it."""
        pitch, width = 300, 150
        lines = Region.from_rects(
            [Rect(x, -640, x + width, 640) for x in range(-600, 600, pitch)]
        )
        field = binary_mask(lines).field(small_grid)
        conventional_img = AbbeEngine(krf_conventional(sigma=0.5)).image(
            field, small_grid
        )
        annular_img = AbbeEngine(krf_annular()).image(field, small_grid)
        mid = slice(44, 84)
        assert image_contrast(annular_img[mid, mid]) > image_contrast(
            conventional_img[mid, mid]
        )
