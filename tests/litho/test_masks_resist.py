"""Unit tests for mask models and the threshold resist."""

import numpy as np
import pytest

from repro.errors import LithoError
from repro.geometry import Rect, Region
from repro.litho import (
    ATTPSM_TRANSMISSION,
    Grid,
    MaskSpec,
    ThresholdResist,
    altpsm_mask,
    attpsm_mask,
    binary_mask,
)


@pytest.fixture()
def grid():
    return Grid(0, 0, 10, 32, 32)


def center_value(field, grid, x, y):
    ix = int((x - grid.x0) / grid.pixel_nm)
    iy = int((y - grid.y0) / grid.pixel_nm)
    return field[iy, ix]


class TestBinaryMask:
    def test_bright_field(self, grid):
        features = Region(Rect(100, 100, 200, 200))
        field = binary_mask(features).field(grid)
        assert center_value(field, grid, 150, 150) == 0.0
        assert center_value(field, grid, 20, 20) == 1.0

    def test_dark_field(self, grid):
        features = Region(Rect(100, 100, 200, 200))
        field = binary_mask(features, dark_field=True).field(grid)
        assert center_value(field, grid, 150, 150) == 1.0
        assert center_value(field, grid, 20, 20) == 0.0

    def test_srafs_painted_like_features(self, grid):
        features = Region(Rect(100, 100, 200, 200))
        srafs = Region(Rect(240, 100, 270, 200))
        field = binary_mask(features, srafs=srafs).field(grid)
        assert center_value(field, grid, 255, 150) == 0.0


class TestAttPSM:
    def test_absorber_amplitude(self, grid):
        features = Region(Rect(100, 100, 200, 200))
        field = attpsm_mask(features).field(grid)
        value = center_value(field, grid, 150, 150)
        assert value == pytest.approx(-np.sqrt(ATTPSM_TRANSMISSION))
        assert center_value(field, grid, 20, 20) == 1.0

    def test_transmission_validation(self, grid):
        with pytest.raises(LithoError):
            attpsm_mask(Region(), transmission=1.5)


class TestAltPSM:
    def test_phases(self, grid):
        lines = Region(Rect(140, 0, 180, 320))
        s0 = Region(Rect(60, 0, 140, 320))
        s180 = Region(Rect(180, 0, 260, 320))
        field = altpsm_mask(lines, s0, s180).field(grid)
        assert center_value(field, grid, 100, 150) == 1.0
        assert center_value(field, grid, 220, 150) == -1.0
        assert center_value(field, grid, 160, 150) == 0.0  # chrome line
        assert center_value(field, grid, 20, 150) == 0.0  # dark background


class TestMaskSpecOps:
    def test_overwrite_semantics(self, grid):
        a = Region(Rect(0, 0, 200, 200))
        b = Region(Rect(100, 100, 300, 300))
        spec = MaskSpec(0.0, ((a, 1.0 + 0j), (b, 0.5 + 0j)))
        field = spec.field(grid)
        assert center_value(field, grid, 150, 150) == 0.5  # b overwrites a
        assert center_value(field, grid, 50, 50) == 1.0

    def test_biased(self, grid):
        spec = binary_mask(Region(Rect(100, 100, 200, 200)))
        grown = spec.biased(20)
        field = grown.field(grid)
        assert center_value(field, grid, 90, 150) == 0.0  # was clear, now chrome
        assert grown.name.endswith("+20")


class TestThresholdResist:
    def test_validation(self):
        with pytest.raises(LithoError):
            ThresholdResist(threshold=0.0)
        with pytest.raises(LithoError):
            ThresholdResist(diffusion_nm=-1)

    def test_effective_threshold_dose_scaling(self):
        resist = ThresholdResist(threshold=0.3)
        assert resist.effective_threshold(1.0) == pytest.approx(0.3)
        assert resist.effective_threshold(1.5) == pytest.approx(0.2)
        with pytest.raises(LithoError):
            resist.effective_threshold(0.0)
        for dose in (float("nan"), float("inf")):
            with pytest.raises(LithoError, match="dose"):
                resist.effective_threshold(dose)

    def test_latent_image_blur(self, grid):
        resist = ThresholdResist(diffusion_nm=30.0)
        image = np.zeros(grid.shape)
        image[16, 16] = 1.0
        latent = resist.latent_image(image, grid)
        assert latent[16, 16] < 1.0
        assert latent[16, 18] > 0.0
        assert latent.sum() == pytest.approx(1.0, rel=1e-6)

    def test_no_diffusion_identity(self, grid):
        resist = ThresholdResist(diffusion_nm=0.0)
        image = np.random.default_rng(7).random(grid.shape)
        assert resist.latent_image(image, grid) is image

    def test_positive_resist_remains_under_chrome(self, grid):
        resist = ThresholdResist(threshold=0.3, diffusion_nm=0.0)
        image = np.full(grid.shape, 1.0)
        image[:, 10:20] = 0.1  # dark stripe (chrome shadow)
        remains = resist.resist_remains(image, grid)
        assert remains[:, 15].all()
        assert not remains[:, 5].any()

    def test_negative_resist_inverts(self, grid):
        resist = ThresholdResist(threshold=0.3, diffusion_nm=0.0, positive=False)
        image = np.full(grid.shape, 1.0)
        image[:, 10:20] = 0.1
        remains = resist.resist_remains(image, grid)
        assert not remains[:, 15].any()
        assert remains[:, 5].all()
