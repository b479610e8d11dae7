"""The retired raster-FFT-blur composition, kept as the oracle of the imaging path.

A SOCS image needs the mask spectrum only at the kernel support, and the
resist blur is a multiply on the band the engine already upsamples.  So
`coverage_block` and `MaskSpec.spectrum_block` take that spectrum from the
rects, on the support's distinct rows and columns, and the engine gathers
the support from that block as `coverage_spectrum` and `mask_spectrum`
below (the retired gathers) do; `ThresholdResist.transfer` is the DFT of
the blur kernel, and `printed_region` and `edge_offsets_batch` are array
passes.  What they replaced lives on here:

* the spectrum is `fft2` of the raster (`rasterize`, `MaskSpec.field`),
  matched to 1e-12 of the spectrum's largest magnitude at the support,
  DC and Nyquist bins;
* the blur was `scipy.ndimage.gaussian_filter(mode="nearest")`.  The
  transfer is circular, so it equals `mode="wrap"` everywhere and
  `mode="nearest"` at every pixel at least the kernel radius from the
  grid edge, to 1e-12;
* the simulator's latent image equals raster, SOCS image and nearest
  blur at those interior pixels, to 1e-12;
* the develop map's per-row run loop gives the same canonical loops.

Engines take the kernel store the environment names, so a run with
``REPRO_KERNEL_CACHE_DIR`` set checks freshly built kernels the first
time and memory-mapped ones the next.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.ndimage import gaussian_filter

from repro.geometry import Rect, Region
from repro.litho import (
    Grid,
    KernelStore,
    MaskSpec,
    SOCSEngine,
    ThresholdResist,
    altpsm_mask,
    attpsm_mask,
    binary_mask,
    edge_offset_state,
    edge_offsets_batch,
    krf_annular,
    printed_region,
    rasterize,
)
from repro.litho.raster import coverage_block, distinct_bins

TOL = 1e-12

STORE = KernelStore.from_env()

SEEDED = settings(max_examples=40, deadline=None, derandomize=True, database=None)

ENGINE = SOCSEngine(krf_annular(), kernel_store=STORE)


def coverage_spectrum(
    region: Region, grid: Grid, iy: np.ndarray, ix: np.ndarray
) -> np.ndarray:
    """``fft2(rasterize(region, grid))[iy, ix]``, computed from the rects.

    :func:`coverage_block` at the bins' distinct rows and columns,
    gathered; no raster or full-grid FFT is made.
    """
    ky, row, kx, col = distinct_bins(iy, ix)
    return coverage_block(region, grid, ky, kx)[row, col]


def mask_spectrum(mask: MaskSpec, grid: Grid, iy: np.ndarray, ix: np.ndarray) -> np.ndarray:
    """``fft2(mask.field(grid))[iy, ix]``: the field's DFT at bins ``(iy, ix)``.

    :meth:`MaskSpec.spectrum_block` at the bins' distinct rows and columns,
    gathered.
    """
    ky, row, kx, col = distinct_bins(iy, ix)
    return mask.spectrum_block(grid, ky, kx)[row, col]


def kernel_bins(grid):
    """A real SOCS support on ``grid`` plus DC and the Nyquist bins."""
    kernels = ENGINE.kernel_set(grid, 0.0)
    extra_y = [0, grid.ny // 2, 0, grid.ny // 2]
    extra_x = [0, 0, grid.nx // 2, grid.nx // 2]
    iy = np.concatenate([kernels.support_iy, extra_y])
    ix = np.concatenate([kernels.support_ix, extra_x])
    return iy, ix


def assert_spectrum_close(got, full, iy, ix):
    want = full[iy, ix]
    scale = np.abs(full).max()
    assert np.abs(got - want).max() <= TOL * scale


def blur_radius(resist, grid):
    """The kernel radius of ``gaussian_filter`` in pixels."""
    return int(4.0 * resist.diffusion_nm / grid.pixel_nm + 0.5)


def retired_printed_region(develop, grid):
    """The retired contour: one rect per run, row by row, then merged."""
    rects = []
    p = grid.pixel_nm
    for iy in range(grid.ny):
        row = develop[iy]
        if not row.any():
            continue
        padded = np.concatenate(([False], row, [False]))
        delta = np.diff(padded.astype(np.int8))
        starts = np.flatnonzero(delta == 1)
        stops = np.flatnonzero(delta == -1)
        y1 = int(round(grid.y0 + iy * p))
        y2 = int(round(grid.y0 + (iy + 1) * p))
        for lo, hi in zip(starts, stops):
            x1 = int(round(grid.x0 + lo * p))
            x2 = int(round(grid.x0 + hi * p))
            rects.append(Rect(x1, y1, x2, y2))
    return Region.from_rects(rects).merged()


# Small grids placed off the origin.  A window ends mid-pixel at 7.5 nm
# and an odd pixel count.  A few shapes keep the kernel builds cached.
grid_st = st.builds(
    lambda x0, y0, shape: Grid(x0, y0, shape[2], shape[1], shape[0]),
    x0=st.integers(-300, 300),
    y0=st.integers(-300, 300),
    shape=st.sampled_from(
        [(64, 64, 8.0), (75, 70, 6.0), (61, 67, 7.5), (88, 57, 7.5)]
    ),
)


@st.composite
def rect_soups(draw, grid):
    """Overlapping rects at any dbu, some crossing or outside the window."""
    window = grid.window
    margin = 80
    rects = []
    for _ in range(draw(st.integers(0, 8))):
        x = draw(st.integers(window.x1 - margin, window.x2 + margin))
        y = draw(st.integers(window.y1 - margin, window.y2 + margin))
        w = draw(st.integers(1, window.width // 2))
        h = draw(st.integers(1, window.height // 2))
        rects.append(Rect(x, y, x + w, y + h))
    return Region.from_rects(rects)


class TestCoverageSpectrum:
    @SEEDED
    @given(data=st.data(), grid=grid_st)
    def test_equals_fft_of_the_raster(self, data, grid):
        region = data.draw(rect_soups(grid))
        iy, ix = kernel_bins(grid)
        full = np.fft.fft2(rasterize(region, grid))
        assert_spectrum_close(coverage_spectrum(region, grid, iy, ix), full, iy, ix)

    def test_empty_region_is_zero(self):
        grid = Grid(0, 0, 7.5, 33, 31)
        iy, ix = kernel_bins(grid)
        values = coverage_spectrum(Region(), grid, iy, ix)
        assert values.shape == iy.shape
        assert not values.any()

    @pytest.mark.parametrize("pixel, n", [(7.5, 9), (6.0, 11), (8.0, 10)])
    def test_partial_pixel_past_the_window_does_not_wrap(self, pixel, n):
        """A rect reaching the window's rounded-up edge covers the last
        pixel fully and nothing beyond it: every bin of the DFT matches."""
        grid = Grid(0, 0, pixel, n, n)
        window = grid.window
        region = Region(Rect(window.x2 - 20, 0, window.x2 + 50, window.y2))
        iy, ix = np.nonzero(np.ones(grid.shape, dtype=bool))
        full = np.fft.fft2(rasterize(region, grid))
        assert_spectrum_close(coverage_spectrum(region, grid, iy, ix), full, iy, ix)


def _complex_psm(features):
    return MaskSpec(1.0 + 0.0j, ((features, 0.3 * np.exp(0.7j)),), name="complex")


MASKS = {
    "binary-bright": lambda f, s: binary_mask(f),
    "binary-dark": lambda f, s: binary_mask(f, dark_field=True),
    "attpsm": lambda f, s: attpsm_mask(f),
    "attpsm-dark": lambda f, s: attpsm_mask(f, dark_field=True),
    "complex-transmission": lambda f, s: _complex_psm(f),
    "empty-features": lambda f, s: binary_mask(Region()),
    "empty-paints-beside-one": lambda f, s: altpsm_mask(f, Region(), Region()),
    "binary-with-srafs": lambda f, s: binary_mask(f, srafs=s),
    "altpsm": lambda f, s: altpsm_mask(f, s, s.translated((37, 0))),
}


class TestMaskSpectrum:
    @pytest.mark.parametrize("kind", sorted(MASKS))
    @SEEDED
    @given(data=st.data(), grid=grid_st)
    def test_equals_fft_of_the_field(self, kind, data, grid):
        features = data.draw(rect_soups(grid))
        srafs = data.draw(rect_soups(grid))
        mask = MASKS[kind](features, srafs)
        iy, ix = kernel_bins(grid)
        full = np.fft.fft2(mask.field(grid))
        assert_spectrum_close(mask_spectrum(mask, grid, iy, ix), full, iy, ix)


resist_st = st.builds(
    ThresholdResist, diffusion_nm=st.sampled_from([5.0, 12.5, 20.0, 33.0])
)


class TestResistTransfer:
    @SEEDED
    @given(grid=grid_st, resist=resist_st, seed=st.integers(0, 2**16))
    def test_latent_image_is_the_wrap_blur(self, grid, resist, seed):
        image = np.random.default_rng(seed).random(grid.shape)
        sigma = resist.diffusion_nm / grid.pixel_nm
        wrap = gaussian_filter(image, sigma=sigma, mode="wrap")
        latent = resist.latent_image(image, grid)
        assert np.abs(latent - wrap).max() <= TOL

    @SEEDED
    @given(grid=grid_st, resist=resist_st, seed=st.integers(0, 2**16))
    def test_interior_is_the_retired_nearest_blur(self, grid, resist, seed):
        image = np.random.default_rng(seed).random(grid.shape)
        sigma = resist.diffusion_nm / grid.pixel_nm
        nearest = gaussian_filter(image, sigma=sigma, mode="nearest")
        latent = resist.latent_image(image, grid)
        r = blur_radius(resist, grid)
        inner = (slice(r, grid.ny - r), slice(r, grid.nx - r))
        assert np.abs(latent[inner] - nearest[inner]).max() <= TOL

    def test_no_diffusion_has_no_transfer(self):
        assert ThresholdResist(diffusion_nm=0.0).transfer(Grid(0, 0, 8.0, 32, 32)) is None

    def test_transfer_is_built_once_per_grid_and_read_only(self):
        resist = ThresholdResist(diffusion_nm=20.0)
        grid = Grid(0, 0, 8.0, 40, 36)
        hy, hx = resist.transfer(grid)
        assert resist.transfer(Grid(64, -8, 8.0, 40, 36))[0] is hy
        assert hy.shape == (36,) and hx.shape == (40 // 2 + 1,)
        assert hy[0] == pytest.approx(1.0) and hx[0] == pytest.approx(1.0)
        with pytest.raises(ValueError):
            hy[0] = 0.0


# The engine's three band layouts: coarse on both axes, full length on
# one axis, and the coarse grid equal to the full grid.
BAND_GRIDS = {
    "coarse": Grid(0, 0, 8.0, 112, 96),
    "full-x": Grid(-40, 16, 48.0, 44, 46),
    "full-both": Grid(0, 0, 60.0, 64, 64),
}


class TestBlurredImage:
    @pytest.mark.parametrize("name", sorted(BAND_GRIDS))
    @pytest.mark.parametrize("kind", ["binary-bright", "attpsm", "binary-with-srafs"])
    @pytest.mark.parametrize("diffusion_nm", [20.0, 45.0])
    def test_band_blur_equals_blurring_the_image(self, name, kind, diffusion_nm):
        grid = BAND_GRIDS[name]
        window = grid.window
        rng = np.random.default_rng(7)
        rects = []
        for _ in range(6):
            x = int(rng.integers(window.x1, window.x2 - 60))
            y = int(rng.integers(window.y1, window.y2 - 60))
            rects.append(Rect(x, y, x + int(rng.integers(40, 300)), y + int(rng.integers(40, 300))))
        features = Region.from_rects(rects[:4])
        srafs = Region.from_rects(rects[4:])
        mask = MASKS[kind](features, srafs)
        resist = ThresholdResist(diffusion_nm=diffusion_nm)
        blurred = ENGINE.image(mask, grid, blur=resist.transfer(grid))
        reference = resist.latent_image(ENGINE.image(mask.field(grid), grid), grid)
        assert np.abs(blurred - reference).max() <= TOL
        # With no blur the geometric spectrum gives the field's image.
        aerial = ENGINE.image(mask, grid)
        assert np.abs(aerial - ENGINE.image(mask.field(grid), grid)).max() <= TOL


def retired_latent(simulator, mask, window, defocus_nm=0.0):
    """The retired composition: raster, SOCS image of the field, nearest blur."""
    grid = simulator.grid_for(window)
    image = simulator._socs.image(mask.field(grid), grid, defocus_nm)
    resist = simulator.config.resist
    sigma = resist.diffusion_nm / grid.pixel_nm
    return grid, gaussian_filter(image, sigma=sigma, mode="nearest")


class TestSimulatorLatent:
    @pytest.mark.parametrize(
        "window",
        [Rect(-1200, -1100, 1200, 1100), Rect(-1013, -877, 1390, 1131)],
        ids=["tile", "off-grid-tile"],
    )
    @pytest.mark.parametrize("defocus_nm", [0.0, 150.0])
    def test_interior_equals_the_retired_composition(
        self, simulator, window, defocus_nm
    ):
        rng = np.random.default_rng(abs(window.x1) + int(defocus_nm))
        rects = []
        for _ in range(12):
            x = int(rng.integers(window.x1 - 300, window.x2))
            y = int(rng.integers(window.y1 - 300, window.y2))
            rects.append(Rect(x, y, x + int(rng.integers(90, 400)), y + int(rng.integers(90, 900))))
        mask = binary_mask(Region.from_rects(rects))
        grid, latent = simulator.latent_image(mask, window, defocus_nm)
        ref_grid, reference = retired_latent(simulator, mask, window, defocus_nm)
        assert grid == ref_grid
        r = blur_radius(simulator.config.resist, grid)
        inner = (slice(r, grid.ny - r), slice(r, grid.nx - r))
        assert np.abs(latent[inner] - reference[inner]).max() <= TOL
        # The ring the blur now wraps lies in the ambit, not the window.
        assert simulator.config.ambit_nm >= r * grid.pixel_nm


class TestPrintedRegion:
    @SEEDED
    @given(
        grid=st.builds(
            lambda x0, y0, ny, nx, pixel: Grid(x0, y0, pixel, nx, ny),
            x0=st.integers(-50, 50),
            y0=st.integers(-50, 50),
            ny=st.integers(2, 40),
            nx=st.integers(2, 40),
            # 2.5 and 7.5 nm put pixel corners on half dbu: rounding ties.
            pixel=st.sampled_from([8.0, 2.5, 7.5, 6.3]),
        ),
        density=st.sampled_from([0.0, 0.2, 0.5, 0.8, 1.0]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_retired_row_loop(self, grid, density, seed):
        develop = np.random.default_rng(seed).random(grid.shape) < density
        region = printed_region(develop, grid)
        assert region.loops == retired_printed_region(develop, grid).loops

    @pytest.mark.parametrize("fill", [False, True])
    def test_empty_and_full_maps(self, fill):
        grid = Grid(-7, 3, 7.5, 13, 9)
        develop = np.full(grid.shape, fill)
        region = printed_region(develop, grid)
        assert region.loops == retired_printed_region(develop, grid).loops
        assert region.is_empty is not fill


class TestEdgeOffsetSpans:
    @pytest.mark.parametrize("search_nm", [0.0, 0.4])
    def test_spans_with_no_step_match_the_scalar_probe(self, search_nm):
        """Spans holding fewer than two probes cannot cross: the batch
        reports each site's state as the scalar probe does."""
        grid = Grid(0, 0, 8.0, 16, 16)
        image = np.random.default_rng(3).random(grid.shape)
        sites = [((40.0, 40.0), (1.0, 0.0)), ((70.0, 20.0), (0.0, -1.0))]
        threshold = float(np.median(image))
        batch = edge_offsets_batch(image, grid, sites, threshold, search_nm=search_nm)
        scalar = [
            edge_offset_state(image, grid, a, n, threshold, search_nm=search_nm)
            for a, n in sites
        ]
        assert batch == scalar

