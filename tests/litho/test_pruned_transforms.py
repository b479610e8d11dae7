"""The retired full inverse transforms, kept as the oracle of the pruned ones.

`SOCSEngine.image` runs the kernel fields' inverse FFT one axis at a time:
along x on the support's rows only, then along y, and the upsampling
inverse along y on the band's columns only, then the real inverse along x.
The lines it skips are all zero, and numpy transforms every line on its
own, so the image must equal the retired composition -- one `ifft2` of the
whole coarse grid, one `irfft2` of the whole padded band -- bit for bit:
on coarse, full-x, full-y and full-grid bands, with and without the resist
blur, for binary, att-PSM and alt-PSM masks given as a `MaskSpec` or as a
field, in and out of focus.

Engines take the kernel store the environment names, so a run with
``REPRO_KERNEL_CACHE_DIR`` set checks freshly built kernels the first
time and memory-mapped ones the next.
"""

import numpy as np
import pytest

from repro.geometry import Rect, Region
from repro.litho import (
    Grid,
    KernelStore,
    SOCSEngine,
    ThresholdResist,
    altpsm_mask,
    attpsm_mask,
    binary_mask,
    krf_annular,
)
from repro.litho.imaging import _band
from repro.litho.raster import distinct_bins

ENGINE = SOCSEngine(krf_annular(), kernel_store=KernelStore.from_env())

#: name -> (grid, whether the y axis, and the x axis, run at full length).
GRIDS = {
    "tile-480x416": (Grid(0, 0, 8.0, 480, 416), (False, False)),
    "odd-97x130": (Grid(-35, 12, 10.0, 97, 130), (False, False)),
    "full-x": (Grid(0, 0, 48.0, 44, 46), (False, True)),
    "full-y": (Grid(0, 0, 48.0, 46, 44), (True, False)),
    "full-both": (Grid(0, 0, 60.0, 64, 64), (True, True)),
}


def retired_image(mask, grid, defocus_nm=0.0, blur=None):
    """The retired `SOCSEngine.image`: full `ifft2`, full `irfft2`."""
    kernels = ENGINE.kernel_set(grid, defocus_nm)
    support = (kernels.support_iy, kernels.support_ix)
    if isinstance(mask, np.ndarray):
        support_values = np.fft.fft2(mask)[support]
    else:
        ky, row, kx, col = distinct_bins(*support)
        support_values = mask.spectrum_block(grid, ky, kx)[row, col]
    my, half_y, iy = _band(kernels.support_iy, grid.ny)
    mx, half_x, ix = _band(kernels.support_ix, grid.nx)
    fields = np.zeros((len(kernels.eigenvalues), my, mx), dtype=complex)
    fields[:, iy, ix] = kernels.eigenvectors * support_values
    fields = np.fft.ifft2(fields)
    weights = kernels.eigenvalues * ((my * mx) / (grid.ny * grid.nx)) ** 2
    coarse = np.tensordot(weights, fields.real**2 + fields.imag**2, axes=1)
    if (my, mx) == grid.shape and blur is None:
        return coarse
    band = np.fft.rfft2(coarse, norm="forward")
    padded = np.zeros((grid.ny, grid.nx // 2 + 1), dtype=complex)
    cols = slice(0, half_x + 1) if mx < grid.nx else slice(None)
    if my < grid.ny:
        padded[: half_y + 1, cols] = band[: half_y + 1, cols]
        padded[grid.ny - half_y :, cols] = band[my - half_y :, cols]
    else:
        padded[:, cols] = band[:, cols]
    if blur is not None:
        padded[:, cols] *= np.outer(blur[0], blur[1][cols])
    return np.fft.irfft2(padded, s=grid.shape, norm="forward")


def masks(grid):
    """Binary, att-PSM and alt-PSM masks of seeded rects over ``grid``."""
    window = grid.window
    rng = np.random.default_rng(grid.nx * 1000 + grid.ny)
    rects = []
    for _ in range(9):
        x = int(rng.integers(window.x1 - 100, window.x2))
        y = int(rng.integers(window.y1 - 100, window.y2))
        rects.append(
            Rect(x, y, x + int(rng.integers(30, 400)), y + int(rng.integers(30, 400)))
        )
    lines = Region.from_rects(rects[:5])
    return {
        "binary": binary_mask(lines),
        "binary-dark": binary_mask(lines, dark_field=True),
        "attpsm": attpsm_mask(lines),
        "altpsm": altpsm_mask(
            lines, Region.from_rects(rects[5:7]), Region.from_rects(rects[7:])
        ),
    }


@pytest.mark.parametrize("name", sorted(GRIDS))
def test_band_layouts_are_the_named_ones(name):
    grid, (full_y, full_x) = GRIDS[name]
    kernels = ENGINE.kernel_set(grid, 0.0)
    assert (_band(kernels.support_iy, grid.ny)[0] == grid.ny) is full_y
    assert (_band(kernels.support_ix, grid.nx)[0] == grid.nx) is full_x


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("defocus_nm", [0.0, 120.0])
@pytest.mark.parametrize("blurred", [False, True], ids=["aerial", "latent"])
def test_image_equals_the_full_transforms_bit_for_bit(name, defocus_nm, blurred):
    grid, _ = GRIDS[name]
    blur = ThresholdResist(diffusion_nm=20.0).transfer(grid) if blurred else None
    for kind, mask in masks(grid).items():
        for given in (mask, mask.field(grid)):
            got = ENGINE.image(given, grid, defocus_nm, blur=blur)
            want = retired_image(given, grid, defocus_nm, blur=blur)
            assert got.dtype == want.dtype and got.shape == want.shape, kind
            assert got.tobytes() == want.tobytes(), kind


def test_empty_mask_images_equal_bit_for_bit():
    """No spectrum but DC: every pruned line is zero on both paths."""
    grid, _ = GRIDS["tile-480x416"]
    blur = ThresholdResist(diffusion_nm=20.0).transfer(grid)
    for mask in (binary_mask(Region()), binary_mask(Region(), dark_field=True)):
        for b in (None, blur):
            got = ENGINE.image(mask, grid, blur=b)
            assert got.tobytes() == retired_image(mask, grid, blur=b).tobytes()
