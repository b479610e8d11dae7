"""Physics oracles for SOCS imaging, as seeded property tests on small grids.

These check the engine against facts of the optics rather than against
an earlier implementation:

* with every kernel kept, a clear field images to exactly 1;
* rolling the mask by whole pixels rolls the image by the same amount;
* as ``max_kernels`` grows, the error against the Abbe reference never
  increases and stays under ``lambda_{K+1} * mean|M|^2``, where
  ``lambda_{K+1}`` is the first dropped eigenvalue of an untruncated
  build and ``M`` the mask field.  The truncated kernels leave out
  ``sum_{k>K} lambda_k |f_k|^2`` at every pixel, each dropped eigenvalue is
  at most ``lambda_{K+1}``, and by Parseval the fields ``f_k`` of a
  complete kernel basis carry at most ``mean|M|^2`` between them.

Engines take the kernel store the environment names, so a run with
``REPRO_KERNEL_CACHE_DIR`` set checks freshly built kernels the first
time and memory-mapped ones the next.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry import Rect, Region
from repro.litho import (
    AbbeEngine,
    Aberrations,
    Grid,
    KernelStore,
    OpticalSettings,
    SOCSEngine,
    attpsm_mask,
    binary_mask,
    dipole,
    krf_annular,
    krf_conventional,
    quadrupole,
)

TOL = 1e-12

STORE = KernelStore.from_env()

OPTICS = [
    krf_annular(),
    krf_conventional(sigma=0.3),
    krf_conventional(sigma=0.6),
    OpticalSettings(wavelength_nm=248.0, na=0.68, source=quadrupole()),
    OpticalSettings(wavelength_nm=248.0, na=0.6, source=dipole(axis="y")),
]

SEEDED = settings(max_examples=20, deadline=None, derandomize=True, database=None)

optics_st = st.sampled_from(OPTICS)
grid_st = st.builds(
    lambda ny, nx, pixel: Grid(0, 0, pixel, nx, ny),
    ny=st.integers(24, 72),
    nx=st.integers(24, 72),
    pixel=st.sampled_from([10.0, 16.0, 24.0]),
)
aberrations_st = st.builds(
    Aberrations,
    coma_x=st.sampled_from([0.0, 0.04]),
    astigmatism_45=st.sampled_from([0.0, -0.03]),
    spherical=st.sampled_from([0.0, 0.02]),
)
defocus_st = st.sampled_from([0.0, 150.0, 300.0])


@st.composite
def mask_fields(draw, grid):
    """A binary, dark-field or att-PSM field of a few random rectangles."""
    window = grid.window
    rects = []
    for _ in range(draw(st.integers(1, 4))):
        x = draw(st.integers(window.x1, window.x2 - 20))
        y = draw(st.integers(window.y1, window.y2 - 20))
        w = draw(st.integers(20, max(20, window.width // 2)))
        h = draw(st.integers(20, max(20, window.height // 2)))
        rects.append(Rect(x, y, x + w, y + h))
    features = Region.from_rects(rects)
    spec = draw(
        st.sampled_from(
            [
                binary_mask(features),
                binary_mask(features, dark_field=True),
                attpsm_mask(features),
            ]
        )
    )
    return spec.field(grid)


@SEEDED
@given(
    optics=optics_st,
    grid=grid_st,
    aberrations=aberrations_st,
    defocus_nm=defocus_st,
)
def test_clear_field_images_to_one(optics, grid, aberrations, defocus_nm):
    engine = SOCSEngine(
        optics, aberrations, max_kernels=10_000, eigen_cutoff=0.0, kernel_store=STORE
    )
    image = engine.image(np.ones(grid.shape, dtype=complex), grid, defocus_nm)
    assert np.abs(image - 1.0).max() <= TOL


@SEEDED
@given(optics=optics_st, grid=grid_st, aberrations=aberrations_st, data=st.data())
def test_whole_pixel_roll_rolls_the_image(optics, grid, aberrations, data):
    field = data.draw(mask_fields(grid))
    shift = (
        data.draw(st.integers(-grid.ny, grid.ny)),
        data.draw(st.integers(-grid.nx, grid.nx)),
    )
    engine = SOCSEngine(optics, aberrations, kernel_store=STORE)
    image = engine.image(field, grid)
    rolled = engine.image(np.roll(field, shift, axis=(0, 1)), grid)
    assert np.abs(rolled - np.roll(image, shift, axis=(0, 1))).max() <= TOL


@SEEDED
@given(
    optics=optics_st,
    grid=grid_st,
    aberrations=aberrations_st,
    defocus_nm=defocus_st,
    data=st.data(),
)
def test_socs_converges_to_abbe_within_the_dropped_eigenvalue(
    optics, grid, aberrations, defocus_nm, data
):
    field = data.draw(mask_fields(grid))
    abbe = AbbeEngine(optics, aberrations).image(field, grid, defocus_nm)
    eigenvalues = (
        SOCSEngine(
            optics, aberrations, max_kernels=10_000, eigen_cutoff=0.0, kernel_store=STORE
        )
        .kernel_set(grid, defocus_nm)
        .eigenvalues
    )
    power = float(np.mean(np.abs(field) ** 2))
    previous = np.inf
    for count in (1, 2, 4, 8, 16, 32, 64, len(eigenvalues)):
        engine = SOCSEngine(
            optics, aberrations, max_kernels=count, eigen_cutoff=0.0, kernel_store=STORE
        )
        kept = len(engine.kernel_set(grid, defocus_nm).eigenvalues)
        error = float(np.abs(engine.image(field, grid, defocus_nm) - abbe).max())
        dropped = eigenvalues[kept] if kept < len(eigenvalues) else 0.0
        assert error <= dropped * power + TOL, (kept, error, dropped * power)
        assert error <= previous + TOL, (kept, error, previous)
        previous = error
