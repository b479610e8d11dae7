"""The retired SOCS paths, kept as oracles for the engine that replaced them.

`SOCSEngine.image` evaluates every kernel field on a coarse grid that just
holds the band-limited intensity and Fourier-upsamples the sum once;
`SOCSEngine._build` takes the thin SVD of the source-pupil amplitude
matrix.  The code they replaced lives on here: the packed-rows image,
which runs full-size inverse FFTs over the occupied frequency rows, and
the `eigh` decomposition of the TCC itself, with its kernels conjugated
as Hopkins imaging requires.  The engine must match both to 1e-12 on
tile-sized, odd non-square and full-length-fallback grids, for binary,
att-PSM and alt-PSM masks, in and out of focus.

Engines take the kernel store the environment names, so a run with
``REPRO_KERNEL_CACHE_DIR`` set checks freshly built kernels the first
time and memory-mapped ones the next.
"""

import numpy as np
import pytest

from repro.geometry import Rect, Region
from repro.litho import (
    Aberrations,
    Grid,
    SOCSEngine,
    altpsm_mask,
    attpsm_mask,
    binary_mask,
    krf_annular,
    krf_conventional,
)
from repro.litho.imaging import _band
from repro.litho.kernel_cache import KernelSet, KernelStore

TOL = 1e-12

STORE = KernelStore.from_env()

#: name -> (grid, whether the y axis, and the x axis, run at full length).
GRIDS = {
    "tile-448x416": (Grid(0, 0, 8.0, 416, 448), (False, False)),
    "odd-130x97": (Grid(0, 0, 10.0, 97, 130), (False, False)),
    "full-x": (Grid(0, 0, 48.0, 44, 46), (False, True)),
    "full-y": (Grid(0, 0, 48.0, 46, 44), (True, False)),
    "full-both": (Grid(0, 0, 60.0, 64, 64), (True, True)),
    "tiny": (Grid(0, 0, 50.0, 8, 12), (True, True)),
}


def packed_rows_image(kernels, mask_field, grid):
    """The retired full-grid image: two 1-D inverse-FFT passes per kernel.

    The first pass runs only over the frequency rows the support
    occupies, batched across kernels; the second runs per kernel in a
    transposed buffer.
    """
    spectrum = np.fft.fft2(mask_field)
    support_values = spectrum[kernels.support_iy, kernels.support_ix]
    rows = np.unique(kernels.support_iy)
    row_of = np.searchsorted(rows, kernels.support_iy)
    packed = np.zeros(
        (len(kernels.eigenvalues), len(rows), grid.nx), dtype=complex
    )
    packed[:, row_of, kernels.support_ix] = kernels.eigenvectors * support_values
    head = np.fft.ifft(packed, axis=-1)
    transposed = np.zeros((grid.nx, grid.ny), dtype=complex)
    intensity = np.zeros((grid.nx, grid.ny), dtype=float)
    for eigenvalue, head_rows in zip(kernels.eigenvalues, head):
        transposed[:, rows] = head_rows.T
        field = np.fft.ifft(transposed, axis=-1)
        intensity += eigenvalue * np.abs(field) ** 2
    return np.ascontiguousarray(intensity.T)


def eigh_kernels(engine, grid, defocus_nm):
    """The retired build: ``eigh`` of the TCC, kernels conjugated."""
    fx, fy = grid.frequencies()
    f_max = engine.optics.f_max
    radius = (1.0 + engine.optics.source.sigma_max) * f_max
    fx_full = np.broadcast_to(fx, grid.shape)
    fy_full = np.broadcast_to(fy, grid.shape)
    support = fx_full**2 + fy_full**2 <= radius**2 + 1e-30
    support_iy, support_ix = np.nonzero(support)
    fk_x = fx_full[support_iy, support_ix]
    fk_y = fy_full[support_iy, support_ix]
    sx, sy, weights = engine.optics.source.arrays()
    amplitudes = np.empty((len(weights), len(fk_x)), dtype=complex)
    for row, (px, py, w) in enumerate(zip(sx * f_max, sy * f_max, weights)):
        amplitudes[row] = np.sqrt(w) * engine.pupil.evaluate(
            fk_x + px, fk_y + py, defocus_nm
        )
    tcc = amplitudes.conj().T @ amplitudes
    eigenvalues, eigenvectors = np.linalg.eigh(tcc)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues = np.maximum(eigenvalues[order], 0.0)
    eigenvectors = eigenvectors[:, order]
    total = float(eigenvalues.sum()) or 1.0
    keep = min(engine.max_kernels, len(eigenvalues))
    cutoff = engine.eigen_cutoff * eigenvalues[0]
    while keep > 1 and eigenvalues[keep - 1] < cutoff:
        keep -= 1
    kept = eigenvalues[:keep]
    return KernelSet(
        eigenvalues=kept,
        eigenvectors=eigenvectors[:, :keep].T.conj().copy(),
        support_iy=support_iy,
        support_ix=support_ix,
        truncation_energy=float(kept.sum()) / total,
    )


def seeded_masks(grid, seed):
    """Binary, att-PSM and alt-PSM fields of seeded random rectangles."""
    rng = np.random.default_rng(seed)
    window = grid.window
    span = min(window.width, window.height)

    def rects(count):
        out = []
        for _ in range(count):
            w, h = (int(v) for v in rng.integers(span // 12, span // 3, size=2))
            x = int(rng.integers(window.x1, window.x2 - w))
            y = int(rng.integers(window.y1, window.y2 - h))
            out.append(Rect(x, y, x + w, y + h))
        return Region.from_rects(out)

    features = rects(6)
    return {
        "binary": binary_mask(features).field(grid),
        "attpsm": attpsm_mask(features).field(grid),
        "altpsm": altpsm_mask(rects(2), rects(3), rects(3)).field(grid),
    }


@pytest.fixture(scope="module")
def engine():
    return SOCSEngine(krf_annular(), kernel_store=STORE)


class TestPackedRowsOracle:
    @pytest.mark.parametrize("defocus_nm", [0.0, 300.0])
    @pytest.mark.parametrize("name", sorted(GRIDS))
    def test_band_limited_image_matches(self, engine, name, defocus_nm):
        grid, full_axes = GRIDS[name]
        kernels = engine.kernel_set(grid, defocus_nm)
        my = _band(kernels.support_iy, grid.ny)[0]
        mx = _band(kernels.support_ix, grid.nx)[0]
        # The grid exercises the coarse/full-length split it is named for.
        assert (my == grid.ny, mx == grid.nx) == full_axes
        for seed in (1, 2):
            for kind, field in seeded_masks(grid, seed).items():
                image = engine.image(field, grid, defocus_nm)
                oracle = packed_rows_image(kernels, field, grid)
                assert image.shape == grid.shape
                assert np.abs(image - oracle).max() <= TOL, (kind, seed)

    def test_clear_and_opaque_fields(self, engine):
        grid = GRIDS["odd-130x97"][0]
        kernels = engine.kernel_set(grid, 0.0)
        for value in (0.0, 1.0):
            field = np.full(grid.shape, value, dtype=complex)
            oracle = packed_rows_image(kernels, field, grid)
            assert np.abs(engine.image(field, grid) - oracle).max() <= TOL


class TestEighOracle:
    CASES = {
        "annular-focus": (krf_annular(), Aberrations(), 0.0),
        "annular-defocus": (krf_annular(), Aberrations(), 300.0),
        "conventional-coma": (krf_conventional(), Aberrations(coma_x=0.05), 0.0),
        "conventional-astig-defocus": (
            krf_conventional(),
            Aberrations(coma_y=0.03, astigmatism_45=0.05),
            200.0,
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize(
        "grid_name", ["odd-130x97", "full-both", "full-x"]
    )
    def test_svd_kernels_match_eigh(self, case, grid_name):
        optics, aberrations, defocus_nm = self.CASES[case]
        grid = GRIDS[grid_name][0]
        engine = SOCSEngine(optics, aberrations, kernel_store=STORE)
        svd = engine.kernel_set(grid, defocus_nm)
        oracle = eigh_kernels(engine, grid, defocus_nm)
        assert len(svd.eigenvalues) == len(oracle.eigenvalues)
        assert np.abs(svd.eigenvalues - oracle.eigenvalues).max() <= (
            TOL * oracle.eigenvalues[0]
        )
        assert abs(svd.truncation_energy - oracle.truncation_energy) <= TOL
        assert np.array_equal(svd.support_iy, oracle.support_iy)
        assert np.array_equal(svd.support_ix, oracle.support_ix)
        twin = SOCSEngine(optics, aberrations)
        twin._cache[(grid.ny, grid.nx, grid.pixel_nm, defocus_nm)] = oracle
        for field in seeded_masks(grid, 3).values():
            assert np.abs(
                engine.image(field, grid, defocus_nm)
                - twin.image(field, grid, defocus_nm)
            ).max() <= TOL

    def test_every_kernel_kept(self):
        """Untruncated, the two builds span the same TCC."""
        grid = GRIDS["odd-130x97"][0]
        engine = SOCSEngine(
            krf_annular(), max_kernels=500, eigen_cutoff=0.0, kernel_store=STORE
        )
        svd = engine.kernel_set(grid, 0.0)
        oracle = eigh_kernels(engine, grid, 0.0)
        rank = len(svd.eigenvalues)
        assert svd.truncation_energy == pytest.approx(1.0, abs=TOL)
        assert np.abs(oracle.eigenvalues[rank:]).max(initial=0.0) <= (
            TOL * oracle.eigenvalues[0]
        )
        tcc = (svd.eigenvectors.T * svd.eigenvalues) @ svd.eigenvectors.conj()
        tcc_oracle = (
            oracle.eigenvectors.T * oracle.eigenvalues
        ) @ oracle.eigenvectors.conj()
        assert np.abs(tcc - tcc_oracle).max() <= TOL * oracle.eigenvalues[0]
