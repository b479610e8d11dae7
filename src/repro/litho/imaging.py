"""Partially coherent aerial-image computation: Abbe and Hopkins/SOCS.

Two engines compute the same physics:

* :class:`AbbeEngine` sums one coherent image per discretised source point
  -- simple, exact for the discretised source, and the validation
  reference.
* :class:`SOCSEngine` decomposes the Hopkins transmission
  cross-coefficient matrix restricted to the transmitted frequency
  support into coherent kernels (Sum Of Coherent Systems), through a thin
  SVD of the source-pupil amplitude matrix, and keeps the dominant
  kernels.  Each kernel field is evaluated on the smallest grid that
  holds its band-limited intensity, and the summed intensity is
  Fourier-upsampled once, which is what makes iterative model-based OPC
  affordable.

Intensity normalisation: source weights sum to 1 and the pupil has unit
transmission, so an all-clear mask images to intensity 1.0.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np
from scipy.fft import next_fast_len

from ..errors import LithoError
from ..obs import count as _obs_count
from .kernel_cache import KernelSet, KernelStore, kernel_fingerprint
from .optics import OpticalSettings
from .pupil import Aberrations, Pupil
from .raster import Grid


class AbbeEngine:
    """Source-point-summation imaging (the validation reference)."""

    def __init__(
        self, optics: OpticalSettings, aberrations: Optional[Aberrations] = None
    ):
        self.optics = optics
        self.pupil = Pupil(optics.wavelength_nm, optics.na, aberrations or Aberrations())

    def image(
        self, mask_field: np.ndarray, grid: Grid, defocus_nm: float = 0.0
    ) -> np.ndarray:
        """Aerial-image intensity of ``mask_field`` on ``grid``."""
        if mask_field.shape != grid.shape:
            raise LithoError(
                f"mask shape {mask_field.shape} != grid shape {grid.shape}"
            )
        fx, fy = grid.frequencies()
        spectrum = np.fft.fft2(mask_field)
        sx, sy, weights = self.optics.source.arrays()
        f_max = self.optics.f_max
        intensity = np.zeros(grid.shape, dtype=float)
        for px, py, w in zip(sx * f_max, sy * f_max, weights):
            pupil = self.pupil.evaluate(fx + px, fy + py, defocus_nm)
            field = np.fft.ifft2(spectrum * pupil)
            intensity += w * np.abs(field) ** 2
        return intensity


class SOCSEngine:
    """Hopkins TCC -> coherent-kernel imaging with per-defocus caching.

    Kernels are cached twice: a process-local dict keyed by (grid shape,
    pixel, defocus), and -- when ``kernel_store`` is given -- a
    persistent fingerprint-keyed :class:`~repro.litho.kernel_cache.
    KernelStore` shared across processes and runs, so multiprocessing
    OPC workers mmap one decomposition instead of each rebuilding it.
    Persistent hits/misses count under ``sim.kernel_cache_hits`` /
    ``sim.kernel_cache_misses``.
    """

    def __init__(
        self,
        optics: OpticalSettings,
        aberrations: Optional[Aberrations] = None,
        max_kernels: int = 24,
        eigen_cutoff: float = 1e-4,
        kernel_store: Optional[KernelStore] = None,
    ):
        if max_kernels < 1:
            raise LithoError(f"max_kernels must be >= 1, got {max_kernels}")
        self.optics = optics
        self.aberrations = aberrations or Aberrations()
        self.pupil = Pupil(optics.wavelength_nm, optics.na, self.aberrations)
        self.max_kernels = max_kernels
        self.eigen_cutoff = eigen_cutoff
        self.kernel_store = kernel_store
        self._cache: Dict[Tuple[int, int, float, float], KernelSet] = {}

    def image(
        self, mask_field: np.ndarray, grid: Grid, defocus_nm: float = 0.0
    ) -> np.ndarray:
        """Aerial-image intensity of ``mask_field`` on ``grid``."""
        if mask_field.shape != grid.shape:
            raise LithoError(
                f"mask shape {mask_field.shape} != grid shape {grid.shape}"
            )
        kernels = self.kernel_set(grid, defocus_nm)
        spectrum = np.fft.fft2(mask_field)
        support_values = spectrum[kernels.support_iy, kernels.support_ix]
        # A kernel field whose spectrum lies within +-K bins has an
        # intensity within +-2K bins, which 4K+1 samples per axis hold
        # without aliasing.  So every field is evaluated on that coarse
        # grid, and the summed intensity is Fourier-upsampled once.
        my, half_y, iy = _band(kernels.support_iy, grid.ny)
        mx, half_x, ix = _band(kernels.support_ix, grid.nx)
        fields = np.zeros((len(kernels.eigenvalues), my, mx), dtype=complex)
        fields[:, iy, ix] = kernels.eigenvectors * support_values
        fields = np.fft.ifft2(fields)
        # ``ifft2`` on the coarse grid scales each field by (ny*nx)/(my*mx)
        # relative to the full grid; the intensity carries that squared.
        weights = kernels.eigenvalues * ((my * mx) / (grid.ny * grid.nx)) ** 2
        coarse = np.tensordot(weights, fields.real**2 + fields.imag**2, axes=1)
        if (my, mx) == grid.shape:
            return coarse
        band = np.fft.rfft2(coarse, norm="forward")
        padded = np.zeros((grid.ny, grid.nx // 2 + 1), dtype=complex)
        cols = slice(0, half_x + 1) if mx < grid.nx else slice(None)
        if my < grid.ny:
            padded[: half_y + 1, cols] = band[: half_y + 1, cols]
            padded[grid.ny - half_y :, cols] = band[my - half_y :, cols]
        else:
            padded[:, cols] = band[:, cols]
        return np.fft.irfft2(padded, s=grid.shape, norm="forward")

    def kernel_set(self, grid: Grid, defocus_nm: float) -> KernelSet:
        """The cached (or freshly built) kernels for this grid and focus.

        Lookup order: process-local dict, then the persistent store (an
        mmap load, counted as a hit), then a fresh build (a miss, pushed
        back into the store so the next process skips it).
        """
        key = (grid.ny, grid.nx, float(grid.pixel_nm), float(defocus_nm))
        kernels = self._cache.get(key)
        if kernels is not None:
            return kernels
        if self.kernel_store is not None:
            fingerprint = self.fingerprint(grid, defocus_nm)
            kernels = self.kernel_store.load(fingerprint)
            if kernels is not None:
                _obs_count("sim.kernel_cache_hits")
            else:
                kernels = self._build(grid, defocus_nm)
                _obs_count("sim.kernel_cache_misses")
                self.kernel_store.store(fingerprint, kernels)
        else:
            kernels = self._build(grid, defocus_nm)
        self._cache[key] = kernels
        return kernels

    def fingerprint(self, grid: Grid, defocus_nm: float) -> str:
        """The persistent-cache key of this engine's kernels on ``grid``."""
        return kernel_fingerprint(
            self.optics,
            self.aberrations,
            self.max_kernels,
            self.eigen_cutoff,
            (grid.ny, grid.nx),
            float(grid.pixel_nm),
            float(defocus_nm),
        )

    def _build(self, grid: Grid, defocus_nm: float) -> KernelSet:
        fx, fy = grid.frequencies()
        f_max = self.optics.f_max
        sigma_max = self.optics.source.sigma_max
        # Mask frequencies that any shifted pupil can transmit.
        radius = (1.0 + sigma_max) * f_max
        fx_full = np.broadcast_to(fx, grid.shape)
        fy_full = np.broadcast_to(fy, grid.shape)
        support = fx_full**2 + fy_full**2 <= radius**2 + 1e-30
        support_iy, support_ix = np.nonzero(support)
        if len(support_iy) < 2:
            raise LithoError(
                "frequency support too small; enlarge the window or shrink pixels"
            )
        fk_x = fx_full[support_iy, support_ix]
        fk_y = fy_full[support_iy, support_ix]
        sx, sy, weights = self.optics.source.arrays()
        # A[s, k] = sqrt(w_s) * P(f_k + f_s); TCC = A^H A.  With the thin
        # SVD A = U S Vh, the TCC eigenvalues are S**2, and the Hopkins
        # kernels -- the conjugated TCC eigenvectors -- are the rows of
        # Vh.  A has one row per source point, so its thin SVD costs far
        # less than decomposing the support-by-support TCC.
        amplitudes = np.empty((len(weights), len(fk_x)), dtype=complex)
        for row, (px, py, w) in enumerate(zip(sx * f_max, sy * f_max, weights)):
            amplitudes[row] = np.sqrt(w) * self.pupil.evaluate(
                fk_x + px, fk_y + py, defocus_nm
            )
        _, singular, kernel_rows = np.linalg.svd(amplitudes, full_matrices=False)
        eigenvalues = singular**2
        total = float(eigenvalues.sum()) or 1.0
        keep = min(self.max_kernels, len(eigenvalues))
        cutoff = self.eigen_cutoff * eigenvalues[0] if len(eigenvalues) else 0.0
        while keep > 1 and eigenvalues[keep - 1] < cutoff:
            keep -= 1
        kept = eigenvalues[:keep]
        return KernelSet(
            eigenvalues=kept,
            eigenvectors=kernel_rows[:keep].copy(),
            support_iy=support_iy,
            support_ix=support_ix,
            truncation_energy=float(kept.sum()) / total,
        )


def _band(index: np.ndarray, n: int) -> Tuple[int, int, np.ndarray]:
    """Coarse-grid layout of one axis of the kernel support.

    Returns ``(m, half, coarse)``: the coarse length, the intensity
    half-band ``2K`` (``K`` the largest signed support index), and the
    support indices wrapped onto the coarse axis.  The coarse length is
    the smallest FFT-friendly one that is at least ``4K+1``, or ``n``
    when that would be no shorter.
    """
    signed = (index + n // 2) % n - n // 2
    half = 2 * int(np.abs(signed).max())
    m = min(next_fast_len(2 * half + 1, real=True), n)
    return m, half, signed % m
