"""Resist models: threshold development with acid-diffusion blur.

The constant-threshold resist (CTR) model is the workhorse of OPC-era
simulation: the resist develops wherever the diffusion-blurred aerial image
exceeds a dose-scaled threshold.  Absolute chemistry is irrelevant to the
trends this library reproduces; the blur and threshold capture the
lumped-parameter behaviour that OPC models of the era were calibrated to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Tuple

import numpy as np

from ..errors import LithoError
from .raster import Grid

#: A separable blur transfer: the DFT along y (length ``ny``) and the real
#: DFT along x (length ``nx // 2 + 1``) of one 1-D kernel.
Transfer = Tuple[np.ndarray, np.ndarray]


@dataclass(frozen=True)
class ThresholdResist:
    """A constant-threshold resist with Gaussian diffusion.

    ``threshold`` is the develop threshold as a fraction of the clear-field
    intensity (1.0).  ``diffusion_nm`` is the acid diffusion length (the
    Gaussian sigma).  ``positive`` resist clears where exposed -- chrome
    features therefore print as remaining resist (lines).
    """

    threshold: float = 0.30
    diffusion_nm: float = 20.0
    positive: bool = True

    def __post_init__(self) -> None:
        if not 0 < self.threshold < 1:
            raise LithoError(f"threshold must be in (0, 1), got {self.threshold}")
        if not (math.isfinite(self.diffusion_nm) and self.diffusion_nm >= 0):
            raise LithoError(
                f"diffusion must be finite and >= 0, got {self.diffusion_nm}"
            )

    def transfer(self, grid: Grid) -> Optional[Transfer]:
        """The diffusion blur as a transfer pair on ``grid``, or ``None`` at 0 nm.

        The kernel is a Gaussian of sigma ``diffusion_nm / pixel_nm`` pixels
        truncated at ``int(4 sigma + 0.5)`` pixels and normalised to sum
        to 1 -- the kernel of ``scipy.ndimage.gaussian_filter`` -- applied
        along y and then x.  Multiplying an image's ``rfft2`` by
        ``outer(*pair)`` convolves it circularly ("wrap" mode).  Built once
        per grid.
        """
        if self.diffusion_nm == 0:
            return None
        return _gaussian_transfer(self.diffusion_nm / grid.pixel_nm, grid.ny, grid.nx)

    def latent_image(self, image: np.ndarray, grid: Grid) -> np.ndarray:
        """The diffusion-blurred intensity driving development.

        The blur is circular: within the kernel radius of the grid edge it
        mixes in the opposite edge (see :meth:`~repro.litho.LithoSimulator.
        latent_image` for where that ring lies).
        """
        blur = self.transfer(grid)
        if blur is None:
            return image
        spectrum = np.fft.rfft2(image)
        spectrum *= np.outer(*blur)
        return np.fft.irfft2(spectrum, s=image.shape)

    def effective_threshold(self, dose: float = 1.0) -> float:
        """The intensity threshold at a relative exposure ``dose``.

        Dose scales the whole image linearly, which is equivalent to
        dividing the threshold.
        """
        if not (math.isfinite(dose) and dose > 0):
            raise LithoError(f"dose must be finite and positive, got {dose}")
        return self.threshold / dose

    def resist_remains(
        self, image: np.ndarray, grid: Grid, dose: float = 1.0
    ) -> np.ndarray:
        """Boolean map of where resist remains after develop.

        For positive resist, resist remains where the latent image stays
        *below* threshold -- i.e. under chrome features.  This boolean is
        the printed feature for line layers.
        """
        latent = self.latent_image(image, grid)
        cleared = latent >= self.effective_threshold(dose)
        return ~cleared if self.positive else cleared


@lru_cache(maxsize=16)
def _gaussian_transfer(sigma_px: float, ny: int, nx: int) -> Transfer:
    """The transfer pair of the truncated Gaussian of ``sigma_px`` pixels."""
    radius = int(4.0 * sigma_px + 0.5)
    taps = np.arange(-radius, radius + 1)
    weights = np.exp(-0.5 / (sigma_px * sigma_px) * taps**2)
    weights = weights / weights.sum()

    def axis(n: int, dft) -> np.ndarray:
        kernel = np.zeros(n)
        np.add.at(kernel, taps % n, weights)
        values = dft(kernel).real  # the kernel is even, so its DFT is real
        values.setflags(write=False)  # shared by every caller of this grid
        return values

    return axis(ny, np.fft.fft), axis(nx, np.fft.rfft)
