"""Thin-mask models: binary chrome, attenuated PSM, alternating PSM.

A :class:`MaskSpec` is a background transmission plus an ordered list of
*paints* -- (region, complex transmission) pairs applied with overwrite
semantics.  Rasterising the spec yields the complex mask field; the SOCS
engine reads only the field's spectrum at its kernel support, which
:meth:`MaskSpec.spectrum_block` takes from the geometry.  Helper constructors
build the three mask technologies of the 2001 RET toolbox from layout
regions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..errors import LithoError
from ..geometry import Region
from .raster import Grid, coverage_block, rasterize

#: Nominal intensity transmission of attenuated-PSM absorber (6 percent MoSi).
ATTPSM_TRANSMISSION = 0.06


@dataclass(frozen=True)
class MaskSpec:
    """A complex-transmission mask description.

    ``paints`` are applied in order with overwrite semantics: later paints
    replace earlier ones where they overlap.  Transmission values are
    complex field amplitudes (e.g. ``1.0`` clear, ``0.0`` chrome, ``-0.245``
    attenuated 180-degree shifter).
    """

    background: complex
    paints: Tuple[Tuple[Region, complex], ...]
    name: str = "mask"

    def field(self, grid: Grid) -> np.ndarray:
        """The complex mask field rasterised on ``grid``."""
        result = np.full(grid.shape, self.background, dtype=complex)
        for region, transmission in self.paints:
            coverage = rasterize(region, grid)
            result = result * (1.0 - coverage) + transmission * coverage
        return result

    def spectrum_block(self, grid: Grid, ky: np.ndarray, kx: np.ndarray) -> np.ndarray:
        """``fft2(self.field(grid))`` on rows ``ky`` and columns ``kx``.

        Returns the ``(len(ky), len(kx))`` block.  With one non-empty paint
        the field is ``background + (t - background) * coverage``, linear in
        the coverage, so its spectrum comes from
        :func:`~repro.litho.raster.coverage_block` with no raster.
        Overwrite paints that share a partly covered pixel do not add
        linearly, so a mask with two or more non-empty paints takes the
        raster and a full FFT.
        """
        painted = [(region, t) for region, t in self.paints if not region.is_empty]
        if len(painted) > 1:
            return np.fft.fft2(self.field(grid))[np.ix_(ky, kx)]
        values = np.where(
            (ky == 0)[:, None] & (kx == 0), self.background * (grid.nx * grid.ny), 0j
        )
        if painted:
            region, transmission = painted[0]
            values += (transmission - self.background) * coverage_block(
                region, grid, ky, kx
            )
        return values

    def biased(self, bias_nm: int) -> "MaskSpec":
        """The same mask with every painted region sized by ``bias_nm``.

        Used for MEEF measurements: a global mask CD error of ``2 * bias``.
        """
        return MaskSpec(
            self.background,
            tuple((region.sized(bias_nm), t) for region, t in self.paints),
            name=f"{self.name}_bias{bias_nm:+d}",
        )


def binary_mask(
    features: Region,
    dark_field: bool = False,
    srafs: Optional[Region] = None,
    name: str = "binary",
) -> MaskSpec:
    """A chrome-on-glass mask printing ``features``.

    Bright-field (default): features are chrome (0.0) on a clear background,
    as used for poly/metal line layers with positive resist.  Dark-field:
    features are clear openings on chrome, as used for contact/via layers.
    SRAFs are painted with the same polarity as the features.
    """
    feature_t, background = (1.0 + 0.0j, 0.0 + 0.0j) if dark_field else (0.0j, 1.0 + 0.0j)
    paints: List[Tuple[Region, complex]] = [(features, feature_t)]
    if srafs is not None and not srafs.is_empty:
        paints.append((srafs, feature_t))
    return MaskSpec(background, tuple(paints), name=name)


@dataclass(frozen=True)
class BinaryMaskBuilder:
    """A picklable ``Region -> MaskSpec`` callable wrapping :func:`binary_mask`.

    Model-OPC flows pass a mask builder down to per-tile workers; a frozen
    dataclass (unlike a closure) survives the pickle boundary of a
    multiprocessing pool while carrying the dark-field polarity and frozen
    SRAF geometry along.
    """

    dark_field: bool = False
    srafs: Optional[Region] = None
    name: str = "binary"

    def __call__(self, features: Region) -> MaskSpec:
        return binary_mask(
            features,
            dark_field=self.dark_field,
            srafs=self.srafs,
            name=self.name,
        )


def attpsm_mask(
    features: Region,
    dark_field: bool = False,
    transmission: float = ATTPSM_TRANSMISSION,
    srafs: Optional[Region] = None,
    name: str = "attpsm",
) -> MaskSpec:
    """An attenuated (embedded) PSM: absorber leaks ``transmission`` at 180 deg.

    The weak counter-phase light sharpens edge contrast relative to binary
    chrome -- the cheap PSM that 2001-era fabs adopted first.
    """
    if not 0 < transmission < 1:
        raise LithoError(f"transmission must be in (0, 1), got {transmission}")
    absorber = -math.sqrt(transmission) + 0.0j
    if dark_field:
        background, feature_t = absorber, 1.0 + 0.0j
    else:
        background, feature_t = 1.0 + 0.0j, absorber
    paints: List[Tuple[Region, complex]] = [(features, feature_t)]
    if srafs is not None and not srafs.is_empty:
        paints.append((srafs, feature_t))
    return MaskSpec(background, tuple(paints), name=name)


def altpsm_mask(
    lines: Region,
    shifter_0: Region,
    shifter_180: Region,
    name: str = "altpsm",
) -> MaskSpec:
    """An alternating-aperture PSM for ``lines``.

    The chrome lines sit on an opaque background; the clear apertures on
    either side of each critical line transmit at 0 and 180 degrees.  The
    destructive interference between opposite-phase apertures prints lines
    well below the conventional resolution limit.
    """
    return MaskSpec(
        0.0 + 0.0j,
        (
            (shifter_0, 1.0 + 0.0j),
            (shifter_180, -1.0 + 0.0j),
            (lines, 0.0 + 0.0j),
        ),
        name=name,
    )
