"""Exact rasterization of Manhattan regions onto simulation grids.

A :class:`Grid` describes a pixel lattice over a layout window; coverage
rasterization is exact for rectilinear geometry: the region is decomposed
into rectangles, and each rectangle contributes a separable (outer-product)
area fraction to the pixels it overlaps.  No supersampling, no jaggies.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..errors import LithoError
from ..geometry import Rect, Region


@dataclass(frozen=True)
class Grid:
    """A pixel lattice over a layout window.

    Pixel ``(iy, ix)`` covers ``[x0 + ix*p, x0 + (ix+1)*p] x
    [y0 + iy*p, y0 + (iy+1)*p]`` in dbu; arrays indexed ``[iy, ix]``.
    """

    x0: int
    y0: int
    pixel_nm: float
    nx: int
    ny: int

    def __post_init__(self) -> None:
        _check_pixel(self.pixel_nm)
        if self.nx < 2 or self.ny < 2:
            raise LithoError(f"grid must be at least 2x2, got {self.nx}x{self.ny}")

    @classmethod
    def over_window(cls, window: Rect, pixel_nm: float) -> "Grid":
        """The smallest grid of ``pixel_nm`` pixels covering ``window``."""
        _check_pixel(pixel_nm)
        nx = max(2, int(np.ceil(window.width / pixel_nm)))
        ny = max(2, int(np.ceil(window.height / pixel_nm)))
        return cls(window.x1, window.y1, pixel_nm, nx, ny)

    @property
    def shape(self) -> Tuple[int, int]:
        """Array shape ``(ny, nx)``."""
        return (self.ny, self.nx)

    @property
    def window(self) -> Rect:
        """The covered layout window (dbu, rounded up to whole pixels)."""
        return Rect(
            self.x0,
            self.y0,
            self.x0 + int(np.ceil(self.nx * self.pixel_nm)),
            self.y0 + int(np.ceil(self.ny * self.pixel_nm)),
        )

    def x_centers(self) -> np.ndarray:
        """Pixel-centre x coordinates in nm."""
        return self.x0 + (np.arange(self.nx) + 0.5) * self.pixel_nm

    def y_centers(self) -> np.ndarray:
        """Pixel-centre y coordinates in nm."""
        return self.y0 + (np.arange(self.ny) + 0.5) * self.pixel_nm

    def frequencies(self) -> Tuple[np.ndarray, np.ndarray]:
        """FFT spatial-frequency grids ``(fx, fy)`` in cycles/nm.

        Shapes broadcast to the image shape: fx is (1, nx), fy is (ny, 1).
        """
        fx = np.fft.fftfreq(self.nx, d=self.pixel_nm)[np.newaxis, :]
        fy = np.fft.fftfreq(self.ny, d=self.pixel_nm)[:, np.newaxis]
        return fx, fy

    def sample(self, image: np.ndarray, points: Sequence[Tuple[float, float]]) -> np.ndarray:
        """Bilinear samples of ``image`` at layout coordinates ``points``."""
        if image.shape != self.shape:
            raise LithoError(f"image shape {image.shape} != grid shape {self.shape}")
        pts = np.asarray(points, dtype=float)
        gx = (pts[:, 0] - self.x0) / self.pixel_nm - 0.5
        gy = (pts[:, 1] - self.y0) / self.pixel_nm - 0.5
        gx = np.clip(gx, 0.0, self.nx - 1.000001)
        gy = np.clip(gy, 0.0, self.ny - 1.000001)
        ix = np.floor(gx).astype(int)
        iy = np.floor(gy).astype(int)
        ix1 = np.minimum(ix + 1, self.nx - 1)
        iy1 = np.minimum(iy + 1, self.ny - 1)
        tx = gx - ix
        ty = gy - iy
        return (
            image[iy, ix] * (1 - tx) * (1 - ty)
            + image[iy, ix1] * tx * (1 - ty)
            + image[iy1, ix] * (1 - tx) * ty
            + image[iy1, ix1] * tx * ty
        )

    def contains_point(self, point: Tuple[float, float]) -> bool:
        """True when the layout point lies inside the grid window."""
        x, y = point
        return (
            self.x0 <= x <= self.x0 + self.nx * self.pixel_nm
            and self.y0 <= y <= self.y0 + self.ny * self.pixel_nm
        )


def _check_pixel(pixel_nm: float) -> None:
    if not (np.isfinite(pixel_nm) and pixel_nm > 0):
        raise LithoError(f"pixel size must be finite and positive, got {pixel_nm}")


def rasterize(region: Region, grid: Grid) -> np.ndarray:
    """Exact area-fraction coverage of ``region`` on ``grid``.

    Returns a float array in [0, 1] of the grid's shape.  Geometry outside
    the grid window is clipped away exactly.
    """
    coverage = np.zeros(grid.shape, dtype=float)
    window = grid.window
    clipped = region if region.is_empty else region & Region(window)
    for rect in clipped.rects():
        _add_rect_coverage(coverage, grid, rect)
    return coverage


def distinct_bins(
    iy: np.ndarray, ix: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``(ky, row, kx, col)``: the distinct rows and columns of the DFT bins
    ``(iy, ix)``, with ``ky[row] == iy`` and ``kx[col] == ix``."""
    ky, row = np.unique(iy, return_inverse=True)
    kx, col = np.unique(ix, return_inverse=True)
    return ky, row, kx, col


def coverage_block(
    region: Region, grid: Grid, ky: np.ndarray, kx: np.ndarray
) -> np.ndarray:
    """``fft2(rasterize(region, grid))`` on rows ``ky`` and columns ``kx``.

    Returns the ``(len(ky), len(kx))`` block.  The rects are
    :meth:`~repro.geometry.region.Region.rect_array`, which a
    fragment-biased OPC iterate already holds.  A rect's exact coverage is
    the outer product of two per-axis coverage vectors, so its DFT is the
    product of their 1-D DFTs, each a closed form over the covered pixel
    interval: the rects' per-axis sums are taken at ``ky`` and ``kx`` and
    their products summed.  Intervals are clamped to the grid's ``[0, n]``
    pixels, which clips exactly as :func:`rasterize` does.
    """
    boxes = region.rect_array().astype(float)
    p = grid.pixel_nm
    xs = np.clip((boxes[:, 0::2] - grid.x0) / p, 0.0, grid.nx)
    ys = np.clip((boxes[:, 1::2] - grid.y0) / p, 0.0, grid.ny)
    cy = _interval_dft(ys[:, 0], ys[:, 1], ky, grid.ny)
    cx = _interval_dft(xs[:, 0], xs[:, 1], kx, grid.nx)
    # einsum, not ``cy.T @ cx``: BLAS would fan this small product out
    # over threads that a process pool's workers already occupy.
    return np.einsum("ry,rx->yx", cy, cx)


def _interval_dft(lo: np.ndarray, hi: np.ndarray, k: np.ndarray, n: int) -> np.ndarray:
    """DFT bins ``k`` of each interval's per-pixel coverage, shape ``(len(lo), len(k))``.

    Interval ``[a, b]`` (pixel units, ``0 <= a <= b <= n``) covers pixel
    ``x`` by ``S(x + 1) - S(x)`` for the ramp ``S(t) = clamp(t, a, b)``.
    With ``w = exp(-2 pi i k / n)`` and ``m = floor``, its DFT is
    ``(w^ma - w^mb) / (1 - w) + frac(b) w^mb - frac(a) w^ma``: the
    geometric sum over pixels ``ma .. mb - 1`` corrected by the two partial
    pixels.  ``k = 0`` is the covered length ``b - a``.  An interval ending
    at ``n`` has ``frac(b) = 0``, so nothing wraps onto pixel 0.
    """
    ma = np.floor(lo).astype(np.int64)
    mb = np.floor(hi).astype(np.int64)
    k = k.astype(np.int64)
    # Exact integer phases keep every exponent in [0, 2 pi).
    wa = np.exp((-2j * np.pi / n) * ((ma[:, None] * k) % n))
    wb = np.exp((-2j * np.pi / n) * ((mb[:, None] * k) % n))
    dc = k == 0
    w = np.exp((-2j * np.pi / n) * k)
    w[dc] = 0.0  # any value but 1; the DC column is replaced below
    sums = (wa - wb) / (1.0 - w) + (hi - mb)[:, None] * wb - (lo - ma)[:, None] * wa
    sums[:, dc] = (hi - lo)[:, None]
    return sums


def _add_rect_coverage(coverage: np.ndarray, grid: Grid, rect: Rect) -> None:
    """Add one rectangle's exact per-pixel area fraction (separable)."""
    p = grid.pixel_nm
    # Fractional pixel interval covered by the rect on each axis.
    x_lo = (rect.x1 - grid.x0) / p
    x_hi = (rect.x2 - grid.x0) / p
    y_lo = (rect.y1 - grid.y0) / p
    y_hi = (rect.y2 - grid.y0) / p
    ix_lo = max(0, int(np.floor(x_lo)))
    ix_hi = min(grid.nx, int(np.ceil(x_hi)))
    iy_lo = max(0, int(np.floor(y_lo)))
    iy_hi = min(grid.ny, int(np.ceil(y_hi)))
    if ix_lo >= ix_hi or iy_lo >= iy_hi:
        return
    xs = np.arange(ix_lo, ix_hi)
    ys = np.arange(iy_lo, iy_hi)
    cov_x = np.clip(np.minimum(x_hi, xs + 1) - np.maximum(x_lo, xs), 0.0, 1.0)
    cov_y = np.clip(np.minimum(y_hi, ys + 1) - np.maximum(y_lo, ys), 0.0, 1.0)
    coverage[iy_lo:iy_hi, ix_lo:ix_hi] += np.outer(cov_y, cov_x)
