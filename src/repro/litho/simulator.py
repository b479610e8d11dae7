"""The lithography-simulation facade tying optics, mask, resist together.

:class:`LithoSimulator` owns the engine caches and the guard-band (ambit)
bookkeeping: every simulation silently pads the requested window so FFT
wrap-around cannot contaminate the region of interest, and grid sizes are
rounded up so repeated simulations share SOCS kernel caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..errors import LithoError
from ..geometry import Rect, Region
from ..obs import count as _obs_count, observe as _obs_observe
from .contour import (
    Sites,
    cutline_cd,
    edge_offsets_batch,
    printed_region,
)
from .imaging import SOCSEngine
from .kernel_cache import KernelStore
from .masks import MaskSpec
from .optics import OpticalSettings
from .pupil import Aberrations
from .raster import Grid
from .resist import ThresholdResist

#: Histogram buckets for the larger simulation-grid dimension (pixels).
GRID_PX_BUCKETS = (64.0, 128.0, 192.0, 256.0, 384.0, 512.0, 768.0,
                   1024.0, 1536.0, 2048.0)


@dataclass(frozen=True)
class LithoConfig:
    """Everything needed to turn a mask into printed shapes: every image,
    whatever the window's size, is a SOCS image of ``max_kernels`` kernels
    at most, on a grid padded by ``ambit_nm`` (whole dbu)."""

    optics: OpticalSettings
    resist: ThresholdResist = field(default_factory=ThresholdResist)
    pixel_nm: float = 8.0
    ambit_nm: int = 600
    aberrations: Aberrations = field(default_factory=Aberrations)
    max_kernels: int = 24

    def __post_init__(self) -> None:
        if not (math.isfinite(self.pixel_nm) and self.pixel_nm > 0):
            raise LithoError(
                f"pixel size must be finite and positive, got {self.pixel_nm}"
            )
        if not (isinstance(self.ambit_nm, (int, np.integer)) and self.ambit_nm >= 0):
            raise LithoError(f"ambit must be whole dbu >= 0, got {self.ambit_nm!r}")
        if not (isinstance(self.max_kernels, (int, np.integer)) and self.max_kernels >= 1):
            raise LithoError(
                f"max_kernels must be an integer >= 1, got {self.max_kernels!r}"
            )

    def with_resist(self, resist: ThresholdResist) -> "LithoConfig":
        """A copy with a different resist model."""
        return replace(self, resist=resist)


class LithoSimulator:
    """Cached aerial-image and printed-shape simulation over layout windows."""

    #: Grid dimensions are rounded up to a multiple of this so repeated
    #: simulations of similar windows can share SOCS kernel caches.
    GRID_QUANTUM = 32

    def __init__(self, config: LithoConfig):
        self.config = config
        # The persistent kernel store comes from the environment
        # (``REPRO_KERNEL_CACHE=0`` turns it off), which pool workers
        # inherit along with everything else.
        self._socs = SOCSEngine(
            config.optics,
            aberrations=config.aberrations,
            max_kernels=config.max_kernels,
            kernel_store=KernelStore.from_env(),
        )

    @property
    def kernel_store(self) -> Optional[KernelStore]:
        """The persistent kernel store in use, or ``None`` when disabled."""
        return self._socs.kernel_store

    def warm_kernels(self, windows, defocus_nm: float = 0.0) -> int:
        """Build (or load) SOCS kernels for every distinct grid of ``windows``.

        Tiled OPC calls this in the parent before fanning jobs out to a
        worker pool: with a persistent kernel store attached, one build
        here turns every worker's first simulation into an mmap load
        instead of a kernel build of its own.  Returns the number of distinct
        kernel sets ensured (grids quantise, so a whole tile grid usually
        collapses to one or two shapes).
        """
        seen = set()
        for window in windows:
            grid = self.grid_for(window)
            key = (grid.ny, grid.nx)
            if key in seen:
                continue
            seen.add(key)
            self._socs.kernel_set(grid, float(defocus_nm))
        return len(seen)

    # -- core simulation ------------------------------------------------------

    def grid_for(self, window: Rect) -> Grid:
        """The padded, quantised simulation grid for a layout window."""
        padded = window.expanded(self.config.ambit_nm)
        nx = self._quantise(padded.width / self.config.pixel_nm)
        ny = self._quantise(padded.height / self.config.pixel_nm)
        return Grid(padded.x1, padded.y1, self.config.pixel_nm, nx, ny)

    def aerial_image(
        self, mask: MaskSpec, window: Rect, defocus_nm: float = 0.0
    ) -> Tuple[Grid, np.ndarray]:
        """Aerial-image intensity over ``window`` (plus guard band).

        The returned grid covers the padded window; use layout coordinates
        with :meth:`Grid.sample` rather than array indices.
        """
        grid = self.grid_for(window)
        return grid, self._image(mask, grid, defocus_nm, latent=False)

    def _image(
        self, mask: MaskSpec, grid: Grid, defocus_nm: float, latent: bool
    ) -> np.ndarray:
        """The SOCS image on ``grid``, resist-blurred on its band when ``latent``."""
        _obs_count("sim.aerial_calls")
        _obs_observe(
            "sim.grid_px", float(max(grid.nx, grid.ny)), GRID_PX_BUCKETS
        )
        blur = self.config.resist.transfer(grid) if latent else None
        return self._socs.image(mask, grid, defocus_nm, blur=blur)

    def latent_image(
        self, mask: MaskSpec, window: Rect, defocus_nm: float = 0.0
    ) -> Tuple[Grid, np.ndarray]:
        """The resist-diffused aerial image (what the threshold sees).

        The diffusion blur is circular on the padded grid, so it differs
        from an edge-clamped blur only within its kernel radius of the
        grid edge.  That ring lies in the ambit when ``ambit_nm`` is at
        least the radius in nm (80 nm for 20 nm diffusion on 8 nm
        pixels).  At ``ambit_nm=0`` the grid starts at the window's lower
        left corner, so the ring reaches into the window there, where the
        periodic imaging already mixes in the opposite edge.
        """
        grid = self.grid_for(window)
        return grid, self._image(mask, grid, defocus_nm, latent=True)

    def double_exposure_latent(
        self,
        exposures: Sequence[Tuple[MaskSpec, float]],
        window: Rect,
        defocus_nm: float = 0.0,
    ) -> Tuple[Grid, np.ndarray]:
        """Accumulated latent image of several exposures of one resist coat.

        Resist chemistry integrates dose incoherently across exposures, so
        the latent images add weighted by each exposure's relative dose --
        the mechanism behind alternating-PSM + trim double exposure.
        """
        if not exposures:
            raise LithoError("need at least one exposure")
        grid: Optional[Grid] = None
        total: Optional[np.ndarray] = None
        for mask, dose in exposures:
            if not (math.isfinite(dose) and dose > 0):
                raise LithoError(f"exposure dose must be finite and positive, got {dose}")
            exposure_grid, latent = self.latent_image(mask, window, defocus_nm)
            if grid is None:
                grid, total = exposure_grid, dose * latent
            else:
                total = total + dose * latent
        assert grid is not None and total is not None
        return grid, total

    def printed_double_exposure(
        self,
        exposures: Sequence[Tuple[MaskSpec, float]],
        window: Rect,
        defocus_nm: float = 0.0,
    ) -> Region:
        """Printed (remaining-resist) shapes after a multi-exposure pass."""
        grid, latent = self.double_exposure_latent(exposures, window, defocus_nm)
        threshold = self.config.resist.threshold
        develop = latent >= threshold
        remains = ~develop if self.config.resist.positive else develop
        return printed_region(remains, grid) & Region(window)

    def printed(
        self,
        mask: MaskSpec,
        window: Rect,
        defocus_nm: float = 0.0,
        dose: float = 1.0,
        clear_features: bool = False,
    ) -> Region:
        """Printed feature shapes clipped to ``window``.

        By default features are remaining resist (lines under chrome in
        positive resist).  ``clear_features=True`` returns the developed
        openings instead -- the printed feature for contact/via layers on
        dark-field masks.
        """
        grid, latent = self.latent_image(mask, window, defocus_nm)
        return self.printed_from_latent(
            grid, latent, window, dose=dose, clear_features=clear_features
        )

    def printed_from_latent(
        self,
        grid: Grid,
        latent: np.ndarray,
        window: Rect,
        dose: float = 1.0,
        clear_features: bool = False,
    ) -> Region:
        """:meth:`printed` of a latent image :meth:`latent_image` returned.

        Dose only moves the develop threshold, so one latent image serves
        every dose and every measurement of the same mask and focus.
        """
        threshold = self.config.resist.effective_threshold(dose)
        if self.config.resist.positive:
            develop = latent < threshold
        else:
            develop = latent >= threshold
        if clear_features:
            develop = ~develop
        return printed_region(develop, grid) & Region(window)

    # -- measurements -----------------------------------------------------------

    def cd(
        self,
        mask: MaskSpec,
        window: Rect,
        center: Tuple[float, float],
        axis: str = "x",
        bright_feature: bool = False,
        defocus_nm: float = 0.0,
        dose: float = 1.0,
        max_width_nm: float = 1500.0,
    ) -> Optional[float]:
        """Printed CD through ``center`` along ``axis`` (sub-pixel)."""
        grid, latent = self.latent_image(mask, window, defocus_nm)
        return cutline_cd(
            latent,
            grid,
            center,
            axis,
            self.config.resist.effective_threshold(dose),
            bright_feature=bright_feature,
            max_width_nm=max_width_nm,
        )

    def edge_placement_errors(
        self,
        mask: MaskSpec,
        window: Rect,
        sites: Sites,
        defocus_nm: float = 0.0,
        dose: float = 1.0,
        search_nm: float = 80.0,
    ) -> List[Optional[float]]:
        """EPE at each ``(anchor, outward_normal)`` site, in nm.

        Positive EPE means the printed edge lies outside the target edge.
        ``None`` marks sites where no edge was found within the search span
        (catastrophic failure: missing or bridged feature).
        """
        return [
            value
            for value, _state in self.edge_placement_errors_with_state(
                mask, window, sites, defocus_nm=defocus_nm, dose=dose,
                search_nm=search_nm,
            )
        ]

    def edge_placement_errors_with_state(
        self,
        mask: MaskSpec,
        window: Rect,
        sites: Sites,
        defocus_nm: float = 0.0,
        dose: float = 1.0,
        search_nm: float = 80.0,
    ) -> List[Tuple[Optional[float], str]]:
        """EPE plus a failure state per site.

        The state is ``"found"``, or -- when no edge crossed inside the
        search span -- ``"dark"`` (all resist: bridged space) or
        ``"bright"`` (all clear: vanished feature), which tells a caller
        which way to push the mask.
        """
        grid, latent = self.latent_image(mask, window, defocus_nm)
        threshold = self.config.resist.effective_threshold(dose)
        return edge_offsets_batch(
            latent, grid, sites, threshold, search_nm=search_nm
        )

    def focus_exposure_matrix(
        self,
        mask: MaskSpec,
        window: Rect,
        center: Tuple[float, float],
        focuses_nm: Sequence[float],
        doses: Sequence[float],
        axis: str = "x",
        bright_feature: bool = False,
        max_width_nm: float = 1500.0,
    ):
        """CD over a focus x dose matrix, one aerial image per focus.

        Dose only rescales the develop threshold, so each focus needs a
        single simulation -- an order of magnitude faster than calling
        :meth:`cd` per matrix point.
        """
        from .process_window import FocusExposureMatrix
        import numpy as np

        cd = np.full((len(focuses_nm), len(doses)), np.nan)
        for i, focus in enumerate(focuses_nm):
            grid, latent = self.latent_image(mask, window, focus)
            for j, dose in enumerate(doses):
                value = cutline_cd(
                    latent,
                    grid,
                    center,
                    axis,
                    self.config.resist.effective_threshold(dose),
                    bright_feature=bright_feature,
                    max_width_nm=max_width_nm,
                )
                if value is not None:
                    cd[i, j] = value
        return FocusExposureMatrix(tuple(focuses_nm), tuple(doses), cd)

    def dose_to_size(
        self,
        mask: MaskSpec,
        window: Rect,
        center: Tuple[float, float],
        target_cd: float,
        axis: str = "x",
        bright_feature: bool = False,
        dose_range: Tuple[float, float] = (0.4, 3.0),
        tolerance_nm: float = 0.05,
        max_iterations: int = 50,
    ) -> float:
        """The relative dose at which the anchor feature prints to size.

        Bisects on the monotonic CD(dose) relation; this is how a process is
        anchored before measuring anything else ("dose to size on the dense
        line").  Raises :class:`LithoError` when ``dose_range`` is not
        ``0 < lo < hi`` or the target is unreachable inside it.
        """
        lo, hi = dose_range
        if not 0 < lo < hi < math.inf:
            raise LithoError(
                f"dose range must be finite with 0 < lo < hi, got {dose_range}"
            )
        grid, latent = self.latent_image(mask, window)

        def cd_at(dose: float) -> Optional[float]:
            return cutline_cd(
                latent,
                grid,
                center,
                axis,
                self.config.resist.effective_threshold(dose),
                bright_feature=bright_feature,
            )

        # Walk the endpoints inward past doses where the feature fails to
        # resolve at all (threshold outside the image's dynamic range).
        probes = 16
        step = (hi - lo) / probes
        cd_lo = cd_at(lo)
        while cd_lo is None and lo + step < hi:
            lo += step
            cd_lo = cd_at(lo)
        cd_hi = cd_at(hi)
        while cd_hi is None and hi - step > lo:
            hi -= step
            cd_hi = cd_at(hi)
        if cd_lo is None or cd_hi is None:
            raise LithoError("anchor feature fails to print inside the dose range")
        # Dark features shrink with dose; bright features grow.
        if not min(cd_lo, cd_hi) <= target_cd <= max(cd_lo, cd_hi):
            raise LithoError(
                f"target CD {target_cd} outside printable range "
                f"[{min(cd_lo, cd_hi):.1f}, {max(cd_lo, cd_hi):.1f}]"
            )
        for _ in range(max_iterations):
            mid = 0.5 * (lo + hi)
            cd_mid = cd_at(mid)
            if cd_mid is None:
                hi = mid
                continue
            if abs(cd_mid - target_cd) <= tolerance_nm:
                return mid
            # Move the bound whose CD lies on the same side as mid's.
            if (cd_mid > target_cd) == (cd_lo > target_cd):
                lo, cd_lo = mid, cd_mid
            else:
                hi, cd_hi = mid, cd_mid
        return 0.5 * (lo + hi)

    # -- internals ------------------------------------------------------------------

    def _quantise(self, pixels: float) -> int:
        q = self.GRID_QUANTUM
        return max(2 * q, int(np.ceil(pixels / q)) * q)
