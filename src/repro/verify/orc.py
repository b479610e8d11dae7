"""Optical rule checking (ORC): post-OPC printability verification.

After correction, the mask is simulated and the printed shapes compared to
the drawn intent: residual EPE statistics, catastrophic pinching (intent
not covered by resist) and bridging (resist where none belongs), checked
at nominal conditions and optionally through process-window corners.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

from ..errors import VerificationError
from ..geometry import FragmentationSpec, Rect, Region
from ..litho import LithoSimulator, MaskSpec
from .epe import DEFAULT_EPE_FRAGMENTATION, EPESite, EPEStats, measure_epe_sites


@dataclass(frozen=True)
class ProcessCorner:
    """One (defocus, dose) verification condition."""

    defocus_nm: float = 0.0
    dose: float = 1.0
    name: str = "nominal"


@dataclass
class ORCReport:
    """Printability verdict at one process corner."""

    corner: ProcessCorner
    epe: EPEStats
    pinch_sites: Region
    bridge_sites: Region
    #: Per-site attributed measurements behind ``epe`` (same order the
    #: aggregate was computed from); spatial diagnostics rank and map these.
    sites: List[EPESite] = field(default_factory=list)

    @property
    def pinch_count(self) -> int:
        """Distinct spots where intent is not covered by resist."""
        return len(self.pinch_sites.outer_polygons())

    @property
    def bridge_count(self) -> int:
        """Distinct spots with resist outside the intent margin."""
        return len(self.bridge_sites.outer_polygons())

    @property
    def is_clean(self) -> bool:
        """No catastrophic failures (EPE quality is reported separately)."""
        return self.pinch_count == 0 and self.bridge_count == 0


def run_orc(
    simulator: LithoSimulator,
    mask: MaskSpec,
    target: Region,
    window: Rect,
    corner: ProcessCorner = ProcessCorner(),
    critical_margin_nm: int = 50,
    spec: FragmentationSpec = DEFAULT_EPE_FRAGMENTATION,
    min_defect_area: int = 400,
) -> ORCReport:
    """Verify the printed image of ``mask`` against ``target``.

    ``critical_margin_nm`` is the EPE excursion treated as catastrophic:
    pinching is intent shrunk by the margin yet uncovered; bridging is
    printed resist outside intent grown by the margin.  ``min_defect_area``
    suppresses sub-resolution boolean dust.
    """
    if critical_margin_nm <= 0:
        raise VerificationError("critical margin must be positive")
    target_in_window = target.merged() & Region(window)
    # One latent image serves the printed shapes and the EPE sites: both
    # develop it at the corner's dose.
    latent = simulator.latent_image(mask, window, corner.defocus_nm)
    printed = simulator.printed_from_latent(*latent, window, dose=corner.dose)
    epe_stats, epe_sites = measure_epe_sites(
        simulator,
        mask,
        target,
        window,
        dose=corner.dose,
        defocus_nm=corner.defocus_nm,
        spec=spec,
        latent=latent,
    )
    pinch = (target_in_window.sized(-critical_margin_nm) - printed).merged()
    bridge = (printed - target_in_window.sized(critical_margin_nm)).merged()
    return ORCReport(
        corner=corner,
        epe=epe_stats,
        pinch_sites=_filter_area(pinch, min_defect_area),
        bridge_sites=_filter_area(bridge, min_defect_area),
        sites=epe_sites,
    )


def orc_through_window(
    simulator: LithoSimulator,
    mask: MaskSpec,
    target: Region,
    window: Rect,
    corners: Sequence[ProcessCorner],
    critical_margin_nm: int = 50,
) -> List[ORCReport]:
    """Run ORC at several process corners; returns one report per corner."""
    if not corners:
        raise VerificationError("need at least one process corner")
    return [
        run_orc(simulator, mask, target, window, corner, critical_margin_nm)
        for corner in corners
    ]


def worst_corner(reports: Sequence[ORCReport]) -> ORCReport:
    """The report with the most catastrophic failures (ties: worst EPE)."""
    if not reports:
        raise VerificationError("no reports to rank")
    return max(
        reports,
        key=lambda r: (r.pinch_count + r.bridge_count, r.epe.max_abs_nm),
    )


def _filter_area(region: Region, min_area: int) -> Region:
    keep = [p for p in region.outer_polygons() if p.area >= min_area]
    return Region(keep).merged() if keep else Region()
