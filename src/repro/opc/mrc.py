"""Mask rule checks (MRC): can the mask shop actually write this?

.. deprecated::
    This module is a thin back-compat shim.  The rule definitions
    (:class:`MRCRules`), the localized engine and the repair all live in
    :mod:`repro.verify.mrc`; new code should call
    :func:`repro.verify.mrc.check_mask_region`, which reports *where*
    each violation is (rule id, rect marker, measured vs. limit) instead
    of the count-only summary returned here.

:func:`repair_mask` and :func:`repair_mask_residuals` are re-exported
from :mod:`repro.verify.mrc`, where each repair pass is one engine sweep
whose markers are filled or trimmed.  :func:`check_mask` keeps its
morphological semantics (an opening and a closing) as a public
count-only check; no flow calls it any more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..geometry import Polygon, Region

# Canonical rule definitions and the repair live with the engine;
# re-exported here so `from repro.opc import MRCRules, repair_mask` keeps
# working.
from ..verify.mrc import MRCRules, repair_mask, repair_mask_residuals

__all__ = [
    "MRCRules",
    "MRCReport",
    "check_mask",
    "repair_mask",
    "repair_mask_residuals",
]


@dataclass
class MRCReport:
    """Violation geometry found by :func:`check_mask` (count-only).

    Legacy shape -- see :class:`repro.verify.mrc.MRCReport` for the
    localized per-violation report.
    """

    width_violations: Region  # repro-lint: ignore[R002] -- geometry, not a length
    space_violations: Region  # repro-lint: ignore[R002] -- geometry, not a length

    @property
    def width_violation_count(self) -> int:
        """Number of distinct too-narrow spots."""
        return len(self.width_violations.outer_polygons())

    @property
    def space_violation_count(self) -> int:
        """Number of distinct too-tight gaps."""
        return len(self.space_violations.outer_polygons())

    @property
    def total(self) -> int:
        """All violations."""
        return self.width_violation_count + self.space_violation_count

    @property
    def is_clean(self) -> bool:
        """True when the mask passes MRC."""
        return self.total == 0


def check_mask(
    mask_geometry: Region, rules: Optional[MRCRules] = None
) -> MRCReport:
    """Run width/space MRC over mask-side geometry.

    Width violations are the parts of features that vanish under an
    opening by ``min_width / 2``; space violations are the gap regions that
    disappear under a closing by ``min_space / 2``.
    """
    from ..verify.drc import check_space, check_width

    rules = (MRCRules() if rules is None else rules).validated()
    merged = mask_geometry.merged()
    if merged.is_empty:
        return MRCReport(Region(), Region())
    return MRCReport(
        width_violations=_drop_dust(
            check_width(merged, rules.min_width_nm), rules.min_area_nm2
        ),
        space_violations=_drop_dust(
            check_space(merged, rules.min_space_nm), rules.min_area_nm2
        ),
    )


def _drop_dust(region: Region, min_area_nm2: int = 4) -> Region:
    """Discard sub-grid artifacts of the morphological difference."""
    keep: List[Polygon] = []
    merged = region.merged()
    for poly in merged.polygons():
        if poly.is_ccw and poly.area >= min_area_nm2:
            keep.append(poly)
    return Region(keep).merged() if keep else Region()
