"""Mask rule checks (MRC): can the mask shop actually write this?

.. deprecated::
    This module is a thin back-compat shim.  The rule definitions
    (:class:`MRCRules`) and the full localized static-analysis engine
    now live in :mod:`repro.verify.mrc`; new code should call
    :func:`repro.verify.mrc.check_mask_region`, which reports *where*
    each violation is (rule id, rect marker, measured vs. limit) instead
    of the count-only summary returned here.

The shim keeps the original morphological API alive because it is the
right tool for one job that the edge engine is not: :func:`repair_mask`
needs violation *regions* (to fill or trim), not point markers.  The
repair loop therefore still runs on openings/closings; its
post-condition is checked by the edge engine when the caller asks for
it (``strict=True`` or :func:`repair_mask_residuals`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..errors import OPCError
from ..geometry import Polygon, Region

# Canonical rule definitions live with the engine; re-exported here so
# `from repro.opc import MRCRules` keeps working.
from ..verify.mrc import MRCRules, MRCViolation, check_mask_region

__all__ = ["MRCRules", "MRCReport", "check_mask", "repair_mask"]


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


def repair_mask(
    mask_geometry: Region,
    rules: Optional[MRCRules] = None,
    max_passes: int = 3,
    strict: bool = False,
) -> Region:
    """Make a mask MRC-clean with minimal, bounded edits.

    Sub-minimum spaces are filled (the sliver of gap becomes chrome) and
    sub-minimum widths trimmed (the sliver of chrome is removed) -- each
    edit displaces geometry by less than the corresponding MRC limit, the
    standard automated fix-up between OPC and fracture.  Passes repeat
    because a fill can create a new narrow neck nearby.

    With ``strict=True`` the post-condition is verified by the
    edge-based engine (:func:`repro.verify.mrc.check_mask_region`) and
    residual blocking violations raise :class:`OPCError`; otherwise the
    repaired geometry is returned unchecked, possibly still dirty (use
    :func:`repair_mask_residuals` to obtain the leftovers).
    """
    if not strict:
        return _repair_passes(mask_geometry, rules, max_passes)
    repaired, residual = repair_mask_residuals(
        mask_geometry, rules, max_passes
    )
    if residual:
        heads = "; ".join(
            f"{v.rule_id} at {tuple(v.marker)}" for v in residual[:3]
        )
        more = f" and {len(residual) - 3} more" if len(residual) > 3 else ""
        raise OPCError(
            f"repair_mask left {len(residual)} blocking violation(s) "
            f"after {max_passes} pass(es): {heads}{more}"
        )
    return repaired


def repair_mask_residuals(
    mask_geometry: Region,
    rules: Optional[MRCRules] = None,
    max_passes: int = 3,
) -> Tuple[Region, List[MRCViolation]]:
    """:func:`repair_mask` plus the violations repair could not fix.

    The residual list holds blocking (ERROR severity) markers from the
    edge engine; an empty list is the machine-checked post-condition
    that the repair converged.
    """
    current = _repair_passes(mask_geometry, rules, max_passes)
    residual = [
        violation
        for violation in check_mask_region(
            current, rules, with_stats=False
        ).violations
        if violation.severity == "error"
    ]
    return current, residual


def _repair_passes(
    mask_geometry: Region, rules: Optional[MRCRules], max_passes: int
) -> Region:
    """The fill/trim passes of :func:`repair_mask`, without a final check."""
    rules = (MRCRules() if rules is None else rules).validated()
    current = mask_geometry.merged()
    for _pass in range(max_passes):
        report = check_mask(current, rules)
        if report.is_clean:
            break
        if not report.space_violations.is_empty:
            current = (current | report.space_violations).merged()
        if not report.width_violations.is_empty:
            current = (current - report.width_violations).merged()
    return current


def _drop_dust(region: Region, min_area_nm2: int = 4) -> Region:
    """Discard sub-grid artifacts of the morphological difference."""
    keep: List[Polygon] = []
    merged = region.merged()
    for poly in merged.polygons():
        if poly.is_ccw and poly.area >= min_area_nm2:
            keep.append(poly)
    return Region(keep).merged() if keep else Region()
