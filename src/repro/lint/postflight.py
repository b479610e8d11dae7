"""Postflight: the MRC engine wired behind the flows, before export.

The mirror image of :mod:`repro.lint.preflight`: where preflight rejects
jobs that should never run, postflight rejects *outputs* that should
never ship.  ``correct_region`` / ``tapeout_region`` run it on the
corrected mask before any GDS leaves the process.  The verdict is one
:class:`~repro.verify.mrc.MRCReport` -- every marker plus the
shot/vertex/figure estimate -- and :func:`gate_postflight` counts its
blocking defects and raises :class:`~repro.errors.PostflightError`
carrying the lint rendering of them, so a mask the shop would bounce
dies here instead of at the mask house.  When the shipped mask is the
one the MRC repair returned, its last repair sweep already is that
check, and :func:`postflight_sweep` prices it without sweeping again.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional

from ..errors import PostflightError
from ..geometry import Region
from ..layout import Cell
from ..mask import MaskDataStats, mask_data_stats
from ..verify.mrc import MRCReport, MRCRules, _attribute, check_mask_region
from .rules_mask import mrc_lint_report


def postflight_mask(
    mask_geometry: Region,
    rules: Optional[MRCRules] = None,
    cell: Optional[Cell] = None,
) -> MRCReport:
    """Statically check a corrected mask against the MRC rule family.

    One engine sweep and one :func:`~repro.mask.mask_data_stats` of the
    mask, combined by :func:`postflight_sweep`: the result equals
    ``check_mask_region(mask_geometry, rules, cell=cell)``.  Gating is
    the caller's choice via :func:`gate_postflight`.
    """
    sweep = check_mask_region(mask_geometry, rules, with_stats=False)
    return postflight_sweep(sweep, mask_data_stats(mask_geometry), cell)


def postflight_sweep(
    sweep: MRCReport, stats: MaskDataStats, cell: Optional[Cell] = None
) -> MRCReport:
    """The postflight verdict of a sweep already made of the shipped mask.

    ``sweep`` is a ``with_stats=False`` :func:`check_mask_region` report of
    the shipped mask -- the last sweep of
    :func:`~repro.verify.mrc.repair_mask_region`, say -- and ``stats`` that
    mask's :func:`~repro.mask.mask_data_stats`.  The verdict is the sweep
    with its markers attributed to ``cell`` and the fracture estimate
    from ``stats``.
    """
    return replace(
        sweep,
        violations=_attribute(sweep.violations, cell),
        shot_count=stats.shots,
        vertex_count=stats.vertices,
        figure_count=stats.figures,
    )


def gate_postflight(mrc: MRCReport, stage: str = "tapeout") -> MRCReport:
    """Raise :class:`PostflightError` when ``mrc`` has blocking defects.

    Every blocking marker counts; the message names the first three, and
    the error carries the :func:`~repro.lint.mrc_lint_report` rendering.
    """
    if mrc.has_errors:
        report = mrc_lint_report(mrc)
        heads = "; ".join(str(d) for d in report.errors[:3])
        more = mrc.error_count - 3
        if more > 0:
            heads += f"; and {more} more"
        raise PostflightError(
            f"{stage} postflight found {mrc.error_count} blocking "
            f"mask defect(s): {heads}",
            diagnostics=report.diagnostics,
        )
    return mrc
