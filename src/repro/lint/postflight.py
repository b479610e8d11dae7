"""Postflight: the MRC engine wired behind the flows, before export.

The mirror image of :mod:`repro.lint.preflight`: where preflight rejects
jobs that should never run, postflight rejects *outputs* that should
never ship.  ``correct_region`` / ``tapeout_region`` run it on the
corrected mask before any GDS leaves the process; blocking defects raise
:class:`~repro.errors.PostflightError` carrying the full diagnostic
report, so a mask the shop would bounce dies here instead of at the
mask house.  When the shipped mask is the one the MRC repair returned,
its last repair sweep already is that check, and
:func:`postflight_sweep` renders it without sweeping again.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

from ..errors import PostflightError
from ..geometry import Region
from ..layout import Cell
from ..mask import MaskDataStats
from ..verify.mrc import MRCReport, MRCRules, _attribute
from .diagnostics import LintReport
from .engine import LintContext, run_lint
from .rules_mask import MRC_CODES, mask_report, mrc_lint_report


@dataclass
class PostflightResult:
    """Both views of one postflight run.

    ``report`` is the lint-model rendering (feeds the gate and the
    text/JSON/SARIF emitters); ``mrc`` is the full engine report with
    every marker plus the shot/vertex/figure estimate (feeds the run
    ledger and the hotspot overlay).
    """

    report: LintReport
    mrc: MRCReport

    @property
    def ok(self) -> bool:
        return not self.report.has_errors


def postflight_mask(
    mask_geometry: Region,
    rules: Optional[MRCRules] = None,
    cell: Optional[Cell] = None,
    artifact: Optional[str] = None,
) -> PostflightResult:
    """Statically check a corrected mask against the MRC rule family.

    Runs the registered MRC1xx rules through the lint engine (one engine
    sweep, cached on the context) and returns both the lint report and
    the underlying :class:`~repro.verify.mrc.MRCReport`.  Gating is the
    caller's choice via :func:`gate_postflight`.
    """
    context = LintContext(
        mask=mask_geometry,
        mrc=rules,
        cell=cell,
        artifact=artifact,
    )
    report = run_lint(context, codes=MRC_CODES)
    return PostflightResult(report=report, mrc=mask_report(context))


def postflight_sweep(
    sweep: MRCReport, stats: MaskDataStats, cell: Optional[Cell] = None
) -> PostflightResult:
    """The postflight verdict of a sweep already made of the shipped mask.

    ``sweep`` is a ``with_stats=False`` :func:`check_mask_region` report of
    the shipped mask -- the last sweep of
    :func:`~repro.verify.mrc.repair_mask_region` -- and ``stats`` that
    mask's :func:`~repro.mask.mask_data_stats`.  The result equals
    ``postflight_mask(shipped, sweep.rules, cell)`` field for field: the
    markers attributed to ``cell``, the fracture estimate from ``stats``,
    and the same lint diagnostics.
    """
    mrc = replace(
        sweep,
        violations=_attribute(sweep.violations, cell),
        shot_count=stats.shots,
        vertex_count=stats.vertices,
        figure_count=stats.figures,
    )
    return PostflightResult(report=mrc_lint_report(mrc), mrc=mrc)


def gate_postflight(
    result: PostflightResult, stage: str = "tapeout"
) -> PostflightResult:
    """Raise :class:`PostflightError` when blocking defects were found."""
    report = result.report
    if report.has_errors:
        heads = "; ".join(str(d) for d in report.errors[:3])
        more = report.error_count - min(report.error_count, 3)
        if more:
            heads += f"; and {more} more"
        raise PostflightError(
            f"{stage} postflight found {report.error_count} blocking "
            f"mask defect(s): {heads}",
            diagnostics=report.diagnostics,
        )
    return result
