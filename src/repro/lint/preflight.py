"""Fail-fast preflight: the lint engine wired in front of the flows.

``tapeout_region`` / ``correct_region`` call these before touching the
simulator.  Errors raise :class:`~repro.errors.PreflightError` carrying
the full report, so a bad job dies in milliseconds instead of burning a
worker pool -- the production posture the paper's late-surprise problem
demands.
"""

from __future__ import annotations

from typing import Optional

from ..errors import PreflightError
from ..geometry import Region
from ..layout import Cell
from ..litho import LithoConfig
from .diagnostics import LintReport
from .engine import LintContext, run_lint


def preflight_tapeout(
    drawn: Region,
    recipe,
    litho: Optional[LithoConfig] = None,
    cell: Optional[Cell] = None,
) -> LintReport:
    """Statically lint a tapeout job; raise on any error-severity finding.

    ``recipe`` is a :class:`~repro.flow.TapeoutRecipe` (duck-typed).
    Returns the report (which may still hold warnings/info) when the job
    is viable.
    """
    context = LintContext.for_tapeout(
        recipe, litho=litho, layout=drawn, cell=cell
    )
    return gate(run_lint(context), stage="tapeout")


def preflight_correction(
    target: Region,
    level: str,
    litho: Optional[LithoConfig] = None,
    model_recipe=None,
    tiling=None,
    parallel=None,
    sraf_recipe=None,
    dark_field: bool = False,
) -> LintReport:
    """Statically lint a direct correction job; raise on errors."""
    context = LintContext(
        layout=target,
        litho=litho,
        level=level,
        model_recipe=model_recipe,
        tiling=tiling,
        parallel=parallel,
        sraf_recipe=sraf_recipe,
        dark_field=dark_field,
    )
    return gate(run_lint(context), stage="correct")


def gate(report: LintReport, stage: str = "preflight") -> LintReport:
    """Raise :class:`PreflightError` when ``report`` holds errors."""
    if report.has_errors:
        listed = report.errors[:3]
        heads = "; ".join(str(d) for d in listed)
        more = report.error_count - sum(d.count for d in listed)
        if more:
            heads += f"; and {more} more"
        raise PreflightError(
            f"{stage} preflight found {report.error_count} blocking "
            f"problem(s): {heads}",
            diagnostics=report.diagnostics,
        )
    return report
