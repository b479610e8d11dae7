"""Mask-layer lint rules (MRC1xx): postflight checks on corrected masks.

The preflight rules (LNT0xx-LNT4xx) ask whether a job *should* run; the
MRC family asks whether the mask that came out of it can be *written*.
The verdict is the edge-based engine's :class:`~repro.verify.mrc.MRCReport`;
one per-rule renderer turns its markers into lint diagnostics, for
:func:`mrc_lint_report` and for each registered rule alike, so the
text/JSON/SARIF emitters, the severity model, and the rules catalog are
reused verbatim -- a SARIF viewer sees ``MRC102`` next to ``LNT201``
with no special casing.

Rules require ``ctx.mask`` (corrected mask-side geometry); ``ctx.mrc``
supplies the limits (library defaults otherwise).  The engine runs once
per context and is cached, exactly like ``ctx.merged_layout()``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..verify.mrc import (
    MRC_RULE_CATALOG,
    MRCReport,
    MRCRules,
    MRCViolation,
    check_mask_region,
)
from .diagnostics import Diagnostic, LintReport, Severity
from .engine import LintContext, rule
from .rules_layout import MAX_LOCATIONS

#: The registered mask-rule codes, in catalog (and severity-stable) order.
MRC_CODES = tuple(sorted(MRC_RULE_CATALOG))

_SEVERITIES = {
    "error": Severity.ERROR,
    "warning": Severity.WARNING,
    "info": Severity.INFO,
}

_HINTS = {
    "MRC101": "run repair_mask or relax aggressive OPC moves here",
    "MRC102": "run repair_mask or increase the correction's space clamp",
    "MRC103": "drop the figure or merge it into adjacent geometry",
    "MRC104": "raise the smoothing tolerance to absorb the jog sliver",
    "MRC105": "fill the notch or loosen fragmentation near this edge",
    "MRC106": "pull one corner back to open the diagonal gap",
}


def mask_report(ctx: LintContext) -> MRCReport:
    """The engine sweep of ``ctx.mask`` (one run per context, cached)."""
    cached = getattr(ctx, "_mrc_report", None)
    if cached is None:
        cached = check_mask_region(
            ctx.mask, ctx.mrc or MRCRules(), cell=ctx.cell, with_stats=False
        )
        ctx._mrc_report = cached
    return cached


def violation_diagnostic(violation: MRCViolation) -> Diagnostic:
    """One engine marker as a lint diagnostic."""
    return Diagnostic(
        code=violation.rule_id,
        severity=_SEVERITIES[violation.severity],
        message=violation.message(),
        hint=_HINTS.get(violation.rule_id),
        location=violation.marker,
        cell=violation.cell,
    )


def _rule_diagnostics(
    report: MRCReport, code: str, max_locations: Optional[int] = MAX_LOCATIONS
) -> Iterator[Diagnostic]:
    """Rule ``code``'s markers of ``report`` as lint diagnostics.

    Markers beyond ``max_locations`` collapse into one summary
    diagnostic (same overflow idiom as the layout rules); pass ``None``
    to keep every marker.
    """
    found = [v for v in report.violations if v.rule_id == code]
    cap = len(found) if max_locations is None else max_locations
    for violation in found[:cap]:
        yield violation_diagnostic(violation)
    overflow = len(found) - cap
    if overflow > 0:
        kind, severity, _desc = MRC_RULE_CATALOG[code]
        yield Diagnostic(
            code=code,
            severity=_SEVERITIES[severity],
            message=f"... and {overflow} more {kind} violation(s)",
            hint=_HINTS.get(code),
            count=overflow,
        )


def mrc_lint_report(
    report: MRCReport, max_locations: Optional[int] = MAX_LOCATIONS
) -> LintReport:
    """An engine report rendered through the lint diagnostics model, rule by rule."""
    return LintReport(
        [d for code in MRC_CODES for d in _rule_diagnostics(report, code, max_locations)]
    )


def _register(code: str) -> None:
    kind, _severity, description = MRC_RULE_CATALOG[code]

    @rule(code, kind, description, requires=("mask",))
    def check(ctx: LintContext, _code: str = code) -> Iterator[Diagnostic]:
        return _rule_diagnostics(mask_report(ctx), _code)


for _code in MRC_CODES:
    _register(_code)
