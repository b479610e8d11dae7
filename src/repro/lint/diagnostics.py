"""Diagnostic value types of the static preflight engine.

A :class:`Diagnostic` is one finding: a stable rule code (``LNT101``),
a severity, a human message with an optional fix hint, and -- for layout
findings -- the offending location and owning cell.  A :class:`LintReport`
is an ordered collection with the aggregation the flows and the CLI need:
error gating, per-code grouping, and the compact summary dict persisted
into the run ledger.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Any, Dict, Iterator, List, Optional, Sequence

from ..geometry import Rect


class Severity(Enum):
    """How bad one finding is (orders worst-first)."""

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        return _SEVERITY_RANK[self]

    @property
    def sarif_level(self) -> str:
        """The SARIF 2.1.0 ``level`` string of this severity."""
        return "note" if self is Severity.INFO else self.value


_SEVERITY_RANK = {Severity.ERROR: 0, Severity.WARNING: 1, Severity.INFO: 2}


@dataclass(frozen=True)
class Diagnostic:
    """One static finding."""

    code: str
    severity: Severity
    message: str
    hint: Optional[str] = None
    #: Layout location of the finding, when it has one.
    location: Optional[Rect] = None
    #: Owning cell of ``location``, when a hierarchy was available.
    cell: Optional[str] = None
    #: Findings this diagnostic stands for: more than 1 on the summary line
    #: ("... and N more") that closes a rule's capped location list.
    count: int = 1

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "code": self.code,
            "severity": self.severity.value,
            "message": self.message,
        }
        if self.count != 1:
            data["count"] = self.count
        if self.hint is not None:
            data["hint"] = self.hint
        if self.location is not None:
            data["location"] = [
                self.location.x1, self.location.y1,
                self.location.x2, self.location.y2,
            ]
        if self.cell is not None:
            data["cell"] = self.cell
        return data

    def __str__(self) -> str:
        where = ""
        if self.location is not None:
            where = f" at {tuple(self.location)}"
            if self.cell:
                where += f" in {self.cell!r}"
        line = f"{self.code} {self.severity.value}:{where} {self.message}"
        if self.hint:
            line += f" (hint: {self.hint})"
        return line


class LintReport:
    """Ordered diagnostics plus the aggregations preflight gates on."""

    def __init__(self, diagnostics: Sequence[Diagnostic] = ()):
        self.diagnostics: List[Diagnostic] = sorted(
            diagnostics, key=lambda d: (d.severity.rank, d.code)
        )

    def __iter__(self) -> Iterator[Diagnostic]:
        return iter(self.diagnostics)

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __repr__(self) -> str:
        return (
            f"LintReport({self.error_count} errors, "
            f"{self.warning_count} warnings, {self.info_count} info)"
        )

    def of_severity(self, severity: Severity) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.severity is severity]

    @property
    def errors(self) -> List[Diagnostic]:
        return self.of_severity(Severity.ERROR)

    @property
    def warnings(self) -> List[Diagnostic]:
        return self.of_severity(Severity.WARNING)

    # Counts are of findings: a "... and N more" line counts N.
    @property
    def error_count(self) -> int:
        return sum(d.count for d in self.errors)

    @property
    def warning_count(self) -> int:
        return sum(d.count for d in self.warnings)

    @property
    def info_count(self) -> int:
        return sum(d.count for d in self.of_severity(Severity.INFO))

    @property
    def has_errors(self) -> bool:
        return self.error_count > 0

    @property
    def is_clean(self) -> bool:
        """True when nothing at all fired (not even info)."""
        return not self.diagnostics

    def codes(self) -> List[str]:
        """Distinct rule codes that fired, sorted."""
        return sorted({d.code for d in self.diagnostics})

    def by_code(self, code: str) -> List[Diagnostic]:
        return [d for d in self.diagnostics if d.code == code]

    def summary_dict(self) -> Dict[str, Any]:
        """The compact summary persisted into a run record (schema 1.2)."""
        return {
            "ok": not self.has_errors,
            "errors": self.error_count,
            "warnings": self.warning_count,
            "info": self.info_count,
            "codes": self.codes(),
        }
