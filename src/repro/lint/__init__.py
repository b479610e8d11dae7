"""Static pre- and postflight diagnostics for OPC jobs (``repro.lint``).

Analyzes a layout plus its recipe/litho/parallel configuration *without
running the simulator* and emits structured diagnostics with stable rule
codes (``LNT1xx`` config, ``LNT2xx`` layout, ``LNT3xx`` pipeline,
``MRC1xx`` corrected-mask manufacturability), severities, layout
locations with owning cells, and fix hints.  Reports render as text,
JSON, or SARIF 2.1.0.

Entry points:

* :func:`run_lint` over a :class:`LintContext` -- the raw engine;
* :func:`preflight_tapeout` / :func:`preflight_correction` -- the
  fail-fast gates the flows call (raise
  :class:`~repro.errors.PreflightError` on error-severity findings);
* :func:`postflight_mask` / :func:`gate_postflight` -- the symmetric
  output gate on corrected masks (raise
  :class:`~repro.errors.PostflightError` before anything is exported);
  :func:`postflight_sweep` renders the same verdict from the MRC
  repair's last sweep when that repaired mask is what ships;
* ``repro check`` / ``repro mrc`` -- the CLI front ends.
"""

from .diagnostics import Diagnostic, LintReport, Severity
from .engine import LintContext, LintRule, get_rule, registered_rules, rule, run_lint
from .emit import sarif_log, to_json, to_sarif, to_text

# Importing the rule modules registers every built-in rule.
from . import rules_config  # noqa: E402,F401
from . import rules_layout  # noqa: E402,F401
from . import rules_pipeline  # noqa: E402,F401
from . import rules_mask  # noqa: E402,F401

from .preflight import gate, preflight_correction, preflight_tapeout
from .postflight import PostflightResult, gate_postflight, postflight_mask, postflight_sweep
from .rules_mask import MRC_CODES, mrc_lint_report

__all__ = [
    "Diagnostic",
    "LintContext",
    "LintReport",
    "LintRule",
    "MRC_CODES",
    "PostflightResult",
    "Severity",
    "gate",
    "gate_postflight",
    "get_rule",
    "mrc_lint_report",
    "postflight_mask",
    "postflight_sweep",
    "preflight_correction",
    "preflight_tapeout",
    "registered_rules",
    "rule",
    "run_lint",
    "sarif_log",
    "to_json",
    "to_sarif",
    "to_text",
]
