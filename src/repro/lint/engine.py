"""The lint engine: rule registry, analysis context, and the runner.

Rules are small functions registered with the :func:`rule` decorator.
Each declares the context inputs it ``requires``; :func:`run_lint` skips
any rule whose inputs are absent, so the same rule set serves a
config-only check (no layout), a layout-only check (no recipe), and the
full tapeout preflight.

Nothing in this package runs the simulator -- every rule is pure
geometry, graph, or arithmetic work, which is what makes the preflight
cheap enough to run before every expensive correction job.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..analysis import PitchRestriction
from ..errors import ReproError
from ..geometry import Coord, Region
from ..layout import Cell
from ..litho import LithoConfig
from ..opc import (
    MRCRules,
    ModelOPCRecipe,
    PSMRecipe,
    ParallelSpec,
    RetargetRules,
    SRAFRecipe,
    TilingSpec,
)
from .diagnostics import Diagnostic, LintReport


@dataclass
class LintContext:
    """Everything a lint run may look at.  All inputs are optional.

    ``layout`` is the drawn geometry of one layer (the OPC target);
    ``raw_loops`` are vertex loops *before* any sanitisation, for the
    degeneracy rules (the :class:`~repro.geometry.Region` constructor
    silently strips degenerate loops, so they must be checked upstream).
    ``level`` is a correction-level string (``"none"``/``"rule"``/
    ``"model"``/``"model+sraf"``) rather than the flow enum so this
    package never imports :mod:`repro.flow` (which imports it back).
    """

    layout: Optional[Region] = None
    #: Corrected mask-side geometry for the postflight MRC rules (the
    #: MRC1xx family); ``layout`` stays the *drawn* target geometry.
    mask: Optional[Region] = None
    raw_loops: Optional[Sequence[Sequence[Coord]]] = None
    cell: Optional[Cell] = None
    litho: Optional[LithoConfig] = None
    level: Optional[str] = None
    mrc: Optional[MRCRules] = None
    model_recipe: Optional[ModelOPCRecipe] = None
    tiling: Optional[TilingSpec] = None
    parallel: Optional[ParallelSpec] = None
    sraf_recipe: Optional[SRAFRecipe] = None
    retarget_rules: Optional[RetargetRules] = None
    smooth_tolerance_nm: Optional[int] = None
    dark_field: bool = False
    #: Mask manufacturing grid; vertices must land on multiples of it.
    #: The library default of 1 dbu makes every integer layout legal.
    mask_grid_nm: int = 1
    #: Known forbidden-pitch ranges of the process, when calibrated.
    pitch_restrictions: Tuple[PitchRestriction, ...] = ()
    #: Enables the phase-conflict rule for alternating-PSM flows.
    psm_recipe: Optional[PSMRecipe] = None
    _merged: Optional[Region] = field(default=None, repr=False, compare=False)

    @classmethod
    def for_tapeout(
        cls,
        recipe,
        litho: Optional[LithoConfig] = None,
        layout: Optional[Region] = None,
        cell: Optional[Cell] = None,
        **overrides,
    ) -> "LintContext":
        """A context mirroring one :class:`~repro.flow.TapeoutRecipe`.

        ``recipe`` is duck-typed (attribute access only) so this module
        stays importable without :mod:`repro.flow`.
        """
        level = getattr(recipe, "level", None)
        ctx = cls(
            layout=layout,
            cell=cell,
            litho=litho,
            level=getattr(level, "value", level),
            mrc=getattr(recipe, "mrc", None),
            model_recipe=getattr(recipe, "model_recipe", None),
            tiling=getattr(recipe, "tiling", None),
            parallel=getattr(recipe, "parallel", None),
            retarget_rules=getattr(recipe, "retarget_rules", None),
            smooth_tolerance_nm=getattr(recipe, "smooth_tolerance_nm", None),
            dark_field=bool(getattr(recipe, "dark_field", False)),
        )
        for key, value in overrides.items():
            if not hasattr(ctx, key):
                raise ReproError(f"unknown lint context field {key!r}")
            setattr(ctx, key, value)
        return ctx

    def merged_layout(self) -> Optional[Region]:
        """The canonical layout (cached -- several rules need it)."""
        if self.layout is None:
            return None
        if self._merged is None:
            self._merged = self.layout.merged()
        return self._merged

    def has(self, name: str) -> bool:
        """Whether the named context input is present (non-``None``)."""
        value = getattr(self, name)
        if name == "pitch_restrictions":
            return bool(value)
        return value is not None


#: One registered rule: metadata plus the check function.
@dataclass(frozen=True)
class LintRule:
    code: str
    name: str
    description: str
    requires: Tuple[str, ...]
    func: Callable[[LintContext], Iterator[Diagnostic]]


_REGISTRY: Dict[str, LintRule] = {}


def rule(
    code: str, name: str, description: str, requires: Sequence[str] = ()
) -> Callable:
    """Register a generator of :class:`Diagnostic`\\ s as a lint rule."""

    def register(func: Callable[[LintContext], Iterator[Diagnostic]]):
        if code in _REGISTRY:
            raise ReproError(f"duplicate lint rule code {code}")
        _REGISTRY[code] = LintRule(
            code=code,
            name=name,
            description=description,
            requires=tuple(requires),
            func=func,
        )
        return func

    return register


def registered_rules() -> List[LintRule]:
    """Every registered rule, sorted by code (stable for emitters)."""
    return [_REGISTRY[code] for code in sorted(_REGISTRY)]


def get_rule(code: str) -> LintRule:
    try:
        return _REGISTRY[code]
    except KeyError:
        raise ReproError(f"unknown lint rule {code!r}") from None


def run_lint(
    context: LintContext, codes: Optional[Sequence[str]] = None
) -> LintReport:
    """Run every applicable rule over ``context``.

    ``codes`` restricts the run to an explicit rule subset.  Rules whose
    required inputs are missing are skipped silently -- a config-only
    check simply never sees the layout rules.
    """
    selected = (
        registered_rules()
        if codes is None
        else [get_rule(code) for code in codes]
    )
    diagnostics: List[Diagnostic] = []
    for lint_rule in selected:
        if not all(context.has(name) for name in lint_rule.requires):
            continue
        diagnostics.extend(lint_rule.func(context))
    return LintReport(diagnostics)
