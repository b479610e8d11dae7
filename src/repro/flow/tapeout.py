"""The one-call tape-out pipeline: drawn layer in, writable mask out.

Chains the production sequence -- retarget, correct (OPC, jog smoothing
and MRC repair, all in :func:`~repro.flow.correct.correct_region`) --
and verifies the result with ORC, returning everything a sign-off review
needs.  This is the function a downstream user adopting the library
calls first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import ReproError
from ..geometry import Rect, Region
from ..layout import Cell, Layer
from ..litho import LithoSimulator
from ..mask import MaskDataStats
from ..obs import current_span as _obs_current_span, span as _obs_span
from ..obs import publish_quality as _obs_publish_quality
from ..obs import events as _obs_events
from ..obs import prof as _obs_prof
from ..obs import runs as _obs_runs
from ..obs import spatial as _obs_spatial
from ..opc import (
    MRCRules,
    ModelOPCRecipe,
    ParallelSpec,
    RetargetRules,
    TilingSpec,
    retarget,
)
from ..lint import gate_postflight, preflight_tapeout
from ..verify import ORCReport, ProcessCorner, run_orc
from ..verify.mrc import MRCReport as MaskMRCReport
from .correct import CorrectionLevel, FlowResult, _postflight, correct_region


@dataclass(frozen=True)
class TapeoutRecipe:
    """Knobs of the standard pipeline (all optional stages on by default).

    Validation is eager: a recipe that cannot run raises
    :class:`~repro.errors.ReproError` at construction, naming the bad
    field, instead of failing deep inside a stage minutes later.
    """

    level: CorrectionLevel = CorrectionLevel.MODEL
    smooth_tolerance_nm: int = 4
    mrc: MRCRules = MRCRules(min_width_nm=40, min_space_nm=40)
    retarget_rules: Optional[RetargetRules] = None  # None = skip retargeting
    dark_field: bool = False
    orc_margin_nm: int = 50
    model_recipe: ModelOPCRecipe = ModelOPCRecipe()
    tiling: TilingSpec = TilingSpec()
    #: Fan correction tiles out over a worker pool (None = serial).
    parallel: Optional[ParallelSpec] = None

    def __post_init__(self):
        self.validated()

    def validated(self) -> "TapeoutRecipe":
        """Return self, raising :class:`ReproError` on nonsense values."""
        if not isinstance(self.level, CorrectionLevel):
            raise ReproError(
                f"level must be a CorrectionLevel, got {self.level!r}"
            )
        if self.smooth_tolerance_nm < 0:
            raise ReproError(
                f"smooth_tolerance_nm must be >= 0 (0 disables smoothing), "
                f"got {self.smooth_tolerance_nm}"
            )
        if self.orc_margin_nm < 0:
            raise ReproError(
                f"orc_margin_nm must be >= 0, got {self.orc_margin_nm}"
            )
        # Sub-specs carry their own validators; run them here so the
        # recipe as a whole is known-runnable the moment it exists.
        self.mrc.validated()
        self.model_recipe.validated()
        self.tiling.validated()
        if self.retarget_rules is not None:
            self.retarget_rules.validated()
        # ParallelSpec already validates eagerly in its own constructor.
        return self


@dataclass
class TapeoutResult:
    """Outcome of :func:`tapeout_region`."""

    recipe: TapeoutRecipe
    target: Region
    correction: FlowResult
    orc: Optional[ORCReport]
    #: Localized postflight MRC findings on the final mask (None when
    #: the postflight gate was skipped).
    mrc_report: Optional[MaskMRCReport] = None

    @property
    def mask_geometry(self) -> Region:
        """The shipped main features: the correction's repaired mask."""
        return self.correction.corrected

    @property
    def data(self) -> MaskDataStats:
        """Mask data statistics of the shipped mask, SRAFs included."""
        return self.correction.data

    @property
    def mrc_clean(self) -> bool:
        """The repair's last sweep has no blocking marker: the postflight verdict."""
        return not self.correction.repair.report.has_errors

    @property
    def signoff_ok(self) -> bool:
        """Writable mask and no catastrophic printability failures."""
        return self.mrc_clean and (self.orc is None or self.orc.is_clean)


def tapeout_region(
    drawn: Region,
    simulator: LithoSimulator,
    dose: float,
    recipe: TapeoutRecipe = TapeoutRecipe(),
    window: Optional[Rect] = None,
    verify: bool = True,
    source_cell: Optional[Cell] = None,
    preflight: bool = True,
    postflight: bool = True,
) -> TapeoutResult:
    """Run the full mask-synthesis pipeline on one layer's drawn geometry.

    ``source_cell`` is the layout hierarchy the drawn geometry came from,
    when there is one; auto-recorded runs use it to attribute worst EPE
    sites to their owning cells (see :mod:`repro.obs.spatial`).

    ``preflight`` statically lints the job (layout + recipe + litho
    config, see :mod:`repro.lint`) before the first simulator call and
    raises :class:`~repro.errors.PreflightError` on blocking findings;
    pass ``False`` to skip the gate.  :func:`correct_region` finishes the
    mask (smoothing at ``recipe.smooth_tolerance_nm``, one MRC repair),
    and the result reuses its mask, repair, statistics and mask spec.
    ``postflight`` renders that repair's verdict on the shipped mask
    (after SRAF merge) with markers attributed to ``source_cell``, and
    raises :class:`~repro.errors.PostflightError` on blocking defects.
    Level ``none`` ships the drawn geometry unedited, or its gate raises.
    """
    merged = drawn.merged()
    if merged.is_empty:
        raise ReproError("nothing to tape out")
    if window is None:
        window = merged.bbox().expanded(200)

    # The event scope brackets the pipeline with run.start/run.end on the
    # live bus and -- for runs headed to the ledger -- captures the full
    # stream so record_run can persist it for `repro watch --replay`.
    with _obs_events.run_scope("tapeout") as run_events, _obs_span(
        "tapeout", level=recipe.level.value, dark_field=recipe.dark_field
    ) as tapeout_span:
        preflight_summary = None
        with _obs_span(
            "tapeout.preflight", skipped=not preflight
        ) as preflight_span:
            if preflight:
                report = preflight_tapeout(
                    merged,
                    recipe,
                    litho=simulator.config,
                    cell=source_cell,
                )
                preflight_summary = report.summary_dict()
                preflight_span.set(
                    errors=report.error_count,
                    warnings=report.warning_count,
                    info=report.info_count,
                )

        with _obs_span(
            "tapeout.retarget", skipped=recipe.retarget_rules is None
        ):
            target = merged
            if recipe.retarget_rules is not None:
                target = retarget(merged, recipe.retarget_rules)

        with _obs_span("tapeout.correct"):
            correction = correct_region(
                target,
                recipe.level,
                simulator=simulator,
                window=window,
                dose=dose,
                dark_field=recipe.dark_field,
                model_recipe=recipe.model_recipe,
                tiling=recipe.tiling,
                parallel=recipe.parallel,
                preflight=False,  # the tapeout-level gate already ran
                mrc=recipe.mrc,
                # The gate below attributes markers to source_cell and
                # names the tapeout stage; per-tile advisory MRC stays off.
                postflight=False,
                smooth_tolerance_nm=recipe.smooth_tolerance_nm,
            )

        # Postflight: the shipped mask (repaired features plus SRAFs)
        # verified by the localized edge engine; a raise here means the
        # mask must not leave the process.
        mrc_report: Optional[MaskMRCReport] = None
        with _obs_span(
            "tapeout.postflight", skipped=not postflight
        ) as postflight_span:
            if postflight:
                post = _postflight(
                    correction, recipe.mrc, postflight_span, source_cell
                )
                mrc_report = post.mrc
                gate_postflight(post, stage="tapeout")

        orc_report: Optional[ORCReport] = None
        with _obs_span("tapeout.orc", skipped=not verify) as orc_span:
            if verify:
                orc_report = run_orc(
                    simulator,
                    correction.mask,
                    target,
                    window,
                    ProcessCorner(dose=dose),
                    critical_margin_nm=recipe.orc_margin_nm,
                )
                orc_span.set(clean=orc_report.is_clean)

        result = TapeoutResult(
            recipe=recipe,
            target=target,
            correction=correction,
            orc=orc_report,
            mrc_report=mrc_report,
        )
        tapeout_span.set(
            figures=result.data.figures,
            vertices=result.data.vertices,
            mrc_clean=result.mrc_clean,
        )

    # Root instrumented tapeouts append themselves to the persistent run
    # ledger when $REPRO_RUNS_DIR is set (see repro.obs.runs).
    if (
        tapeout_span.recorded
        and _obs_current_span() is None
        and _obs_runs.auto_enabled()
    ):
        spatial = tapeout_spatial(
            result, [tapeout_span], window, source_cell=source_cell
        )
        quality = tapeout_quality(result)
        if spatial is not None:
            quality.update(_obs_spatial.spatial_quality(spatial))
        _obs_publish_quality(quality)
        _obs_runs.record_run(
            label="tapeout",
            config={
                "kind": "tapeout",
                "recipe": recipe,
                "dose": dose,
                "verify": verify,
                "window": window,
                "litho": simulator.config,
            },
            roots=[tapeout_span],
            quality=quality,
            spatial=spatial,
            preflight=preflight_summary,
            profile=_obs_prof.active_summary(),
            events=run_events,
            mrc=mrc_report.summary_dict() if mrc_report is not None else None,
        )
    return result


def tapeout_spatial(
    result: TapeoutResult,
    roots,
    window: Optional[Rect] = None,
    source_cell: Optional[Cell] = None,
    top_k: int = 10,
) -> Optional[dict]:
    """The spatial hotspot payload of one tape-out run.

    Combines the ORC site records (when verification ran) with the tile
    convergence curves mined from ``roots`` (trace spans or span dicts).
    Returns ``None`` when the run produced neither -- records stay lean
    for unverified, untiled runs.
    """
    sites = list(result.orc.sites) if result.orc is not None else []
    if sites and source_cell is not None:
        sites = _obs_spatial.attribute_sites(sites, source_cell)
    payload = _obs_spatial.spatial_summary(
        roots, sites, window=window, top_k=top_k
    )
    markers = (
        result.mrc_report.violations if result.mrc_report is not None else []
    )
    if not sites and not payload["tiles"] and not markers:
        return None
    if markers:
        # MRC markers join the hotspot payload (additive key; older
        # records simply lack it) so `repro inspect` can overlay them.
        payload["mrc"] = [v.to_dict() for v in markers[:50]]
    return payload


def tapeout_quality(result: TapeoutResult) -> dict:
    """First-class quality metrics of one tape-out run.

    Extends :func:`~repro.flow.correct.flow_quality` with the sign-off
    verdicts: MRC cleanliness and -- when ORC ran -- residual EPE
    statistics and catastrophic pinch/bridge counts.
    """
    from .correct import flow_quality

    quality = flow_quality(
        result.data, result.correction.opc, result.mrc_report
    )
    quality["mrc_clean"] = int(result.mrc_clean)
    if result.orc is not None:
        quality["orc_clean"] = int(result.orc.is_clean)
        quality["pinch_count"] = result.orc.pinch_count
        quality["bridge_count"] = result.orc.bridge_count
        quality["orc_epe_rms_nm"] = result.orc.epe.rms_nm
        quality["orc_epe_max_nm"] = result.orc.epe.max_abs_nm
        quality["orc_epe_p95_nm"] = result.orc.epe.p95_abs_nm
    return quality


def tapeout_cell_layer(
    cell: Cell,
    layer: Layer,
    simulator: LithoSimulator,
    dose: float,
    recipe: TapeoutRecipe = TapeoutRecipe(),
    verify: bool = True,
) -> TapeoutResult:
    """Flatten ``cell``'s ``layer`` and run :func:`tapeout_region`."""
    drawn = cell.flat_region(layer)
    if drawn.is_empty:
        raise ReproError(f"cell {cell.name!r} has nothing on {layer}")
    return tapeout_region(
        drawn, simulator, dose, recipe, verify=verify, source_cell=cell
    )
