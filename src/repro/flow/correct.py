"""End-to-end correction flows: drawn layer in, mask-ready layer out.

One call applies a named correction level -- none, rule-based,
model-based, or model-based plus SRAFs -- to a layer of a cell, finishes
the mask, and returns everything the experiments tabulate: the corrected
geometry, the SRAFs, OPC convergence, the MRC repair, mask data
statistics and the mask spec to simulate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from ..errors import ReproError
from ..geometry import Rect, Region, smooth_jogs
from ..layout import Cell, Layer
from ..lint import gate_postflight, postflight_sweep, preflight_correction
from ..litho import BinaryMaskBuilder, LithoSimulator, MaskSpec, binary_mask
from ..mask import MaskDataStats, mask_data_stats
from ..verify.mrc import MaskRepair, MRCReport, MRCRules, check_mask_region, repair_mask_region
from ..obs import (
    current_span as _obs_current_span,
    gauge_set as _obs_gauge_set,
    publish_quality as _obs_publish_quality,
    span as _obs_span,
)
from ..obs import events as _obs_events
from ..obs import prof as _obs_prof
from ..obs import runs as _obs_runs
from ..opc import (
    ModelOPCRecipe,
    OPCResult,
    ParallelSpec,
    RuleOPCRecipe,
    SRAFRecipe,
    TilingSpec,
    insert_srafs,
    model_opc_tiled,
    rule_opc,
)


class CorrectionLevel(Enum):
    """The four correction states every impact table compares."""

    NONE = "none"
    RULE = "rule"
    MODEL = "model"
    MODEL_SRAF = "model+sraf"


@dataclass
class FlowResult:
    """Everything produced by one correction run."""

    level: CorrectionLevel
    target: Region
    corrected: Region
    srafs: Region
    mask: MaskSpec
    data: MaskDataStats
    #: The MRC repair that finished ``corrected``; its last sweep is the
    #: mask's verdict.  At level ``none`` it is one sweep and no edit.
    repair: MaskRepair
    opc: Optional[OPCResult] = None
    runtime_s: float = 0.0
    #: Localized postflight MRC findings (None when the gate was skipped).
    mrc_report: Optional[MRCReport] = None

    @property
    def mask_region(self) -> Region:
        """Main features plus SRAFs (what MRC checks)."""
        return (self.corrected | self.srafs) if not self.srafs.is_empty else self.corrected


def flow_quality(
    data: MaskDataStats,
    opc: Optional[OPCResult],
    mrc: Optional[MRCReport] = None,
) -> dict:
    """First-class quality metrics of one correction run.

    These land in a :class:`~repro.obs.runs.RunRecord`'s quality dict
    and are what ``repro runs check`` gates besides wall time: mask
    figure count and data volume, plus OPC convergence and residual EPE
    when a model run produced them, plus -- when the postflight ran --
    the MRC violation count and the fracture shot estimate.
    """
    quality = {
        "figures": data.figures,
        "vertices": data.vertices,
        "shots": data.shots,
        "gds_bytes": data.gds_bytes,
    }
    if opc is not None:
        quality["opc_iterations"] = opc.iterations
        quality["opc_converged"] = int(opc.converged)
        if opc.final_rms_epe_nm is not None:
            quality["epe_rms_nm"] = opc.final_rms_epe_nm
        if opc.final_max_epe_nm is not None:
            quality["epe_max_nm"] = opc.final_max_epe_nm
    if mrc is not None:
        quality["mrc_violations"] = len(mrc.violations)
        quality["mask_shot_count"] = mrc.shot_count
    return quality


def correct_region(
    target: Region,
    level: CorrectionLevel,
    simulator: Optional[LithoSimulator] = None,
    window: Optional[Rect] = None,
    dose: float = 1.0,
    rule_recipe: RuleOPCRecipe = RuleOPCRecipe(),
    model_recipe: ModelOPCRecipe = ModelOPCRecipe(),
    sraf_recipe: SRAFRecipe = SRAFRecipe(),
    tiling: TilingSpec = TilingSpec(),
    dark_field: bool = False,
    parallel: Optional[ParallelSpec] = None,
    preflight: bool = True,
    mrc: Optional[MRCRules] = None,
    postflight: bool = True,
    smooth_tolerance_nm: int = 0,
) -> FlowResult:
    """Apply ``level`` to a drawn region, finish the mask and collect impact statistics.

    Model-based levels need ``simulator`` (and optionally ``window``; the
    target bounding box plus margin by default).  Model correction runs
    tiled, so arbitrarily large windows are fine.  ``dark_field=True``
    treats features as clear openings on chrome (contact/via layers) and
    flips the model-OPC failure semantics accordingly.  ``parallel``
    fans the tiles out over a multiprocessing pool (result byte-identical
    to the serial run; see :class:`~repro.opc.ParallelSpec`).
    ``preflight`` statically lints the job first (see :mod:`repro.lint`)
    and raises :class:`~repro.errors.PreflightError` on blocking
    findings; ``postflight`` symmetrically runs the localized MRC engine
    over the corrected mask (limits from ``mrc``, library defaults
    otherwise) and raises :class:`~repro.errors.PostflightError` on
    blocking defects before anything can be exported.

    The mask is finished here and nowhere else: OPC, jog smoothing
    (``smooth_tolerance_nm`` > 0, correction levels only), one MRC repair
    (:func:`repro.verify.mrc.repair_mask_region`), the mask statistics,
    then postflight -- a convergence assertion for correction levels,
    and the repair's last sweep is the verdict when no SRAFs join the
    mask.  Level ``none`` is swept but never edited, so an unwritable
    input dies at the gate instead of being repaired into something the
    designer did not draw.
    """
    import dataclasses

    if smooth_tolerance_nm < 0:
        raise ReproError(f"smooth_tolerance_nm must be >= 0, got {smooth_tolerance_nm}")

    # Bracket the flow with run.start/run.end on the live event bus; a
    # correct nested inside a tapeout adds no events of its own.
    with _obs_events.run_scope("correct") as run_events, _obs_span(
        "correct", level=level.value
    ) as correct_span:
        merged = target.merged()
        preflight_summary = None
        with _obs_span(
            "correct.preflight", skipped=not preflight
        ) as preflight_span:
            if preflight:
                report = preflight_correction(
                    merged,
                    level.value,
                    litho=simulator.config if simulator is not None else None,
                    model_recipe=model_recipe,
                    tiling=tiling,
                    parallel=parallel,
                    sraf_recipe=sraf_recipe,
                    dark_field=dark_field,
                )
                preflight_summary = report.summary_dict()
                preflight_span.set(
                    errors=report.error_count,
                    warnings=report.warning_count,
                    info=report.info_count,
                )
        srafs = Region()
        opc_result: Optional[OPCResult] = None

        if level == CorrectionLevel.NONE:
            corrected = merged
        elif level == CorrectionLevel.RULE:
            opc_result = rule_opc(merged, rule_recipe)
            corrected = opc_result.corrected
        elif level in (CorrectionLevel.MODEL, CorrectionLevel.MODEL_SRAF):
            if simulator is None:
                raise ReproError(f"{level.value} correction needs a simulator")
            if window is None:
                box = merged.bbox()
                if box is None:
                    raise ReproError("cannot correct an empty region")
                window = box.expanded(200)
            if level == CorrectionLevel.MODEL_SRAF:
                with _obs_span("correct.sraf"):
                    srafs = insert_srafs(merged, sraf_recipe)
                builder = BinaryMaskBuilder(dark_field=dark_field, srafs=srafs)
            else:
                builder = BinaryMaskBuilder(dark_field=dark_field)
            if dark_field:
                # Contact holes couple all four edges through one small
                # aperture: the effective loop gain is ~4x a line edge's, so
                # stability needs proportionally lower damping.
                recipe = dataclasses.replace(
                    model_recipe,
                    bright_feature=True,
                    damping=min(model_recipe.damping, 0.3),
                )
            else:
                recipe = model_recipe
            opc_result = model_opc_tiled(
                merged, simulator, window, recipe,
                tiling=tiling, mask_builder=builder, dose=dose,
                parallel=parallel,
            )
            corrected = opc_result.corrected
        else:  # pragma: no cover - enum is exhaustive
            raise ReproError(f"unknown correction level {level}")

        smooth = smooth_tolerance_nm > 0 and level != CorrectionLevel.NONE
        with _obs_span("correct.smooth", skipped=not smooth) as smooth_span:
            if smooth:
                before = corrected.num_vertices
                corrected = smooth_jogs(corrected, smooth_tolerance_nm)
                smooth_span.set(
                    vertices_before=before, vertices_after=corrected.num_vertices
                )

        # OPC edge moves and smoothing leave sub-limit notches and slivers
        # that the standard fix-up (fill spaces, trim widths) removes.
        # Level ``none`` only sweeps: drawn geometry is the user's, and
        # deleting an unwritable feature is worse than rejecting it.
        with _obs_span("correct.repair") as repair_span:
            repair = repair_mask_region(
                corrected, mrc or MRCRules(), max_passes=0 if level == CorrectionLevel.NONE else 3
            )
            corrected = repair.mask
            repair_span.set(changed=repair.passes > 0, clean=not repair.report.has_errors)

        mask = binary_mask(
            corrected,
            dark_field=dark_field,
            srafs=srafs if not srafs.is_empty else None,
        )
        combined = (corrected | srafs) if not srafs.is_empty else corrected
        data = mask_data_stats(combined)
        correct_span.set(figures=data.figures, vertices=data.vertices)
        _obs_gauge_set("mask.vertices", data.vertices)
        result = FlowResult(
            level=level, target=merged, corrected=corrected, srafs=srafs,
            mask=mask, data=data, repair=repair, opc=opc_result,
        )

        # The mirror of the preflight gate: statically verify the mask
        # we are about to hand downstream, and refuse to hand it over
        # when the mask shop would bounce it.
        with _obs_span(
            "correct.postflight", skipped=not postflight
        ) as postflight_span:
            if postflight:
                verdict = _postflight(result, mrc, postflight_span)
                result.mrc_report = verdict
                _obs_gauge_set("mask.shot_count", verdict.shot_count)
                _obs_gauge_set("mask.figure_count", verdict.figure_count)
                _obs_gauge_set("mask.vertex_count", verdict.vertex_count)
                gate_postflight(verdict, stage="correct")
    result.runtime_s = correct_span.duration_s
    # Standalone instrumented runs (not nested under a tapeout span) land
    # in the persistent run ledger when $REPRO_RUNS_DIR is set.
    if (
        correct_span.recorded
        and _obs_current_span() is None
        and _obs_runs.auto_enabled()
    ):
        mrc_report = result.mrc_report
        quality = flow_quality(data, opc_result, mrc_report)
        _obs_publish_quality(quality)
        _obs_runs.record_run(
            label="correct",
            config={
                "kind": "correct",
                "level": level,
                "dose": dose,
                "dark_field": dark_field,
                "rule_recipe": rule_recipe,
                "model_recipe": model_recipe,
                "sraf_recipe": sraf_recipe,
                "tiling": tiling,
                "parallel": parallel,
                "litho": simulator.config if simulator is not None else None,
            },
            roots=[correct_span],
            quality=quality,
            preflight=preflight_summary,
            profile=_obs_prof.active_summary(),
            events=run_events,
            mrc=mrc_report.summary_dict() if mrc_report is not None else None,
        )
    return result


def _postflight(
    correction: FlowResult, rules: Optional[MRCRules], span, cell: Optional[Cell] = None
) -> MRCReport:
    """The postflight verdict of a finished correction, set on ``span`` but not gated.

    The check is the repair's last sweep, or one sweep of the shipped
    mask when SRAFs join it; either way it is priced from
    ``correction.data``, the statistics of that mask.
    """
    sweep = correction.repair.report
    if not correction.srafs.is_empty:
        sweep = check_mask_region(correction.mask_region, rules, with_stats=False)
    verdict = postflight_sweep(sweep, correction.data, cell)
    span.set(
        errors=verdict.error_count,
        warnings=verdict.warning_count,
        violations=len(verdict.violations),
        shots=verdict.shot_count,
    )
    return verdict


def correct_cell_layer(
    cell: Cell,
    layer: Layer,
    level: CorrectionLevel,
    simulator: Optional[LithoSimulator] = None,
    dose: float = 1.0,
    **recipes,
) -> FlowResult:
    """Flatten a cell's layer, merge it once and run :func:`correct_region` on it."""
    target = cell.flat_region(layer).merged()
    if target.is_empty:
        raise ReproError(f"cell {cell.name!r} has nothing on {layer}")
    return correct_region(
        target, level, simulator=simulator, dose=dose, **recipes
    )
