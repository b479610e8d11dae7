"""Tiled (distributed) model-based OPC for full-block layouts.

A single simulation window over a whole block is computationally
infeasible -- the Hopkins support grows with window area -- which is
exactly why production OPC farms cut layouts into tiles with an optical
halo and correct them independently.  This module does the same: each
tile is corrected with frozen context geometry from its halo, and the
per-tile corrections are stitched by clipping to the tile core.

Tiling is also what makes OPC runtime *linear in area* (at a large
constant), the scaling the runtime experiment measures -- and, with a
:class:`~repro.opc.parallel.ParallelSpec`, linear in area divided by
worker count: tile jobs are independent, so :func:`model_opc_tiled` can
fan them out over a process pool and stitch the outcomes back in
deterministic tile order, byte-identical to the serial run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..errors import OPCError
from ..geometry import Rect, Region
from ..litho import LithoSimulator
from ..obs import count as _obs_count, observe as _obs_observe, span as _obs_span
from ..obs import events as _events
from ..verify.mrc import MRCRules, scan_window
from .model_opc import MaskBuilder, ModelOPCRecipe, model_opc
from .report import IterationStats, OPCResult

from ..litho import binary_mask

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .parallel import ParallelSpec

#: Histogram buckets for per-tile correction runtime (seconds).
TILE_RUNTIME_BUCKETS = (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0, 300.0)


@dataclass(frozen=True)
class TilingSpec:
    """Tile geometry for distributed correction."""

    tile_nm: int = 2400
    halo_nm: int = 600  # optical context carried along with each tile

    def validated(self) -> "TilingSpec":
        """Return self, raising :class:`OPCError` on nonsense values."""
        if self.tile_nm < 400:
            raise OPCError(f"tiles below 400 nm are pointless, got {self.tile_nm}")
        if self.halo_nm < 0:
            raise OPCError("halo must be non-negative")
        return self


@dataclass(frozen=True)
class TilePlan:
    """One tile's work order: the core rect plus its frozen halo context.

    ``index`` is the tile's position in the deterministic grid enumeration
    (column-major over :func:`_tile_grid`); stitching folds results back
    in this order so serial and parallel runs are byte-identical.
    """

    index: int
    tile: Rect
    context: Region


def plan_tiles(
    merged: Region, box: Rect, tiling: TilingSpec, ambit_nm: int
) -> List[TilePlan]:
    """Cut ``box`` into tile work orders with halo+ambit context geometry.

    Tiles whose context is empty are dropped (and counted under
    ``opc.tiles_empty``): there is nothing to correct and nothing whose
    proximity could matter.
    """
    plans: List[TilePlan] = []
    for index, tile in enumerate(_tile_grid(box, tiling.tile_nm)):
        context_window = tile.expanded(tiling.halo_nm)
        context = merged & Region(context_window.expanded(ambit_nm))
        if context.is_empty:
            _obs_count("opc.tiles_empty")
            continue
        plans.append(TilePlan(index=index, tile=tile, context=context))
    return plans


def tile_mrc_violations(
    corrected: Region, tile: Rect, halo_nm: int, mrc_rules: MRCRules
) -> List[dict]:
    """Edge-rule MRC findings of one tile's corrected geometry.

    Evaluates over the tile expanded by the rules' interaction distance
    (capped at the optical halo, which is far larger in practice) and
    keeps only markers anchored inside the half-open tile core -- the
    same ownership convention as the tiled engine in
    :mod:`repro.verify.mrc` -- so tiles never double-report a seam
    violation and clip artifacts never surface.  Findings are violation
    dicts (:meth:`~repro.verify.mrc.MRCViolation.to_dict`), picklable
    for the worker queue.
    """
    window = tile.expanded(min(halo_nm, mrc_rules.interaction_nm))
    clip = corrected & Region(window)
    if clip.is_empty:
        return []
    return scan_window(
        {
            "loops": clip.loops,
            "rules": mrc_rules.to_dict(),
            "core": [tile.x1, tile.y1, tile.x2, tile.y2],
        }
    )


def correct_tile(
    context: Region,
    simulator: LithoSimulator,
    tile: Rect,
    index: int,
    halo_nm: int,
    recipe: ModelOPCRecipe = ModelOPCRecipe(),
    mask_builder: MaskBuilder = binary_mask,
    dose: float = 1.0,
    defocus_nm: float = 0.0,
    mrc_rules: Optional[MRCRules] = None,
) -> Tuple[OPCResult, Region]:
    """Correct one tile and clip the result to its core.

    The shared per-tile unit of work: the serial loop, the multiprocessing
    workers and the serial-fallback path all run tiles through here, so
    spans (``opc.tile``) and metrics (``opc.tiles`` / ``opc.tiles_failed``,
    ``tile.runtime_s``) are recorded identically everywhere.  The runtime
    histogram is observed on the failure path too -- a farm's slowest
    tiles are often exactly the ones that die.

    ``mrc_rules`` additionally runs the edge-based mask rules over this
    tile's corrected geometry (before stitching, so every violation is
    attributed to the tile that produced it); findings land on
    ``result.tile_mrc`` and in the ``opc.tile_mrc_violations`` counter.

    Live telemetry mirrors the same unit: ``tile.start`` before the
    correction, ``tile.done`` (with runtime and convergence) after, and a
    non-final ``tile.failed`` on the exception path -- emitted on
    whichever bus this process has (a worker forwards over its queue, the
    serial loop and fallback path emit straight into the parent's sinks).
    """
    _events.emit("tile.start", index=index)
    try:
        with _obs_span(
            "opc.tile", tile=index, x1=tile.x1, y1=tile.y1,
            x2=tile.x2, y2=tile.y2, halo_nm=halo_nm,
        ) as tile_span:
            result = model_opc(
                context,
                simulator,
                tile,
                recipe,
                mask_builder=mask_builder,
                dose=dose,
                defocus_nm=defocus_nm,
            )
            stitched = result.corrected & Region(tile)
            tile_span.set(
                fragments=result.fragment_count,
                converged=result.converged,
                context_vertices=context.num_vertices,
                stitched_vertices=stitched.num_vertices,
            )
            if mrc_rules is not None:
                result.tile_mrc = tile_mrc_violations(
                    result.corrected, tile, halo_nm, mrc_rules
                )
                if result.tile_mrc:
                    _obs_count(
                        "opc.tile_mrc_violations", len(result.tile_mrc)
                    )
                    tile_span.set(mrc_violations=len(result.tile_mrc))
    except BaseException as error:
        _obs_count("opc.tiles_failed")
        _obs_observe("tile.runtime_s", tile_span.duration_s, TILE_RUNTIME_BUCKETS)
        _events.emit(
            "tile.failed", index=index, final=False, reason=str(error)[:200]
        )
        raise
    _obs_count("opc.tiles")
    _obs_observe("tile.runtime_s", tile_span.duration_s, TILE_RUNTIME_BUCKETS)
    _events.emit(
        "tile.done",
        index=index,
        runtime_s=round(tile_span.duration_s, 6),
        converged=result.converged,
        fragments=result.fragment_count,
    )
    return result, stitched


def model_opc_tiled(
    target: Region,
    simulator: LithoSimulator,
    window: Optional[Rect] = None,
    recipe: ModelOPCRecipe = ModelOPCRecipe(),
    tiling: TilingSpec = TilingSpec(),
    mask_builder: MaskBuilder = binary_mask,
    dose: float = 1.0,
    defocus_nm: float = 0.0,
    parallel: Optional["ParallelSpec"] = None,
    mrc_rules: Optional[MRCRules] = None,
) -> OPCResult:
    """Model-based OPC over an arbitrarily large layout, tile by tile.

    ``window`` bounds the corrected area (the target bounding box by
    default).  Each tile is corrected against the target geometry within
    its halo; SOCS kernels are shared across tiles because every tile
    simulates on the same grid shape.

    ``parallel`` fans the tile jobs out over a multiprocessing worker
    pool (see :class:`~repro.opc.parallel.ParallelSpec`); the stitched
    result is guaranteed byte-identical to the serial run because
    outcomes are folded back in tile-grid order.

    ``mrc_rules`` turns on advisory per-tile mask-rule evaluation: each
    tile's corrected geometry is scanned before stitching and the
    findings collected on ``result.tile_mrc`` in tile-grid order.  The
    authoritative mask check is still the flow postflight over the
    stitched whole -- per-tile findings exist so a farm can flag a
    misbehaving recipe while tiles are still in flight.  The single-tile
    fast path skips it (postflight covers the same geometry verbatim).
    """
    tiling = tiling.validated()
    if parallel is not None:
        parallel = parallel.validated()
    merged = target.merged()
    if merged.is_empty:
        return OPCResult(target=merged, corrected=merged)
    box = window or merged.bbox()
    assert box is not None
    tiles = _tile_grid(box, tiling.tile_nm)
    if len(tiles) == 1:
        _events.emit("tile.start", index=0)
        try:
            with _obs_span(
                "opc.tile", tile=0, x1=tiles[0].x1, y1=tiles[0].y1,
                x2=tiles[0].x2, y2=tiles[0].y2, halo_nm=tiling.halo_nm,
            ) as tile_span:
                result = model_opc(
                    merged, simulator, tiles[0], recipe,
                    mask_builder=mask_builder, dose=dose,
                    defocus_nm=defocus_nm,
                )
                tile_span.set(
                    fragments=result.fragment_count, converged=result.converged
                )
        except BaseException as error:
            _obs_count("opc.tiles_failed")
            _obs_observe(
                "tile.runtime_s", tile_span.duration_s, TILE_RUNTIME_BUCKETS
            )
            _events.emit(
                "tile.failed", index=0, final=False, reason=str(error)[:200]
            )
            raise
        _obs_count("opc.tiles")
        _obs_observe(
            "tile.runtime_s", tile_span.duration_s, TILE_RUNTIME_BUCKETS
        )
        _events.emit(
            "tile.done",
            index=0,
            runtime_s=round(tile_span.duration_s, 6),
            converged=result.converged,
            fragments=result.fragment_count,
        )
        return result

    plans = plan_tiles(merged, box, tiling, simulator.config.ambit_nm)
    if parallel is not None and parallel.n_workers > 1 and len(plans) > 1:
        from .parallel import run_tile_jobs  # runtime import breaks the cycle

        if simulator.kernel_store is not None:
            # One TCC decomposition in the parent seeds the persistent
            # store, turning every worker's first simulation into an mmap
            # load instead of a rebuild-per-process.
            simulator.warm_kernels(
                (plan.tile for plan in plans), defocus_nm=defocus_nm
            )
        outcomes = run_tile_jobs(
            plans,
            simulator,
            tiling,
            parallel,
            recipe=recipe,
            mask_builder=mask_builder,
            dose=dose,
            defocus_nm=defocus_nm,
            mrc_rules=mrc_rules,
        )
        pieces = [
            (outcome.stitched, outcome.history, outcome.converged,
             outcome.fragment_count, outcome.mrc)
            for outcome in outcomes
        ]
    else:
        progress = _events.PoolProgress(total=len(plans), n_workers=1)
        for plan in plans:
            progress.scheduled(plan.index, plan.tile)
        pieces = []
        for plan in plans:
            result, stitched = correct_tile(
                plan.context,
                simulator,
                plan.tile,
                plan.index,
                tiling.halo_nm,
                recipe,
                mask_builder=mask_builder,
                dose=dose,
                defocus_nm=defocus_nm,
                mrc_rules=mrc_rules,
            )
            progress.tile_done(plan.index)
            pieces.append(
                (stitched, result.history, result.converged,
                 result.fragment_count, result.tile_mrc)
            )

    corrected = Region()
    history: List[IterationStats] = []
    tile_finals: List[Tuple[int, IterationStats]] = []
    fragments = 0
    converged = True
    tile_mrc: Optional[List[dict]] = [] if mrc_rules is not None else None
    for stitched, tile_history, tile_converged, tile_fragments, tile_findings in pieces:
        converged = converged and tile_converged
        fragments += tile_fragments
        history.extend(tile_history)
        if tile_history:
            tile_finals.append((tile_fragments, tile_history[-1]))
        if tile_mrc is not None and tile_findings:
            tile_mrc.extend(tile_findings)
        corrected._add(stitched)
    # Geometry cut at tile borders is rejoined by the merge; context copies
    # outside tiles were clipped away above.
    return OPCResult(
        target=merged,
        corrected=corrected.merged(),
        history=history,
        converged=converged,
        fragment_count=fragments,
        tile_mrc=tile_mrc,
        tile_finals=tile_finals,
    )


def _tile_grid(box: Rect, tile_nm: int) -> List[Rect]:
    """Cover ``box`` with equal tiles of roughly ``tile_nm`` span."""
    cols = max(1, -(-box.width // tile_nm))
    rows = max(1, -(-box.height // tile_nm))
    xs = [box.x1 + (box.width * k) // cols for k in range(cols)] + [box.x2]
    ys = [box.y1 + (box.height * k) // rows for k in range(rows)] + [box.y2]
    return [
        Rect(xs[i], ys[j], xs[i + 1], ys[j + 1])
        for i in range(cols)
        for j in range(rows)
    ]
