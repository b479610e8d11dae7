"""Tiled (distributed) model-based OPC for full-block layouts.

One window can image a whole block (tens of ms for a 1,472×832 grid
after a kernel build of about a second; ORC signs blocks off that way),
but OPC farms tile for other reasons: a tile's grid and iteration work stay
fixed however large the layout, tiles quantise to one or two grid shapes
that share one kernel set, and independent tiles run on separate
workers.  Each tile is corrected with frozen context geometry from its
halo, and the per-tile corrections are stitched by clipping to the tile
core (plus the move clamp on the window's rim, see :func:`kept_rect`).

Tiling is also what makes OPC runtime *linear in area* (at a large
constant), the scaling the runtime experiment measures -- and, with a
:class:`~repro.opc.parallel.ParallelSpec`, linear in area divided by
worker count: tile jobs are independent, so :func:`model_opc_tiled` can
fan them out over a process pool and stitch the outcomes back in
deterministic tile order, byte-identical to the serial run.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Optional, Tuple

from ..errors import OPCError
from ..geometry import Rect, Region
from ..litho import LithoSimulator
from ..obs import WorkerTelemetry
from ..obs import count as _obs_count, observe as _obs_observe, span as _obs_span
from ..obs import events as _events
from .model_opc import MaskBuilder, ModelOPCRecipe, model_opc
from .report import IterationStats, OPCResult

from ..litho import binary_mask

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from .parallel import ParallelSpec, TileFailure

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


def kept_rect(tile: Rect, window: Rect, reach_nm: int) -> Rect:
    """The part of a tile's correction that the stitch keeps.

    The tile core, pushed ``reach_nm`` further out on every side that lies
    on the window's edge: cores tile the window exactly, so inside it
    every point has one owner, and past its edge the rim tiles keep the
    corrections that push outward (up to the move clamp) instead of
    clipping them at the window.
    """
    return Rect(
        tile.x1 - reach_nm if tile.x1 == window.x1 else tile.x1,
        tile.y1 - reach_nm if tile.y1 == window.y1 else tile.y1,
        tile.x2 + reach_nm if tile.x2 == window.x2 else tile.x2,
        tile.y2 + reach_nm if tile.y2 == window.y2 else tile.y2,
    )


@dataclass
class TileOutcome:
    """One tile's kept correction, or a worker's structured failure.

    :func:`correct_tile` fills the result fields on every path -- the
    serial loop, a pool worker and the pool's serial fallback.  A worker
    adds its ``telemetry`` envelope (or an ``error`` in place of a
    result), and the pool stamps ``attempts``.
    """

    index: int
    tile: Rect
    #: The tile's correction clipped to its :func:`kept_rect`.
    stitched: Optional[Region] = None
    history: List[IterationStats] = field(default_factory=list)
    converged: bool = True
    fragment_count: int = 0
    #: What the worker recorded for this tile; ``None`` when the tile
    #: ran in the parent, which records it directly.
    telemetry: Optional[WorkerTelemetry] = None
    error: Optional["TileFailure"] = None
    #: The process that corrected the tile (the parent's on serial paths).
    worker_pid: int = 0
    #: Execution attempts this outcome took (stamped by the pool).
    attempts: int = 1

    @property
    def ok(self) -> bool:
        return self.error is None


def correct_tile(
    plan: TilePlan,
    keep: Rect,
    simulator: LithoSimulator,
    halo_nm: int,
    recipe: ModelOPCRecipe = ModelOPCRecipe(),
    mask_builder: MaskBuilder = binary_mask,
    dose: float = 1.0,
    defocus_nm: float = 0.0,
) -> TileOutcome:
    """Correct one planned tile and clip the result to ``keep``.

    The only per-tile unit of work: the serial loop, the multiprocessing
    workers and the serial-fallback path all run tiles through here, so
    spans (``opc.tile``) and metrics (``opc.tiles`` / ``opc.tiles_failed``,
    ``tile.runtime_s``) are recorded identically everywhere.  The runtime
    histogram is observed on the failure path too -- a farm's slowest
    tiles are often exactly the ones that die.  ``keep`` is the tile's
    :func:`kept_rect`.

    Live telemetry mirrors the same unit: ``tile.start`` before the
    correction, ``tile.done`` (with runtime and convergence) after, and a
    non-final ``tile.failed`` on the exception path -- emitted on
    whichever bus this process has (a worker forwards over its queue, the
    serial loop and fallback path emit straight into the parent's sinks).
    """
    index, tile = plan.index, plan.tile
    _events.emit("tile.start", index=index)
    try:
        with _obs_span(
            "opc.tile", tile=index, x1=tile.x1, y1=tile.y1,
            x2=tile.x2, y2=tile.y2, halo_nm=halo_nm,
        ) as tile_span:
            result = model_opc(
                plan.context,
                simulator,
                tile,
                recipe,
                mask_builder=mask_builder,
                dose=dose,
                defocus_nm=defocus_nm,
            )
            stitched = result.corrected & Region(keep)
            tile_span.set(
                fragments=result.fragment_count,
                converged=result.converged,
                context_vertices=plan.context.num_vertices,
                stitched_vertices=stitched.num_vertices,
            )
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
    return TileOutcome(
        index=index,
        tile=tile,
        stitched=stitched,
        history=result.history,
        converged=result.converged,
        fragment_count=result.fragment_count,
        worker_pid=os.getpid(),
    )


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
) -> OPCResult:
    """Model-based OPC over an arbitrarily large layout, tile by tile.

    ``window`` bounds the corrected area (the target bounding box by
    default).  The result is the target inside the window, corrected,
    plus whatever lies within ``recipe.max_total_move_nm`` past the
    window's edge -- the corrections that push outward up to the move
    clamp.  That holds at one tile and at many: every tile, a single one
    included, is planned by :func:`plan_tiles`, corrected by
    :func:`correct_tile` against the target within its halo, and clipped
    to its :func:`kept_rect`.  SOCS kernels are shared across tiles
    because every tile simulates on the same grid shape.

    ``parallel`` fans the tile jobs out over a multiprocessing worker
    pool (see :class:`~repro.opc.parallel.ParallelSpec`); the stitched
    result is guaranteed byte-identical to the serial run because
    outcomes are folded back in tile-grid order.
    """
    tiling = tiling.validated()
    if parallel is not None:
        parallel = parallel.validated()
    merged = target.merged()
    if merged.is_empty:
        return OPCResult(target=merged, corrected=merged)
    box = window or merged.bbox()
    assert box is not None
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
            box,
            recipe=recipe,
            mask_builder=mask_builder,
            dose=dose,
            defocus_nm=defocus_nm,
        )
    else:
        progress = _events.PoolProgress(total=len(plans), n_workers=1)
        for plan in plans:
            progress.scheduled(plan.index, plan.tile)
        outcomes = []
        for plan in plans:
            outcomes.append(
                correct_tile(
                    plan,
                    kept_rect(plan.tile, box, recipe.max_total_move_nm),
                    simulator,
                    tiling.halo_nm,
                    recipe,
                    mask_builder=mask_builder,
                    dose=dose,
                    defocus_nm=defocus_nm,
                )
            )
            progress.tile_done(plan.index)

    corrected = Region()
    history: List[IterationStats] = []
    tile_finals: List[Tuple[int, IterationStats]] = []
    fragments = 0
    converged = True
    for outcome in outcomes:
        converged = converged and outcome.converged
        fragments += outcome.fragment_count
        history.extend(outcome.history)
        if outcome.history:
            tile_finals.append((outcome.fragment_count, outcome.history[-1]))
        corrected._add(outcome.stitched)
    # Geometry cut at tile borders is rejoined by the merge; context copies
    # outside tiles were clipped away above.
    return OPCResult(
        target=merged,
        corrected=corrected.merged(),
        history=history,
        converged=converged,
        fragment_count=fragments,
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
