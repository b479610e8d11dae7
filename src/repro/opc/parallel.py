"""Multiprocessing execution layer for tiled model-based OPC.

The paper's cost story made OPC a compute-farm problem: production flows
cut layouts into halo'd tiles and correct them on many machines at once.
This module is that farm in miniature -- a ``multiprocessing`` worker
pool that fans the tile jobs from :func:`~repro.opc.tiling.model_opc_tiled`
out across ``n_workers`` processes and stitches the outcomes back in
deterministic tile order, so the parallel result is byte-identical to
the serial one.

Robustness follows the farm playbook too: a worker that raises returns a
structured failure, a worker that dies breaks the pool and gets its job
resubmitted, and a tile that keeps failing either falls back to
in-process serial correction or raises a :class:`TileCorrectionError`
naming the tile rect and carrying the worker traceback (the
``on_failure`` knob of :class:`ParallelSpec`).

Observability crosses the process boundary: each worker records its
tile into one :class:`repro.obs.WorkerTelemetry` envelope (spans,
metrics and profile) on the :class:`~repro.opc.tiling.TileOutcome` that
:func:`~repro.opc.tiling.correct_tile` returned, and the parent folds
the envelopes in with :func:`repro.obs.absorb_workers`, so ``repro
profile`` shows per-tile, per-worker breakdowns with exact counter
totals.

Tile jobs travel to the workers by plain pickle through the pool pipe:
a job is a few kilobytes of geometry, cheap to pickle next to the
correction it orders.
Everything shipped to a worker is picklable, and the worker entry points
are module-level functions, so the pool gives byte-identical results
under the ``fork``, ``spawn`` and ``forkserver`` start methods alike.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import time
import traceback as _traceback
from concurrent.futures import (
    BrokenExecutor,
    Future,
    ProcessPoolExecutor,
    TimeoutError as _FutureTimeout,
)
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .. import obs
from ..errors import OPCError
from ..geometry import Rect
from ..litho import LithoConfig, LithoSimulator, binary_mask
from ..obs import count as _obs_count, span as _obs_span
from ..obs import events as _events
from .model_opc import MaskBuilder, ModelOPCRecipe
from .tiling import TileOutcome, TilePlan, TilingSpec, correct_tile, kept_rect

#: Environment knobs of the fault-injection stub (test-only): poison the
#: tile with this grid index ...
POISON_TILE_ENV = "REPRO_OPC_POISON_TILE"
#: ... in this way: ``raise`` (worker exception), ``exit`` (worker death),
#: or ``hang`` (worker sleeps past any per-tile timeout).
POISON_MODE_ENV = "REPRO_OPC_POISON_MODE"
#: When set to a path, the poison fires only for the first worker that
#: atomically creates the directory -- i.e. exactly once per run -- so
#: retry paths can be exercised deterministically across processes.
POISON_ONCE_ENV = "REPRO_OPC_POISON_ONCE"


class TileCorrectionError(OPCError):
    """A tile failed in the worker pool beyond the configured retries.

    Carries the tile's grid ``index`` and core ``tile`` rect plus the
    original worker ``worker_traceback`` so a farm operator can re-run or
    quarantine exactly the failing cut.
    """

    def __init__(
        self,
        message: str,
        tile: Rect,
        index: int,
        worker_traceback: Optional[str] = None,
    ):
        detail = f"{message} [tile {index} at {tuple(tile)}]"
        if worker_traceback:
            detail += f"\n--- worker traceback ---\n{worker_traceback}"
        super().__init__(detail)
        self.tile = tile
        self.index = index
        self.worker_traceback = worker_traceback


@dataclass(frozen=True)
class ParallelSpec:
    """Execution policy of the tile worker pool."""

    #: Process count; ``1`` keeps everything in-process (serial).
    n_workers: int = 1
    #: How often a failed/dead/timed-out tile job is resubmitted.
    max_retries: int = 1
    #: After retries are exhausted: ``"serial"`` corrects the tile
    #: in-process in the parent, ``"raise"`` fails fast with a
    #: :class:`TileCorrectionError`.
    on_failure: str = "serial"
    #: ``multiprocessing`` start method (``None`` = platform default).
    #: Jobs are spawn-safe, so any of ``fork``/``spawn``/``forkserver`` works.
    start_method: Optional[str] = None
    #: Per-tile wall-clock budget; a job exceeding it is treated like a
    #: crashed worker (the pool is torn down and the job retried).
    #: ``None`` waits forever.
    timeout_s: Optional[float] = None

    def __post_init__(self):
        # Eager validation: a bad spec should die at construction (where
        # the operator typo is), not minutes later inside the pool.
        self.validated()

    def validated(self) -> "ParallelSpec":
        """Return self, raising :class:`OPCError` on nonsense values."""
        if self.n_workers < 1:
            raise OPCError(f"need at least one worker, got {self.n_workers}")
        if self.max_retries < 0:
            raise OPCError("max_retries must be non-negative")
        if self.on_failure not in ("serial", "raise"):
            raise OPCError(
                f"on_failure must be 'serial' or 'raise', got {self.on_failure!r}"
            )
        if self.start_method not in (None, "fork", "spawn", "forkserver"):
            raise OPCError(f"unknown start method {self.start_method!r}")
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise OPCError("timeout_s must be positive")
        return self


@dataclass(frozen=True)
class TileJob:
    """One picklable tile work order shipped to a pool worker."""

    plan: TilePlan
    #: The rect the tile's correction is clipped to (:func:`kept_rect`).
    keep: Rect
    halo_nm: int
    recipe: ModelOPCRecipe
    mask_builder: MaskBuilder
    dose: float
    defocus_nm: float
    #: Whether the worker should record spans/metrics for this tile.
    observe: bool = False
    #: Sampling-profiler rate the worker should run at (0.0 = off),
    #: inherited from the parent's active profiler.
    profile_hz: float = 0.0


@dataclass(frozen=True)
class TileFailure:
    """A worker-side exception, serialized for the parent."""

    kind: str
    message: str
    worker_traceback: str


# -- worker side ---------------------------------------------------------------

_worker_simulator: Optional[LithoSimulator] = None


def _pool_init(config: LithoConfig, events_queue: Optional[Any] = None) -> None:
    """Per-worker initializer: build the simulator once per process.

    Workers rebuild from the picklable :class:`LithoConfig` rather than
    receiving a pickled simulator, so engine caches (SOCS kernels) are
    process-local and the pool works under ``spawn``.  The telemetry a
    ``fork`` child inherited is reset by :func:`repro.obs.init_worker`,
    so worker spans root cleanly and worker events only ever travel over
    ``events_queue``.
    """
    global _worker_simulator
    _worker_simulator = LithoSimulator(config)
    obs.init_worker(events_queue)


def _maybe_poison(index: int) -> None:
    """Test-only fault injection: kill/raise/hang on an env-named tile."""
    poison = os.environ.get(POISON_TILE_ENV)
    if poison is None or int(poison) != index:
        return
    once_dir = os.environ.get(POISON_ONCE_ENV)
    if once_dir:
        try:
            os.mkdir(once_dir)  # atomic first-claim across processes
        except FileExistsError:
            return
    mode = os.environ.get(POISON_MODE_ENV, "raise")
    if mode == "exit":
        os._exit(13)
    if mode == "hang":
        time.sleep(3600.0)
    raise RuntimeError(f"poisoned tile {index} ({POISON_TILE_ENV})")


def _execute_job(job: TileJob) -> TileOutcome:
    """Run one tile in a pool worker, catching failures into the outcome."""
    try:
        _maybe_poison(job.plan.index)
        simulator = _worker_simulator
        if simulator is None:
            raise OPCError("worker pool initializer did not run")
        with obs.record_worker(job.observe, job.profile_hz) as telemetry:
            outcome = _run_tile(job, simulator)
        outcome.telemetry = telemetry
        return outcome
    except Exception as error:  # structured failure crosses the pickle boundary
        return TileOutcome(
            index=job.plan.index,
            tile=job.plan.tile,
            error=TileFailure(
                kind=type(error).__name__,
                message=str(error),
                worker_traceback=_traceback.format_exc(),
            ),
            worker_pid=os.getpid(),
        )


def _run_tile(job: TileJob, simulator: LithoSimulator) -> TileOutcome:
    return correct_tile(
        job.plan,
        job.keep,
        simulator,
        job.halo_nm,
        job.recipe,
        mask_builder=job.mask_builder,
        dose=job.dose,
        defocus_nm=job.defocus_nm,
    )


# -- parent side ---------------------------------------------------------------

def run_tile_jobs(
    plans: List[TilePlan],
    simulator: LithoSimulator,
    tiling: TilingSpec,
    spec: ParallelSpec,
    window: Rect,
    recipe: ModelOPCRecipe = ModelOPCRecipe(),
    mask_builder: MaskBuilder = binary_mask,
    dose: float = 1.0,
    defocus_nm: float = 0.0,
) -> List[TileOutcome]:
    """Correct every planned tile on a worker pool; outcomes in tile order.

    Each tile is corrected by :func:`~repro.opc.tiling.correct_tile` and
    clipped to its :func:`~repro.opc.tiling.kept_rect` in ``window``,
    exactly as the serial loop of
    :func:`~repro.opc.tiling.model_opc_tiled` does.

    Retries dead or failing jobs up to ``spec.max_retries`` times, then
    applies ``spec.on_failure``.  Worker telemetry envelopes are folded
    into the parent's trace, registry and profiler, and the pool's own
    bookkeeping lands under an ``opc.parallel`` span with
    ``opc.tile_retries`` / ``opc.tile_fallbacks`` / ``opc.tile_failures``
    counters.

    With a live event sink attached (:mod:`repro.obs.events`), workers
    forward their ``tile.*`` / ``opc.iteration`` / ``worker.resource``
    events over a bounded ``multiprocessing.Queue`` that the parent
    drains while waiting on futures, so telemetry streams *during*
    execution; a full queue drops events (counted) rather than ever
    stalling a worker.
    """
    spec = spec.validated()
    _ensure_picklable(mask_builder, recipe)
    observe = obs.enabled()
    profile_hz = obs.active_hz()
    jobs = [
        TileJob(
            plan=plan,
            keep=kept_rect(plan.tile, window, recipe.max_total_move_nm),
            halo_nm=tiling.halo_nm,
            recipe=recipe,
            mask_builder=mask_builder,
            dose=dose,
            defocus_nm=defocus_nm,
            observe=observe,
            profile_hz=profile_hz,
        )
        for plan in plans
    ]
    outcomes: Dict[int, TileOutcome] = {}
    attempts: Dict[int, int] = {plan.index: 0 for plan in plans}
    stats = {"retries": 0, "fallbacks": 0, "failures": 0}
    # Live telemetry: one bounded queue per pool run, created from the
    # same multiprocessing context as the executor so it works under
    # spawn as well as fork.  None when no sink is attached -- the whole
    # streaming path then costs a single boolean test.
    events_queue: Optional[Any] = None
    if _events.active():
        mp_context = multiprocessing.get_context(spec.start_method)
        events_queue = mp_context.Queue(maxsize=_events.queue_max())
    progress = _events.PoolProgress(total=len(plans), n_workers=spec.n_workers)
    for plan in plans:
        progress.scheduled(plan.index, plan.tile)

    with _obs_span(
        "opc.parallel", n_workers=spec.n_workers, tiles=len(jobs),
        start_method=spec.start_method or "default",
    ) as pool_span:
        try:
            queue = jobs
            while queue:
                queue = _run_round(
                    queue, outcomes, attempts, stats, simulator, spec,
                    events_queue, progress,
                )
        finally:
            if events_queue is not None:
                _events.drain_queue(events_queue)
                events_queue.close()
        ordered = [outcomes[index] for index in sorted(outcomes)]
        for outcome in ordered:
            outcome.attempts = attempts[outcome.index] + 1
        # In tile order, so the merged spans, counters and profiles are the
        # same at any worker count; serial-fallback tiles carry no envelope.
        obs.absorb_workers(pool_span, [outcome.telemetry for outcome in ordered])
        # The rollup shows at a glance how much of the layout settled.
        converged_tiles = sum(1 for outcome in ordered if outcome.converged)
        pool_span.set(
            retries=stats["retries"],
            fallbacks=stats["fallbacks"],
            failures=stats["failures"],
            tiles_converged=converged_tiles,
            tiles_stalled=len(ordered) - converged_tiles,
        )
    return ordered


def _run_round(
    queue: List[TileJob],
    outcomes: Dict[int, TileOutcome],
    attempts: Dict[int, int],
    stats: Dict[str, int],
    simulator: LithoSimulator,
    spec: ParallelSpec,
    events_queue: Optional[Any] = None,
    progress: Optional[_events.PoolProgress] = None,
) -> List[TileJob]:
    """Submit ``queue`` to a fresh pool; return the jobs needing another round.

    One round survives any single fault: worker exceptions come back as
    structured outcomes, worker deaths surface as :class:`BrokenExecutor`,
    and per-tile timeouts abandon the round.  In the latter two cases the
    pool is torn down (hung or dead workers cannot be reused), finished
    results are harvested, and unfinished jobs are resubmitted next round.
    """
    executor = _new_executor(spec, simulator.config, events_queue)
    restart = False
    retry: List[TileJob] = []
    try:
        futures: Dict[Future, TileJob] = {}
        for job in queue:
            try:
                futures[executor.submit(_execute_job, job)] = job
            except BrokenExecutor:
                retry.append(job)  # pool died while feeding it; next round
                restart = True
        for future, job in futures.items():
            if restart:
                # The pool is going down: keep finished results, requeue
                # the rest without charging them an attempt.
                outcome = _harvest_done(future)
                if outcome is not None:
                    _absorb(outcome, job, outcomes, attempts, stats, retry,
                            simulator, spec, progress)
                else:
                    retry.append(job)
                continue
            try:
                outcome = _events.result_draining(
                    future, spec.timeout_s, events_queue
                )
            except _FutureTimeout:
                restart = True
                _register_failure(
                    job, f"tile timed out after {spec.timeout_s} s",
                    None, attempts, stats, retry, outcomes, simulator, spec,
                    progress,
                )
            except BrokenExecutor as death:
                restart = True
                _register_failure(
                    job, f"worker process died: {death or 'terminated'}",
                    None, attempts, stats, retry, outcomes, simulator, spec,
                    progress,
                )
            else:
                _absorb(outcome, job, outcomes, attempts, stats, retry,
                        simulator, spec, progress)
    except TileCorrectionError:
        restart = True  # fail fast: kill in-flight workers on the way out
        raise
    finally:
        if events_queue is not None:
            _events.drain_queue(events_queue)
        _teardown(executor, kill=restart)
    return retry


def _absorb(
    outcome: TileOutcome,
    job: TileJob,
    outcomes: Dict[int, TileOutcome],
    attempts: Dict[int, int],
    stats: Dict[str, int],
    retry: List[TileJob],
    simulator: LithoSimulator,
    spec: ParallelSpec,
    progress: Optional[_events.PoolProgress] = None,
) -> None:
    if outcome.ok:
        outcomes[outcome.index] = outcome
        if progress is not None:
            progress.tile_done(outcome.index)
        return
    _register_failure(
        job,
        f"worker raised {outcome.error.kind}: {outcome.error.message}",
        outcome.error.worker_traceback,
        attempts, stats, retry, outcomes, simulator, spec, progress,
    )


def _register_failure(
    job: TileJob,
    message: str,
    worker_traceback: Optional[str],
    attempts: Dict[int, int],
    stats: Dict[str, int],
    retry: List[TileJob],
    outcomes: Dict[int, TileOutcome],
    simulator: LithoSimulator,
    spec: ParallelSpec,
    progress: Optional[_events.PoolProgress] = None,
) -> None:
    """Retry a failed job, or apply the end-of-retries policy."""
    index = job.plan.index
    attempts[index] += 1
    if attempts[index] <= spec.max_retries:
        stats["retries"] += 1
        _obs_count("opc.tile_retries")
        if progress is not None:
            progress.retry(index, attempts[index] + 1, message)
        retry.append(job)
        return
    stats["failures"] += 1
    _obs_count("opc.tile_failures")
    if spec.on_failure == "raise":
        if progress is not None:
            progress.failed(index, message, fallback=False)
        raise TileCorrectionError(message, job.plan.tile, index, worker_traceback)
    # Serial fallback: correct the tile in-process.  Its telemetry is
    # recorded directly into the parent, so the outcome carries none.
    stats["fallbacks"] += 1
    _obs_count("opc.tile_fallbacks")
    if progress is not None:
        progress.failed(index, message, fallback=True)
    outcomes[index] = _run_tile(job, simulator)
    if progress is not None:
        progress.tile_done(index)


def _harvest_done(future: Future) -> Optional[TileOutcome]:
    """The outcome of an already-finished future, else ``None``."""
    if not future.done() or future.cancelled():
        return None
    try:
        return future.result(timeout=0)
    except Exception:
        return None  # broken alongside the pool; the job is requeued


def _new_executor(
    spec: ParallelSpec,
    config: LithoConfig,
    events_queue: Optional[Any] = None,
) -> ProcessPoolExecutor:
    # get_context(None) is the platform default, and matches the context
    # the events queue was created from in run_tile_jobs.
    context = multiprocessing.get_context(spec.start_method)
    return ProcessPoolExecutor(
        max_workers=spec.n_workers,
        mp_context=context,
        initializer=_pool_init,
        initargs=(config, events_queue),
    )


def _teardown(executor: ProcessPoolExecutor, kill: bool) -> None:
    """Shut a pool down; forcibly terminate workers after a fault."""
    if not kill:
        executor.shutdown(wait=True)
        return
    try:
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            process.terminate()
    except Exception:  # pragma: no cover - best-effort cleanup
        pass
    executor.shutdown(wait=False, cancel_futures=True)


def _ensure_picklable(mask_builder: MaskBuilder, recipe: ModelOPCRecipe) -> None:
    try:
        pickle.dumps((mask_builder, recipe))
    except Exception as error:
        raise OPCError(
            "parallel tiled OPC ships jobs to worker processes, so the "
            "mask builder and recipe must be picklable (module-level "
            "functions or dataclasses such as BinaryMaskBuilder -- not "
            f"lambdas/closures): {error}"
        ) from error
