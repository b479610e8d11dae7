"""Model-based OPC: simulation-in-the-loop iterative edge correction.

The second-generation OPC the paper's era was adopting: fragment every
edge, simulate the printed image, measure the edge-placement error (EPE) at
a control site per fragment, and move each fragment against its error.
Damped Newton-style iteration with per-move and total-excursion clamps is
exactly the production algorithm shape (feedback locality and fragment
conformity are its structural limits -- the reason inverse methods were
later explored).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import OPCError
from ..geometry import (
    FragmentationSpec,
    Rect,
    Region,
    apply_biases,
    fragment_region,
)
from ..geometry.fragment import FragmentLoops
from ..litho import LithoSimulator, MaskSpec, binary_mask
from ..obs import (
    count as _obs_count,
    gauge_set as _obs_gauge_set,
    observe as _obs_observe,
    span as _obs_span,
)
from ..obs import events as _obs_events
from ..obs.state import enabled as _obs_enabled
from .report import IterationStats, OPCResult

#: Histogram buckets for per-iteration worst-site EPE (nm).
EPE_NM_BUCKETS = (0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Histogram buckets for signed per-site |EPE| samples (nm).
SITE_EPE_NM_BUCKETS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0)

#: Histogram buckets for the largest fragment move applied per iteration (nm).
MOVE_NM_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)

#: Fragmentation used by model-based OPC (fine: sub-resolution fragments).
DEFAULT_MODEL_FRAGMENTATION = FragmentationSpec(
    corner_length_nm=40, max_length_nm=80, min_length_nm=20, line_end_max_nm=260
)

#: Builds the mask to simulate from corrected main-feature geometry.
MaskBuilder = Callable[[Region], MaskSpec]


@dataclass(frozen=True)
class ModelOPCRecipe:
    """Settings of a model-based correction run."""

    fragmentation: FragmentationSpec = DEFAULT_MODEL_FRAGMENTATION
    max_iterations: int = 8
    damping: float = 0.6
    max_move_per_iteration_nm: int = 8
    max_total_move_nm: int = 40
    epe_tolerance_nm: float = 1.5
    epe_search_nm: float = 60.0
    missing_edge_move_nm: int = 6
    #: Set for bright features (contact holes on dark-field masks): flips
    #: the interpretation of all-dark/all-bright failure states.
    bright_feature: bool = False
    #: Process-window OPC: extra (defocus_nm, dose_factor, weight) corners
    #: measured each iteration in addition to the nominal condition (which
    #: always carries weight 1).  Fragments move against the weighted EPE,
    #: trading nominal perfection for through-window stability.
    process_corners: Tuple[Tuple[float, float, float], ...] = ()

    def validated(self) -> "ModelOPCRecipe":
        """Return self, raising :class:`OPCError` on nonsense values."""
        if self.max_iterations < 1:
            raise OPCError("need at least one iteration")
        if not 0 < self.damping <= 1.0:
            raise OPCError(f"damping must be in (0, 1], got {self.damping}")
        if self.max_move_per_iteration_nm < 1 or self.max_total_move_nm < 1:
            raise OPCError("move clamps must be positive")
        if not (math.isfinite(self.epe_tolerance_nm) and self.epe_tolerance_nm > 0):
            raise OPCError(
                f"EPE tolerance must be finite and positive, got {self.epe_tolerance_nm}"
            )
        if not (math.isfinite(self.epe_search_nm) and self.epe_search_nm > 0):
            raise OPCError(
                f"EPE search span must be finite and positive, got {self.epe_search_nm}"
            )
        if self.missing_edge_move_nm < 0:
            raise OPCError(
                f"missing-edge move must be >= 0, got {self.missing_edge_move_nm}"
            )
        return self


def model_opc(
    target: Region,
    simulator: LithoSimulator,
    window: Rect,
    recipe: ModelOPCRecipe = ModelOPCRecipe(),
    mask_builder: MaskBuilder = binary_mask,
    dose: float = 1.0,
    defocus_nm: float = 0.0,
) -> OPCResult:
    """Iteratively correct ``target`` until it prints on target.

    ``window`` bounds the geometry being corrected (context outside it must
    already be included in ``target`` out to the optical ambit).  The
    returned :class:`OPCResult` carries per-iteration convergence history.
    """
    recipe = recipe.validated()
    merged = target.merged()
    if merged.is_empty:
        return OPCResult(target=merged, corrected=merged)

    loops = fragment_region(merged, recipe.fragmentation)
    sites, active = _control_sites(loops, window)
    # Control sites are anchored on the *target* edges, so the measured
    # site list never changes across iterations -- build it once.
    active_sites = sites[active]
    # One bias per fragment, in loop order; sites outside the window keep
    # EPE 0 and so never move.
    biases = np.zeros(len(sites), dtype=np.int64)
    history: List[IterationStats] = []
    corrected = merged
    converged = False
    best_rms = float("inf")
    best_corrected = merged

    corners = ((defocus_nm, 1.0, 1.0),) + tuple(
        (defocus_nm + extra_defocus, factor, weight)
        for extra_defocus, factor, weight in recipe.process_corners
    )
    weights = [weight for _d, _f, weight in corners]

    with _obs_span("opc.model", fragments=len(sites)) as model_span:
        for iteration in range(1, recipe.max_iterations + 1):
            with _obs_span("opc.iteration", iteration=iteration) as it_span:
                corrected = apply_biases(loops, biases)
                mask = mask_builder(corrected)
                per_corner = [
                    simulator.edge_placement_errors_with_state(
                        mask,
                        window,
                        active_sites,
                        dose=dose * factor,
                        defocus_nm=corner_defocus,
                        search_nm=recipe.epe_search_nm,
                    )
                    for corner_defocus, factor, _weight in corners
                ]
                epes = np.zeros(len(sites))
                states = np.full(len(sites), "found", dtype=object)
                epes[active], states[active] = _combine_corners(per_corner, weights)
                stats = _summarise(iteration, epes)
                history.append(stats)
                # Track the best iterate: EPE is not guaranteed monotone
                # (adjacent fragments interact), and production OPC keeps
                # the best pass.
                score = stats.rms_epe_nm + 100.0 * stats.missing_edges
                if score < best_rms:
                    best_rms = score
                    best_corrected = corrected
                converged = (
                    stats.max_epe_nm <= recipe.epe_tolerance_nm
                    and stats.missing_edges == 0
                )
                it_span.set(
                    rms_epe_nm=stats.rms_epe_nm,
                    max_epe_nm=stats.max_epe_nm,
                    moved_fragments=stats.moved_fragments,
                    missing_edges=stats.missing_edges,
                    converged=converged,
                )
                _obs_count("opc.iterations")
                if _obs_events.active():
                    # Live per-iteration EPE stats; non-finite values map
                    # to null (JSON has no Infinity).
                    _obs_events.emit(
                        "opc.iteration",
                        iteration=iteration,
                        rms_epe_nm=round(stats.rms_epe_nm, 3)
                        if np.isfinite(stats.rms_epe_nm) else None,
                        max_epe_nm=round(stats.max_epe_nm, 3)
                        if np.isfinite(stats.max_epe_nm) else None,
                        moved_fragments=stats.moved_fragments,
                        missing_edges=stats.missing_edges,
                        converged=converged,
                    )
                if np.isfinite(stats.max_epe_nm):
                    _obs_observe(
                        "opc.epe_nm", stats.max_epe_nm, EPE_NM_BUCKETS
                    )
                if _obs_enabled():
                    # Per-site |EPE| distribution of this iteration.  The
                    # enabled() guard keeps the disabled path at zero cost
                    # (no per-site loop); buckets merge exactly across
                    # parallel workers.
                    measured = epes[active]
                    for value in np.abs(measured[~np.isnan(measured)]).tolist():
                        _obs_observe("opc.site_epe_nm", value, SITE_EPE_NM_BUCKETS)
                last = converged or iteration == recipe.max_iterations
                if not last:
                    max_move = _update_biases(biases, epes, states, recipe)
                    it_span.set(max_move_nm=max_move)
                    _obs_observe(
                        "opc.max_move_nm", float(max_move), MOVE_NM_BUCKETS
                    )
            if last:
                break
        model_span.set(
            iterations=len(history), converged=converged,
            damping=recipe.damping,
        )
        _obs_gauge_set("opc.damping", recipe.damping)
        _obs_count("opc.converged" if converged else "opc.stalled")

    return OPCResult(
        target=merged,
        corrected=best_corrected,
        history=history,
        converged=converged,
        fragment_count=len(sites),
    )


def _control_sites(
    loops: FragmentLoops, window: Rect
) -> Tuple[np.ndarray, np.ndarray]:
    """One (anchor, outward-normal) EPE site per fragment, on the target edge.

    Returns all sites, the ``(n, 2, 2)`` int64 stack of each fragment's
    midpoint and normal, plus the indices of *active* sites -- those whose
    anchor, the fragment's midpoint, lies inside the correction window,
    its boundary included.  Fragments outside the window (context
    geometry that extends past the simulation grid) stay at zero bias and
    are not measured.
    """
    return (
        np.stack((loops.midpoint, loops.normal), axis=1),
        np.flatnonzero(loops.in_window(window)),
    )


def _combine_corners(
    per_corner: Sequence[Sequence[Tuple[Optional[float], str]]],
    weights: Sequence[float],
) -> Tuple[np.ndarray, np.ndarray]:
    """Weighted EPE across process corners, per site: ``(epes, states)``.

    ``per_corner[c][k]`` is site ``k``'s ``(epe or None, state)`` at corner
    ``c``.  A site that fails at any corner is missing (NaN) with the state
    of its first failing corner -- a catastrophic corner dominates any EPE
    average.  The weighted sum runs corner by corner in weight order, as a
    scalar loop would.
    """
    values = np.array([[v for v, _s in m] for m in per_corner], dtype=float)  # None -> NaN
    states = np.array([[s for _v, s in m] for m in per_corner], dtype=object)
    total = np.zeros(values.shape[1])
    weight_sum = 0.0
    for row, weight in zip(values, weights):
        total += weight * row
        weight_sum += weight
    failed = np.isnan(values)
    first = failed.argmax(axis=0)
    state = np.where(
        failed.any(axis=0), states[first, np.arange(values.shape[1])], "found"
    )
    return total / weight_sum, state


def _summarise(iteration: int, epes: np.ndarray) -> IterationStats:
    """The iteration's EPE statistics over every fragment; NaN is missing."""
    missing = np.isnan(epes)
    values = epes[~missing]
    if len(values) == 0:
        return IterationStats(
            iteration, float("inf"), float("inf"), 0, int(missing.sum())
        )
    return IterationStats(
        iteration=iteration,
        rms_epe_nm=float(np.sqrt(np.mean(values**2))),
        max_epe_nm=float(np.max(np.abs(values))),
        moved_fragments=int(np.count_nonzero(np.abs(values) > 0.25)),
        missing_edges=int(missing.sum()),
    )


def _update_biases(
    biases: np.ndarray,
    epes: np.ndarray,
    states: np.ndarray,
    recipe: ModelOPCRecipe,
) -> int:
    """Damped per-fragment move against the measured EPE, with clamps.

    Updates ``biases`` in place and returns the largest bias change
    actually applied (nm) -- the convergence-telemetry "max move" of this
    iteration, which goes to zero as the correction settles.  Moves round
    half to even (``np.rint``, as ``round``).
    """
    missing = np.isnan(epes)
    # No printed edge inside the search span.  For dark features (resist
    # lines): "bright" means the feature vanished -> push the mask edge
    # outward; "dark" means the space bridged -> pull inward.  For bright
    # features (contact holes) the interpretation flips.
    vanished_state = "dark" if recipe.bright_feature else "bright"
    push = recipe.missing_edge_move_nm
    # Positive EPE = printed edge outside target = pull mask in.
    clamp = recipe.max_move_per_iteration_nm
    damped = np.rint(-recipe.damping * np.where(missing, 0.0, epes))
    move = np.where(
        missing,
        np.where(states == vanished_state, push, -push),
        np.clip(damped, -clamp, clamp),
    ).astype(np.int64)
    total = recipe.max_total_move_nm
    updated = np.clip(biases + move, -total, total)
    max_applied = int(np.abs(updated - biases).max(initial=0))
    biases[:] = updated
    return max_applied
