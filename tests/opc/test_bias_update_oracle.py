"""Model OPC's array bookkeeping against the retired per-site loops.

`model_opc` keeps one int64 bias per fragment and runs the corner
combination, the iteration summary and the bias update as array passes.
The per-site Python they replaced lives on here, verbatim, as the oracle:
the combined EPEs and states, the `IterationStats` and the updated biases
with the largest applied move must be equal, also on exact ``.5`` rounding
ties (``np.rint`` and ``round`` both round half to even), on sites missing
in the dark and in the bright state, for dark and bright features, and
through the total-move clamp.  A whole multi-corner `model_opc` run must
also equal the retired loop built from these copies, the retired
fragmenter and control sites, and the geometry oracle's per-fragment
rebuild.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, Region
from repro.litho import binary_mask
from repro.opc import ModelOPCRecipe, model_opc
from repro.opc.model_opc import _combine_corners, _summarise, _update_biases
from repro.opc.report import IterationStats

from ..geometry.test_bias_oracle import oracle_apply_biases
from ..geometry.test_fragment_oracle import retired_fragment_region
from .test_fragment_consumers_oracle import retired_control_sites


def retired_combine_corners(
    measurements: Sequence[Tuple[Optional[float], str]],
    weights: Sequence[float],
) -> Tuple[Optional[float], str]:
    total = 0.0
    weight_sum = 0.0
    for (value, state), weight in zip(measurements, weights):
        if value is None:
            return None, state
        total += weight * value
        weight_sum += weight
    return total / weight_sum, "found"


def retired_summarise(iteration: int, epes: Sequence[Optional[float]]) -> IterationStats:
    values = np.array([e for e in epes if e is not None], dtype=float)
    missing = sum(1 for e in epes if e is None)
    if len(values) == 0:
        return IterationStats(iteration, float("inf"), float("inf"), 0, missing)
    return IterationStats(
        iteration=iteration,
        rms_epe_nm=float(np.sqrt(np.mean(values**2))),
        max_epe_nm=float(np.max(np.abs(values))),
        moved_fragments=int(np.count_nonzero(np.abs(values) > 0.25)),
        missing_edges=missing,
    )


def retired_update_biases(
    biases: List[List[int]],
    epes: Sequence[Optional[float]],
    states: Sequence[str],
    recipe: ModelOPCRecipe,
) -> int:
    cursor = 0
    clamp = recipe.max_move_per_iteration_nm
    total = recipe.max_total_move_nm
    max_applied = 0
    for loop_biases in biases:
        for i in range(len(loop_biases)):
            epe = epes[cursor]
            state = states[cursor]
            cursor += 1
            if epe is None:
                vanished_state = "dark" if recipe.bright_feature else "bright"
                move = (
                    recipe.missing_edge_move_nm
                    if state == vanished_state
                    else -recipe.missing_edge_move_nm
                )
            else:
                move = int(round(-recipe.damping * epe))
                move = max(-clamp, min(clamp, move))
            updated = max(-total, min(total, loop_biases[i] + move))
            applied = abs(updated - loop_biases[i])
            if applied > max_applied:
                max_applied = applied
            loop_biases[i] = updated
    return max_applied


def combine_all(per_corner, weights, active, n_sites):
    """The array bookkeeping as `model_opc` runs it."""
    epes = np.zeros(n_sites)
    states = np.full(n_sites, "found", dtype=object)
    epes[active], states[active] = _combine_corners(per_corner, weights)
    return epes, states


def retired_combine_all(per_corner, weights, active, n_sites):
    epes: List[Optional[float]] = [0.0] * n_sites
    states: List[str] = ["found"] * n_sites
    for position, slot in enumerate(active):
        epes[slot], states[slot] = retired_combine_corners(
            [measured[position] for measured in per_corner], weights
        )
    return epes, states


#: EPEs that put ``-damping * epe`` exactly on a half for damping 0.5 and
#: 1.0 (odd integers, and halves), plus ordinary and large values.
TIE_EPES = [k + 0.5 for k in range(-12, 12)] + list(range(-13, 14, 2))

measurements = st.one_of(
    st.tuples(st.none(), st.sampled_from(["dark", "bright"])),
    st.tuples(st.sampled_from(TIE_EPES), st.just("found")),
    st.tuples(
        st.floats(min_value=-80.0, max_value=80.0, allow_nan=False), st.just("found")
    ),
)


@st.composite
def iterations(draw):
    n_sites = draw(st.integers(min_value=0, max_value=40))
    active = sorted(
        draw(st.sets(st.integers(0, max(n_sites - 1, 0)), max_size=n_sites))
        if n_sites
        else set()
    )
    weights = [1.0] + draw(
        st.lists(st.sampled_from([0.25, 0.5, 1.0, 2, 3.5]), max_size=2)
    )
    per_corner = [
        draw(st.lists(measurements, min_size=len(active), max_size=len(active)))
        for _ in weights
    ]
    recipe = ModelOPCRecipe(
        damping=draw(st.sampled_from([0.5, 0.6, 1.0, 0.35])),
        max_move_per_iteration_nm=draw(st.integers(1, 10)),
        max_total_move_nm=draw(st.integers(1, 40)),
        missing_edge_move_nm=draw(st.integers(0, 9)),
        bright_feature=draw(st.booleans()),
    )
    total = recipe.max_total_move_nm
    biases = draw(
        st.lists(st.integers(-total, total), min_size=n_sites, max_size=n_sites)
    )
    cuts = sorted(draw(st.lists(st.integers(0, n_sites), max_size=4)))
    return per_corner, weights, active, n_sites, recipe, biases, cuts


@given(case=iterations(), iteration=st.integers(1, 9))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_array_bookkeeping_equals_the_retired_loops(case, iteration):
    per_corner, weights, active, n_sites, recipe, biases, cuts = case
    epes, states = combine_all(per_corner, weights, np.array(active, dtype=np.intp), n_sites)
    want_epes, want_states = retired_combine_all(per_corner, weights, active, n_sites)
    assert [None if np.isnan(e) else e for e in epes.tolist()] == want_epes
    missing = np.isnan(epes)
    assert list(states[missing]) == [s for e, s in zip(want_epes, want_states) if e is None]

    assert _summarise(iteration, epes) == retired_summarise(iteration, want_epes)

    flat = np.array(biases, dtype=np.int64)
    # The retired update walks per-loop lists; split the vector at ``cuts``.
    nested = [list(part) for part in np.split(np.array(biases, dtype=int), cuts)]
    nested = [[int(b) for b in part] for part in nested]
    moved = _update_biases(flat, epes, states, recipe)
    want_moved = retired_update_biases(nested, want_epes, want_states, recipe)
    assert moved == want_moved
    assert flat.tolist() == [b for part in nested for b in part]


def test_half_ties_round_to_even_both_ways():
    recipe = ModelOPCRecipe(damping=0.5, max_move_per_iteration_nm=8)
    epes = np.array([1.0, 3.0, -1.0, -3.0, 5.0, 2.5, -2.5])
    states = np.full(len(epes), "found", dtype=object)
    biases = np.zeros(len(epes), dtype=np.int64)
    _update_biases(biases, epes, states, recipe)
    # -0.5, -1.5, 0.5, 1.5, -2.5, -1.25, 1.25 rounded half to even.
    assert biases.tolist() == [0, -2, 0, 2, -2, -1, 1]
    assert biases.tolist() == [round(-0.5 * e) for e in epes.tolist()]


def test_missing_sites_push_by_feature_polarity():
    epes = np.array([np.nan, np.nan, 0.0])
    states = np.array(["bright", "dark", "found"], dtype=object)
    for bright_feature, expected in ((False, [6, -6, 0]), (True, [-6, 6, 0])):
        biases = np.zeros(3, dtype=np.int64)
        recipe = ModelOPCRecipe(bright_feature=bright_feature)
        assert _update_biases(biases, epes, states, recipe) == 6
        assert biases.tolist() == expected


def retired_model_opc(target, simulator, window, recipe, dose):
    """The retired iteration loop, from the verbatim copies above."""
    merged = target.merged()
    loops = retired_fragment_region(merged, recipe.fragmentation)
    sites, active = retired_control_sites(loops, window)
    active = active.tolist()
    active_sites = [sites[i] for i in active]
    biases = [[0] * len(fragments) for fragments in loops]
    corners = ((0.0, 1.0, 1.0),) + tuple(recipe.process_corners)
    weights = [w for _d, _f, w in corners]
    history = []
    best, best_corrected = float("inf"), merged
    for iteration in range(1, recipe.max_iterations + 1):
        corrected = oracle_apply_biases(loops, biases)
        per_corner = [
            simulator.edge_placement_errors_with_state(
                binary_mask(corrected), window, active_sites,
                dose=dose * factor, defocus_nm=defocus, search_nm=recipe.epe_search_nm,
            )
            for defocus, factor, _w in corners
        ]
        epes, states = retired_combine_all(per_corner, weights, active, len(sites))
        stats = retired_summarise(iteration, epes)
        history.append(stats)
        score = stats.rms_epe_nm + 100.0 * stats.missing_edges
        if score < best:
            best, best_corrected = score, corrected
        converged = stats.max_epe_nm <= recipe.epe_tolerance_nm and not stats.missing_edges
        if converged or iteration == recipe.max_iterations:
            break
        retired_update_biases(biases, epes, states, recipe)
    return best_corrected, history


def test_multi_corner_run_equals_the_retired_loop(simulator, anchor_dose):
    """Defocus and dose corners, a line end and a narrow gap that bridges
    at the dark corner, so sites go missing mid-run."""
    target = Region.from_rects(
        [Rect(0, -900, 180, 300), Rect(330, -900, 510, 900), Rect(-600, 420, 510, 560)]
    )
    window = Rect(-500, -600, 800, 700)
    recipe = ModelOPCRecipe(
        max_iterations=4,
        epe_search_nm=40.0,
        process_corners=((150.0, 0.92, 0.5), (-150.0, 1.08, 0.5)),
    )
    result = model_opc(target, simulator, window, recipe, dose=anchor_dose)
    corrected, history = retired_model_opc(target, simulator, window, recipe, anchor_dose)
    assert result.history == history
    assert result.corrected.loops == corrected.loops
