"""``apply_biases`` against the retired per-fragment rebuild.

``apply_biases`` rebuilds the biased loops with array passes over a fragment
set's columns and one flat bias vector, and sweeps them once into joined
slab runs; the region it returns holds their rect array and stitches its
loops only when asked.  The oracle is the retired path: ``_rebuild_loop``
below (a verbatim copy) walks each loop's ``Fragment`` list of the retired
fragmenter with its per-loop biases in Python, loops of fewer than 4
points drop out, and a nonzero-winding union merges the rest.  The two
must give the same canonical loops, the same ``rects()`` and the same rect
array, also when biases make loops cross themselves or each other, turn
inside out, or shrink below 4 points.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    FragmentationSpec,
    Rect,
    Region,
    apply_biases,
    boolean_loops,
    fragment_region,
)
from repro.geometry.fragment import FragmentLoops
from repro.geometry.point import Coord

from .test_fragment_oracle import Fragment, retired_fragment_region

SPAN = 48

SPEC = FragmentationSpec(
    corner_length_nm=4, max_length_nm=8, min_length_nm=2, line_end_max_nm=10
)


def _rebuild_loop(fragments: Sequence[Fragment], biases: Sequence[int]) -> List[Coord]:
    points: List[Coord] = []
    n = len(fragments)
    for i in range(n):
        cur = fragments[i]
        nxt = fragments[(i + 1) % n]
        cur_start, cur_end = cur.shifted(biases[i])
        nxt_start, _ = nxt.shifted(biases[(i + 1) % n])
        if not points or points[-1] != cur_start:
            points.append(cur_start)
        if cur.direction == nxt.direction:
            # Same-edge neighbours: emit the jog pair (dedup handles equal
            # biases via the final simplification).
            points.append(cur_end)
        else:
            # Perpendicular corner: mitre to the intersection of the two
            # offset lines.
            mitre_x = cur_end[0] if cur.direction[0] == 0 else nxt_start[0]
            mitre_y = cur_end[1] if cur.direction[1] == 0 else nxt_start[1]
            points.append((mitre_x, mitre_y))
    return points


def oracle_apply_biases(loop_fragments, biases) -> Region:
    """The retired ``apply_biases``: per-fragment rebuild, then one union."""
    loops = [
        _rebuild_loop(fragments, loop_biases)
        for fragments, loop_biases in zip(loop_fragments, biases)
    ]
    loops = [lp for lp in loops if len(lp) >= 4]
    return Region._from_canonical(boolean_loops(loops, [], "union"))


def flat(biases: Sequence[Sequence[int]]) -> np.ndarray:
    """Per-loop biases as the one vector ``apply_biases`` takes."""
    return np.array([b for loop_biases in biases for b in loop_biases], dtype=np.int64)


def first_rows(loops: FragmentLoops, cut: int) -> FragmentLoops:
    """The fragment set of each loop's first ``cut`` fragments."""
    keep = np.array([i for rows in loops for i in rows[:cut]], dtype=np.intp)
    return FragmentLoops(
        np.minimum(loops.counts, cut),
        loops.start[keep],
        loops.end[keep],
        loops.tag[keep],
        loops.loop[keep],
        loops.edge[keep],
    )


def assert_same_region(fast: Region, oracle: Region) -> None:
    rects = np.array(oracle.rects(), dtype=np.int64).reshape(-1, 4)
    array = fast.rect_array()
    assert array.dtype == np.int64 and array.shape == rects.shape
    assert array.tobytes() == rects.tobytes()
    assert fast.rects() == oracle.rects()
    assert fast.loops == oracle.loops
    # The stitched loops' own sweep gives the same rects again.
    assert Region(fast.loops).merged().rects() == oracle.rects()


@st.composite
def targets(draw):
    """Canonical unions of small rect soups: jogs, holes, notches, pinches."""
    rects = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        x = draw(st.integers(min_value=0, max_value=SPAN - 2))
        y = draw(st.integers(min_value=0, max_value=SPAN - 2))
        w = draw(st.integers(min_value=2, max_value=SPAN - x))
        h = draw(st.integers(min_value=2, max_value=SPAN - y))
        rects.append(Rect(x, y, x + w, y + h))
    region = Region.from_rects(rects)
    if draw(st.booleans()):
        inner = draw(st.integers(min_value=0, max_value=len(rects) - 1))
        region = region.merged() - Region(rects[inner].expanded(-3))
    return region.merged()


@st.composite
def biased_sets(draw, spread):
    """A fragment set, the retired fragmenter's lists of it, and per-loop biases."""
    region = draw(targets())
    frags = fragment_region(region, SPEC)
    retired = retired_fragment_region(region, SPEC)
    biases = [
        draw(
            st.lists(
                st.integers(min_value=-spread, max_value=spread),
                min_size=len(fragments),
                max_size=len(fragments),
            )
        )
        for fragments in retired
    ]
    return frags, retired, biases


@given(case=biased_sets(spread=3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_small_biases_equal_the_retired_rebuild(case):
    frags, retired, biases = case
    assert_same_region(apply_biases(frags, flat(biases)), oracle_apply_biases(retired, biases))


@given(case=biased_sets(spread=30))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_crossing_and_inverted_loops_equal_the_retired_rebuild(case):
    """Biases up to 30 on a 48 lattice: loops cross, overlap and turn over."""
    frags, retired, biases = case
    assert_same_region(apply_biases(frags, flat(biases)), oracle_apply_biases(retired, biases))


@given(case=biased_sets(spread=12), cut=st.integers(min_value=1, max_value=3))
@settings(max_examples=200, deadline=None, derandomize=True)
def test_loops_cut_below_four_points_equal_the_retired_rebuild(case, cut):
    """Each loop keeps only its first ``cut`` fragments.

    Such a chain has at most ``2 * cut`` points, fewer where a shifted
    start repeats the point before it, so loops of fewer than 4 points drop
    out; a kept open chain may close with a diagonal edge, which both paths
    reject.
    """
    frags, retired, biases = case
    short = [fragments[:cut] for fragments in retired]
    short_biases = [loop_biases[:cut] for loop_biases in biases]
    try:
        oracle = oracle_apply_biases(short, short_biases)
    except GeometryError:
        with pytest.raises(GeometryError):
            apply_biases(first_rows(frags, cut), flat(short_biases))
        return
    assert_same_region(apply_biases(first_rows(frags, cut), flat(short_biases)), oracle)


@given(case=biased_sets(spread=10), again=st.integers(min_value=-10, max_value=10))
@settings(max_examples=100, deadline=None, derandomize=True)
def test_reused_fragment_set_and_flat_biases(case, again):
    """A fragment set rebiased twice: the second call reads the arrays the first built."""
    frags, retired, biases = case
    assert_same_region(apply_biases(frags, flat(biases)), oracle_apply_biases(retired, biases))
    shifted = [[b + again for b in loop_biases] for loop_biases in biases]
    assert_same_region(
        apply_biases(frags, flat(shifted)), oracle_apply_biases(retired, shifted)
    )


@given(case=biased_sets(spread=8), other=targets(), op=st.sampled_from(["&", "|", "-", "^"]))
@settings(max_examples=150, deadline=None, derandomize=True)
def test_booleans_read_the_rect_array(case, other, op):
    """An unstitched iterate in a boolean gives the stitched iterate's result."""
    frags, retired, biases = case
    lazy = apply_biases(frags, flat(biases))
    stitched = oracle_apply_biases(retired, biases)
    apply = {
        "&": lambda a, b: a & b,
        "|": lambda a, b: a | b,
        "-": lambda a, b: a - b,
        "^": lambda a, b: a ^ b,
    }[op]
    assert apply(lazy, other).loops == apply(stitched, other).loops
    assert apply(other, lazy).loops == apply(other, stitched).loops
    assert lazy.is_empty == stitched.is_empty


def test_empty_and_degenerate_sets():
    none = np.zeros(0, dtype=np.int64)
    assert apply_biases(fragment_region(Region(), SPEC), none).is_empty
    square = Region(Rect(0, 0, 40, 40))
    frags = fragment_region(square, SPEC)
    # One loop of no fragments.
    assert apply_biases(first_rows(frags, 0), none).is_empty
    # Every side pulled in past the middle: the square turns inside out.
    retired = retired_fragment_region(square, SPEC)
    inverted = [[-30] * len(retired[0])]
    assert_same_region(
        apply_biases(frags, flat(inverted)), oracle_apply_biases(retired, inverted)
    )
    with pytest.raises(GeometryError):
        apply_biases(frags, np.zeros(len(frags.tag) + 1, dtype=np.int64))
    with pytest.raises(GeometryError):
        apply_biases(frags, np.zeros(len(frags.tag) - 1, dtype=np.int64))
