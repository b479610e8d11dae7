"""Canonical loops are a function of the covered point set.

Re-merging a canonical region must give back the same loops: the same
loops in the same order, each starting at the same vertex.  The sweep's
grid holds every operand's edge coordinates, so this fails if a grid line
the result does not use -- another operand's, or an overlapped rect's --
can move a loop's start vertex or change the loop order.
"""

from __future__ import annotations

import operator

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rect, Region
from repro.lint import LintContext, run_lint

SPAN = 16

OPS = (operator.or_, operator.and_, operator.sub, operator.xor)


@st.composite
def soups(draw):
    """Raw rect soups on a small lattice, or their canonical union or xor.

    Overlaps leave grid lines inside the covered set, and xor leaves holes
    and pinches where rects touch at a corner.
    """
    rects = []
    for _ in range(draw(st.integers(min_value=1, max_value=7))):
        x = draw(st.integers(min_value=0, max_value=SPAN - 1))
        y = draw(st.integers(min_value=0, max_value=SPAN - 1))
        w = draw(st.integers(min_value=1, max_value=SPAN - x))
        h = draw(st.integers(min_value=1, max_value=SPAN - y))
        rects.append(Rect(x, y, x + w, y + h))
    region = Region.from_rects(rects)
    combine = draw(st.sampled_from(("raw", "union", "xor")))
    if combine == "union":
        return region.merged()
    if combine == "xor":
        xor = Region()
        for rect in rects:
            xor = xor ^ Region(rect)
        return xor
    return region


def assert_re_merges_to_itself(region: Region) -> None:
    loops = region.loops
    assert Region(loops).merged().loops == loops


@given(a=soups(), b=soups(), op=st.sampled_from(OPS))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_boolean_results_re_merge_to_themselves(a, b, op):
    assert_re_merges_to_itself(op(a, b))


@given(a=soups(), amount=st.integers(min_value=-12, max_value=14))
@settings(max_examples=300, deadline=None, derandomize=True)
def test_sized_results_re_merge_to_themselves(a, amount):
    assert_re_merges_to_itself(a.sized(amount))


@given(
    a=soups(),
    b=soups(),
    op=st.sampled_from(OPS),
    amount=st.integers(min_value=-12, max_value=14),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_result_loops_never_cross_themselves(a, b, op, amount):
    """Why LNT204 (self-intersecting loop) reads raw input loops only."""
    for result in (op(a, b), a.sized(amount)):
        report = run_lint(
            LintContext(raw_loops=result.loops), codes=["LNT204"]
        )
        assert not report.diagnostics


def test_hole_start_ignores_a_grid_line_the_result_does_not_use():
    # The second rect of A adds the abscissa 9, which cuts the hole's
    # bottom edge 8..10 but is no vertex of A - B.
    a = Region.from_rects([Rect(7, 0, 13, 8), Rect(8, 6, 9, 8)])
    result = a - Region(Rect(8, 6, 10, 7))
    assert result.loops == [
        [(7, 0), (13, 0), (13, 8), (7, 8)],
        [(10, 6), (8, 6), (8, 7), (10, 7)],
    ]
    assert_re_merges_to_itself(result)


def test_sized_hole_start_ignores_the_abscissae_of_a_filled_slot():
    # Dilation fills the slot 9..10 in the bottom edge, and the slot's
    # abscissae cut the bottom edge 6..14 of the shrunk hole in the sweep.
    ring = Region(Rect(0, 0, 20, 20)) - Region.from_rects(
        [Rect(5, 5, 15, 15), Rect(9, 0, 10, 2)]
    )
    grown = ring.sized(1)
    assert grown.loops == [
        [(-1, -1), (21, -1), (21, 21), (-1, 21)],
        [(14, 6), (6, 6), (6, 14), (14, 14)],
    ]
    assert_re_merges_to_itself(grown)
