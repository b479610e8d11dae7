"""``Region.sized`` against the retired loop offsetter.

The oracle below is the module the one-sweep sizing replaced, kept
verbatim apart from names and imports.  It dilates by offsetting every
loop with mitred corners, covers a region with holes by rects instead,
and erodes through a complement frame.  It still runs on the current
boolean engine.  Its loops carry the grid lines of the offset loops and
of the frame, so the contract is on its output re-merged: ``sized``
returns the same loops, in the same order, with the same start vertices.
"""

from __future__ import annotations

from typing import List

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Rect
from repro.geometry.booleans import boolean_loops
from repro.geometry.point import Coord
from repro.geometry.region import Region

# -- the retired offsetter ----------------------------------------------------


def oracle_sized(region: Region, amount: int) -> "Region":
    """Grow (``amount > 0``) or shrink (``amount < 0``) a region's boundary."""
    if amount == 0:
        return region.merged()
    if amount > 0:
        return oracle_dilated(region, amount)
    return oracle_eroded(region, -amount)


def oracle_dilated(region: Region, amount: int) -> Region:
    """The region with every boundary pushed outward by ``amount`` dbu."""
    if amount < 0:
        raise GeometryError("oracle_dilated() needs a non-negative amount")
    merged = region.merged()
    if amount == 0 or merged.is_empty:
        return merged
    if any(_signed_area2(loop) < 0 for loop in merged.loops):
        # A hole shrunk past collapse in both axes inverts through its
        # centre -- a 180-degree point reflection that *preserves* the
        # hole's clockwise winding, so the raw edge-offset loop would keep
        # subtracting where the hole should have vanished.  Minkowski
        # distributes over union, so dilating an exact rectangle cover is
        # immune to loop inversion.
        return Region.from_rects(
            rect.expanded(amount) for rect in merged.rects()
        ).merged()
    offset = [_offset_loop(loop, amount) for loop in merged.loops]
    offset = [lp for lp in offset if len(lp) >= 4]
    return Region._from_canonical(boolean_loops(offset, [], "union"))


def oracle_eroded(region: Region, amount: int) -> Region:
    """The region with every boundary pulled inward by ``amount`` dbu."""
    if amount < 0:
        raise GeometryError("oracle_eroded() needs a non-negative amount")
    merged = region.merged()
    box = merged.bbox()
    if box is None:
        return merged
    frame = Region(box.expanded(2 * amount + 1))
    complement = frame - merged
    grown_complement = oracle_dilated(complement, amount)
    return frame - grown_complement


def _signed_area2(loop: List[Coord]) -> int:
    """Twice the shoelace area of one loop (positive = CCW = outer)."""
    total = 0
    for i in range(len(loop)):
        x1, y1 = loop[i]
        x2, y2 = loop[(i + 1) % len(loop)]
        total += x1 * y2 - x2 * y1
    return total


def _offset_loop(loop: List[Coord], amount: int) -> List[Coord]:
    """Offset one oriented loop outward by ``amount`` with mitred corners.

    Loops follow the interior-left convention (outer CCW, holes CW), so the
    outward normal of each edge is the right-hand normal of its direction.
    The returned loop may self-intersect; callers must clean it up with a
    winding merge.
    """
    n = len(loop)
    if n < 4:
        return []
    # Offset line coordinate for each edge: vertical edges keep an x, and
    # horizontal edges keep a y, both shifted by amount * outward normal.
    lines: List[tuple[str, int]] = []
    for i in range(n):
        x1, y1 = loop[i]
        x2, y2 = loop[(i + 1) % n]
        if x1 == x2:  # vertical edge
            direction = 1 if y2 > y1 else -1
            # right normal of (0, direction) is (direction, 0)
            lines.append(("v", x1 + direction * amount))
        elif y1 == y2:  # horizontal edge
            direction = 1 if x2 > x1 else -1
            # right normal of (direction, 0) is (0, -direction)
            lines.append(("h", y1 - direction * amount))
        else:  # pragma: no cover - regions validate rectilinearity upstream
            raise GeometryError("non-rectilinear edge in offset")
    # New vertices: intersection of each consecutive pair of offset lines.
    result: List[Coord] = []
    for i in range(n):
        kind_prev, c_prev = lines[i - 1]
        kind_cur, c_cur = lines[i]
        if kind_prev == kind_cur:
            # Consecutive parallel edges should not survive loop
            # simplification; treat as collinear and skip the vertex.
            continue
        x = c_prev if kind_prev == "v" else c_cur
        y = c_prev if kind_prev == "h" else c_cur
        result.append((x, y))
    return result


# -- inputs -------------------------------------------------------------------

SPAN = 40


@st.composite
def rect_lists(draw, max_rects):
    """Rects on a lattice, down to one-dbu slivers."""
    rects = []
    for _ in range(draw(st.integers(min_value=1, max_value=max_rects))):
        x = draw(st.integers(min_value=0, max_value=SPAN - 1))
        y = draw(st.integers(min_value=0, max_value=SPAN - 1))
        w = draw(st.integers(min_value=1, max_value=SPAN - x))
        h = draw(st.integers(min_value=1, max_value=SPAN - y))
        rects.append(Rect(x, y, x + w, y + h))
    return rects


@st.composite
def shapes(draw):
    """Raw rect soups, or soups minus soups: holes, slivers and necks."""
    solid = Region.from_rects(draw(rect_lists(max_rects=8)))
    if draw(st.booleans()):
        return solid
    return solid - Region.from_rects(draw(rect_lists(max_rects=4)))


# -- the contract -------------------------------------------------------------


@given(region=shapes(), amount=st.integers(min_value=-12, max_value=14))
@settings(max_examples=400, deadline=None, derandomize=True)
def test_sized_matches_the_retired_offsetter(region, amount):
    expected = Region(oracle_sized(region, amount).loops).merged().loops
    assert region.sized(amount).loops == expected

