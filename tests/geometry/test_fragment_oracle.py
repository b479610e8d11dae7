"""``fragment_region`` against the retired per-edge fragmenter.

``fragment_region`` fragments every canonical loop in one integer array
pass and returns a ``FragmentLoops``: per-fragment columns, and as a
sequence each loop's range of rows.  The oracle is the retired path, kept
here verbatim: the ``Fragment`` dataclass, ``_fragment_loop`` walking each
loop's edges and ``_fragment_edge`` cutting one edge with ``_along``,
``_sign`` and ``_is_convex``.  The columns must equal the retired lists,
in the same order, with the same tags, loop and edge indices: on
rectilinear soups with holes and pinched vertices, with edges exactly at
every threshold of the spec, on the four specs the flows use and on
random integer specs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import (
    FragmentationSpec,
    FragmentTag,
    Polygon,
    Rect,
    Region,
    apply_biases,
    fragment_region,
)
from repro.geometry import fragment as fragment_module
from repro.geometry.fragment import TAGS
from repro.geometry.point import Coord
from repro.opc.model_opc import DEFAULT_MODEL_FRAGMENTATION
from repro.opc.retarget import RETARGET_FRAGMENTATION
from repro.opc.rule_opc import DEFAULT_RULE_FRAGMENTATION
from repro.verify.epe import DEFAULT_EPE_FRAGMENTATION

SEEDED = settings(max_examples=300, deadline=None, derandomize=True, database=None)

#: The specs of model OPC, rule OPC, retargeting and EPE sites.
SPECS_IN_USE = (
    DEFAULT_MODEL_FRAGMENTATION,
    DEFAULT_RULE_FRAGMENTATION,
    RETARGET_FRAGMENTATION,
    DEFAULT_EPE_FRAGMENTATION,
)


# -- the retired fragmenter, verbatim ------------------------------------------


@dataclass(frozen=True)
class Fragment:
    """A directed piece of a polygon edge.

    ``start -> end`` runs along the loop direction; ``normal`` is the unit
    outward normal.  ``tag`` records the geometric role used by OPC rules.
    """

    start: Coord
    end: Coord
    tag: FragmentTag
    loop_index: int
    edge_index: int

    @property
    def direction(self) -> Coord:
        """Unit direction along the loop."""
        dx = self.end[0] - self.start[0]
        dy = self.end[1] - self.start[1]
        return ((dx > 0) - (dx < 0), (dy > 0) - (dy < 0))

    @property
    def normal(self) -> Coord:
        """Unit outward normal (right-hand normal of the direction)."""
        dx, dy = self.direction
        return (dy, -dx)

    @property
    def length(self) -> int:
        """Fragment length in dbu."""
        return abs(self.end[0] - self.start[0]) + abs(self.end[1] - self.start[1])

    @property
    def midpoint(self) -> Coord:
        """Midpoint of the fragment (floored to the grid)."""
        return (
            (self.start[0] + self.end[0]) // 2,
            (self.start[1] + self.end[1]) // 2,
        )

    def control_point(self, offset: int = 0) -> Coord:
        """The EPE measurement site: midpoint pushed ``offset`` dbu outward."""
        nx, ny = self.normal
        mx, my = self.midpoint
        return (mx + nx * offset, my + ny * offset)

    def shifted(self, bias: int) -> Tuple[Coord, Coord]:
        """Endpoint pair after moving the fragment ``bias`` dbu outward."""
        nx, ny = self.normal
        return (
            (self.start[0] + nx * bias, self.start[1] + ny * bias),
            (self.end[0] + nx * bias, self.end[1] + ny * bias),
        )


def _fragment_loop(
    loop: Sequence[Coord], loop_index: int, spec: FragmentationSpec
) -> List[Fragment]:
    n = len(loop)
    convex = [_is_convex(loop[i - 1], loop[i], loop[(i + 1) % n]) for i in range(n)]
    fragments: List[Fragment] = []
    for i in range(n):
        start = loop[i]
        end = loop[(i + 1) % n]
        start_convex = convex[i]
        end_convex = convex[(i + 1) % n]
        fragments.extend(
            _fragment_edge(start, end, start_convex, end_convex, loop_index, i, spec)
        )
    return fragments


def _fragment_edge(
    start: Coord,
    end: Coord,
    start_convex: bool,
    end_convex: bool,
    loop_index: int,
    edge_index: int,
    spec: FragmentationSpec,
) -> List[Fragment]:
    length = abs(end[0] - start[0]) + abs(end[1] - start[1])

    def frag(a: Coord, b: Coord, tag: FragmentTag) -> Fragment:
        return Fragment(a, b, tag, loop_index, edge_index)

    if length <= spec.line_end_max_nm and start_convex and end_convex:
        return [frag(start, end, FragmentTag.LINE_END)]
    if length < 2 * spec.corner_length_nm + spec.min_length_nm:
        return [frag(start, end, FragmentTag.NORMAL)]

    pieces: List[Fragment] = []
    head = _along(start, end, spec.corner_length_nm)
    tail = _along(end, start, spec.corner_length_nm)
    pieces.append(
        frag(
            start,
            head,
            FragmentTag.CORNER_CONVEX if start_convex else FragmentTag.CORNER_CONCAVE,
        )
    )
    # Split the interior run into near-equal chunks no longer than max_length_nm.
    run = length - 2 * spec.corner_length_nm
    chunks = max(1, -(-run // spec.max_length_nm))
    cursor = head
    for k in range(1, chunks + 1):
        nxt = _along(head, tail, (run * k) // chunks)
        pieces.append(frag(cursor, nxt, FragmentTag.NORMAL))
        cursor = nxt
    pieces.append(
        frag(
            tail,
            end,
            FragmentTag.CORNER_CONVEX if end_convex else FragmentTag.CORNER_CONCAVE,
        )
    )
    return pieces


def _is_convex(prev: Coord, cur: Coord, nxt: Coord) -> bool:
    """True when the corner at ``cur`` juts outward (left turn, interior-left)."""
    ax, ay = cur[0] - prev[0], cur[1] - prev[1]
    bx, by = nxt[0] - cur[0], nxt[1] - cur[1]
    return ax * by - ay * bx > 0


def _along(start: Coord, end: Coord, distance: int) -> Coord:
    """The point ``distance`` dbu from ``start`` toward ``end``."""
    dx = _sign(end[0] - start[0])
    dy = _sign(end[1] - start[1])
    return (start[0] + dx * distance, start[1] + dy * distance)


def _sign(v: int) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def retired_fragment_region(region: Region, spec: FragmentationSpec) -> List[List[Fragment]]:
    """The retired ``fragment_region``: one ``_fragment_loop`` per canonical loop."""
    spec = spec.validated()
    return [
        _fragment_loop(loop, loop_index, spec)
        for loop_index, loop in enumerate(region.merged().loops)
    ]


# -- comparison ------------------------------------------------------------------


def assert_same_fragments(region: Region, spec: FragmentationSpec) -> None:
    fast = fragment_region(region, spec)
    want = retired_fragment_region(region, spec)
    flat = [f for fragments in want for f in fragments]
    assert fast.counts.tolist() == [len(fragments) for fragments in want]
    assert fast.start.dtype == np.int64 and fast.start.shape == (len(flat), 2)
    assert fast.start.tolist() == [list(f.start) for f in flat]
    assert fast.end.tolist() == [list(f.end) for f in flat]
    assert [TAGS[code] for code in fast.tag.tolist()] == [f.tag for f in flat]
    assert fast.loop.tolist() == [f.loop_index for f in flat]
    assert fast.edge.tolist() == [f.edge_index for f in flat]
    assert fast.midpoint.tolist() == [list(f.midpoint) for f in flat]
    assert fast.normal.tolist() == [list(f.normal) for f in flat]
    assert [f.direction for f in flat] == [
        (_sign(f.end[0] - f.start[0]), _sign(f.end[1] - f.start[1])) for f in flat
    ]


# -- strategies ------------------------------------------------------------------


@st.composite
def random_specs(draw):
    corner = draw(st.integers(1, 20))
    minimum = draw(st.integers(1, 20))
    return FragmentationSpec(
        corner_length_nm=corner,
        max_length_nm=draw(st.integers(minimum, 60)),
        min_length_nm=minimum,
        line_end_max_nm=draw(st.integers(-5, 80)),
    )


def threshold_lengths(spec: FragmentationSpec) -> List[int]:
    """Edge lengths at each threshold of ``spec``, and interior runs that
    are multiples of ``max_length_nm``."""
    split = 2 * spec.corner_length_nm + spec.min_length_nm
    runs = [2 * spec.corner_length_nm + k * spec.max_length_nm for k in (1, 2, 3)]
    lengths = [spec.line_end_max_nm, spec.line_end_max_nm + 1, split - 1, split]
    return [n for n in lengths + runs if 0 < n <= 4000]


@st.composite
def cases(draw):
    """A spec and a canonical soup of rects sized at its thresholds, with
    holes, pinched vertices (rects meeting at one corner) and far offsets."""
    spec = draw(st.one_of(st.sampled_from(SPECS_IN_USE), random_specs()))
    sizes = threshold_lengths(spec)
    span = max(sizes + [60]) * 2
    size = st.one_of(st.sampled_from(sizes), st.integers(1, span))
    rects = []
    for _ in range(draw(st.integers(1, 6))):
        x = draw(st.integers(0, span))
        y = draw(st.integers(0, span))
        rects.append(Rect(x, y, x + draw(size), y + draw(size)))
    if draw(st.booleans()):
        # Pinch: a rect touching the first one at its top-right corner only.
        first = rects[0]
        rects.append(
            Rect(first.x2, first.y2, first.x2 + draw(size), first.y2 + draw(size))
        )
    region = Region.from_rects(rects)
    if draw(st.booleans()):
        outer = rects[draw(st.integers(0, len(rects) - 1))]
        inset = draw(st.integers(1, max(1, min(outer.width, outer.height) // 3)))
        region = region.merged() - Region(outer.expanded(-inset))
    offset = draw(st.sampled_from([0, -(2**31) + 10, 2**31 - 10 * span]))
    return spec, region.merged().translated((offset, -offset))


@SEEDED
@given(case=cases())
def test_equals_the_retired_fragmenter(case):
    spec, region = case
    assert_same_fragments(region, spec)


@SEEDED
@given(case=cases())
def test_sequence_is_each_loops_range_of_rows(case):
    """What fragment counts read as ``sum(len(loop) for loop in loops)``:
    ``len`` is the loop count and each item is the ``range`` of its loop's
    rows of the columns, with no per-fragment object built."""
    spec, region = case
    loops = fragment_region(region, spec)
    want = retired_fragment_region(region, spec)
    assert len(loops) == len(want) == len(loops.counts)
    ranges = list(loops)
    assert all(type(rows) is range for rows in ranges)
    assert [len(rows) for rows in loops] == loops.counts.tolist()
    assert sum(len(rows) for rows in loops) == len(loops.tag)
    for index, (rows, fragments) in enumerate(zip(ranges, want)):
        assert loops[index] == rows
        assert loops.loop[rows].tolist() == [index] * len(rows)
        assert loops.start[rows].tolist() == [list(f.start) for f in fragments]
        assert loops.end[rows].tolist() == [list(f.end) for f in fragments]
    assert not hasattr(fragment_module, "Fragment")


@pytest.mark.parametrize("spec", SPECS_IN_USE, ids=["model", "rule", "retarget", "epe"])
def test_threshold_edges_of_the_specs_in_use(spec):
    """A staircase whose steps take every threshold length in turn, a
    ring, a plus and an L: line ends, unsplit, just-split and
    multiple-of-max edges next to convex and concave corners."""
    lengths = threshold_lengths(spec)
    x = y = 0
    points = [(0, 0)]
    for length in lengths:
        x += length
        points.append((x, y))
        y += length
        points.append((x, y))
    points.append((0, y))
    staircase = Region(Polygon(points))
    ring = Region(Rect(0, 0, 3000, 3000)) - Region(Rect(700, 700, 2300, 2300))
    plus = Region.from_rects([Rect(-90, -600, 90, 600), Rect(-600, -90, 600, 90)])
    ell = Region(Polygon([(0, 0), (1500, 0), (1500, 300), (300, 300), (300, 1500), (0, 1500)]))
    for region in (staircase, ring, plus, ell):
        assert_same_fragments(region, spec)


def test_empty_region():
    fast = fragment_region(Region(), DEFAULT_MODEL_FRAGMENTATION)
    assert len(fast) == 0 and list(fast) == []
    assert fast.start.shape == (0, 2) and fast.counts.shape == (0,)
    assert apply_biases(fast, np.zeros(0, dtype=np.int64)).is_empty
