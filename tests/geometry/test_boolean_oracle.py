"""The array boolean engine against the retired scanline engine.

The oracle below is the per-slab sweep and rect-based loop stitching the
array engine replaced, kept verbatim apart from names.  The retired
engine's loops depend on every operand's grid lines: a slab cut by a line
the result does not use splits a run edge, which can move a hole's start
vertex.  Re-merging its own output sweeps only the result's grid lines,
which are a function of the point set.  The contract is exact against
that re-merged output: ``boolean_loops`` and ``Region.merged`` return the
same loops in the same order, each starting at the same vertex, at every
chunk size.  ``boolean_rects`` and ``Region.rects`` return the oracle's
rects in the same order, every coordinate is a Python ``int``, and both
engines raise the same errors.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Rect, Region, boolean_loops, boolean_rects
from repro.geometry import booleans
from repro.geometry.booleans import PREDICATES
from repro.geometry.polygon import _strip_degenerate

OPS = ("union", "intersection", "difference", "xor")


# -- the retired engine -------------------------------------------------------


def oracle_sweep_rects(operands, predicate) -> List[Rect]:
    edges = [oracle_vertical_edges(loops) for loops in operands]
    total = sum(len(e) for e in edges)
    if total == 0:
        return []

    ys = np.unique(np.concatenate([e[:, 1:3].ravel() for e in edges if len(e)]))
    if len(ys) < 2:
        return []
    y_index = {int(y): i for i, y in enumerate(ys)}

    events: Dict[int, List[Tuple[int, int, int, int]]] = {}
    for op_idx, edge_arr in enumerate(edges):
        for x, y1, y2, w in edge_arr:
            events.setdefault(int(x), []).append(
                (op_idx, y_index[int(y1)], y_index[int(y2)], int(w))
            )

    xs = sorted(events)
    counts = [np.zeros(len(ys) - 1, dtype=np.int32) for _ in operands]
    rects: List[Rect] = []
    prev_x = xs[0]
    for x in xs:
        if x != prev_x:
            mask = predicate(counts)
            if mask.any():
                oracle_emit_slab(rects, mask, ys, prev_x, x)
            prev_x = x
        for op_idx, i1, i2, w in events[x]:
            counts[op_idx][i1:i2] += w
    for c in counts:
        if c.any():
            raise GeometryError("boolean sweep ended with open coverage")
    return rects


def oracle_emit_slab(rects, mask, ys, x1, x2) -> None:
    padded = np.concatenate(([False], mask, [False]))
    delta = np.diff(padded.astype(np.int8))
    starts = np.flatnonzero(delta == 1)
    stops = np.flatnonzero(delta == -1)
    for lo, hi in zip(starts, stops):
        rects.append(Rect(x1, int(ys[lo]), x2, int(ys[hi])))


def oracle_vertical_edges(loops) -> np.ndarray:
    rows: List[Tuple[int, int, int, int]] = []
    for loop in loops:
        n = len(loop)
        if n < 4:
            continue
        for i in range(n):
            x1, y1 = loop[i]
            x2, y2 = loop[(i + 1) % n]
            if x1 != x2:
                if y1 != y2:
                    raise GeometryError(
                        f"non-rectilinear edge ({x1},{y1})->({x2},{y2})"
                    )
                continue
            if y1 == y2:
                continue
            if y2 < y1:
                rows.append((x1, y2, y1, 1))
            else:
                rows.append((x1, y1, y2, -1))
    if not rows:
        return np.empty((0, 4), dtype=np.int64)
    return np.array(rows, dtype=np.int64)


_TURN_RANK = {1: 0, 0: 1, -1: 2, -2: 3}


def oracle_stitch_rects(rects: Sequence[Rect]):
    edges = _boundary_edges(rects)
    if not edges:
        return []
    return _walk_loops(edges)


def _boundary_edges(rects):
    edges = []
    vertical: Dict[int, List[Tuple[int, int]]] = {}
    for r in rects:
        if r.is_empty:
            continue
        vertical.setdefault(r.x2, []).extend([(r.y1, 1), (r.y2, -1)])
        vertical.setdefault(r.x1, []).extend([(r.y1, -1), (r.y2, 1)])
        edges.append(((r.x1, r.y1), (r.x2, r.y1)))
        edges.append(((r.x2, r.y2), (r.x1, r.y2)))
    for x, deltas in vertical.items():
        deltas.sort()
        level = 0
        run_start = 0
        for y, d in deltas:
            new_level = level + d
            if level == 0 and new_level != 0:
                run_start = y
            elif level != 0 and (new_level == 0 or (level > 0) != (new_level > 0)):
                _append_vertical(edges, x, run_start, y, level)
                run_start = y
            level = new_level
        if level != 0:
            raise GeometryError(f"unbalanced vertical boundary at x={x}")
    return edges


def _append_vertical(edges, x, y1, y2, level) -> None:
    if y1 == y2:
        return
    if level > 0:
        edges.append(((x, y1), (x, y2)))
    else:
        edges.append(((x, y2), (x, y1)))


def _walk_loops(edges):
    out_map: Dict[Tuple[int, int], List[int]] = {}
    for idx, (start, _end) in enumerate(edges):
        out_map.setdefault(start, []).append(idx)

    used = [False] * len(edges)
    loops = []
    for seed in range(len(edges)):
        if used[seed]:
            continue
        loop = []
        idx = seed
        while not used[idx]:
            used[idx] = True
            start, end = edges[idx]
            loop.append(start)
            candidates = [j for j in out_map.get(end, ()) if not used[j]]
            if not candidates:
                if end != edges[seed][0]:
                    raise GeometryError(f"open boundary chain at {end}")
                break
            idx = _pick_leftmost(edges, start, end, candidates)
        simplified = _strip_degenerate(loop)
        if simplified:
            loops.append(simplified)
    return loops


def _pick_leftmost(edges, start, end, candidates) -> int:
    if len(candidates) == 1:
        return candidates[0]
    din = (_sign(end[0] - start[0]), _sign(end[1] - start[1]))

    def rank(j: int) -> int:
        _s, e = edges[j]
        dout = (_sign(e[0] - end[0]), _sign(e[1] - end[1]))
        cross = din[0] * dout[1] - din[1] * dout[0]
        if cross != 0:
            return _TURN_RANK[cross]
        dot = din[0] * dout[0] + din[1] * dout[1]
        return _TURN_RANK[0] if dot > 0 else _TURN_RANK[-2]

    return min(candidates, key=rank)


def _sign(v: int) -> int:
    if v > 0:
        return 1
    if v < 0:
        return -1
    return 0


def oracle_loops(a_loops, b_loops, op):
    return oracle_stitch_rects(
        oracle_sweep_rects([list(a_loops), list(b_loops)], PREDICATES[op])
    )


def oracle_canonical(a_loops, b_loops, op):
    """The retired engine's loops, re-merged by the retired engine itself."""
    once = oracle_loops(a_loops, b_loops, op)
    return oracle_stitch_rects(oracle_sweep_rects([once], lambda c: c[0] != 0))


# -- inputs -------------------------------------------------------------------


def _rect_loop(x, y, w, h, clockwise, rotate):
    loop = [(x, y), (x + w, y), (x + w, y + h), (x, y + h)]
    if clockwise:
        loop.reverse()
    return loop[rotate:] + loop[:rotate]


@st.composite
def rect_loops(draw, span=12, max_rects=7):
    """Rect loops on a small lattice: overlaps, corner touches, CW loops."""
    n = draw(st.integers(min_value=0, max_value=max_rects))
    loops = []
    for _ in range(n):
        x = draw(st.integers(min_value=0, max_value=span - 1))
        y = draw(st.integers(min_value=0, max_value=span - 1))
        w = draw(st.integers(min_value=1, max_value=span - x))
        h = draw(st.integers(min_value=1, max_value=span - y))
        loops.append(
            _rect_loop(
                x, y, w, h,
                clockwise=draw(st.booleans()),
                rotate=draw(st.integers(min_value=0, max_value=3)),
            )
        )
    return loops


@st.composite
def operand(draw):
    """Raw rect soups, or canonical loops of one (holes, pinched holes)."""
    loops = draw(rect_loops())
    if draw(st.booleans()):
        loops = oracle_loops(loops, [], draw(st.sampled_from(("union", "xor"))))
    return loops


def _assert_int_loops(loops):
    for loop in loops:
        for x, y in loop:
            assert type(x) is int and type(y) is int


def _assert_int_rects(rects):
    for rect in rects:
        assert type(rect) is Rect
        assert all(type(v) is int for v in rect)


#: Chunk sizes: the default, and ones small enough to split the sweep into
#: one-slab and few-slab chunks.
CHUNK_CELLS = (booleans._CHUNK_CELLS, 1, 30)




def chunked(cells):
    """Run the sweep in chunks of at most ``cells`` grid cells."""
    return mock.patch.object(booleans, "_CHUNK_CELLS", cells)


# -- exactness ------------------------------------------------------------------


class TestAgainstOracle:
    @pytest.mark.parametrize("cells", CHUNK_CELLS)
    @given(a=operand(), b=operand(), op=st.sampled_from(OPS))
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_boolean_loops_and_rects(self, cells, a, b, op):
        with chunked(cells):
            loops = boolean_loops(a, b, op)
            rects = boolean_rects(a, b, op)
        assert loops == oracle_canonical(a, b, op)
        _assert_int_loops(loops)
        assert rects == oracle_sweep_rects([a, b], PREDICATES[op])
        _assert_int_rects(rects)

    @pytest.mark.parametrize("cells", CHUNK_CELLS)
    @given(a=operand())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_region_rects_and_merge(self, cells, a):
        region = Region(a) if a else Region()
        raw = region.loops
        with chunked(cells):
            rects = region.rects()
            merged = region.merged().loops
        assert rects == oracle_sweep_rects([raw], lambda c: c[0] != 0)
        _assert_int_rects(rects)
        assert merged == oracle_canonical(raw, [], "union")

    @given(a=rect_loops(span=40, max_rects=12), op=st.sampled_from(OPS))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_many_chunks(self, a, op):
        b = [[(x + 3, y + 2) for x, y in loop] for loop in a[::2]]
        with chunked(7):
            loops = boolean_loops(a, b, op)
            rects = boolean_rects(a, b, op)
        assert loops == oracle_canonical(a, b, op)
        assert rects == oracle_sweep_rects([a, b], PREDICATES[op])

    def test_numpy_int_inputs_give_int_outputs(self):
        a = [[tuple(np.int64(v) for v in p) for p in _rect_loop(0, 0, 4, 3, False, 0)]]
        b = [_rect_loop(2, 1, 5, 5, True, 2)]
        loops = boolean_loops(a, b, "union")
        assert loops == oracle_canonical(a, b, "union")
        _assert_int_loops(loops)
        _assert_int_rects(boolean_rects(a, b, "xor"))


class TestPinnedCases:
    def test_pinched_union_is_one_loop_through_the_pinch_twice(self):
        rects = [Rect(2, 3, 3, 5), Rect(2, 0, 4, 2), Rect(3, 2, 4, 4), Rect(0, 2, 2, 4)]
        loops = Region.from_rects(rects).merged().loops
        assert loops == [[
            (0, 2), (2, 2), (2, 3), (3, 3), (3, 2), (2, 2), (2, 0),
            (4, 0), (4, 4), (3, 4), (3, 5), (2, 5), (2, 4), (0, 4),
        ]]
        raw = [_rect_loop(r.x1, r.y1, r.width, r.height, False, 0) for r in rects]
        assert loops == oracle_canonical(raw, [], "union")

    def test_walk_continues_through_the_seed_vertex_when_it_pinches(self):
        # The walk seeded at (3, 14) comes back to it with its preferred
        # successor used, and continues along the other unused out-edge
        # there: one loop through (3, 14), (3, 15), (4, 14) and (4, 15)
        # twice each.
        a = [[(1, 15), (9, 15), (9, 14), (1, 14)]]
        b = [
            [(5, 6), (5, 11), (4, 11), (4, 6)],
            [(4, 8), (4, 16), (3, 16), (3, 8)],
            [(8, 10), (8, 11), (3, 11), (3, 10)],
            [(0, 17), (10, 17), (10, 9), (0, 9)],
        ]
        loops = boolean_loops(a, b, "xor")
        assert loops == oracle_canonical(a, b, "xor")
        assert loops[1] == [
            (3, 14), (1, 14), (1, 15), (3, 15), (3, 16), (4, 16), (4, 15), (9, 15),
            (9, 14), (4, 14), (4, 11), (3, 11), (3, 14), (4, 14), (4, 15), (3, 15),
        ]

    def test_corner_touching_squares_stay_separate(self):
        loops = boolean_loops(
            [_rect_loop(0, 0, 10, 10, False, 0)],
            [_rect_loop(10, 10, 10, 10, False, 0)],
            "union",
        )
        assert loops == [
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            [(10, 10), (20, 10), (20, 20), (10, 20)],
        ]

    def test_short_degenerate_and_collinear_input_loops(self):
        a = [
            [(0, 0), (5, 0), (5, 5)],  # fewer than 4 vertices: skipped
            [(0, 0), (3, 0), (6, 0), (6, 0), (6, 4), (0, 4)],  # collinear, repeated
            [(1, 1), (1, 1), (1, 1), (1, 1)],  # zero-length edges only
        ]
        assert boolean_loops(a, [], "union") == oracle_canonical(a, [], "union")
        assert boolean_loops(a, [], "union") == [[(0, 0), (6, 0), (6, 4), (0, 4)]]

    @pytest.mark.parametrize("op", OPS)
    def test_empty_operands(self, op):
        assert boolean_loops([], [], op) == []
        assert boolean_rects([], [], op) == []

    def test_non_rectilinear_error_names_the_first_offending_edge(self):
        a = [
            [(0, 0), (4, 0), (4, 4), (0, 4)],
            [(10, 10), (14, 10), (15, 14), (10, 14), (9, 9)],
        ]
        b = [[(0, 0), (1, 1), (1, 0), (0, 1)]]
        for engine in (boolean_loops, oracle_loops):
            with pytest.raises(GeometryError, match=r"^non-rectilinear edge \(14,10\)->\(15,14\)$"):
                engine(a, b, "union")
            with pytest.raises(GeometryError, match=r"^non-rectilinear edge \(0,0\)->\(1,1\)$"):
                engine([], b, "union")

    def test_unknown_op_error(self):
        with pytest.raises(GeometryError, match="unknown boolean op 'nand'"):
            boolean_loops([], [], "nand")
