"""Exact boolean operations on rectilinear polygons.

The engine is an x-sweep over vertical edges, run as NumPy array passes.
The unique edge abscissae ``xs`` and ordinates ``ys`` of all operands span
a compressed grid whose cells are *slabs* (between consecutive ``xs``) by
*intervals* (between consecutive ``ys``).  Each vertical edge is a winding
delta on that grid: a difference array summed along y, then along x,
gives every operand's winding number on every cell, and one elementwise
predicate over those arrays marks the covered cells.  The maximal runs of
covered cells, slab by slab in increasing y, are the result's slab
rectangles; :mod:`repro.geometry.stitch` joins the same runs into maximal
loops.  Slabs are processed in chunks of at most :data:`_CHUNK_CELLS`
grid cells, with the running counts carried from one chunk to the next,
so temporaries are bounded by the chunk and the output rather than by the
whole grid.

An operand is a list of loops, a :class:`LoopArray` (loops as flat vertex
arrays), or an ``(n, 4)`` int64 array of rects ``(x1, y1, x2, y2)`` with
``x1 <= x2`` and ``y1 <= y2``.  The array forms enter the sweep as winding
edges with no per-vertex or per-rect Python object: sizing passes its edge
bands (:func:`edge_bands`) as rects, and fragment biasing its rebuilt loops
as a :class:`LoopArray`.  :func:`union_runs` keeps a sweep's joined slab
runs, from which both the slab rects and the loops come.

Coordinates are exact integers throughout, so results are exact: no epsilon
tolerances, no slivers from floating-point snapping.

Winding convention: a *downward* vertical edge (y decreasing along the loop
direction) adds ``+1`` to the winding number of every point strictly to its
right; an upward edge adds ``-1``.  A counter-clockwise square then has
winding ``+1`` inside, matching the nonzero fill rule.
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import GeometryError
from .point import Coord
from .rect import Rect
from .stitch import SlabRuns, slab_runs, stitch_runs, value_runs

Loop = Sequence[Coord]


class LoopArray(NamedTuple):
    """Loops as flat int64 vertex arrays: loop ``k`` is the next
    ``lengths[k]`` vertices ``(x, y)``, in loop order."""

    x: np.ndarray
    y: np.ndarray
    lengths: np.ndarray


#: One boolean operand: a loop set, a :class:`LoopArray`, or an ``(n, 4)``
#: int64 rect array.
Operand = Union[Sequence[Loop], LoopArray, np.ndarray]

#: A boolean predicate over per-operand winding-count arrays (see
#: :func:`sweep_rects` for the array contract).
Predicate = Callable[[Sequence[np.ndarray]], np.ndarray]

PREDICATES: Dict[str, Predicate] = {
    "union": lambda counts: (counts[0] != 0) | (counts[1] != 0),
    "intersection": lambda counts: (counts[0] != 0) & (counts[1] != 0),
    "difference": lambda counts: (counts[0] != 0) & (counts[1] == 0),
    "xor": lambda counts: (counts[0] != 0) ^ (counts[1] != 0),
}

#: Most grid cells (slabs x intervals) one chunk of the sweep holds.
_CHUNK_CELLS = 1 << 20

#: One operand's vertical edges: parallel arrays ``(x, ylo, yhi, w)``.
_Edges = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

#: ``(xs, ys, chunks)``: the grid lines and an iterator of
#: ``(first slab, coverage mask)`` chunks in slab order.
_Sweep = Tuple[np.ndarray, np.ndarray, Iterator[Tuple[int, np.ndarray]]]


def sweep_rects(operands: Sequence[Operand], predicate: Predicate) -> np.ndarray:
    """Decompose ``predicate(operands)`` into disjoint slab rectangles.

    ``operands`` is a list of operands.  The predicate receives one 2-D
    winding-count array per operand, of shape ``(slabs, intervals)`` for a
    chunk of consecutive slabs, and returns a boolean array of the same
    shape marking the covered cells.  It is called once per chunk, so it
    must be elementwise: a cell's result may depend only on the operands'
    counts at that cell.

    Returns an ``(n, 4)`` int64 rect array ``(x1, y1, x2, y2)``: disjoint
    rects, sorted by x then y, each spanning a single slab of the sweep
    with maximal y-extent (see :func:`rect_list` for ``Rect`` objects).
    """
    swept = _sweep(operands, predicate)
    if swept is None:
        return np.zeros((0, 4), dtype=np.int64)
    xs, ys, chunks = swept
    parts = [np.zeros((0, 4), dtype=np.int64)]
    for first, mask in chunks:
        slab, lo, hi, _ = value_runs(mask.view(np.int8))
        slab += first
        parts.append(np.stack((xs[slab], ys[lo], xs[slab + 1], ys[hi]), axis=1))
    return np.concatenate(parts)


def rect_list(rects: np.ndarray) -> List[Rect]:
    """An ``(n, 4)`` rect array as :class:`Rect` objects with Python ints."""
    return list(map(Rect, *rects.T.tolist()))


def union_runs(operand: Operand) -> Optional[SlabRuns]:
    """The nonzero-winding union of ``operand`` as joined slab runs.

    The runs hold the canonical form's slab rects
    (:meth:`~repro.geometry.stitch.SlabRuns.rects`) and everything
    :func:`~repro.geometry.stitch.stitch_runs` needs for its loops, so
    neither takes a second sweep.  ``None`` when ``operand`` has no
    vertical edge.
    """
    swept = _sweep([operand], lambda counts: counts[0] != 0)
    if swept is None:
        return None
    return slab_runs(*swept)


def _sweep(operands: Sequence[Operand], predicate: Predicate) -> Optional[_Sweep]:
    """The compressed grid of ``operands`` and its lazily swept coverage.

    ``None`` when no operand has a vertical edge.
    """
    edges = [
        _rect_edges(op) if isinstance(op, np.ndarray) else _vertical_edges(op)
        for op in operands
    ]
    if not any(len(x) for x, _lo, _hi, _w in edges):
        return None
    xs = np.unique(np.concatenate([x for x, _lo, _hi, _w in edges]))
    ys = np.unique(np.concatenate([c for _x, lo, hi, _w in edges for c in (lo, hi)]))
    return xs, ys, _coverage_chunks(xs, ys, edges, predicate)


def _coverage_chunks(
    xs: np.ndarray, ys: np.ndarray, edges: Sequence[_Edges], predicate: Predicate
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(first slab, mask)`` for consecutive chunks of slabs.

    Row ``i`` of the counts is the winding after every edge at ``xs[i]``
    or left of it, i.e. on slab ``i``; the row after the last abscissa
    must be zero everywhere.
    """
    nx, ny = len(xs), len(ys)
    ops = []
    for x, lo, hi, w in edges:
        row = xs.searchsorted(x)
        order = row.argsort()
        ops.append(
            (row[order], ys.searchsorted(lo[order]), ys.searchsorted(hi[order]), w[order])
        )
    carry = [np.zeros(ny, dtype=np.int32) for _ in ops]
    step = max(1, _CHUNK_CELLS // ny)
    for first in range(0, nx, step):
        stop = min(first + step, nx)
        counts = []
        for k, (row, lo, hi, w) in enumerate(ops):
            a, b = row.searchsorted((first, stop))
            if a == b and not carry[k].any():
                counts.append(np.zeros((stop - first, ny - 1), dtype=np.int32))
                continue
            # Column ny - 1 only ever receives the closing -w of the topmost
            # edges, so after the y sum it is zero and is dropped.
            acc = np.zeros((stop - first, ny), dtype=np.int32)
            local = row[a:b] - first
            np.add.at(acc, (local, lo[a:b]), w[a:b])
            np.subtract.at(acc, (local, hi[a:b]), w[a:b])
            acc.cumsum(axis=1, out=acc)
            acc[0] += carry[k]
            acc.cumsum(axis=0, out=acc)
            carry[k] = acc[-1].copy()
            counts.append(acc[:, :-1])
        slabs = min(stop, nx - 1) - first
        if slabs > 0:
            yield first, predicate([c[:slabs] for c in counts])
    if any(c.any() for c in carry):  # pragma: no cover - an unclosed input loop
        raise GeometryError("boolean sweep ended with open coverage")


def _loop_edges(loops: Union[Sequence[Loop], LoopArray]) -> Tuple[np.ndarray, ...]:
    """Every edge of ``loops`` as arrays ``(x1, y1, x2, y2)``, in loop order.

    Loops of fewer than 4 vertices are skipped.  The first edge that is
    neither horizontal nor vertical raises :class:`GeometryError`.
    """
    if isinstance(loops, LoopArray):
        x1, y1, lengths = loops
        short = lengths < 4
        if short.any():
            keep = np.repeat(~short, lengths)
            x1, y1, lengths = x1[keep], y1[keep], lengths[~short]
    else:
        kept = [loop for loop in loops if len(loop) >= 4]
        lengths = np.fromiter(map(len, kept), dtype=np.intp, count=len(kept))
        flat = np.fromiter(
            chain.from_iterable(chain.from_iterable(kept)),
            dtype=np.int64,
            count=2 * int(lengths.sum()),
        )
        x1, y1 = flat[0::2], flat[1::2]
    n = len(x1)
    # Each vertex's successor, wrapping around at the end of its loop.
    ends = lengths.cumsum()
    succ = np.arange(1, n + 1)
    succ[ends - 1] = ends - lengths
    x2, y2 = x1[succ], y1[succ]
    diagonal = (x1 != x2) & (y1 != y2)
    if diagonal.any():
        i = int(np.argmax(diagonal))
        raise GeometryError(
            f"non-rectilinear edge ({x1[i]},{y1[i]})->({x2[i]},{y2[i]})"
        )
    return x1, y1, x2, y2


def _vertical_edges(loops: Union[Sequence[Loop], LoopArray]) -> _Edges:
    """Extract all vertical edges of ``loops`` as arrays ``(x, ylo, yhi, w)``.

    ``w`` is ``+1`` for downward edges (interior-right winding convention)
    and ``-1`` for upward edges.  Horizontal and zero-length edges carry no
    winding information for an x-sweep and are dropped.
    """
    x1, y1, x2, y2 = _loop_edges(loops)
    vertical = (x1 == x2) & (y1 != y2)
    x, y1, y2 = x1[vertical], y1[vertical], y2[vertical]
    down = y2 < y1
    return (
        x,
        np.where(down, y2, y1),
        np.where(down, y1, y2),
        np.where(down, 1, -1).astype(np.int32),
    )


def _rect_edges(rects: np.ndarray) -> _Edges:
    """The vertical edges of rects ``(x1, y1, x2, y2)`` as counter-clockwise loops."""
    w = np.repeat(np.array([1, -1], dtype=np.int32), len(rects))
    return rects[:, [0, 2]].T.ravel(), np.tile(rects[:, 1], 2), np.tile(rects[:, 3], 2), w


def edge_bands(loops: Sequence[Loop], amount: int) -> np.ndarray:
    """Each edge's bounding box grown by ``amount``: an ``(n, 4)`` rect array.

    The bands cover the points within ``amount`` of the boundary in the
    maximum norm, which a Minkowski sum with the square of half-width
    ``amount`` adds to the loops' region and a Minkowski difference removes.
    """
    x1, y1, x2, y2 = _loop_edges(loops)
    ends = np.stack(((x1, y1), (x2, y2)))
    return np.concatenate((ends.min(axis=0) - amount, ends.max(axis=0) + amount)).T


def _predicate(op: str) -> Predicate:
    try:
        return PREDICATES[op]
    except KeyError:
        raise GeometryError(
            f"unknown boolean op {op!r}; expected one of {sorted(PREDICATES)}"
        ) from None


def boolean_rects(a_loops: Operand, b_loops: Operand, op: str) -> List[Rect]:
    """Boolean of two operands, returned as a disjoint rect decomposition.

    ``op`` is one of ``"union"``, ``"intersection"``, ``"difference"``
    (A minus B) or ``"xor"``.  Inputs follow the nonzero winding rule, so
    overlapping or self-touching loops within one operand are handled
    correctly.
    """
    return rect_list(sweep_rects([a_loops, b_loops], _predicate(op)))


def boolean_loops(a_loops: Operand, b_loops: Operand, op: str) -> List[List[Coord]]:
    """Boolean of two operands, returned as canonical maximal loops.

    Outer boundaries come back counter-clockwise and holes clockwise, with
    collinear vertices removed; loop start and order depend only on the
    covered point set (see :func:`~repro.geometry.stitch.stitch_runs`).
    """
    swept = _sweep([a_loops, b_loops], _predicate(op))
    if swept is None:
        return []
    return stitch_runs(slab_runs(*swept))
