"""Maximal loops from the covered runs of a boolean sweep.

The sweep in :mod:`repro.geometry.booleans` marks the covered cells of a
compressed grid one slab (the cells between two consecutive event
abscissae) at a time.  At each event abscissa the net vertical boundary is
where coverage differs between the slabs on either side: pointing up where
only the left slab is covered, down where only the right one is.  Only the
abscissae that carry such a boundary cut the result into strips, since
coverage is the same on every slab between two of them.  Every maximal run
of covered cells in the first slab of a strip adds its bottom edge,
pointing right, and its top edge, pointing left, both spanning the whole
strip.  Every edge thus has the interior on its left, so outer loops emerge
counter-clockwise and holes clockwise without any post-hoc orientation
fixing.  Grid lines that the result does not use, such as another
operand's, split no edge, so the edges and their order depend only on the
covered point set.

:func:`slab_runs` collects a sweep's runs, joined across each strip, and
its boundary pieces as :class:`SlabRuns`; their rects are the region's
slab rects, and :func:`stitch_runs` turns them into loops, so a caller
that needs only the rects skips the stitch.

Edges chain into loops by taking, at each end point, the unused out-edge
that makes the leftmost turn, and a walk ends only where no unused
out-edge is left.  Loops are therefore not always simple where the region
pinches at a vertex: two squares touching at a corner come out as two
loops, but a hole that touches its outer boundary at a vertex comes out
as part of the outer loop, which visits that vertex twice, and a walk
that returns to its first vertex with the leftmost out-edge there used
carries on along the other one.
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Sequence, Tuple

import numpy as np

from .point import Coord

#: Edge directions, counter-clockwise: east, north, west, south.
_EAST, _NORTH, _WEST, _SOUTH = 0, 1, 2, 3

#: Preference of a turn, lowest first, indexed by the counter-clockwise
#: quarter turns from the in-edge to the out-edge: left, straight, right,
#: U-turn.
_TURN_RANK = np.array([1, 0, 3, 2])


def value_runs(
    values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Maximal runs of one nonzero value along the rows of a 2-D array.

    Returns ``(rows, starts, stops, run_values)``; run ``k`` covers columns
    ``starts[k]`` up to but excluding ``stops[k]`` of row ``rows[k]``.  Runs
    come in row-major order: by row, then by column.
    """
    padded = np.zeros((values.shape[0], values.shape[1] + 2), dtype=values.dtype)
    padded[:, 1:-1] = values
    after, before = padded[:, 1:], padded[:, :-1]
    change = after != before
    rows, starts = (change & (after != 0)).nonzero()
    stops = (change & (before != 0)).nonzero()[1]
    return rows, starts, stops, after[rows, starts]


class SlabRuns(NamedTuple):
    """The covered runs of a sweep, joined across slabs of equal coverage.

    Run ``k`` is the rect ``xs[slab[k]]..xs[stop[k]]`` by
    ``ys[bottom[k]]..ys[top[k]]``: a maximal run of covered cells in the
    first slab of a strip, spanning the whole strip.  Runs come by strip,
    then by ordinate.  Piece ``j`` of the vertical boundary lies at
    ``xs[event[j]]`` over ``ys[lo[j]]..ys[hi[j]]``, with ``side[j]`` the
    coverage on its left minus that on its right.
    """

    xs: np.ndarray
    ys: np.ndarray
    slab: np.ndarray
    bottom: np.ndarray
    top: np.ndarray
    stop: np.ndarray
    event: np.ndarray
    lo: np.ndarray
    hi: np.ndarray
    side: np.ndarray

    def rects(self) -> np.ndarray:
        """The runs as an ``(n, 4)`` rect array ``(x1, y1, x2, y2)``, in run order.

        These are the slab rects of the canonical loops' own sweep, so
        they equal ``Region.merged().rects()`` rect for rect.
        """
        xs, ys = self.xs, self.ys
        return np.stack(
            (xs[self.slab], ys[self.bottom], xs[self.stop], ys[self.top]), axis=1
        )


def slab_runs(
    xs: np.ndarray, ys: np.ndarray, chunks: Iterable[Tuple[int, np.ndarray]]
) -> SlabRuns:
    """Collect the covered runs and boundary pieces of a sweep.

    ``chunks`` yields ``(first slab, mask)`` in slab order, ``mask[i, j]``
    marking the cell of slab ``first + i`` over ``ys[j]..ys[j + 1]``.
    """
    runs: List[Tuple[np.ndarray, ...]] = []
    sides: List[Tuple[np.ndarray, ...]] = []
    prev = np.zeros(len(ys) - 1, dtype=np.int8)
    for first, mask in chunks:
        cover = mask.view(np.int8)
        # Left coverage minus right coverage at each abscissa of the chunk.
        change = np.concatenate((prev[None, :], cover[:-1])) - cover
        event, lo, hi, side = value_runs(change)
        sides.append((event + first, lo, hi, side))
        strip = np.unique(event)
        slab, lo, hi, _ = value_runs(cover[strip])
        runs.append((strip[slab] + first, lo, hi))
        prev = cover[-1]
    event, lo, hi, side = value_runs(prev[None, :])
    sides.append((event + len(xs) - 1, lo, hi, side))
    none = np.zeros(0, dtype=np.intp)
    slab, bottom, top = (np.concatenate(a) for a in zip(*runs)) if runs else (none,) * 3
    event, lo, hi, side = (np.concatenate(a) for a in zip(*sides))
    cuts = np.unique(event)
    stop = cuts[cuts.searchsorted(slab, side="right")]
    return SlabRuns(xs, ys, slab, bottom, top, stop, event, lo, hi, side)


def stitch_runs(runs: SlabRuns) -> List[List[Coord]]:
    """The maximal oriented loops bounding ``runs``.

    Returns vertex loops with collinear points removed; outer loops are
    counter-clockwise, holes clockwise.  Edge ``2k`` is the bottom of run
    ``k`` and edge ``2k + 1`` its top.  Loops come in the order of their
    lowest-numbered edge, and each starts at that edge's start point, or
    at the next corner along the loop where that point is not a corner.
    """
    xs, ys, slab, bottom, top, stop, event, lo, hi, side = runs
    if not len(slab):
        return []

    # Horizontal edges interleaved (bottom, top) per run, then the vertical
    # ones.  Points are grid indices (column into xs, row into ys).
    n_runs = len(slab)
    level = np.array((bottom, top)).T.ravel()
    up = side > 0
    start_x = np.concatenate((np.array((slab, stop)).T.ravel(), event))
    start_y = np.concatenate((level, np.where(up, lo, hi)))
    end_x = np.concatenate((np.array((stop, slab)).T.ravel(), event))
    end_y = np.concatenate((level, np.where(up, hi, lo)))
    direction = np.concatenate(
        (
            np.where(np.arange(2 * n_runs) % 2 == 0, _EAST, _WEST),
            np.where(up, _NORTH, _SOUTH),
        )
    )

    first_choice, second_choice = _successors(
        start_x * len(ys) + start_y, end_x * len(ys) + end_y, direction
    )
    order, loop_ends = _walk(first_choice.tolist(), second_choice.tolist(), 2 * n_runs)

    # Keep a vertex only where the edge direction turns.
    seq = np.array(order, dtype=np.int64)
    ends = np.array(loop_ends, dtype=np.int64)
    starts = np.concatenate(([0], ends[:-1]))
    before = np.arange(-1, len(seq) - 1)
    before[starts] = ends - 1
    turn = direction[seq] != direction[seq[before]]
    corner = seq[turn]
    points = list(zip(xs[start_x[corner]].tolist(), ys[start_y[corner]].tolist()))
    bounds = [0] + turn.cumsum()[ends - 1].tolist()
    return [points[a:b] for a, b in zip(bounds[:-1], bounds[1:])]


def _successors(
    start_key: np.ndarray, end_key: np.ndarray, direction: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Each edge's preferred and fallback out-edge at its end point.

    An end point has one out-edge, or two where loops pinch at a vertex;
    the preferred one makes the leftmost turn.  The fallback is ``-1``
    where there is only one.
    """
    n = len(start_key)
    order = start_key.argsort(kind="stable")
    keys = start_key[order]
    at = keys.searchsorted(end_key)
    near = order[at]
    nxt = np.minimum(at + 1, n - 1)
    two = (at + 1 < n) & (keys[nxt] == end_key)
    far = np.where(two, order[nxt], -1)
    rank_near = _TURN_RANK[(direction[near] - direction) % 4]
    rank_far = _TURN_RANK[(direction[far] - direction) % 4]
    swap = two & (rank_far < rank_near)
    return np.where(swap, far, near), np.where(swap, near, far)


def _walk(
    first: Sequence[int], second: Sequence[int], n_seeds: int
) -> Tuple[List[int], List[int]]:
    """Chain edges into closed walks, each seeded by the lowest unused edge.

    From each edge the walk takes its preferred successor if unused, else
    its fallback if unused, else the walk is closed.  Only the first
    ``n_seeds`` edges are tried as seeds: every closed walk contains one
    of them.  Returns the edge sequence and each walk's end offset in it.
    """
    used = bytearray(len(first))
    order: List[int] = []
    visit = order.append
    ends: List[int] = []
    for seed in range(n_seeds):
        if used[seed]:
            continue
        edge = seed
        while True:
            used[edge] = 1
            visit(edge)
            nxt = first[edge]
            if used[nxt]:
                nxt = second[edge]
                if nxt < 0 or used[nxt]:
                    break
            edge = nxt
        ends.append(len(order))
    return order, ends
