"""Edge fragmentation and per-fragment biasing -- the OPC substrate.

Model-based OPC moves small pieces of polygon edges independently.  This
module cuts every loop of a region into tagged :class:`Fragment` objects
(corner pieces, line-end pieces, normal run pieces) and rebuilds a region
from per-fragment biases, inserting jogs between fragments of the same edge
and mitring true corners.  The rebuild is a few array passes over
per-fragment arrays that a fragment set builds once, so an OPC loop that
rebiases the same fragments every iteration pays for them once.

Loops follow the interior-left convention throughout (outer CCW, holes CW),
so each fragment's outward normal is the right-hand normal of its direction
and a positive bias always moves material outward.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import GeometryError
from .booleans import LoopArray, union_runs
from .point import Coord
from .region import Region


class FragmentTag(Enum):
    """Classification of a fragment, controlling OPC treatment."""

    NORMAL = "normal"
    CORNER_CONVEX = "corner_convex"
    CORNER_CONCAVE = "corner_concave"
    LINE_END = "line_end"


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
        dx = _sign(self.end[0] - self.start[0])
        dy = _sign(self.end[1] - self.start[1])
        return (dx, dy)

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


@dataclass(frozen=True)
class FragmentationSpec:
    """Fragmentation recipe.

    ``corner_length_nm``: length reserved next to each corner for a dedicated
    corner fragment.  ``max_length_nm``: maximum run-fragment length.
    ``min_length_nm``: below this an edge is not subdivided at all.
    ``line_end_max_nm``: edges no longer than this whose neighbouring corners
    are both convex are tagged as line ends.
    """

    corner_length_nm: int
    max_length_nm: int
    min_length_nm: int
    line_end_max_nm: int

    def validated(self) -> "FragmentationSpec":
        """Return self, raising :class:`GeometryError` on nonsense values."""
        if min(self.corner_length_nm, self.max_length_nm, self.min_length_nm) <= 0:
            raise GeometryError("fragmentation lengths must be positive")
        if self.max_length_nm < self.min_length_nm:
            raise GeometryError("max_length_nm must be >= min_length_nm")
        return self


class FragmentLoops(list):
    """One fragment list per loop, as :func:`fragment_region` returns them.

    A plain list that also keeps the per-fragment arrays
    :func:`apply_biases` reads, built on its first call, so rebiasing
    the same set costs no per-fragment Python.  Treat it as read-only.
    """

    __slots__ = ("_arrays",)

    def __init__(self, loops: Sequence[List[Fragment]] = ()):
        super().__init__(loops)
        self._arrays: Optional[_FragmentArrays] = None


def fragment_region(region: Region, spec: FragmentationSpec) -> FragmentLoops:
    """Fragment every loop of the canonical form of ``region``.

    Returns one fragment list per loop, in loop order, covering each loop's
    boundary exactly once.
    """
    spec = spec.validated()
    return FragmentLoops(
        [
            _fragment_loop(loop, loop_index, spec)
            for loop_index, loop in enumerate(region.merged().loops)
        ]
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


class _FragmentArrays(NamedTuple):
    """A fragment set flattened in loop order, for :func:`apply_biases`.

    Points are ``(n, 2)`` int64 arrays; a bias ``b`` moves a fragment's
    ends by ``b * step``, its outward normal.
    """

    #: Loop sizes, in fragments.
    counts: np.ndarray
    start: np.ndarray
    end: np.ndarray
    step: np.ndarray
    #: Each fragment's successor in its loop, wrapping around.
    succ: np.ndarray
    #: Per coordinate, whether the fragment's second point takes its own
    #: moved end's (``True``) or its successor's moved start's: the end
    #: where the successor runs the same way, else the mitre.
    keeps_end: np.ndarray
    #: Whether the fragment opens its loop (its start is always kept).
    opens: np.ndarray


def _fragment_arrays(loop_fragments: Sequence[Sequence[Fragment]]) -> _FragmentArrays:
    """The flat arrays of ``loop_fragments``, memoised on a :class:`FragmentLoops`."""
    if isinstance(loop_fragments, FragmentLoops) and loop_fragments._arrays is not None:
        return loop_fragments._arrays
    counts = np.fromiter(map(len, loop_fragments), dtype=np.intp, count=len(loop_fragments))
    ends = np.array(
        [f.start + f.end for f in chain.from_iterable(loop_fragments)], dtype=np.int64
    ).reshape(-1, 2, 2)
    start, end = ends[:, 0], ends[:, 1]
    direction = np.sign(end - start)
    live = counts[counts > 0]
    first = live.cumsum() - live
    succ = np.arange(1, len(start) + 1)
    succ[first + live - 1] = first
    same = (direction == direction[succ]).all(axis=1)
    opens = np.zeros(len(start), dtype=bool)
    opens[first] = True
    arrays = _FragmentArrays(
        counts=counts,
        start=start,
        end=end,
        step=direction[:, ::-1] * (1, -1),
        succ=succ,
        keeps_end=same[:, None] | (direction == 0),
        opens=opens,
    )
    if isinstance(loop_fragments, FragmentLoops):
        loop_fragments._arrays = arrays
    return arrays


def apply_biases(
    loop_fragments: Sequence[Sequence[Fragment]],
    biases: Union[Sequence[Sequence[int]], np.ndarray],
) -> Region:
    """Rebuild a region from fragments moved outward by per-fragment biases.

    ``biases[i][j]`` moves fragment ``j`` of loop ``i`` outward by that many
    dbu (negative values move material inward); ``biases`` may also be one
    flat integer vector over all fragments in loop order.  Jogs connect
    collinear neighbours with different biases; perpendicular neighbours
    are mitred.  Any self-intersection created by large negative biases is
    resolved by a nonzero-winding merge.

    Each loop's points are those of walking its fragments in order: the
    moved start (unless it repeats the point before it), then the moved
    end where the next fragment runs the same way, or else the mitre with
    the next fragment's moved line.  Loops of fewer than 4 points drop
    out.  The loops are swept once into slab runs, and the region returned
    holds their rect array and stitches its loops on first use.
    """
    frags = _fragment_arrays(loop_fragments)
    shift = frags.step * _flat_biases(frags.counts, biases)[:, None]
    head = frags.start + shift
    tail = np.where(frags.keeps_end, frags.end + shift, head[frags.succ])
    repeat = ~frags.opens & (head == np.roll(tail, 1, axis=0)).all(axis=1)
    keep = np.ones((len(head), 2), dtype=bool)
    keep[:, 0] = ~repeat
    points = np.stack((head, tail), axis=1)[keep]
    loop_of = np.repeat(np.arange(len(frags.counts)), frags.counts)
    lengths = 2 * frags.counts - np.bincount(loop_of[repeat], minlength=len(frags.counts))
    return Region._from_runs(union_runs(LoopArray(points[:, 0], points[:, 1], lengths)))


def _flat_biases(
    counts: np.ndarray, biases: Union[Sequence[Sequence[int]], np.ndarray]
) -> np.ndarray:
    """``biases`` as one int64 vector in loop order, checked against ``counts``."""
    if isinstance(biases, np.ndarray) and biases.ndim == 1:
        if len(biases) != counts.sum():
            raise GeometryError("bias count must match fragment count")
        return biases.astype(np.int64, copy=False)
    if len(biases) != len(counts):
        raise GeometryError("biases must match fragment loops")
    if any(len(b) != c for b, c in zip(biases, counts.tolist())):
        raise GeometryError("bias count must match fragment count")
    return np.fromiter(chain.from_iterable(biases), dtype=np.int64, count=int(counts.sum()))


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
