"""Edge fragmentation and per-fragment biasing -- the OPC substrate.

Model-based OPC moves small pieces of polygon edges independently.  This
module cuts every loop of a region into tagged fragments (corner pieces,
line-end pieces, normal run pieces) and rebuilds a region from
per-fragment biases, inserting jogs between fragments of the same edge
and mitring true corners.  Fragmentation is one array pass over the
loops' vertices, and a fragment set is held as per-fragment columns
(:class:`FragmentLoops`) that rule OPC, retargeting, EPE sites and the
rebuild read directly; :class:`Fragment` objects are built only for
callers that ask for them.  The rebuild is a few array passes over
arrays a fragment set builds once, so an OPC loop that rebiases the same
fragments every iteration pays for them once.

Loops follow the interior-left convention throughout (outer CCW, holes CW),
so each fragment's outward normal is the right-hand normal of its direction
and a positive bias always moves material outward.
"""

from __future__ import annotations

from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import GeometryError
from .booleans import LoopArray, union_runs
from .point import Coord
from .rect import Rect
from .region import Region


class FragmentTag(Enum):
    """Classification of a fragment, controlling OPC treatment."""

    NORMAL = "normal"
    CORNER_CONVEX = "corner_convex"
    CORNER_CONCAVE = "corner_concave"
    LINE_END = "line_end"


#: The tags in code order: :attr:`FragmentLoops.tag` holds indices into it.
TAGS: Tuple[FragmentTag, ...] = tuple(FragmentTag)
_NORMAL, _CONVEX, _CONCAVE, _LINE_END = range(len(TAGS))


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


@dataclass(frozen=True)
class FragmentationSpec:
    """Fragmentation recipe, all lengths in whole dbu.

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
        lengths = (
            self.corner_length_nm,
            self.max_length_nm,
            self.min_length_nm,
            self.line_end_max_nm,
        )
        if not all(isinstance(v, (int, np.integer)) for v in lengths):
            raise GeometryError(f"fragmentation lengths must be whole dbu, got {lengths}")
        if min(self.corner_length_nm, self.max_length_nm, self.min_length_nm) <= 0:
            raise GeometryError("fragmentation lengths must be positive")
        if self.max_length_nm < self.min_length_nm:
            raise GeometryError("max_length_nm must be >= min_length_nm")
        return self


class FragmentLoops(SequenceABC):
    """The fragments of every loop, as :func:`fragment_region` returns them.

    Per-fragment columns, in loop order: ``start`` and ``end`` are
    ``(n, 2)`` int64 points, ``tag`` int8 indices into :data:`TAGS`,
    ``loop`` each fragment's loop and ``edge`` its edge's index in that
    loop; ``counts`` holds each loop's fragment count.  As a sequence it is
    one :class:`Fragment` list per loop, built on first access, so
    iteration, indexing, slicing and ``len`` behave as a list of lists.
    It also keeps the arrays :func:`apply_biases` builds on its first call.
    Treat it as read-only.
    """

    __slots__ = ("counts", "start", "end", "tag", "loop", "edge", "_lists", "_arrays")

    def __init__(
        self,
        counts: np.ndarray,
        start: np.ndarray,
        end: np.ndarray,
        tag: np.ndarray,
        loop: np.ndarray,
        edge: np.ndarray,
    ):
        self.counts = counts
        self.start = start
        self.end = end
        self.tag = tag
        self.loop = loop
        self.edge = edge
        self._lists: Optional[List[List[Fragment]]] = None
        self._arrays: Optional[_FragmentArrays] = None

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        return self._fragment_lists()[index]

    def __iter__(self):
        return iter(self._fragment_lists())

    def _fragment_lists(self) -> List[List[Fragment]]:
        if self._lists is None:
            fragments = [
                Fragment((x1, y1), (x2, y2), TAGS[tag], loop, edge)
                for (x1, y1, x2, y2), tag, loop, edge in zip(
                    np.hstack((self.start, self.end)).tolist(),
                    self.tag.tolist(),
                    self.loop.tolist(),
                    self.edge.tolist(),
                )
            ]
            stops = self.counts.cumsum().tolist()
            self._lists = [
                fragments[stop - count : stop]
                for stop, count in zip(stops, self.counts.tolist())
            ]
        return self._lists

    @property
    def midpoint(self) -> np.ndarray:
        """Each fragment's midpoint, floored to the grid: ``(n, 2)`` int64."""
        return (self.start + self.end) // 2

    @property
    def normal(self) -> np.ndarray:
        """Each fragment's unit outward normal: ``(n, 2)`` int64."""
        return np.sign(self.end - self.start)[:, ::-1] * (1, -1)

    def neighbours(self) -> Tuple[np.ndarray, np.ndarray]:
        """Each fragment's predecessor and successor in its loop, wrapping around."""
        return _neighbours(self.counts)

    def tagged(self, *tags: FragmentTag) -> np.ndarray:
        """Whether each fragment carries one of ``tags``."""
        return np.isin(self.tag, [TAGS.index(tag) for tag in tags])

    def tags(self, index: np.ndarray) -> List[FragmentTag]:
        """The tags of the fragments at ``index``."""
        return [TAGS[code] for code in self.tag[index].tolist()]

    def in_window(self, window: Rect) -> np.ndarray:
        """Whether each fragment's midpoint lies in ``window``, boundary included."""
        x, y = self.midpoint.T
        return (window.x1 <= x) & (x <= window.x2) & (window.y1 <= y) & (y <= window.y2)

    def sites(self, index=slice(None)) -> List[Tuple[Coord, Coord]]:
        """``(midpoint, outward normal)`` of the fragments at ``index``, in ints."""
        return list(
            zip(
                map(tuple, self.midpoint[index].tolist()),
                map(tuple, self.normal[index].tolist()),
            )
        )


def fragment_region(region: Region, spec: FragmentationSpec) -> FragmentLoops:
    """Fragment every loop of the canonical form of ``region``.

    Returns one fragment list per loop, in loop order, covering each loop's
    boundary exactly once.  An edge no longer than ``line_end_max_nm``
    between two convex corners is one line-end fragment; an edge shorter
    than ``2 * corner_length_nm + min_length_nm`` is one normal fragment.
    Any other edge gets a corner fragment of ``corner_length_nm`` at each
    end, tagged by that corner's convexity, and its interior ``run`` is cut
    at ``corner_length_nm + (run * k) // chunks`` for ``k = 1 .. chunks``,
    the fewest chunks no longer than ``max_length_nm``.  One array pass
    does every loop.
    """
    spec = spec.validated()
    corner = spec.corner_length_nm
    loops = region.merged()._loops
    sizes = np.fromiter(map(len, loops), dtype=np.intp, count=len(loops))
    vertex = np.fromiter(
        chain.from_iterable(chain.from_iterable(loops)),
        dtype=np.int64,
        count=2 * int(sizes.sum()),
    ).reshape(-1, 2)
    # Edge i runs from vertex i to its successor in its loop.
    pred, succ = _neighbours(sizes)
    delta = vertex[succ] - vertex
    step = np.sign(delta)
    length = np.abs(delta).sum(axis=1)
    # A left turn is convex (interior-left).  Canonical edges are axis
    # parallel, so the cross product of two unit steps has the sign of the
    # edges' own, and cannot overflow.
    step_in = step[pred]
    convex = step_in[:, 0] * step[:, 1] - step_in[:, 1] * step[:, 0] > 0
    line_end = (length <= spec.line_end_max_nm) & convex & convex[succ]
    whole = line_end | (length < 2 * corner + spec.min_length_nm)
    run = length - 2 * corner
    chunks = np.where(whole, 1, -(-run // spec.max_length_nm))
    pieces = np.where(whole, 1, chunks + 2)

    edge = np.repeat(np.arange(len(vertex)), pieces)
    k = np.arange(len(edge)) - np.repeat(pieces.cumsum() - pieces, pieces)
    last = k == pieces[edge] - 1
    # Piece k of an edge runs from offset lo to offset hi along it: from
    # the cut before it to the next piece's start, or to the edge's end.
    lo = np.where(k == 0, 0, corner + (run[edge] * (k - 1)) // chunks[edge])
    hi = np.where(last, length[edge], np.roll(lo, -1))
    origin, along = vertex[edge], step[edge]

    corner_tag = np.where(convex, _CONVEX, _CONCAVE)
    split = ~whole[edge]
    tag = np.where(line_end, _LINE_END, _NORMAL)[edge]
    tag = np.where(split & (k == 0), corner_tag[edge], tag)
    tag = np.where(split & last, corner_tag[succ][edge], tag)
    loop_of = np.repeat(np.arange(len(sizes)), sizes)
    first = np.repeat(sizes.cumsum() - sizes, sizes)
    return FragmentLoops(
        counts=np.bincount(loop_of[edge], minlength=len(sizes)),
        start=origin + along * lo[:, None],
        end=origin + along * hi[:, None],
        tag=tag.astype(np.int8),
        loop=loop_of[edge],
        edge=edge - first[edge],
    )


def _neighbours(sizes: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Each item's predecessor and successor in its loop, wrapping around;
    loop ``k`` is the next ``sizes[k]`` items."""
    live = sizes[sizes > 0]
    ends = live.cumsum()
    succ = np.arange(1, int(sizes.sum()) + 1)
    succ[ends - 1] = ends - live
    pred = np.empty_like(succ)
    pred[succ] = np.arange(len(succ))
    return pred, succ


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
    """The flat arrays of ``loop_fragments``: a :class:`FragmentLoops`' columns,
    memoised on it, or any per-loop lists of :class:`Fragment`."""
    if isinstance(loop_fragments, FragmentLoops):
        if loop_fragments._arrays is None:
            loop_fragments._arrays = _rebuild_arrays(
                loop_fragments.counts, loop_fragments.start, loop_fragments.end
            )
        return loop_fragments._arrays
    counts = np.fromiter(map(len, loop_fragments), dtype=np.intp, count=len(loop_fragments))
    ends = np.array(
        [f.start + f.end for f in chain.from_iterable(loop_fragments)], dtype=np.int64
    ).reshape(-1, 2, 2)
    return _rebuild_arrays(counts, ends[:, 0], ends[:, 1])


def _rebuild_arrays(counts: np.ndarray, start: np.ndarray, end: np.ndarray) -> _FragmentArrays:
    direction = np.sign(end - start)
    _, succ = _neighbours(counts)
    same = (direction == direction[succ]).all(axis=1)
    live = counts[counts > 0]
    opens = np.zeros(len(start), dtype=bool)
    opens[live.cumsum() - live] = True
    return _FragmentArrays(
        counts=counts,
        start=start,
        end=end,
        step=direction[:, ::-1] * (1, -1),
        succ=succ,
        keeps_end=same[:, None] | (direction == 0),
        opens=opens,
    )


def apply_biases(
    loop_fragments: Sequence[Sequence[Fragment]],
    biases: Union[Sequence[Sequence[int]], np.ndarray],
) -> Region:
    """Rebuild a region from fragments moved outward by per-fragment biases.

    ``loop_fragments`` is a :class:`FragmentLoops`, whose columns are read
    directly, or any per-loop lists of :class:`Fragment` (such as a slice
    of one).  ``biases[i][j]`` moves fragment ``j`` of loop ``i`` outward
    by that many dbu (negative values move material inward); ``biases``
    may also be one flat integer vector over all fragments in loop order.
    Jogs connect collinear neighbours with different biases; perpendicular
    neighbours are mitred.  Any self-intersection created by large
    negative biases is resolved by a nonzero-winding merge.

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
