"""Edge fragmentation and per-fragment biasing -- the OPC substrate.

Model-based OPC moves small pieces of polygon edges independently.  This
module cuts every loop of a region into tagged fragments (corner pieces,
line-end pieces, normal run pieces) and rebuilds a region from
per-fragment biases, inserting jogs between fragments of the same edge
and mitring true corners.  Fragmentation is one array pass over the
loops' vertices, and a fragment set is held as per-fragment columns
(:class:`FragmentLoops`) that rule OPC, retargeting, EPE sites and the
rebuild read directly.  The rebuild is a few array passes over
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
from typing import List, NamedTuple, Optional, Tuple

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
    each loop's ``range`` of fragment indices, the rows of the columns
    that loop owns, so ``len`` is the loop count.  It also keeps the
    arrays :func:`apply_biases` builds on its first call.  Treat it as
    read-only.
    """

    __slots__ = ("counts", "start", "end", "tag", "loop", "edge", "_arrays")

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
        self._arrays: Optional[_FragmentArrays] = None

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, index):
        return self._ranges()[index]

    def __iter__(self):
        return iter(self._ranges())

    def _ranges(self) -> List[range]:
        stops = self.counts.cumsum().tolist()
        return [range(stop - count, stop) for stop, count in zip(stops, self.counts.tolist())]

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

    Returns the fragments of every loop as columns, in loop order,
    covering each loop's boundary exactly once.  An edge no longer than
    ``line_end_max_nm`` between two convex corners is one line-end
    fragment; an edge shorter than ``2 * corner_length_nm +
    min_length_nm`` is one normal fragment.  Any other edge gets a corner
    fragment of ``corner_length_nm`` at each end, tagged by that corner's
    convexity, and its interior ``run`` is cut at ``corner_length_nm +
    (run * k) // chunks`` for ``k = 1 .. chunks``, the fewest chunks no
    longer than ``max_length_nm``.  One array pass does every loop.
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
    """What :func:`apply_biases` reads of a fragment set besides its columns.

    A bias ``b`` moves a fragment's ends by ``b * step``, its outward
    normal.
    """

    step: np.ndarray
    #: Each fragment's successor in its loop, wrapping around.
    succ: np.ndarray
    #: Per coordinate, whether the fragment's second point takes its own
    #: moved end's (``True``) or its successor's moved start's: the end
    #: where the successor runs the same way, else the mitre.
    keeps_end: np.ndarray
    #: Whether the fragment opens its loop (its start is always kept).
    opens: np.ndarray


def _fragment_arrays(loops: FragmentLoops) -> _FragmentArrays:
    """The rebuild arrays of ``loops``, built on first use and kept on it."""
    if loops._arrays is None:
        direction = np.sign(loops.end - loops.start)
        _, succ = _neighbours(loops.counts)
        same = (direction == direction[succ]).all(axis=1)
        live = loops.counts[loops.counts > 0]
        opens = np.zeros(len(direction), dtype=bool)
        opens[live.cumsum() - live] = True
        loops._arrays = _FragmentArrays(
            step=loops.normal,
            succ=succ,
            keeps_end=same[:, None] | (direction == 0),
            opens=opens,
        )
    return loops._arrays


def apply_biases(loops: FragmentLoops, biases: np.ndarray) -> Region:
    """Rebuild a region from fragments moved outward by per-fragment biases.

    ``biases`` is one 1-D integer array over the fragments of ``loops`` in
    loop order: ``biases[i]`` moves fragment ``i`` outward by that many
    dbu (negative values move material inward).  A bias is whole dbu, as
    every length of :class:`FragmentationSpec` is, so any other array, a
    count that does not match or ``loops`` that is no
    :class:`FragmentLoops` raises :class:`GeometryError`.
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
    if not isinstance(loops, FragmentLoops):
        raise GeometryError(f"loops must be a FragmentLoops, got {type(loops).__name__}")
    if not (
        isinstance(biases, np.ndarray)
        and biases.ndim == 1
        and np.issubdtype(biases.dtype, np.integer)
    ):
        got = (
            f"{biases.dtype} array of shape {biases.shape}"
            if isinstance(biases, np.ndarray)
            else type(biases).__name__
        )
        raise GeometryError(f"biases must be a 1-D integer array, got {got}")
    if len(biases) != len(loops.tag):
        raise GeometryError("bias count must match fragment count")
    frags = _fragment_arrays(loops)
    shift = frags.step * biases.astype(np.int64, copy=False)[:, None]
    head = loops.start + shift
    tail = np.where(frags.keeps_end, loops.end + shift, head[frags.succ])
    repeat = ~frags.opens & (head == np.roll(tail, 1, axis=0)).all(axis=1)
    keep = np.ones((len(head), 2), dtype=bool)
    keep[:, 0] = ~repeat
    points = np.stack((head, tail), axis=1)[keep]
    counts = loops.counts
    lengths = 2 * counts - np.bincount(loops.loop[repeat], minlength=len(counts))
    return Region._from_runs(union_runs(LoopArray(points[:, 0], points[:, 1], lengths)))
