"""Multi-polygon regions with exact boolean and sizing operations.

:class:`Region` is the central geometry container of the library: a set of
rectilinear loops interpreted under the nonzero winding rule.  Booleans
(``|``, ``&``, ``-``, ``^``), sizing (:meth:`Region.sized`), morphological
opening/closing, and rectangle decomposition are all exact integer
operations.

A region may be *raw* (loops as supplied, possibly overlapping) or
*canonical* (disjoint maximal outer loops counter-clockwise, holes
clockwise).  All operations accept raw regions and produce canonical ones;
:meth:`Region.merged` canonicalises explicitly.  A canonical region made
from a sweep's slab runs (:meth:`Region._from_runs`, as fragment biasing
makes its iterates) holds their rect array and stitches its loops only
when a caller asks for them; booleans and :meth:`Region.rect_array` read
the rects.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from ..errors import GeometryError
from .booleans import boolean_loops, edge_bands, rect_list, sweep_rects
from .point import Coord
from .polygon import Polygon
from .rect import Rect
from .stitch import SlabRuns, stitch_runs

RegionLike = Union["Region", Polygon, Rect, Sequence[Coord]]


class Region:
    """A set of rectilinear loops under the nonzero winding rule."""

    __slots__ = ("_stored", "_canonical", "_runs")

    def __init__(self, items: Union[RegionLike, Iterable[RegionLike]] = ()):
        self._stored: Optional[List[List[Coord]]] = []
        #: The canonical form's slab runs, kept by :meth:`_from_runs`.
        self._runs: Optional[SlabRuns] = None
        self._canonical = False
        if isinstance(items, (Region, Polygon, Rect)):
            items = [items]
        elif items and _is_loop(items):
            items = [items]  # a bare vertex list
        for item in items:  # type: ignore[union-attr]
            self._add(item)
        if not self._loops:
            self._canonical = True

    @property
    def _loops(self) -> List[List[Coord]]:
        """The stored loops, stitched from the slab runs on first use."""
        if self._stored is None:
            self._stored = stitch_runs(self._runs)
        return self._stored

    @_loops.setter
    def _loops(self, loops: List[List[Coord]]) -> None:
        self._stored = loops
        self._runs = None

    def _operand(self):
        """The region as a boolean operand: its rect array while unstitched."""
        return self._runs.rects() if self._stored is None else self._stored

    def _add(self, item: RegionLike) -> None:
        loops = self._loops  # a lazy region stitches before it grows
        self._runs = None
        self._canonical = False
        if isinstance(item, Region):
            loops.extend([list(lp) for lp in item._loops])
        elif isinstance(item, Polygon):
            if not item.is_empty:
                loops.append(item.points)
        elif isinstance(item, Rect):
            if not item.is_empty:
                x1, y1, x2, y2 = map(int, item)
                loops.append([(x1, y1), (x2, y1), (x2, y2), (x1, y2)])
        else:
            poly = Polygon(item)  # validates rectilinearity
            if not poly.is_empty:
                loops.append(poly.points)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_rects(cls, rects: Iterable[Rect]) -> "Region":
        """A region covering every rect in ``rects`` (may overlap)."""
        region = cls()
        for rect in rects:
            region._add(rect)
        return region

    @classmethod
    def from_rect_array(cls, rects: np.ndarray) -> "Region":
        """The canonical region covering an ``(n, 4)`` int64 rect array.

        Rows are ``(x1, y1, x2, y2)`` with ``x1 <= x2`` and ``y1 <= y2``;
        they may overlap.  One sweep merges them, with no per-rect object.
        """
        return cls._from_canonical(boolean_loops(rects, [], "union"))

    @classmethod
    def _from_canonical(cls, loops: List[List[Coord]]) -> "Region":
        region = cls()
        region._loops = loops
        region._canonical = True
        return region

    @classmethod
    def _from_loops(cls, loops: List[List[Coord]]) -> "Region":
        """A raw region holding ``loops`` as they are.

        Each loop must already be as :class:`Polygon` leaves one: four or
        more integer tuples, rectilinear, with no repeated or collinear
        vertex.
        """
        region = cls()
        region._loops = loops
        region._canonical = not loops
        return region

    @classmethod
    def _from_runs(cls, runs: Optional[SlabRuns]) -> "Region":
        """The canonical region of a sweep's joined slab runs, stitched lazily."""
        region = cls()
        if runs is not None and len(runs.slab):
            region._stored = None
            region._runs = runs
        region._canonical = True
        return region

    # -- basic queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the region covers no area."""
        if self._stored is None:
            return False  # unstitched runs are never empty
        if not self._stored:
            return True
        if self._canonical:
            return False
        return not self.merged()._loops

    @property
    def loops(self) -> List[List[Coord]]:
        """The raw vertex loops (copies)."""
        return [list(lp) for lp in self._loops]

    @property
    def num_loops(self) -> int:
        """Number of stored loops (outer boundaries plus holes)."""
        return len(self._loops)

    @property
    def num_vertices(self) -> int:
        """Total vertex count over all loops."""
        return sum(len(lp) for lp in self._loops)

    def polygons(self) -> List[Polygon]:
        """Each stored loop as a :class:`Polygon` (holes are CW loops)."""
        return [Polygon(lp, validate=False) for lp in self._loops]

    def __iter__(self) -> Iterator[Polygon]:
        return iter(self.polygons())

    def __bool__(self) -> bool:
        return not self.is_empty

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Region):
            return NotImplemented
        return (self ^ other).is_empty

    def __hash__(self) -> int:  # regions are mutable-free but eq is geometric
        return hash(frozenset(Polygon(lp, validate=False) for lp in self.merged()._loops))

    def __repr__(self) -> str:
        return f"Region(<{self.num_loops} loops, {self.num_vertices} vertices>)"

    @property
    def area(self) -> float:
        """Covered area in dbu^2 (holes excluded), exact."""
        merged = self.merged()
        return sum(Polygon(lp, validate=False).signed_area2() for lp in merged._loops) / 2.0

    def bbox(self) -> Optional[Rect]:
        """Bounding rect of all loops, or ``None`` when empty."""
        xs: List[int] = []
        ys: List[int] = []
        for lp in self._loops:
            xs.extend(p[0] for p in lp)
            ys.extend(p[1] for p in lp)
        if not xs:
            return None
        return Rect(min(xs), min(ys), max(xs), max(ys))

    def contains_point(self, point: Coord) -> bool:
        """Nonzero-winding interior test across all loops."""
        px, py = point
        winding = 0
        for lp in self._loops:
            n = len(lp)
            on_boundary = False
            local = 0
            for i in range(n):
                x1, y1 = lp[i]
                x2, y2 = lp[(i + 1) % n]
                if x1 == x2:
                    ylo, yhi = (y1, y2) if y1 < y2 else (y2, y1)
                    if x1 == px and ylo <= py <= yhi:
                        on_boundary = True
                    if x1 < px and ylo <= py < yhi:
                        local += 1 if y2 < y1 else -1
                else:
                    xlo, xhi = (x1, x2) if x1 < x2 else (x2, x1)
                    if y1 == py and xlo <= px <= xhi:
                        on_boundary = True
            if on_boundary:
                return True
            winding += local
        return winding != 0

    # -- booleans ----------------------------------------------------------------

    def merged(self) -> "Region":
        """The canonical form: disjoint maximal loops, holes clockwise."""
        if self._canonical:
            return self
        return Region._from_canonical(boolean_loops(self._loops, [], "union"))

    def _binary(self, other: RegionLike, op: str) -> "Region":
        other_region = other if isinstance(other, Region) else Region(other)
        return Region._from_canonical(
            boolean_loops(self._operand(), other_region._operand(), op)
        )

    def __or__(self, other: RegionLike) -> "Region":
        return self._binary(other, "union")

    def __and__(self, other: RegionLike) -> "Region":
        return self._binary(other, "intersection")

    def __sub__(self, other: RegionLike) -> "Region":
        return self._binary(other, "difference")

    def __xor__(self, other: RegionLike) -> "Region":
        return self._binary(other, "xor")

    union = __or__
    intersection = __and__
    difference = __sub__

    # -- decomposition -------------------------------------------------------------

    def rects(self) -> List[Rect]:
        """Disjoint slab-rectangle decomposition of the covered area."""
        return rect_list(self.rect_array())

    def rect_array(self) -> np.ndarray:
        """:meth:`rects` as an ``(n, 4)`` int64 array ``(x1, y1, x2, y2)``.

        A region made from slab runs returns their rects with no sweep;
        any other region sweeps its loops once.
        """
        if self._runs is not None:
            return self._runs.rects()
        return sweep_rects([self._stored], lambda counts: counts[0] != 0)

    def outer_polygons(self) -> List[Polygon]:
        """Only the outer (counter-clockwise) loops of the canonical form."""
        return [p for p in self.merged().polygons() if p.is_ccw]

    def holes(self) -> List[Polygon]:
        """Only the hole (clockwise) loops of the canonical form."""
        return [p for p in self.merged().polygons() if not p.is_ccw]

    # -- transforms ------------------------------------------------------------------

    def translated(self, delta: Coord) -> "Region":
        """The region moved by ``delta`` (canonical form is preserved)."""
        dx, dy = delta
        moved = [[(x + dx, y + dy) for x, y in lp] for lp in self._loops]
        region = Region()
        region._loops = moved
        region._canonical = self._canonical
        return region

    def transformed(self, trans) -> "Region":
        """The region mapped through a :class:`~repro.geometry.transform.Transform`.

        Mirroring flips every loop's orientation, which would make mirrored
        outer loops cancel against unmirrored ones under the nonzero
        winding rule; mapped loops are therefore re-reversed so each keeps
        its orientation class (outers CCW, holes CW).
        """
        mapped = [[trans.apply(p) for p in lp] for lp in self._loops]
        if trans.mirror_x:
            mapped = [list(reversed(lp)) for lp in mapped]
        region = Region()
        region._loops = mapped
        region._canonical = False
        return region

    # -- sizing / morphology ------------------------------------------------------------

    def sized(self, amount: int) -> "Region":
        """Grow (positive) or shrink (negative) every boundary by ``amount``.

        The Minkowski sum with, or difference from, the square of half-width
        ``|amount|``: EDA-style sizing with mitred (square) corners.  One
        sweep unites the region with its edges' bands (:func:`edge_bands`),
        or subtracts them, so features narrower than ``2 * |amount|``
        vanish, holes fill and necks split with no special case.  A
        non-integral ``amount`` raises :class:`GeometryError`.
        """
        size = int(amount)
        if size != amount:
            raise GeometryError(f"sizing amount must be an integer, got {amount!r}")
        loops = self.merged()._loops
        op = "union" if size >= 0 else "difference"
        return Region._from_canonical(
            boolean_loops(loops, edge_bands(loops, abs(size)), op)
        )

    def opened(self, amount: int) -> "Region":
        """Morphological opening: shrink then grow by ``amount``.

        Removes any feature (or neck) narrower than ``2 * amount``; useful
        for pinch detection.
        """
        if amount < 0:
            raise GeometryError("opening amount must be non-negative")
        return self.sized(-amount).sized(amount)

    def closed(self, amount: int) -> "Region":
        """Morphological closing: grow then shrink by ``amount``.

        Fills any gap (or slot) narrower than ``2 * amount``; useful for
        bridge detection.
        """
        if amount < 0:
            raise GeometryError("closing amount must be non-negative")
        return self.sized(amount).sized(-amount)


def _is_loop(items: object) -> bool:
    """Heuristic: is ``items`` a bare vertex list rather than an iterable of shapes?"""
    try:
        first = next(iter(items))  # type: ignore[call-overload]
    except (TypeError, StopIteration):
        return False
    return (
        isinstance(first, (tuple, list))
        and len(first) == 2
        and all(isinstance(v, int) for v in first)
    )
