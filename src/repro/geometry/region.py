"""Multi-polygon regions with exact boolean and sizing operations.

:class:`Region` is the central geometry container of the library: a set of
rectilinear loops interpreted under the nonzero winding rule.  Booleans
(``|``, ``&``, ``-``, ``^``), sizing (:meth:`Region.sized`), morphological
opening/closing, and rectangle decomposition are all exact integer
operations.

A region may be *raw* (loops as supplied, possibly overlapping) or
*canonical* (disjoint maximal outer loops counter-clockwise, holes
clockwise).  All operations accept raw regions and produce canonical ones;
:meth:`Region.merged` canonicalises explicitly.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Union

from ..errors import GeometryError
from .booleans import boolean_loops, edge_bands, sweep_rects
from .point import Coord
from .polygon import Polygon
from .rect import Rect

RegionLike = Union["Region", Polygon, Rect, Sequence[Coord]]


class Region:
    """A set of rectilinear loops under the nonzero winding rule."""

    __slots__ = ("_loops", "_canonical")

    def __init__(self, items: Union[RegionLike, Iterable[RegionLike]] = ()):
        self._loops: List[List[Coord]] = []
        self._canonical = False
        if isinstance(items, (Region, Polygon, Rect)):
            items = [items]
        elif items and _is_loop(items):
            items = [items]  # a bare vertex list
        for item in items:  # type: ignore[union-attr]
            self._add(item)
        if not self._loops:
            self._canonical = True

    def _add(self, item: RegionLike) -> None:
        self._canonical = False
        if isinstance(item, Region):
            self._loops.extend([list(lp) for lp in item._loops])
        elif isinstance(item, Polygon):
            if not item.is_empty:
                self._loops.append(item.points)
        elif isinstance(item, Rect):
            if not item.is_empty:
                x1, y1, x2, y2 = map(int, item)
                self._loops.append([(x1, y1), (x2, y1), (x2, y2), (x1, y2)])
        else:
            poly = Polygon(item)  # validates rectilinearity
            if not poly.is_empty:
                self._loops.append(poly.points)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_rects(cls, rects: Iterable[Rect]) -> "Region":
        """A region covering every rect in ``rects`` (may overlap)."""
        region = cls()
        for rect in rects:
            region._add(rect)
        return region

    @classmethod
    def _from_canonical(cls, loops: List[List[Coord]]) -> "Region":
        region = cls()
        region._loops = loops
        region._canonical = True
        return region

    # -- basic queries ---------------------------------------------------------

    @property
    def is_empty(self) -> bool:
        """True when the region covers no area."""
        if not self._loops:
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
            boolean_loops(self._loops, other_region._loops, op)
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
        return sweep_rects([self._loops], lambda counts: counts[0] != 0)

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
