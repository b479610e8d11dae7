"""Width/space measurement by batched ray casting against boundary edges.

Rule-based OPC, retargeting, SRAF placement and the forbidden-pitch lint
classify each boundary edge by the space to the geometry it faces, and
some of them also by the width of its own feature.  :class:`EdgeIndex`
answers exact axis-aligned ray queries against the boundary edges of a
region, for many origins in one call.

A horizontal ray can only hit vertical edges and a vertical ray only
horizontal ones, so the index keeps one table per ray axis.  In the table
for horizontal rays, the distinct y endpoints of the vertical edges split
the plane into *bands*; from anywhere inside one band, a horizontal ray
can hit the same set of vertical edges.  Every (band, edge x) pair is one
sorted integer key, so one :func:`numpy.searchsorted` over the band
bounds finds each origin's band, and a second one over the keys finds the
nearest edge in each ray's direction, for all origins at once.  Vertical
rays use the horizontal edges with the axes swapped.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from ..errors import GeometryError
from .booleans import _vertical_edges
from .point import Coord
from .region import Region


class EdgeIndex:
    """Boundary edges of a region, indexed for batched axis-ray queries.

    Size: one int64 key per (edge, band) pair, so the index grows with the
    number of bands each edge spans, not with the area of the region.  The
    three layers of the ``rule_dataprep`` benchmark block need at most
    1,824 keys per ray axis (2,856 for both axes of one layer).  A key is
    below ``bands * span``, where ``span`` is the edges' coordinate range
    along the ray axis plus 3.  For int32 GDS coordinates
    ``span <= 2**32 + 2``, and there are fewer bands than twice the edges,
    so keys cannot overflow int64 below 2**29 edges; a region whose keys
    would overflow raises :class:`GeometryError`.
    """

    #: Distance reported for a ray that hits nothing within range.  Hits
    #: are strictly positive, so the sentinel cannot be mistaken for one.
    NO_HIT = -1

    def __init__(self, region: Region):
        loops = region.merged().loops
        x, ylo, yhi, _ = _vertical_edges(loops)
        swapped = [[(y, x) for x, y in loop] for loop in loops]
        y, xlo, xhi, _ = _vertical_edges(swapped)
        # Horizontal rays hit vertical edges; vertical rays horizontal ones.
        self._tables = (_AxisTable(x, ylo, yhi), _AxisTable(y, xlo, xhi))

    def ray_distances(self, origins, directions, max_distance: int) -> np.ndarray:
        """Distances from each origin along its direction to the nearest edge.

        ``origins`` and ``directions`` are sequences or arrays of ``(x, y)``
        pairs of equal length; each direction must be an axis unit vector
        and each origin integral (dbu).  An edge counts when the origin
        lies in ``lo <= o < hi`` of its extent across the ray, so a ray
        grazing a shared endpoint hits only one of the two edges.  Only
        strictly positive distances count (an edge through the origin is
        ignored, so a query started on a boundary finds the *facing*
        geometry), and a hit at exactly ``max_distance`` counts.  Returns
        an int64 array with :attr:`NO_HIT` where nothing lies within
        ``max_distance``.
        """
        d = _pairs(directions, "directions")
        bad = (np.abs(d).sum(axis=1) != 1) | (d[:, 0] * d[:, 1] != 0)
        if bad.any():
            first = tuple(d[int(np.argmax(bad))].tolist())
            raise GeometryError(f"direction must be an axis unit vector, got {first}")
        o = _pairs(origins, "origins")
        if len(o) != len(d):
            raise GeometryError(f"{len(o)} origins but {len(d)} directions")
        whole = o.astype(np.int64)
        fractional = (whole != o).any(axis=1)
        if fractional.any():
            first = tuple(o[int(np.argmax(fractional))].tolist())
            raise GeometryError(f"origin must be integer dbu, got {first}")
        d = d.astype(np.int64)
        out = np.full(len(o), self.NO_HIT, dtype=np.int64)
        horizontal = d[:, 0] != 0
        for table, rows, axis in (
            (self._tables[0], horizontal, 0),
            (self._tables[1], ~horizontal, 1),
        ):
            if rows.any():
                out[rows] = table.distances(
                    whole[rows, axis], whole[rows, 1 - axis], d[rows, axis], max_distance
                )
        return out

    def ray_distance(
        self, origin: Coord, direction: Coord, max_distance: int
    ) -> Optional[int]:
        """One query of :meth:`ray_distances`; ``None`` when nothing is hit."""
        (distance,) = self.ray_distances([origin], [direction], max_distance).tolist()
        return None if distance == self.NO_HIT else distance

    def clearances(
        self, origin: Coord, normal: Coord, max_distance: int
    ) -> Tuple[Optional[int], Optional[int]]:
        """``(space, width)`` seen from a boundary point with outward ``normal``.

        ``space`` is the distance outward to facing geometry; ``width`` is
        the distance inward across the feature's own body.  One query of
        :meth:`ray_distances` per direction, ``None`` when nothing is hit.
        """
        inward = (-normal[0], -normal[1])
        found = self.ray_distances([origin, origin], [normal, inward], max_distance)
        space, width = (None if v == self.NO_HIT else v for v in found.tolist())
        return space, width


class _AxisTable:
    """The edges perpendicular to one ray axis, as sorted (band, position) keys.

    ``position`` is each edge's coordinate along the ray axis and
    ``[lo, hi)`` its extent across it.  ``bounds`` are the distinct ``lo``
    and ``hi`` values; band ``j`` is ``[bounds[j - 1], bounds[j])``, so band
    0 lies below every bound and band ``len(bounds)`` above them, and
    neither holds an edge.  An edge at ``position`` covering band ``j`` is
    the key ``j * span + position - base``.  ``base`` is one below the
    smallest position and ``span`` two above the largest offset, so edge
    offsets lie in ``[1, span - 2]`` and a query offset clipped to
    ``[0, span - 1]`` stays beyond every edge on the origin's side.
    """

    def __init__(self, position: np.ndarray, lo: np.ndarray, hi: np.ndarray):
        self.bounds = np.unique(np.concatenate((lo, hi)))
        self.keys = np.empty(0, dtype=np.int64)
        if not len(position):
            return
        self.base = int(position.min()) - 1
        self.span = int(position.max()) - self.base + 2
        if (len(self.bounds) + 1) * self.span > np.iinfo(np.int64).max:
            raise GeometryError("edge coordinates too far apart for a ray index")
        first = np.searchsorted(self.bounds, lo) + 1
        count = np.searchsorted(self.bounds, hi) + 1 - first
        # Band of each key: ``first`` of its edge plus its rank within the edge.
        rank_base = first - (np.cumsum(count) - count)
        bands = np.arange(int(count.sum())) + np.repeat(rank_base, count)
        self.keys = np.unique(bands * self.span + np.repeat(position - self.base, count))

    def distances(
        self,
        along: np.ndarray,
        across: np.ndarray,
        step: np.ndarray,
        max_distance: int,
    ) -> np.ndarray:
        """Hit distances of rays from ``(along, across)`` stepping ``step`` (±1)."""
        if not len(self.keys):
            return np.full(len(along), EdgeIndex.NO_HIT, dtype=np.int64)
        floor = np.searchsorted(self.bounds, across, side="right") * self.span
        query = floor + np.clip(along - self.base, 0, self.span - 1)
        # The nearest key past the query in the ray's direction, if any.
        index = np.where(
            step > 0,
            np.searchsorted(self.keys, query, side="right"),
            np.searchsorted(self.keys, query, side="left") - 1,
        )
        key = self.keys[np.clip(index, 0, len(self.keys) - 1)]
        distance = (key - floor + self.base - along) * step
        hit = (
            (key >= floor)
            & (key < floor + self.span)
            & (distance > 0)
            & (distance <= max_distance)
        )
        return np.where(hit, distance, EdgeIndex.NO_HIT)


def _pairs(values, what: str) -> np.ndarray:
    """``values`` as an ``(n, 2)`` array (``(0, 2)`` when empty)."""
    array = np.asarray(values)
    if array.size == 0:
        return np.empty((0, 2), dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != 2:
        raise GeometryError(f"{what} must be (x, y) pairs, got shape {array.shape}")
    return array


def feature_widths(region: Region, axis: str = "x") -> List[int]:
    """All distinct run widths of the region along an axis.

    Decomposes the region into slab rects and reports each rect's extent
    along ``axis``; handy for sanity-checking generated test structures.
    """
    if axis not in ("x", "y"):
        raise GeometryError(f"axis must be 'x' or 'y', got {axis!r}")
    widths = set()
    for rect in region.rects():
        widths.add(rect.width if axis == "x" else rect.height)
    return sorted(widths)
