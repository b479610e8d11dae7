"""Decomposition of regions into rectangles and mask-writer figures.

Two decompositions matter in this library:

* the *slab* decomposition (vertical slabs from the boolean sweep), which
  feeds rasterization and area computations, and
* the *fracture* decomposition used by mask data preparation, where each
  figure must also respect a maximum writer figure size.

For Manhattan geometry every trapezoid degenerates to a rectangle, so the
fracture output is a rectangle array; shot counts follow directly.  Both
decompositions run as array passes over the region's slab rect array
(:meth:`Region.rect_array`), and :func:`fracture_array` returns an
``(n, 4)`` int64 array, which shot counts read with no per-figure object.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import GeometryError
from .booleans import rect_list
from .region import Region
from .rect import Rect


def decompose_max_rects(region: Region) -> List[Rect]:
    """A greedy merge of the slab decomposition into fewer rectangles.

    Slab rects in ``(y1, y2, x1)`` order that share their y-extent and
    touch in x are fused horizontally.  The result is still exact and
    disjoint, typically 2-4x fewer figures than the raw slab decomposition
    on standard-cell data, and comes in that order.
    """
    return rect_list(_max_rects(region.rect_array()))


def fracture_array(region: Region, max_figure: int) -> np.ndarray:
    """Fracture a region into writer figures no larger than ``max_figure``.

    Models mask data preparation for a variable-shaped-beam (VSB) or raster
    writer.  Returns an ``(n, 4)`` int64 rect array ``(x1, y1, x2, y2)``:
    each rect of :func:`decompose_max_rects`, in its order, split into
    ``ceil(w / max_figure)`` columns by ``ceil(h / max_figure)`` rows, by
    column, then by row, the cut ``k`` of ``p`` pieces of a span at
    ``lo + (span * k) // p``.  ``max_figure`` must be a positive integer,
    else :class:`GeometryError`.
    """
    if not isinstance(max_figure, (int, np.integer)) or max_figure <= 0:
        raise GeometryError(f"max_figure must be a positive integer, got {max_figure!r}")
    x1, y1, x2, y2 = _max_rects(region.rect_array()).T
    width, height = x2 - x1, y2 - y1
    cols = np.maximum(-(-width // max_figure), 1)
    rows = np.maximum(-(-height // max_figure), 1)
    pieces = cols * rows
    owner = np.repeat(np.arange(len(pieces)), pieces)
    index = np.arange(int(pieces.sum())) - np.repeat(pieces.cumsum() - pieces, pieces)
    col, row = np.divmod(index, rows[owner])
    xs = (x1[owner], width[owner], cols[owner])
    ys = (y1[owner], height[owner], rows[owner])
    return np.stack(
        (_cut(*xs, col), _cut(*ys, row), _cut(*xs, col + 1), _cut(*ys, row + 1)), axis=1
    )


def _max_rects(rects: np.ndarray) -> np.ndarray:
    """Slab rects sorted by ``(y1, y2, x1)``, each run that touches in x fused."""
    rects = rects[np.lexsort((rects[:, 0], rects[:, 3], rects[:, 1]))]
    x1, y1, x2, y2 = rects.T
    joins = (y1[1:] == y1[:-1]) & (y2[1:] == y2[:-1]) & (x1[1:] == x2[:-1])
    first = np.ones(len(rects), dtype=bool)
    first[1:] = ~joins
    last = np.ones(len(rects), dtype=bool)
    last[:-1] = ~joins
    return np.stack((x1[first], y1[first], x2[last], y2[first]), axis=1)


def _cut(lo: np.ndarray, span: np.ndarray, pieces: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Cut ``k`` of a span split into ``pieces``: ``lo + (span * k) // pieces``.

    Evaluated as ``q * k + (r * k) // pieces`` with ``span = q * pieces + r``,
    which is exact without forming the int64 product ``span * k``.
    """
    whole, rest = np.divmod(span, pieces)
    return lo + whole * k + (rest * k) // pieces
