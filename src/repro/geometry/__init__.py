"""Exact integer geometry kernel for Manhattan layout data.

Public surface:

* :class:`Point`, :class:`Rect`, :class:`Polygon`, :class:`Region` -- the
  value types;
* booleans via ``Region`` operators (``|``, ``&``, ``-``, ``^``) and sizing
  via :meth:`Region.sized`;
* :class:`Transform` -- exact 90-degree layout transforms;
* fragmentation (:func:`fragment_region`, :func:`apply_biases`) for OPC;
* decomposition/fracture (:func:`decompose_max_rects`,
  :func:`fracture_array`);
* measurement (:class:`EdgeIndex`) and spatial indexing (:class:`GridIndex`).
"""

from .booleans import boolean_loops, boolean_rects
from .decompose import decompose_max_rects, fracture_array
from .fragment import (
    FragmentationSpec,
    FragmentTag,
    apply_biases,
    fragment_region,
)
from .measure import EdgeIndex, feature_widths
from .point import Coord, Point
from .polygon import Polygon
from .rect import Rect, bounding_box
from .region import Region
from .smooth import smooth_jogs
from .spatial import GridIndex
from .transform import Transform

__all__ = [
    "Coord",
    "EdgeIndex",
    "FragmentTag",
    "FragmentationSpec",
    "GridIndex",
    "Point",
    "Polygon",
    "Rect",
    "Region",
    "Transform",
    "apply_biases",
    "boolean_loops",
    "boolean_rects",
    "bounding_box",
    "decompose_max_rects",
    "feature_widths",
    "fracture_array",
    "fragment_region",
    "smooth_jogs",
]
