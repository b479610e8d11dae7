"""Mask data preparation: fracture and data-volume accounting.

Public surface: :func:`mask_data_stats`, :class:`MaskDataStats`,
:class:`DataGrowth`, :func:`write_time_estimate_s`, plus the fracture
primitives re-exported from the geometry kernel.
"""

from ..geometry import decompose_max_rects, fracture_array
from .cost import MaskCostModel
from .datavolume import (
    DEFAULT_MAX_FIGURE_NM,
    SHOT_RECORD_BYTES,
    DataGrowth,
    MaskDataStats,
    mask_data_stats,
    write_time_estimate_s,
)

__all__ = [
    "DEFAULT_MAX_FIGURE_NM",
    "DataGrowth",
    "MaskCostModel",
    "MaskDataStats",
    "SHOT_RECORD_BYTES",
    "decompose_max_rects",
    "fracture_array",
    "mask_data_stats",
    "write_time_estimate_s",
]
