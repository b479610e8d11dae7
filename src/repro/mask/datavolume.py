"""Mask data-volume models: the paper's headline cost of OPC adoption.

Three sizes matter to a 2001 tape-out:

* figure/vertex counts of the layout database (designer's view),
* writer shots after fracture (mask shop's exposure time), and
* bytes on disk/tape (the data-handling crisis OPC triggered).

The byte model counts the GDSII bytes the codec would write, from loop and
vertex counts (:func:`repro.layout.gds.stream_size`); the writer model
fractures to rectangles under a maximum figure size and charges a fixed
record size per shot, the structure of MEBES/VSB formats.  Neither builds
a per-figure object or a byte stream.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ReproError
from ..geometry import Region, fracture_array
from ..layout import Layer
from ..layout.gds import stream_size

#: Bytes per writer shot record (trapezoid: type + 4 coordinates, packed).
SHOT_RECORD_BYTES = 16

#: Default maximum writer figure size at wafer scale (2 um).
DEFAULT_MAX_FIGURE_NM = 2000


@dataclass(frozen=True)
class MaskDataStats:
    """Size of one mask layer's data."""

    figures: int  # database figures (polygon loops)
    vertices: int  # database vertices
    shots: int  # writer shots after fracture
    writer_bytes: int  # shots * record size
    gds_bytes: int  # serialised GDSII size

    def ratio_to(self, baseline: "MaskDataStats") -> "DataGrowth":
        """Growth factors relative to an uncorrected baseline."""
        return DataGrowth(
            figures=_ratio(self.figures, baseline.figures),
            vertices=_ratio(self.vertices, baseline.vertices),
            shots=_ratio(self.shots, baseline.shots),
            bytes=_ratio(self.gds_bytes, baseline.gds_bytes),
        )


@dataclass(frozen=True)
class DataGrowth:
    """Multiplicative growth of each size metric."""

    figures: float
    vertices: float
    shots: float
    bytes: float

    def __str__(self) -> str:
        return (
            f"figures x{self.figures:.2f}, vertices x{self.vertices:.2f}, "
            f"shots x{self.shots:.2f}, bytes x{self.bytes:.2f}"
        )


def mask_data_stats(
    geometry: Region,
    layer: Layer = Layer(1, 0, "mask"),
    max_figure_nm: int = DEFAULT_MAX_FIGURE_NM,
) -> MaskDataStats:
    """Measure one mask layer's data sizes.

    ``geometry`` is merged first (mask data is flat); GDS bytes measure the
    single-cell stream holding exactly this geometry on ``layer``, and
    raise the :class:`~repro.errors.GDSError` its writer would.
    """
    if max_figure_nm <= 0:
        raise ReproError(f"max figure size must be positive, got {max_figure_nm}")
    merged = geometry.merged()
    shots = len(fracture_array(merged, max_figure_nm))
    return MaskDataStats(
        figures=merged.num_loops,
        vertices=merged.num_vertices,
        shots=shots,
        writer_bytes=shots * SHOT_RECORD_BYTES,
        gds_bytes=stream_size("maskdata", "mask", layer, merged.loops),
    )


def write_time_estimate_s(
    stats: MaskDataStats, shots_per_second: float = 50_000.0
) -> float:
    """Writer exposure time from the shot count (VSB-class throughput)."""
    if shots_per_second <= 0:
        raise ReproError("shot rate must be positive")
    return stats.shots / shots_per_second


def _ratio(value: float, baseline: float) -> float:
    return value / baseline if baseline else float("inf")
