"""Pre-OPC retargeting: the target is not the drawn layout.

Before correction, production flows *retarget*: drawn geometry that is
legal but unprintable-as-is (sub-minimum widths from legacy shrinks,
slot-like spaces) is adjusted to the nearest printable dimension, and OPC
then aims at the retargeted shapes.  This module implements per-edge
rule-based retargeting using the same measurement machinery as rule OPC.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..errors import OPCError
from ..geometry import (
    EdgeIndex,
    FragmentationSpec,
    Region,
    apply_biases,
    fragment_region,
)

#: Coarse fragmentation: retargeting moves whole edges, not sub-fragments.
RETARGET_FRAGMENTATION = FragmentationSpec(
    corner_length_nm=20, max_length_nm=100_000, min_length_nm=10, line_end_max_nm=1
)


@dataclass(frozen=True)
class RetargetRules:
    """Printability floor enforced before correction (nm/dbu)."""

    min_width_nm: int
    min_space_nm: int
    measure_range_nm: int = 4000

    def validated(self) -> "RetargetRules":
        """Return self, raising :class:`OPCError` on nonsense values."""
        if self.min_width_nm <= 0 or self.min_space_nm <= 0:
            raise OPCError("retarget minima must be positive")
        if not math.isfinite(self.measure_range_nm) or self.measure_range_nm <= 0:
            raise OPCError(
                f"measurement range must be finite and positive, got {self.measure_range_nm}"
            )
        return self


def retarget(target: Region, rules: RetargetRules) -> Region:
    """Widen sub-minimum features and relieve sub-minimum spaces.

    Every edge whose own feature is narrower than ``min_width_nm`` moves
    outward by half the deficit; every edge facing a space tighter than
    ``min_space_nm`` moves inward by half that deficit.  Width repair wins
    when both fire (an unprintable feature is worse than a tight space).
    The result is the OPC *target*; drawn data is never modified.
    """
    rules = rules.validated()
    merged = target.merged()
    if merged.is_empty:
        return merged
    loops = fragment_region(merged, RETARGET_FRAGMENTATION)
    midpoints, normals = loops.midpoint, loops.normal
    # Space outward, then width inward, for every fragment in one query.
    space, width = np.split(
        EdgeIndex(merged).ray_distances(
            np.vstack((midpoints, midpoints)),
            np.vstack((normals, -normals)),
            rules.measure_range_nm,
        ),
        2,
    )
    narrow_space = (space != EdgeIndex.NO_HIT) & (space < rules.min_space_nm)
    narrow_width = (width != EdgeIndex.NO_HIT) & (width < rules.min_width_nm)
    biases = np.where(narrow_space, -((rules.min_space_nm - space + 1) // 2), 0)
    biases = np.where(narrow_width, (rules.min_width_nm - width + 1) // 2, biases)
    return apply_biases(loops, biases)
