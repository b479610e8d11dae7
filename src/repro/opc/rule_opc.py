"""Rule-based OPC: bias tables, line-end treatment, serifs.

The first-generation OPC that fabs adopted around the 180 nm node:

* per-edge bias from a (width, space) look-up table;
* line-end extension plus optional hammerheads against pullback;
* corner serifs (convex) and anti-serifs (concave) against rounding.

Everything is geometric -- no simulation in the loop -- which is exactly
why it is cheap, and exactly why it tops out: 2D neighbourhoods the table
never saw get the wrong correction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List

import numpy as np

from ..errors import OPCError
from ..geometry import (
    EdgeIndex,
    FragmentTag,
    FragmentationSpec,
    Rect,
    Region,
    apply_biases,
    fragment_region,
)
from .report import OPCResult
from .rules import BiasTable, default_bias_table_180nm

#: Fragmentation used by rule-based OPC (coarse: whole edges mostly).
DEFAULT_RULE_FRAGMENTATION = FragmentationSpec(
    corner_length_nm=40, max_length_nm=400, min_length_nm=20, line_end_max_nm=260
)


@dataclass(frozen=True)
class RuleOPCRecipe:
    """Settings of a rule-based correction pass."""

    bias_table: BiasTable = field(default_factory=default_bias_table_180nm)
    fragmentation: FragmentationSpec = DEFAULT_RULE_FRAGMENTATION
    line_end_extension_nm: int = 20
    hammerhead_extra_nm: int = 0
    serif_size_nm: int = 0
    measure_range_nm: int = 4000

    def validated(self) -> "RuleOPCRecipe":
        """Return self, raising :class:`OPCError` on nonsense values."""
        line_end = (self.line_end_extension_nm, self.hammerhead_extra_nm)
        if not all(isinstance(v, (int, np.integer)) for v in line_end):
            raise OPCError(f"line-end corrections must be whole dbu, got {line_end}")
        if min(line_end) < 0:
            raise OPCError("line-end corrections must be non-negative")
        if self.serif_size_nm < 0:
            raise OPCError("serif size must be non-negative")
        if not math.isfinite(self.measure_range_nm) or self.measure_range_nm <= 0:
            raise OPCError(
                f"measurement range must be finite and positive, got {self.measure_range_nm}"
            )
        return self


def rule_opc(target: Region, recipe: RuleOPCRecipe = RuleOPCRecipe()) -> OPCResult:
    """Apply rule-based OPC to ``target``; returns the corrected geometry.

    Every fragment takes the table bias of the space its midpoint faces
    along its outward normal (isolated when nothing lies within
    ``measure_range_nm``); line ends add the extension, and each
    neighbour of a line end in its loop the hammerhead extra, once per
    line end it borders.
    """
    recipe = recipe.validated()
    merged = target.merged()
    if merged.is_empty:
        return OPCResult(target=merged, corrected=merged)
    loops = fragment_region(merged, recipe.fragmentation)
    spaces = EdgeIndex(merged).ray_distances(
        loops.midpoint, loops.normal, recipe.measure_range_nm
    )
    biases = recipe.bias_table.biases_for(spaces)
    line_ends = np.flatnonzero(loops.tagged(FragmentTag.LINE_END))
    biases[line_ends] += recipe.line_end_extension_nm
    if recipe.hammerhead_extra_nm:
        # Predecessors, then successors: each is a permutation, so a
        # fragment between two line ends gets the extra once per pass.
        for neighbour in loops.neighbours():
            biases[neighbour[line_ends]] += recipe.hammerhead_extra_nm
    corrected = apply_biases(loops, biases)
    if recipe.serif_size_nm:
        corrected = add_serifs(corrected, recipe.serif_size_nm)
    return OPCResult(
        target=merged,
        corrected=corrected,
        fragment_count=len(biases),
    )


def add_serifs(region: Region, serif_size_nm: int) -> Region:
    """Add corner serifs (convex) and anti-serifs (concave) to ``region``.

    A serif is a square of side ``serif_size_nm`` centred on each convex
    corner (added); an anti-serif is the same square subtracted at each
    concave corner.  Centring puts a quarter of the square outside the
    feature, the classic 'corner-keating' compromise.
    """
    if serif_size_nm <= 0:
        raise OPCError(f"serif size must be positive, got {serif_size_nm}")
    merged = region.merged()
    serifs: List[Rect] = []
    notches: List[Rect] = []
    half = serif_size_nm // 2
    for loop in merged.loops:
        n = len(loop)
        for i in range(n):
            prev_pt, cur, nxt = loop[i - 1], loop[i], loop[(i + 1) % n]
            ax, ay = cur[0] - prev_pt[0], cur[1] - prev_pt[1]
            bx, by = nxt[0] - cur[0], nxt[1] - cur[1]
            cross = ax * by - ay * bx
            square = Rect(cur[0] - half, cur[1] - half, cur[0] + half, cur[1] + half)
            if cross > 0:
                serifs.append(square)
            elif cross < 0:
                notches.append(square)
    result = merged
    if serifs:
        result = result | Region.from_rects(serifs)
    if notches:
        result = result - Region.from_rects(notches)
    return result
