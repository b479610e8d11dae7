"""Sub-resolution assist feature (scattering bar) insertion.

Isolated lines lack the diffraction-order reinforcement their dense
siblings enjoy, so their process window collapses through focus.  SRAFs --
narrow bars placed next to isolated edges, below the printing threshold --
synthesise a dense-like environment.  Placement is rule-based (the era's
production practice): the measured facing space selects no bar, one
centred bar, or a bar per edge; MRC pruning then removes anything too
close to main features or too short to matter.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Sequence, Tuple

from ..errors import OPCError
from ..geometry import EdgeIndex, Rect, Region

if TYPE_CHECKING:  # pragma: no cover
    from ..litho import LithoSimulator

#: Spaces measured as "nothing within range" are treated as this.
_FAR = 10**6


@dataclass(frozen=True)
class SRAFRecipe:
    """Scattering-bar placement rules (all lengths in nm/dbu)."""

    bar_width_nm: int = 60
    bar_offset_nm: int = 160  # main-feature edge to bar edge
    single_bar_space_nm: int = 520  # >= this: one centred bar fits
    double_bar_space_nm: int = 900  # >= this: a bar per edge
    min_bar_length_nm: int = 200
    end_pullback_nm: int = 60  # bar ends stop short of the edge ends
    mrc_space_nm: int = 100  # minimum bar-to-feature clearance

    def validated(self) -> "SRAFRecipe":
        """Return self, raising :class:`OPCError` on inconsistent rules."""
        if self.bar_width_nm <= 0 or self.bar_offset_nm <= 0:
            raise OPCError("bar width and offset must be positive")
        if self.single_bar_space_nm < self.bar_width_nm + 2 * self.mrc_space_nm:
            raise OPCError("single-bar space cannot fit a bar plus clearances")
        if self.double_bar_space_nm < self.single_bar_space_nm:
            raise OPCError("double-bar space must be >= single-bar space")
        if self.min_bar_length_nm <= 0:
            raise OPCError("minimum bar length must be positive")
        return self


def insert_srafs(features: Region, recipe: SRAFRecipe = SRAFRecipe()) -> Region:
    """Scattering bars for ``features``, already MRC-pruned.

    The returned region contains only the bars; combine with the main
    features via the mask-model ``srafs=`` argument.
    """
    recipe = recipe.validated()
    merged = features.merged()
    if merged.is_empty:
        return Region()
    shortest = recipe.min_bar_length_nm + 2 * recipe.end_pullback_nm
    edges = [
        (start, end)
        for loop in merged.loops
        for start, end in zip(loop, loop[1:] + loop[:1])
        if abs(end[0] - start[0]) + abs(end[1] - start[1]) >= shortest
    ]
    normals = [_outward_normal(start, end) for start, end in edges]
    midpoints = [((s[0] + e[0]) // 2, (s[1] + e[1]) // 2) for s, e in edges]
    spaces = EdgeIndex(merged).ray_distances(midpoints, normals, _FAR).tolist()
    bars: List[Rect] = []
    for (start, end), normal, space in zip(edges, normals, spaces):
        bars.extend(_bars_for_edge(start, end, normal, space, recipe))
    if not bars:
        return Region()
    candidates = Region.from_rects(bars).merged()
    # MRC pruning: clearance to main features, then drop slivers that the
    # merge may have produced where bars from perpendicular edges meet.
    pruned = candidates - merged.sized(recipe.mrc_space_nm)
    pruned = pruned.opened(max(1, recipe.bar_width_nm // 2 - 1))
    return pruned


def calibrate_sraf_offset(
    simulator: "LithoSimulator",
    line_width_nm: int,
    offsets_nm: Sequence[int],
    dose: float = 1.0,
    defocus_nm: float = 500.0,
    base_recipe: SRAFRecipe = SRAFRecipe(),
) -> Tuple[SRAFRecipe, List[Tuple[int, float, float]]]:
    """Pick the bar offset that best holds an isolated line through focus.

    For each candidate offset, an isolated line with bars is printed in
    focus and at ``defocus_nm``; the winning offset minimises the CD loss
    through focus (the quantity SRAFs exist to protect).  Returns the
    tuned recipe plus the ``(offset, cd_in_focus, cd_defocused)`` table.
    Offsets whose bars print, bridge, or fail MRC are skipped by
    construction (pruning inside :func:`insert_srafs`).
    """
    from ..design.testpatterns import isolated_line
    from ..litho import binary_mask

    if not offsets_nm:
        raise OPCError("need at least one candidate offset")
    pattern = isolated_line(line_width_nm)
    rows: List[Tuple[int, float, float]] = []
    best_offset: int = 0
    best_loss = float("inf")
    for offset in offsets_nm:
        recipe = dataclasses.replace(base_recipe, bar_offset_nm=offset)
        bars = insert_srafs(pattern.region, recipe)
        mask = binary_mask(pattern.region, srafs=bars)
        in_focus = simulator.cd(
            mask, pattern.window, pattern.site("center"), dose=dose
        )
        defocused = simulator.cd(
            mask, pattern.window, pattern.site("center"),
            dose=dose, defocus_nm=defocus_nm,
        )
        if in_focus is None or defocused is None:
            continue
        rows.append((offset, in_focus, defocused))
        loss = abs(in_focus - defocused)
        if loss < best_loss:
            best_loss = loss
            best_offset = offset
    if not rows:
        raise OPCError("no candidate offset printed the line at both conditions")
    return dataclasses.replace(base_recipe, bar_offset_nm=best_offset), rows


def _outward_normal(start, end) -> Tuple[int, int]:
    """Outward unit normal of boundary edge ``start->end`` (interior left)."""
    ex, ey = end[0] - start[0], end[1] - start[1]
    dx = (ex > 0) - (ex < 0)
    dy = (ey > 0) - (ey < 0)
    return (dy, -dx)


def _bars_for_edge(start, end, normal, space: int, recipe: SRAFRecipe) -> List[Rect]:
    """Candidate bars for one boundary edge facing ``space``.

    ``space`` is the measured facing space, or :attr:`EdgeIndex.NO_HIT`
    when nothing lies within ``_FAR``.
    """
    if space == EdgeIndex.NO_HIT:
        space = _FAR
    if space < recipe.single_bar_space_nm:
        return []
    if space < recipe.double_bar_space_nm:
        # One centred bar, shared with (and deduplicated against) the
        # facing edge's identical candidate.
        offset = (space - recipe.bar_width_nm) // 2
    else:
        offset = recipe.bar_offset_nm
    return [_bar_rect(start, end, normal, offset, recipe)]


def _bar_rect(start, end, normal, offset: int, recipe: SRAFRecipe) -> Rect:
    """The bar rect parallel to edge ``start->end`` at ``offset`` outward."""
    pull = recipe.end_pullback_nm
    nx, ny = normal
    if nx:  # vertical edge, horizontal offset
        x_near = start[0] + nx * offset
        x_far = x_near + nx * recipe.bar_width_nm
        y_lo, y_hi = sorted((start[1], end[1]))
        return Rect.from_corners((x_near, y_lo + pull), (x_far, y_hi - pull))
    y_near = start[1] + ny * offset
    y_far = y_near + ny * recipe.bar_width_nm
    x_lo, x_hi = sorted((start[0], end[0]))
    return Rect.from_corners((x_lo + pull, y_near), (x_hi - pull, y_far))
