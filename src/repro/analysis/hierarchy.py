"""Hierarchy-impact analysis: how OPC destroys layout reuse.

Proximity correction depends on everything within the optical interaction
radius.  Two placements of the same cell with different neighbourhoods
need *different* corrected geometry, so the mask data can no longer share
one cell definition.  This module measures exactly that: for every cell in
a placed design, the number of distinct optical-context signatures across
its placements -- the number of post-OPC cell variants -- and the effective
figure counts that follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..errors import ReproError
from ..geometry import GridIndex, Rect, Region, Transform
from ..layout import Cell, Layer


@dataclass(frozen=True)
class CellContextStats:
    """Context diversity of one cell definition."""

    cell_name: str
    placements: int
    unique_contexts: int
    figures_per_instance: int

    @property
    def variant_figures(self) -> int:
        """Figures after per-context cell duplication."""
        return self.unique_contexts * self.figures_per_instance

    @property
    def flat_figures(self) -> int:
        """Figures if every placement were fully flattened."""
        return self.placements * self.figures_per_instance


@dataclass
class HierarchyImpact:
    """Design-wide summary of OPC-induced hierarchy breakage."""

    interaction_radius_nm: int
    per_cell: List[CellContextStats] = field(default_factory=list)

    @property
    def shared_figures(self) -> int:
        """Figures with full hierarchy reuse (pre-OPC ideal)."""
        return sum(s.figures_per_instance for s in self.per_cell)

    @property
    def variant_figures(self) -> int:
        """Figures with one cell variant per unique optical context."""
        return sum(s.variant_figures for s in self.per_cell)

    @property
    def flat_figures(self) -> int:
        """Figures with hierarchy fully flattened (worst case)."""
        return sum(s.flat_figures for s in self.per_cell)

    @property
    def reuse_surviving(self) -> float:
        """Fraction of hierarchy compression that survives OPC.

        1.0 means every placement kept a shared definition; approaching
        ``shared/flat`` means hierarchy was destroyed entirely.
        """
        if self.flat_figures == self.shared_figures:
            return 1.0
        return 1.0 - (self.variant_figures - self.shared_figures) / (
            self.flat_figures - self.shared_figures
        )


@dataclass
class PlacementIndex:
    """Every placement of a top cell on one layer, indexed for context queries.

    ``placements[pid]`` is the ``(cell, transform)`` of placement ``pid``,
    ``local`` one merged flat region per referenced cell, and ``own`` the
    top cell's own shapes.  ``grid`` holds each placement's placed loops
    under its ``pid`` and ``own``'s under -1.
    """

    placements: List[Tuple[Cell, Transform]]
    local: Dict[str, Region]
    own: Region
    grid: GridIndex

    def around(self, box: Rect, skip: int) -> Region:
        """The unmerged loops of every entry whose bbox meets ``box``, except ``skip``'s."""
        out = Region()
        for _bbox, (key, loops) in self.grid.query(box):
            if key != skip:
                for loop in loops:
                    out._add(loop)
        return out


def placement_index(top: Cell, layer: Layer) -> PlacementIndex:
    """Index ``top``'s placements and own shapes on ``layer``."""
    placements = [
        (ref.cell, transform)
        for ref in top.references
        for transform in ref.placements()
    ]
    grid: GridIndex = GridIndex(cell_size=5000)
    local: Dict[str, Region] = {}
    for pid, (cell, transform) in enumerate(placements):
        if cell.name not in local:
            local[cell.name] = cell.flat_region(layer).merged()
        placed = local[cell.name].transformed(transform)
        box = placed.bbox()
        if box is not None:
            grid.insert(box, (pid, placed.loops))
    own = top.region(layer)
    box = own.bbox()
    if box is not None:
        grid.insert(box, (-1, own.loops))
    return PlacementIndex(placements, local, own, grid)


def hierarchy_impact(
    top: Cell, layer: Layer, interaction_radius_nm: int = 600
) -> HierarchyImpact:
    """Measure context diversity of every referenced cell in ``top``.

    The context of a placement is the surrounding geometry on ``layer``
    within ``interaction_radius_nm`` of the placed cell's bounding box,
    expressed in the cell's local frame.  Identical contexts (exactly --
    after transform normalisation) allow a shared corrected cell.
    """
    if interaction_radius_nm <= 0:
        raise ReproError("interaction radius must be positive")
    index = placement_index(top, layer)
    per_cell: Dict[str, Dict] = {}
    for pid, (cell, _transform) in enumerate(index.placements):
        entry = per_cell.setdefault(
            cell.name,
            {
                "signatures": set(),
                "count": 0,
                "figures": index.local[cell.name].num_loops,
            },
        )
        entry["count"] += 1
        entry["signatures"].add(
            context_signature(index, pid, interaction_radius_nm)
        )

    result = HierarchyImpact(interaction_radius_nm=interaction_radius_nm)
    for name, entry in sorted(per_cell.items()):
        result.per_cell.append(
            CellContextStats(
                cell_name=name,
                placements=entry["count"],
                unique_contexts=len(entry["signatures"]),
                figures_per_instance=entry["figures"],
            )
        )
    return result


def context_signature(index: PlacementIndex, pid: int, radius: int) -> int:
    """Hash of placement ``pid``'s neighbourhood geometry in its local frame."""
    cell, transform = index.placements[pid]
    local_box = index.local[cell.name].bbox()
    if local_box is None:
        return 0
    world_box = transform.apply_rect(local_box).expanded(radius)
    clipped = index.around(world_box, pid) & Region(world_box)
    local_context = clipped.transformed(transform.inverse()).merged()
    return hash(
        tuple(sorted(tuple(sorted(lp)) for lp in local_context.loops))
    )
