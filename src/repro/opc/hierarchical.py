"""Hierarchical model-based OPC: correct each unique context once.

Flat OPC pays for every placement; the industry's answer to the hierarchy
problem was context-aware reuse -- placements of a cell whose optical
neighbourhood matches share one corrected variant.  This module groups a
design's placements by exact context signature (the same signature the
hierarchy-impact analysis computes), corrects one representative per
group in its context, and assembles the full corrected layer from the
variants.

For regular designs this divides OPC compute by the average placement
count per context; for irregular designs it degrades gracefully to flat
cost.  The ``hier.context_hits`` / ``hier.context_misses`` counters are
the hierarchy-breakage story as live metrics: a hit is a placement served
from an already-corrected variant, a miss is a variant that had to be
corrected from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from ..analysis.hierarchy import context_signature, placement_index
from ..errors import OPCError
from ..geometry import Region
from ..layout import Cell, Layer
from ..litho import LithoSimulator
from ..obs import count as _obs_count, span as _obs_span
from .model_opc import ModelOPCRecipe, model_opc


@dataclass
class HierarchicalOPCResult:
    """Outcome of a hierarchical correction run."""

    corrected: Region  # the flat corrected layer
    placements: int
    variants_corrected: int
    runtime_s: float
    per_cell_variants: Dict[str, int] = field(default_factory=dict)

    @property
    def reuse_factor(self) -> float:
        """Placements served per correction (1.0 = no reuse)."""
        if self.variants_corrected == 0:
            return 1.0
        return self.placements / self.variants_corrected


def hierarchical_model_opc(
    top: Cell,
    layer: Layer,
    simulator: LithoSimulator,
    dose: float = 1.0,
    interaction_radius_nm: int = 600,
    recipe: ModelOPCRecipe = ModelOPCRecipe(),
) -> HierarchicalOPCResult:
    """Correct ``top``'s ``layer`` by unique (cell, context) variants.

    Placements are grouped by exact optical-context signature within
    ``interaction_radius_nm``; one representative per group is corrected
    (in its real context) and the result reused for every placement in the
    group.  Top-level shapes (outside any placement) are corrected flat.
    """
    if interaction_radius_nm <= 0:
        raise OPCError("interaction radius must be positive")
    with _obs_span(
        "opc.hierarchical", cell=top.name, layer=str(layer)
    ) as hier_span:
        index = placement_index(top, layer)
        placements = index.placements
        # One flat region per referenced cell, reused by its other placements.
        _obs_count("hier.cell_cache_misses", len(index.local))
        _obs_count("hier.cell_cache_hits", len(placements) - len(index.local))

        # Group placements by (cell, context signature).
        groups: Dict[Tuple[str, int], List[int]] = {}
        for pid, (cell, _transform) in enumerate(placements):
            if index.local[cell.name].is_empty:
                continue
            signature = context_signature(index, pid, interaction_radius_nm)
            groups.setdefault((cell.name, signature), []).append(pid)

        # Correct one representative per group, in its local frame with its
        # real context frozen around it.
        ambit = simulator.config.ambit_nm
        corrected = Region()
        variants = 0
        per_cell: Dict[str, int] = {}
        for (cell_name, _signature), members in groups.items():
            variants += 1
            per_cell[cell_name] = per_cell.get(cell_name, 0) + 1
            _obs_count("hier.context_misses")
            _obs_count("hier.context_hits", len(members) - 1)
            rep = members[0]
            cell, transform = placements[rep]
            local = index.local[cell_name]
            local_box = local.bbox()
            context_box = transform.apply_rect(local_box).expanded(
                interaction_radius_nm + ambit
            )
            context = (index.around(context_box, rep) & Region(context_box)).merged()
            world_target = local.transformed(transform) | context
            window = transform.apply_rect(local_box)
            with _obs_span(
                "opc.variant", cell=cell_name, placements=len(members)
            ):
                result = model_opc(
                    world_target, simulator, window, recipe, dose=dose
                )
            # Keep the variant's own corrected geometry: allow the correction
            # excursion beyond the cell bbox, but exclude the context copies
            # (each context cell gets its own variant).
            clip = Region(window.expanded(recipe.max_total_move_nm))
            variant_world = result.corrected & clip
            if not context.is_empty:
                variant_world = variant_world - context.sized(
                    recipe.max_total_move_nm + 1
                )
            variant_local = variant_world.transformed(transform.inverse())
            for pid in members:
                _cell, place = placements[pid]
                corrected._add(variant_local.transformed(place))

        # Top-level loose shapes are corrected flat against their
        # surroundings.
        own = index.own
        if own.num_loops:
            own_box = own.bbox()
            context = index.around(
                own_box.expanded(interaction_radius_nm + ambit), -1
            )
            with _obs_span("opc.variant", cell=top.name, placements=1):
                result = model_opc(
                    (own | context).merged(), simulator, own_box, recipe,
                    dose=dose,
                )
            corrected._add(result.corrected & Region(own_box))

        hier_span.set(
            placements=len(placements),
            variants_corrected=variants,
        )

    return HierarchicalOPCResult(
        corrected=corrected.merged(),
        placements=len(placements),
        variants_corrected=variants,
        runtime_s=hier_span.duration_s,
        per_cell_variants=per_cell,
    )
