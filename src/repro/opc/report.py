"""Result records for OPC runs: per-iteration convergence and final state."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..geometry import Region


@dataclass(frozen=True)
class IterationStats:
    """Convergence state after one model-based OPC iteration."""

    iteration: int
    rms_epe_nm: float
    max_epe_nm: float
    moved_fragments: int  # repro-lint: ignore[R002] -- a count, not a length
    missing_edges: int

    def __str__(self) -> str:
        return (
            f"iter {self.iteration}: rms {self.rms_epe_nm:.2f} nm, "
            f"max {self.max_epe_nm:.2f} nm, moved {self.moved_fragments}, "
            f"missing {self.missing_edges}"
        )


@dataclass
class OPCResult:
    """Outcome of an OPC run.

    ``corrected`` is the mask-side main-feature geometry; ``target`` the
    drawn intent it was corrected toward.  ``history`` is empty for
    rule-based correction (a single deterministic pass); a tiled run
    concatenates its tiles' histories in tile-grid order.
    """

    target: Region
    corrected: Region
    history: List[IterationStats] = field(default_factory=list)
    converged: bool = True
    fragment_count: int = 0
    #: Per-tile MRC findings (violation dicts, tile-grid order) when a
    #: tiled run evaluated mask rules before stitching; ``None`` when no
    #: rules were threaded in (see :func:`~repro.opc.tiling.model_opc_tiled`).
    tile_mrc: Optional[List[dict]] = None
    #: ``(fragment count, final iterate)`` of every tile that iterated, in
    #: tile-grid order, for a tiled run; ``None`` for a single window.
    tile_finals: Optional[List[Tuple[int, IterationStats]]] = None

    @property
    def final_rms_epe_nm(self) -> Optional[float]:
        """RMS EPE after the last iteration (``None`` for rule-based runs).

        For a tiled run, the RMS over every site of every tile's final
        iterate.
        """
        if self.tile_finals is not None:
            return self._block_epe()[0]
        return self.history[-1].rms_epe_nm if self.history else None

    @property
    def final_max_epe_nm(self) -> Optional[float]:
        """Worst-site EPE after the last iteration (of every tile, if tiled)."""
        if self.tile_finals is not None:
            return self._block_epe()[1]
        return self.history[-1].max_epe_nm if self.history else None

    def _block_epe(self) -> Tuple[Optional[float], Optional[float]]:
        """RMS and max EPE over the final iterates of all tiles.

        A tile's RMS covers its fragment count minus its missing edges
        (unmeasured sites count as zero EPE, as in a single window), so
        tile RMS values combine weighted by that count.  Tiles where every
        site went missing measured nothing and are left out; when no tile
        measured anything the EPE is infinite, as for a single window.
        """
        if not self.tile_finals:
            return None, None
        measured = [
            (sites - stats.missing_edges, stats)
            for sites, stats in self.tile_finals
            if sites > stats.missing_edges
        ]
        if not measured:
            return math.inf, math.inf
        total = sum(count for count, _stats in measured)
        square_sum = sum(stats.rms_epe_nm ** 2 * count for count, stats in measured)
        return (
            math.sqrt(square_sum / total),
            max(stats.max_epe_nm for _count, stats in measured),
        )

    @property
    def iterations(self) -> int:
        """Number of model iterations executed."""
        return len(self.history)

    def figure_growth(self) -> Tuple[int, int]:
        """``(target_vertices, corrected_vertices)`` -- the data explosion."""
        return self.target.merged().num_vertices, self.corrected.merged().num_vertices
