"""Edge-placement-error measurement and statistics.

Generates EPE control sites from a target region's fragmentation and turns
the per-site measurements into the summary numbers the evaluation tables
report (mean, RMS, worst-case, failure count).

Beyond the aggregates, :func:`measure_epe_sites` keeps every measurement
as a tagged :class:`EPESite` record -- location, outward normal, fragment
identity, signed error and failure state -- which is what the spatial
hotspot diagnostics (:mod:`repro.obs.spatial`) attribute, rank and render.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import VerificationError
from ..geometry import FragmentationSpec, FragmentTag, Rect, Region, fragment_region
from ..geometry.fragment import FragmentLoops
from ..litho import Grid, LithoSimulator, MaskSpec, edge_offsets_batch

#: Fragmentation used for verification sites (finer than correction).
DEFAULT_EPE_FRAGMENTATION = FragmentationSpec(
    corner_length_nm=40, max_length_nm=100, min_length_nm=20, line_end_max_nm=260
)

Site = Tuple[Tuple[float, float], Tuple[float, float]]

#: Tags whose sites are dropped by ``include_corners=False``.
_CORNER_TAGS = (FragmentTag.CORNER_CONVEX, FragmentTag.CORNER_CONCAVE)


@dataclass(frozen=True)
class EPESite:
    """One attributed EPE control site.

    ``(x, y)`` is the measurement anchor on the target edge (dbu/nm),
    ``normal`` the unit outward normal the search runs along.  The
    fragment identity (``loop_index``, ``fragment_index``) names exactly
    which piece of which boundary loop the site controls, and ``cell``
    -- when a layout hierarchy is available -- the deepest placed cell
    whose bounding box owns the anchor.  ``epe_nm`` is the signed error
    (positive = printed edge outside target); ``None`` with a ``state``
    of ``"dark"``/``"bright"`` marks a catastrophic site where no edge
    crossed the search span.
    """

    x: int
    y: int
    normal: Tuple[int, int]
    tag: str
    loop_index: int
    fragment_index: int
    epe_nm: Optional[float] = None
    state: str = "found"
    cell: Optional[str] = None

    @property
    def severity(self) -> float:
        """Ranking key: |EPE|, with missing edges worse than any number."""
        return float("inf") if self.epe_nm is None else abs(self.epe_nm)

    @property
    def anchor(self) -> Tuple[int, int]:
        return (self.x, self.y)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready form persisted into run records."""
        return {
            "x": self.x,
            "y": self.y,
            "normal": list(self.normal),
            "tag": self.tag,
            "loop": self.loop_index,
            "fragment": self.fragment_index,
            "epe_nm": self.epe_nm,
            "state": self.state,
            "cell": self.cell,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EPESite":
        return cls(
            x=int(data["x"]),
            y=int(data["y"]),
            normal=tuple(data.get("normal", (0, 0))),
            tag=data.get("tag", FragmentTag.NORMAL.value),
            loop_index=int(data.get("loop", 0)),
            fragment_index=int(data.get("fragment", 0)),
            epe_nm=data.get("epe_nm"),
            state=data.get("state", "found"),
            cell=data.get("cell"),
        )

    def __str__(self) -> str:
        error = "MISSING" if self.epe_nm is None else f"{self.epe_nm:+.2f} nm"
        owner = f" [{self.cell}]" if self.cell else ""
        return f"({self.x}, {self.y}) {self.tag} {error}{owner}"


@dataclass(frozen=True)
class EPEStats:
    """Summary statistics over a set of EPE measurements."""

    count: int
    missing: int
    mean_nm: float
    rms_nm: float
    max_abs_nm: float
    p95_abs_nm: float

    @classmethod
    def from_values(cls, values: Sequence[Optional[float]]) -> "EPEStats":
        """Summarise raw per-site measurements (``None`` = edge not found)."""
        present = np.array([v for v in values if v is not None], dtype=float)
        missing = sum(1 for v in values if v is None)
        if len(present) == 0:
            return cls(0, missing, 0.0, 0.0, 0.0, 0.0)
        return cls(
            count=len(present),
            missing=missing,
            mean_nm=float(np.mean(present)),
            rms_nm=float(np.sqrt(np.mean(present**2))),
            max_abs_nm=float(np.max(np.abs(present))),
            p95_abs_nm=float(np.percentile(np.abs(present), 95)),
        )

    def __str__(self) -> str:
        return (
            f"EPE n={self.count} mean={self.mean_nm:+.2f} rms={self.rms_nm:.2f} "
            f"max={self.max_abs_nm:.2f} p95={self.p95_abs_nm:.2f} "
            f"missing={self.missing}"
        )


def epe_sites(
    target: Region,
    window: Optional[Rect] = None,
    spec: FragmentationSpec = DEFAULT_EPE_FRAGMENTATION,
) -> List[Site]:
    """EPE control sites on the target's edges (one per fragment).

    ``window`` restricts sites to a measurement region; pass the simulation
    window so context geometry beyond the grid is not measured.
    """
    return [site for site, _tag in epe_sites_tagged(target, window, spec)]


def epe_sites_tagged(
    target: Region,
    window: Optional[Rect] = None,
    spec: FragmentationSpec = DEFAULT_EPE_FRAGMENTATION,
) -> List[Tuple[Site, FragmentTag]]:
    """EPE sites paired with their fragment tags.

    Tags let reports separate run/line-end EPE (what OPC must fix) from
    corner EPE (where rounding is physical and tolerances are relaxed).
    """
    loops, index = _measured_fragments(target, window, spec, include_corners=True)
    return list(zip(loops.sites(index), loops.tags(index)))


def _measured_fragments(
    target: Region,
    window: Optional[Rect],
    spec: FragmentationSpec,
    include_corners: bool,
) -> Tuple[FragmentLoops, np.ndarray]:
    """``target``'s fragments and the indices of those measured, in order.

    A fragment is measured when its site, the midpoint, lies in ``window``
    (boundary included; every site when ``window`` is None), and, unless
    ``include_corners``, when it is no corner piece.
    """
    loops = fragment_region(target, spec)
    keep = np.ones(len(loops.tag), dtype=bool) if window is None else loops.in_window(window)
    if not include_corners:
        keep &= ~loops.tagged(*_CORNER_TAGS)
    return loops, np.flatnonzero(keep)


def measure_epe(
    simulator: LithoSimulator,
    mask: MaskSpec,
    target: Region,
    window: Rect,
    dose: float = 1.0,
    defocus_nm: float = 0.0,
    spec: FragmentationSpec = DEFAULT_EPE_FRAGMENTATION,
    search_nm: float = 80.0,
    include_corners: bool = True,
) -> Tuple[EPEStats, List[Optional[float]]]:
    """EPE of ``mask``'s print against ``target`` at every fragment site.

    ``include_corners=False`` drops corner-tagged sites: corner rounding is
    physical (a diffraction-limited image cannot hold a square corner), so
    run/line-end statistics are the OPC quality metric.
    """
    stats, sites = measure_epe_sites(
        simulator, mask, target, window, dose=dose, defocus_nm=defocus_nm,
        spec=spec, search_nm=search_nm, include_corners=include_corners,
    )
    return stats, [site.epe_nm for site in sites]


def measure_epe_sites(
    simulator: LithoSimulator,
    mask: MaskSpec,
    target: Region,
    window: Rect,
    dose: float = 1.0,
    defocus_nm: float = 0.0,
    spec: FragmentationSpec = DEFAULT_EPE_FRAGMENTATION,
    search_nm: float = 80.0,
    include_corners: bool = True,
    *,
    latent: Optional[Tuple[Grid, np.ndarray]] = None,
) -> Tuple[EPEStats, List[EPESite]]:
    """Like :func:`measure_epe`, but keeps every measurement attributed.

    Returns the summary statistics plus one :class:`EPESite` per control
    site, in fragmentation order, each carrying its location, fragment
    identity, signed error and failure state.  Owning-cell attribution is
    added separately (see :func:`repro.obs.spatial.attribute_sites`)
    because it needs the layout hierarchy, not the flat region.

    ``latent`` is the ``(grid, image)`` pair
    :meth:`~repro.litho.LithoSimulator.latent_image` returns for ``mask``
    over ``window`` at ``defocus_nm``, when the caller already has it (ORC
    develops the same image); otherwise it is computed here.
    """
    loops, index = _measured_fragments(target, window, spec, include_corners)
    if not len(index):
        raise VerificationError("target has no measurable edges inside the window")
    grid, image = (
        simulator.latent_image(mask, window, defocus_nm)
        if latent is None
        else latent
    )
    anchored = loops.sites(index)
    measured = edge_offsets_batch(
        image,
        grid,
        anchored,
        simulator.config.resist.effective_threshold(dose),
        search_nm=search_nm,
    )
    first = loops.counts.cumsum() - loops.counts
    position = np.arange(len(loops.tag)) - np.repeat(first, loops.counts)
    sites = [
        EPESite(
            x=x,
            y=y,
            normal=normal,
            tag=tag.value,
            loop_index=loop_index,
            fragment_index=fragment_index,
            epe_nm=value,
            state=state,
        )
        for ((x, y), normal), tag, loop_index, fragment_index, (value, state) in zip(
            anchored,
            loops.tags(index),
            loops.loop[index].tolist(),
            position[index].tolist(),
            measured,
        )
    ]
    return EPEStats.from_values([site.epe_nm for site in sites]), sites


def worst_sites(sites: Sequence[EPESite], k: int = 10) -> List[EPESite]:
    """The ``k`` worst sites, most severe first.

    Missing-edge sites (catastrophic failures) outrank any finite EPE;
    ties break deterministically on fragment identity so ranked tables
    are stable run to run.
    """
    ranked = sorted(
        sites,
        key=lambda s: (-s.severity, s.loop_index, s.fragment_index, s.x, s.y),
    )
    return ranked[: max(k, 0)]
