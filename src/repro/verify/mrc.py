"""Edge-based mask rule checking (MRC) with localized violations, and repair.

This is the one MRC engine of the flows: it answers *whether* a mask is
writable, *where* and *why* it is not, and makes it writable.  It sweeps
the boundary edges of a merged mask :class:`~repro.geometry.Region` and
emits one :class:`MRCViolation` marker per defect -- rule id, rect
marker, measured value vs. limit, owning cell -- for the rule classes a
mask shop actually rejects on:

* **MRC101 min-width** -- internal (material) spacing between facing
  boundary edges below ``min_width_nm``.
* **MRC102 min-space** -- external (gap) spacing between facing boundary
  edges of *different* figures below ``min_space_nm``.
* **MRC103 min-area** -- figures smaller than ``min_area_nm2`` (writer
  dust; evaluated globally, never per tile).
* **MRC104 min-edge** -- boundary edges shorter than ``min_edge_nm``
  (OPC jog slivers that fragment into extra shots).
* **MRC105 notch** -- a space violation *within* one figure outline
  (same loop), checked against ``notch_nm``.
* **MRC106 corner** -- diagonally opposed convex corners closer than
  ``corner_nm`` across empty space.

Edge convention: merged regions keep the interior on the left of the
direction of travel (outers CCW, holes CW), so the outward normal of an
edge is obtained by rotating its direction 90 degrees clockwise.  A
width candidate is a pair of facing edges with material between them; a
space candidate has the gap between them.  Candidates are refined by
subtracting coverage intervals where other geometry interrupts the band,
which is what guarantees zero false positives: every reported interval
really is governed by the reported pair of edges.  The edges live in
NumPy arrays, and the facing pairs of each axis and rule come from
sorted searches over ``(interval, position)`` keys, not from per-edge
index queries.

All comparisons are strict -- a measurement exactly equal to its limit
is legal.

The module also prices the mask for the writer: a VSB fracture estimate
(``shot_count`` / ``vertex_count`` / ``figure_count``) rides on every
report so shot-count inflation can be gated like any other quality
metric (see :mod:`repro.obs.runs`).

:func:`repair_mask_region` repairs from the markers: each pass is one
sweep whose MRC102/MRC105 rects are filled and MRC101 rects trimmed,
and it returns the last sweep with the repaired mask, so a flow that
ships that mask signs it off without sweeping it again.
:func:`repair_mask` and :func:`repair_mask_residuals` are views of the
same loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..errors import OPCError
from ..geometry import Rect, Region
from ..geometry.booleans import _loop_edges, boolean_rects

__all__ = [
    "MRC_RULE_CATALOG",
    "MRCRules",
    "MRCViolation",
    "MRCReport",
    "MaskRepair",
    "check_mask_region",
    "repair_mask",
    "repair_mask_region",
    "repair_mask_residuals",
    "scan_window",
]

# Severity strings mirror repro.lint.Severity values without importing
# repro.lint (which imports repro.opc, whose MRC shim imports this module).
SEVERITY_ERROR = "error"
SEVERITY_WARNING = "warning"

#: rule id -> (kind, severity, one-line description).  The lint rule
#: registrations in :mod:`repro.lint.rules_mask` are generated from this
#: table so the SARIF rules catalog and this engine can never disagree.
MRC_RULE_CATALOG: Dict[str, Tuple[str, str, str]] = {
    "MRC101": (
        "min-width",
        SEVERITY_ERROR,
        "mask feature narrower than the minimum writable width",
    ),
    "MRC102": (
        "min-space",
        SEVERITY_ERROR,
        "gap between mask figures below the minimum writable space",
    ),
    "MRC103": (
        "min-area",
        SEVERITY_ERROR,
        "mask figure smaller than the minimum writable area",
    ),
    "MRC104": (
        "min-edge",
        SEVERITY_WARNING,
        "boundary edge shorter than the minimum edge length (jog sliver)",
    ),
    "MRC105": (
        "notch",
        SEVERITY_ERROR,
        "notch within one figure outline below the notch limit",
    ),
    "MRC106": (
        "corner",
        SEVERITY_WARNING,
        "diagonally opposed convex corners closer than the corner limit",
    ),
}


@dataclass(frozen=True)
class MRCRules:
    """Mask-shop manufacturing limits, in mask-scale nanometres.

    The first two fields keep their historic positional order so
    ``MRCRules(40, 60)`` call sites continue to mean width/space.  A
    limit of ``0`` disables its rule (``notch_nm=0`` inherits
    ``min_space_nm``; see :attr:`effective_notch_nm`).
    """

    min_width_nm: int = 40
    min_space_nm: int = 40
    min_area_nm2: int = 4
    min_edge_nm: int = 0
    notch_nm: int = 0
    corner_nm: int = 0

    def validated(self) -> "MRCRules":
        """Return self, raising :class:`OPCError` on nonsense limits."""
        if self.min_width_nm <= 0 or self.min_space_nm <= 0:
            raise OPCError(
                f"MRC limits must be positive, got width="
                f"{self.min_width_nm} space={self.min_space_nm}"
            )
        for name in ("min_area_nm2", "min_edge_nm", "notch_nm", "corner_nm"):
            value = getattr(self, name)
            if value < 0:
                raise OPCError(f"MRC {name} must be >= 0, got {value}")
        return self

    def to_dict(self) -> Dict[str, int]:
        """Plain-dict form for picklable work units and ledger limits."""
        return {
            "min_width_nm": self.min_width_nm,
            "min_space_nm": self.min_space_nm,
            "min_area_nm2": self.min_area_nm2,
            "min_edge_nm": self.min_edge_nm,
            "notch_nm": self.notch_nm,
            "corner_nm": self.corner_nm,
        }

    @property
    def effective_notch_nm(self) -> int:
        """The notch limit actually applied (0 inherits min_space_nm)."""
        return self.notch_nm if self.notch_nm > 0 else self.min_space_nm

    @property
    def interaction_nm(self) -> int:
        """Largest distance at which any edge rule couples two edges.

        Tiled evaluation uses this as its halo: a clip boundary further
        than ``interaction_nm`` from a tile core can never produce a
        marker anchored inside that core.
        """
        return max(
            self.min_width_nm,
            self.min_space_nm,
            self.effective_notch_nm,
            self.min_edge_nm,
            self.corner_nm,
        )


@dataclass(frozen=True)
class MRCViolation:
    """One localized mask-rule defect."""

    rule_id: str
    kind: str
    severity: str
    marker: Rect
    measured_nm: float
    limit_nm: float
    cell: Optional[str] = None

    def message(self) -> str:
        measured = (
            f"{self.measured_nm:g}"
            if self.measured_nm != int(self.measured_nm)
            else f"{int(self.measured_nm)}"
        )
        unit = "nm^2" if self.kind == "min-area" else "nm"
        return (
            f"{self.kind} {measured} {unit} < {int(self.limit_nm)} "
            f"{unit} limit"
        )

    def sort_key(self) -> tuple:
        return (self.rule_id, tuple(self.marker), self.measured_nm)

    def to_dict(self) -> dict:
        payload = {
            "rule_id": self.rule_id,
            "kind": self.kind,
            "severity": self.severity,
            "marker": [
                self.marker.x1,
                self.marker.y1,
                self.marker.x2,
                self.marker.y2,
            ],
            "measured_nm": self.measured_nm,
            "limit_nm": self.limit_nm,
        }
        if self.cell is not None:
            payload["cell"] = self.cell
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "MRCViolation":
        return cls(
            rule_id=payload["rule_id"],
            kind=payload["kind"],
            severity=payload["severity"],
            marker=Rect(*payload["marker"]),
            measured_nm=payload["measured_nm"],
            limit_nm=payload["limit_nm"],
            cell=payload.get("cell"),
        )


@dataclass
class MRCReport:
    """Outcome of one :func:`check_mask_region` sweep."""

    violations: List[MRCViolation] = field(default_factory=list)
    rules: MRCRules = field(default_factory=MRCRules)
    shot_count: int = 0
    vertex_count: int = 0
    figure_count: int = 0

    @property
    def is_clean(self) -> bool:
        """True when no rule fired at any severity."""
        return not self.violations

    @property
    def error_count(self) -> int:
        return sum(
            1 for v in self.violations if v.severity == SEVERITY_ERROR
        )

    @property
    def warning_count(self) -> int:
        return sum(
            1 for v in self.violations if v.severity == SEVERITY_WARNING
        )

    @property
    def has_errors(self) -> bool:
        """True when a blocking (ERROR severity) rule fired."""
        return self.error_count > 0

    def by_rule(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for violation in self.violations:
            counts[violation.rule_id] = counts.get(violation.rule_id, 0) + 1
        return dict(sorted(counts.items()))

    def summary_dict(self, max_markers: int = 50) -> dict:
        """JSON-ready summary for the run ledger (schema 1.5).

        Markers are capped at ``max_markers`` (worst first: errors
        before warnings, then most-undersized) so ledger records stay
        small on pathological masks; counts always cover everything.
        """
        ranked = sorted(
            self.violations,
            key=lambda v: (
                0 if v.severity == SEVERITY_ERROR else 1,
                v.measured_nm - v.limit_nm,
                v.sort_key(),
            ),
        )
        return {
            "ok": not self.has_errors,
            "violations": len(self.violations),
            "errors": self.error_count,
            "warnings": self.warning_count,
            "by_rule": self.by_rule(),
            "shot_count": self.shot_count,
            "vertex_count": self.vertex_count,
            "figure_count": self.figure_count,
            "limits": self.rules.to_dict(),
            "markers": [v.to_dict() for v in ranked[:max_markers]],
        }


# ---------------------------------------------------------------------------
# Interval refinement
# ---------------------------------------------------------------------------


def _subtract_intervals(
    lo: int, hi: int, blocked: List[Tuple[int, int]]
) -> List[Tuple[int, int]]:
    """Portions of [lo, hi] not covered by any blocked interval."""
    if not blocked:
        return [(lo, hi)]
    blocked = sorted(blocked)
    out: List[Tuple[int, int]] = []
    cursor = lo
    for b_lo, b_hi in blocked:
        if b_hi <= cursor:
            continue
        if b_lo >= hi:
            break
        if b_lo > cursor:
            out.append((cursor, b_lo))
        cursor = max(cursor, b_hi)
        if cursor >= hi:
            break
    if cursor < hi:
        out.append((cursor, hi))
    return [(a, b) for a, b in out if b > a]


# ---------------------------------------------------------------------------
# Boundary arrays and pair search
# ---------------------------------------------------------------------------

# The boundary of a merged window is held as NumPy arrays, one row per
# edge, never as per-edge objects.  Per axis -- "v" for vertical edges
# (x == pos, extent lo..hi in y, outward +1 east / -1 west) and "h" for
# horizontal ones (y == pos, extent lo..hi in x, outward +1 north / -1
# south) -- an edge is (pos, lo, hi, outward, loop).  ``loop`` identifies
# the outline the edge came from, which is what separates a notch (same
# loop) from a space violation (different loops).


def _loop_arrays(merged: Region):
    """``(loops, lengths, starts, edges)`` of a merged region.

    ``edges`` are the ``(x1, y1, x2, y2)`` arrays of
    :func:`~repro.geometry.booleans._loop_edges`, in loop order: loop
    ``k`` owns rows ``starts[k]`` to ``starts[k] + lengths[k]``, and row
    ``i`` starts at that loop's vertex ``i - starts[k]``.
    """
    loops = [loop for loop in merged.loops if len(loop) >= 4]
    lengths = np.fromiter(map(len, loops), dtype=np.intp, count=len(loops))
    return loops, lengths, np.cumsum(lengths) - lengths, _loop_edges(loops)


def _ranges(keys: np.ndarray, query: np.ndarray, reach: int):
    """``(row, index)`` of every sorted key with ``q < key < q + reach``.

    ``row`` indexes ``query`` and ``index`` indexes ``keys``; both come
    from two :func:`numpy.searchsorted` calls and one expansion.
    """
    start = np.searchsorted(keys, query, side="right")
    count = np.searchsorted(keys, query + reach, side="left") - start
    row = np.repeat(np.arange(len(query)), count)
    offset = np.repeat(start - (np.cumsum(count) - count), count)
    return row, np.arange(len(row)) + offset


def _facing_pairs(
    pos: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    low: np.ndarray,
    high: np.ndarray,
    reach: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Edge pairs ``(i, j)`` of one axis that can bound a band.

    ``i`` is a ``low`` edge and ``j`` a ``high`` edge (boolean masks over
    the axis's edges) with ``0 < pos[j] - pos[i] < reach``, and their
    extents overlap by a positive length.  The distinct extent ends cut
    the along axis into elementary intervals; every edge becomes one
    ``(interval, position)`` key per interval it covers, so the candidates
    of every low edge in every interval it covers come from one pair of
    sorted searches.  A pair meets in each interval both edges cover and
    is kept only in the first one.
    """
    bounds = np.unique(np.concatenate((lo, hi)))
    first = np.searchsorted(bounds, lo)
    count = np.searchsorted(bounds, hi) - first
    base = int(pos.min())
    # Keys of one interval stay below the next interval's, even + reach.
    span = int(pos.max()) - base + reach + 1

    def keyed(mask: np.ndarray):
        edge = np.repeat(np.flatnonzero(mask), count[mask])
        rank = np.arange(len(edge)) - np.repeat(
            np.cumsum(count[mask]) - count[mask], count[mask]
        )
        interval = first[edge] + rank
        return edge, interval, interval * span + pos[edge] - base

    low_edge, interval, query = keyed(low)
    high_edge, _, keys = keyed(high)
    order = np.argsort(keys, kind="stable")
    row, index = _ranges(keys[order], query, reach)
    i = low_edge[row]
    j = high_edge[order][index]
    kept = interval[row] == np.maximum(first[i], first[j])
    return i[kept], j[kept]


def _edge_rule_violations(
    merged: Region, rules: MRCRules
) -> List[MRCViolation]:
    """Width/space/notch/edge/corner defects of one merged window."""
    # Merged loops keep the interior on the left of travel (outers CCW,
    # holes CW), so an edge's outward normal is its direction turned 90
    # degrees clockwise, and a convex corner is a left turn.
    loops, lengths, starts, (x1, y1, x2, y2) = _loop_arrays(merged)
    if not loops:
        return []
    edge_loop = np.repeat(np.arange(len(loops)), lengths)
    # Bounding boxes of the loops: a band or corner gap only needs the
    # loops that reach it (a hole lies inside its outer loop's box).
    bx1, by1 = np.minimum.reduceat(x1, starts), np.minimum.reduceat(y1, starts)
    bx2, by2 = np.maximum.reduceat(x1, starts), np.maximum.reduceat(y1, starts)
    violations: List[MRCViolation] = []

    def interference(rect: Rect, op: str) -> List[Rect]:
        """``rect`` op the merged window, as slab rects."""
        near = (bx1 <= rect.x2) & (bx2 >= rect.x1) & (by1 <= rect.y2) & (by2 >= rect.y1)
        return boolean_rects(
            np.array([tuple(rect)], dtype=np.int64),
            [loops[k] for k in np.flatnonzero(near).tolist()],
            op,
        )

    def box(axis: str, p1: int, p2: int, s1: int, s2: int) -> Rect:
        """The rect between positions p1..p2 over the extent s1..s2."""
        return Rect(p1, s1, p2, s2) if axis == "v" else Rect(s1, p1, s2, p2)

    def emit_band(
        axis: str, p1: int, p2: int, lo: int, hi: int, rule_id: str, limit: int
    ) -> None:
        """Refine the band between facing edges at p1 (low) and p2 (high).

        A width band must be solid material, so any empty sliver blocks
        it; a space band must be empty, so any material blocks it.  The
        along-edge intervals that stay unblocked are the markers.
        """
        kind, severity, _ = MRC_RULE_CATALOG[rule_id]
        op = "difference" if rule_id == "MRC101" else "intersection"
        blocked = [
            (r.y1, r.y2) if axis == "v" else (r.x1, r.x2)
            for r in interference(box(axis, p1, p2, lo, hi), op)
        ]
        for ilo, ihi in _subtract_intervals(lo, hi, blocked):
            violations.append(
                MRCViolation(
                    rule_id,
                    kind,
                    severity,
                    box(axis, p1, p2, ilo, ihi),
                    float(p2 - p1),
                    float(limit),
                )
            )

    space_radius = max(rules.min_space_nm, rules.effective_notch_nm)
    for axis, pos, a, b, outward in (
        # Up is outward east; rightward is outward south.
        ("v", x1, y1, y2, np.sign(y2 - y1)),
        ("h", y1, x1, x2, np.sign(x1 - x2)),
    ):
        on = a != b  # rectilinear: the edges of this axis
        if not on.any():
            continue
        pos, outward, loop = pos[on], outward[on], edge_loop[on]
        lo, hi = np.minimum(a, b)[on], np.maximum(a, b)[on]

        # --- min-edge (jog slivers) ---------------------------------
        if rules.min_edge_nm > 0:
            for k in np.flatnonzero(hi - lo < rules.min_edge_nm).tolist():
                p, s1, s2 = int(pos[k]), int(lo[k]), int(hi[k])
                violations.append(
                    MRCViolation(
                        "MRC104",
                        "min-edge",
                        SEVERITY_WARNING,
                        box(axis, p, p, s1, s2),
                        float(s2 - s1),
                        float(rules.min_edge_nm),
                    )
                )

        # --- width: material between a west/south-facing low edge and
        # an east/north-facing high edge ----------------------------
        i, j = _facing_pairs(
            pos, lo, hi, outward == -1, outward == 1, rules.min_width_nm
        )
        for k, m in zip(i.tolist(), j.tolist()):
            emit_band(
                axis, int(pos[k]), int(pos[m]),
                int(max(lo[k], lo[m])), int(min(hi[k], hi[m])),
                "MRC101", rules.min_width_nm,
            )

        # --- space and notch: the gap between an outward +1 low edge
        # and an outward -1 high edge -------------------------------
        i, j = _facing_pairs(pos, lo, hi, outward == 1, outward == -1, space_radius)
        same = loop[i] == loop[j]
        limit = np.where(same, rules.effective_notch_nm, rules.min_space_nm)
        tight = pos[j] - pos[i] < limit
        for k, m, notch in zip(i[tight].tolist(), j[tight].tolist(), same[tight].tolist()):
            emit_band(
                axis, int(pos[k]), int(pos[m]),
                int(max(lo[k], lo[m])), int(min(hi[k], hi[m])),
                "MRC105" if notch else "MRC102",
                rules.effective_notch_nm if notch else rules.min_space_nm,
            )

    # --- corner-to-corner -----------------------------------------------
    if rules.corner_nm > 0:
        corner_nm = rules.corner_nm
        # The corner at each edge's end is the turn into the loop's next
        # edge; convex corners turn left, away from their exterior quadrant.
        succ = np.arange(1, len(x1) + 1)
        succ[starts + lengths - 1] = starts
        dx, dy = x2 - x1, y2 - y1
        convex = dx * dy[succ] - dy * dx[succ] > 0
        cx, cy = x2[convex], y2[convex]
        qx = np.sign(dx - dx[succ])[convex]
        qy = np.sign(dy - dy[succ])[convex]
        # Anchor on the SW/NW member of each diagonal pair, so every
        # unordered pair is visited once; partners lie east of it.
        anchors = np.flatnonzero(qx == 1)
        partners = np.flatnonzero(qx == -1)
        partners = partners[np.argsort(cx[partners], kind="stable")]
        row, index = _ranges(cx[partners], cx[anchors], corner_nm)
        ka, kp = anchors[row], partners[index]
        # Diagonal opposition: exterior quadrants point at each other (NE
        # vs SW or SE vs NW), and the partner lies on the anchor's open side.
        facing = (qy[kp] == -qy[ka]) & (np.sign(cy[kp] - cy[ka]) == qy[ka])
        ka, kp = ka[facing], kp[facing]
        distances = np.hypot(cx[kp] - cx[ka], cy[kp] - cy[ka])
        for k, m, distance in zip(ka.tolist(), kp.tolist(), distances.tolist()):
            if distance >= corner_nm:
                continue
            between = Rect.from_corners(
                (int(cx[k]), int(cy[k])), (int(cx[m]), int(cy[m]))
            )
            if interference(between, "intersection"):
                continue
            violations.append(
                MRCViolation(
                    "MRC106",
                    "corner",
                    SEVERITY_WARNING,
                    between,
                    round(distance, 3),
                    float(corner_nm),
                )
            )
    return violations


def _area_violations(merged: Region, rules: MRCRules) -> List[MRCViolation]:
    """Figures below the minimum writable area (global rule)."""
    if rules.min_area_nm2 <= 0:
        return []
    loops, lengths, starts, (x1, y1, x2, y2) = _loop_arrays(merged)
    if not loops:
        return []
    # Twice each loop's signed area (shoelace); outer loops are positive.
    area2 = np.add.reduceat(x1 * y2 - x2 * y1, starts)
    out: List[MRCViolation] = []
    for k in np.flatnonzero((area2 > 0) & (area2 < 2 * rules.min_area_nm2)).tolist():
        xs = x1[starts[k]:starts[k] + lengths[k]]
        ys = y1[starts[k]:starts[k] + lengths[k]]
        out.append(
            MRCViolation(
                "MRC103",
                "min-area",
                SEVERITY_ERROR,
                Rect(int(xs.min()), int(ys.min()), int(xs.max()), int(ys.max())),
                int(area2[k]) / 2.0,
                float(rules.min_area_nm2),
            )
        )
    return out


# ---------------------------------------------------------------------------
# Windowed / tiled evaluation
# ---------------------------------------------------------------------------

# Sentinel half-width for boundary tile cores: anything anchored beyond
# the geometry bbox still belongs to the outermost tile row/column.
_CORE_SENTINEL = 2**62


def scan_window(payload: dict) -> List[dict]:
    """Edge-rule sweep of one clipped window; top-level for pickling.

    ``payload`` carries ``loops`` (point lists of the clipped merged
    geometry), ``rules`` (as a plain dict), and ``core`` -- the
    half-open ``[x1, x2) x [y1, y2)`` ownership box.  Only violations
    whose marker anchor (lower-left corner) falls inside the core are
    returned, which both deduplicates across tiles and discards clip
    artifacts: the window extends ``interaction_nm`` beyond the core, so
    an artificial clip edge can never anchor a marker inside it.
    """
    rules = MRCRules(**payload["rules"])
    cx1, cy1, cx2, cy2 = payload["core"]
    # The loops were cut from a canonical (merged) region, so rebuild
    # without re-running the boolean engine -- hole orientation and
    # disjointness are already guaranteed.
    merged = Region._from_canonical(
        [[tuple(pt) for pt in loop] for loop in payload["loops"]]
    )
    out: List[dict] = []
    for violation in _edge_rule_violations(merged, rules):
        ax, ay = violation.marker.x1, violation.marker.y1
        if cx1 <= ax < cx2 and cy1 <= ay < cy2:
            out.append(violation.to_dict())
    return out


def _window_grid(box: Rect, tile_nm: int) -> List[Tuple[Rect, Rect]]:
    """(core, sentinel-extended core) tiles covering ``box``.

    Mirrors the column-major split of :func:`repro.opc.tiling._tile_grid`
    (duplicated here because verify must not import opc) with one
    addition: boundary tiles get their outer core bounds pushed to
    +/-2**62 so markers at the geometry rim always have an owner.
    """
    cols = max(1, -(-box.width // tile_nm))
    rows = max(1, -(-box.height // tile_nm))
    xs = [box.x1 + (box.width * k) // cols for k in range(cols + 1)]
    ys = [box.y1 + (box.height * k) // rows for k in range(rows + 1)]
    tiles: List[Tuple[Rect, Rect]] = []
    for i in range(cols):
        for j in range(rows):
            core = Rect(xs[i], ys[j], xs[i + 1], ys[j + 1])
            owner = Rect(
                -_CORE_SENTINEL if i == 0 else core.x1,
                -_CORE_SENTINEL if j == 0 else core.y1,
                _CORE_SENTINEL if i == cols - 1 else core.x2,
                _CORE_SENTINEL if j == rows - 1 else core.y2,
            )
            tiles.append((core, owner))
    return tiles


def window_payloads(
    merged: Region, rules: MRCRules, tile_nm: int
) -> List[dict]:
    """Picklable per-tile work units for :func:`scan_window`."""
    box = merged.bbox()
    halo = rules.interaction_nm
    rules_dict = rules.to_dict()
    payloads: List[dict] = []
    for core, owner in _window_grid(box, tile_nm):
        clip = merged & Region(core.expanded(halo))
        if clip.is_empty:
            continue
        payloads.append(
            {
                "loops": clip.loops,
                "rules": rules_dict,
                "core": [owner.x1, owner.y1, owner.x2, owner.y2],
            }
        )
    return payloads


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _attribute(
    violations: List[MRCViolation], cell
) -> List[MRCViolation]:
    """Tag each violation with its owning cell via the spatial index."""
    if cell is None or not violations:
        return violations
    from ..obs.spatial import cell_owner_index

    try:
        index = cell_owner_index(cell)
    except Exception:
        return violations
    out: List[MRCViolation] = []
    for violation in violations:
        best = None
        for _bbox, (name, depth, area) in index.query(violation.marker):
            if not _bbox.intersects(violation.marker):
                continue
            rank = (-depth, area)
            if best is None or rank < best[0]:
                best = (rank, name)
        out.append(
            replace(violation, cell=best[1]) if best else violation
        )
    return out


def check_mask_region(
    mask_geometry: Region,
    rules: Optional[MRCRules] = None,
    cell=None,
    tile_nm: int = 0,
    n_workers: int = 1,
    with_stats: bool = True,
) -> MRCReport:
    """Run the full MRC sweep over a corrected mask region.

    ``tile_nm > 0`` splits the sweep into halo-padded windows (the halo
    is :attr:`MRCRules.interaction_nm`, so results are independent of
    the worker count); ``n_workers > 1`` additionally fans the windows
    out over a multiprocessing pool.  ``cell`` attributes markers to
    their owning layout cell when the mask came from a hierarchy.
    ``with_stats=False`` skips the VSB fracture estimate when only the
    violation list matters (e.g. repair post-conditions).
    """
    if rules is None:
        rules = MRCRules()
    rules.validated()
    merged = mask_geometry.merged()

    if merged.is_empty:
        return MRCReport(rules=rules)
    if with_stats:
        from ..mask import mask_data_stats

        stats = mask_data_stats(merged)

    violations: List[MRCViolation]
    if tile_nm <= 0:
        violations = _edge_rule_violations(merged, rules)
    else:
        payloads = window_payloads(merged, rules, tile_nm)
        if n_workers > 1 and len(payloads) > 1:
            import multiprocessing

            with multiprocessing.Pool(n_workers) as pool:
                chunks = pool.map(scan_window, payloads)
        else:
            chunks = [scan_window(p) for p in payloads]
        violations = [
            MRCViolation.from_dict(item)
            for chunk in chunks
            for item in chunk
        ]
    # Min-area needs whole figures; clipped polygons would lie about
    # their areas, so it always runs globally.
    violations.extend(_area_violations(merged, rules))

    violations = _attribute(violations, cell)
    unique = {v.sort_key(): v for v in violations}
    ordered = [unique[key] for key in sorted(unique)]
    report = MRCReport(violations=ordered, rules=rules)
    if with_stats:
        report.shot_count = stats.shots
        report.vertex_count = stats.vertices
        report.figure_count = stats.figures
    return report


# ---------------------------------------------------------------------------
# Repair
# ---------------------------------------------------------------------------

#: Markers a repair pass edits: gaps it fills and widths it trims.
_FILLED = ("MRC102", "MRC105")
_TRIMMED = ("MRC101",)


@dataclass
class MaskRepair:
    """Outcome of :func:`repair_mask_region`."""

    #: The repaired mask, canonical.
    mask: Region
    #: The last sweep, made of ``mask`` itself (no fracture estimate).
    report: MRCReport
    #: Fill-and-trim passes made; 0 when the input was already clean.
    passes: int = 0

    @property
    def residual(self) -> List[MRCViolation]:
        """Blocking markers the repair left (empty when it converged)."""
        return [
            v for v in self.report.violations if v.severity == SEVERITY_ERROR
        ]


def repair_mask_region(
    mask_geometry: Region,
    rules: Optional[MRCRules] = None,
    max_passes: int = 3,
) -> MaskRepair:
    """Fill the sub-limit gaps and trim the sub-limit widths the engine marks.

    Each pass is one :func:`check_mask_region` sweep: its MRC102 and
    MRC105 marker rects become chrome and its MRC101 marker rects are
    removed.  A marker lies between two facing edges closer than the
    limit, so every edit moves geometry by less than that limit.  Passes
    repeat because a fill can leave a new narrow neck nearby; the loop
    stops at the first sweep with none of those markers, or after
    ``max_passes`` edits, and returns that last sweep with the mask.
    """
    rules = (MRCRules() if rules is None else rules).validated()
    current = mask_geometry.merged()
    passes = 0
    while True:
        report = check_mask_region(current, rules, with_stats=False)
        fill = [v.marker for v in report.violations if v.rule_id in _FILLED]
        trim = [v.marker for v in report.violations if v.rule_id in _TRIMMED]
        if passes == max_passes or not (fill or trim):
            return MaskRepair(current, report, passes)
        if fill:
            current = current | Region.from_rects(fill)
        if trim:
            current = current - Region.from_rects(trim)
        passes += 1


def repair_mask(
    mask_geometry: Region,
    rules: Optional[MRCRules] = None,
    max_passes: int = 3,
    strict: bool = False,
) -> Region:
    """Make a mask MRC-clean with minimal, bounded edits.

    The mask of :func:`repair_mask_region`.  With ``strict=True``
    blocking markers left by its last sweep raise :class:`OPCError`;
    otherwise the repaired geometry is returned, possibly still dirty
    (:func:`repair_mask_residuals` also returns the leftovers).
    """
    repair = repair_mask_region(mask_geometry, rules, max_passes)
    residual = repair.residual
    if strict and residual:
        heads = "; ".join(
            f"{v.rule_id} at {tuple(v.marker)}" for v in residual[:3]
        )
        more = f" and {len(residual) - 3} more" if len(residual) > 3 else ""
        raise OPCError(
            f"repair_mask left {len(residual)} blocking violation(s) "
            f"after {max_passes} pass(es): {heads}{more}"
        )
    return repair.mask


def repair_mask_residuals(
    mask_geometry: Region,
    rules: Optional[MRCRules] = None,
    max_passes: int = 3,
) -> Tuple[Region, List[MRCViolation]]:
    """:func:`repair_mask` plus the blocking markers it could not fix.

    The residual list is the last repair sweep's ERROR-severity markers;
    an empty list is the machine-checked post-condition that the repair
    converged.
    """
    repair = repair_mask_region(mask_geometry, rules, max_passes)
    return repair.mask, repair.residual
