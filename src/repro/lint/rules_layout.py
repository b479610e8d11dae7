"""Layout-layer lint rules (LNT2xx): drawn-geometry hazards.

These rules reuse the repo's exact machinery -- :func:`check_width` for
sub-resolution features, :class:`EdgeIndex` ray queries for pitch
occupancy, the :mod:`repro.opc.psm` conflict graph for phase
assignability, and :class:`GridIndex` for hierarchy overlap -- but run
it statically, with no simulator in the loop.

Findings carry a layout :class:`~repro.geometry.Rect` and, when a cell
hierarchy is available, the deepest owning cell (same attribution policy
as :func:`repro.obs.spatial.attribute_sites`).
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..geometry import Coord, Rect, Region
from ..geometry.measure import EdgeIndex
from ..geometry.spatial import GridIndex
from ..opc.psm import assign_phases
from ..verify.drc import check_width
from .diagnostics import Diagnostic, Severity
from .engine import LintContext, rule

#: Cap per-rule location diagnostics; one summary line reports the rest.
MAX_LOCATIONS = 20


def _owner(ctx: LintContext, location: Rect) -> Optional[str]:
    """Deepest cell owning ``location``'s centre, when a hierarchy exists."""
    if ctx.cell is None:
        return None
    index = getattr(ctx, "_owner_index", None)
    if index is None:
        from ..obs.spatial import cell_owner_index

        try:
            index = cell_owner_index(ctx.cell)
        except Exception:
            index = False  # no geometry to attribute against
        ctx._owner_index = index
    if index is False:
        return ctx.cell.name
    x, y = location.center
    owner = ctx.cell.name
    best = (-1, float("inf"))
    for box, (name, depth, area) in index.query(Rect(x, y, x + 1, y + 1)):
        if box.contains((x, y)):
            if (depth, -area) > (best[0], -best[1]):
                best = (depth, area)
                owner = name
    return owner


def _located(
    ctx: LintContext,
    code: str,
    severity: Severity,
    boxes: Sequence[Rect],
    message: str,
    hint: str,
) -> Iterator[Diagnostic]:
    """One diagnostic per offending box, capped at :data:`MAX_LOCATIONS`."""
    for box in boxes[:MAX_LOCATIONS]:
        yield Diagnostic(
            code=code,
            severity=severity,
            message=message,
            hint=hint,
            location=box,
            cell=_owner(ctx, box),
        )
    overflow = len(boxes) - MAX_LOCATIONS
    if overflow > 0:
        yield Diagnostic(
            code=code,
            severity=severity,
            message=f"... and {overflow} more instance(s) of: {message}",
            hint=hint,
        )


@rule(
    "LNT201",
    "sub-resolution-feature",
    "Drawn features narrower than the optics can print at all; OPC "
    "cannot rescue them and will burn its whole move budget trying.",
    requires=("litho", "layout"),
)
def check_sub_resolution(ctx: LintContext) -> Iterator[Diagnostic]:
    optics = ctx.litho.optics
    # 0.25*lambda/NA is well below any production k1; nothing narrower
    # than this prints under any enhancement, so drawing it is an error.
    floor_nm = int(round(0.25 * optics.wavelength_nm / optics.na))
    if floor_nm <= 0:
        return
    merged = ctx.merged_layout()
    if merged.is_empty:
        return
    offenders = check_width(merged, floor_nm)
    if offenders.is_empty:
        return
    boxes = [poly.bbox() for poly in offenders.outer_polygons()]
    yield from _located(
        ctx,
        "LNT201",
        Severity.ERROR,
        boxes,
        f"drawn feature narrower than the {floor_nm} nm printability "
        f"floor (0.25*lambda/NA for lambda={optics.wavelength_nm:g}, "
        f"NA={optics.na:g})",
        "widen the feature or retarget it before OPC",
    )


@rule(
    "LNT202",
    "off-grid-vertex",
    "Vertices not on the mask manufacturing grid; the mask writer will "
    "snap them, silently changing the corrected shapes.",
)
def check_off_grid(ctx: LintContext) -> Iterator[Diagnostic]:
    grid = ctx.mask_grid_nm
    if grid <= 1:
        return  # every integer dbu vertex is on a 1 nm grid
    loops = _vertex_loops(ctx)
    if loops is None:
        return
    boxes: List[Rect] = []
    for loop in loops:
        for x, y in loop:
            if int(x) % grid or int(y) % grid:
                boxes.append(Rect(int(x), int(y), int(x), int(y)))
    if boxes:
        yield from _located(
            ctx,
            "LNT202",
            Severity.WARNING,
            boxes,
            f"vertex off the {grid} nm mask grid",
            f"snap all coordinates to multiples of {grid} before tapeout",
        )


@rule(
    "LNT203",
    "degenerate-loop",
    "Zero-area, under-vertexed, duplicate-vertex or non-Manhattan "
    "loops; the geometry kernel silently drops them, so the shape the "
    "designer drew never reaches the mask.",
    requires=("raw_loops",),
)
def check_degenerate_loops(ctx: LintContext) -> Iterator[Diagnostic]:
    for loop in ctx.raw_loops:
        points = [(int(x), int(y)) for x, y in loop]
        problem = _loop_problem(points)
        if problem is None:
            continue
        box = _loop_bbox(points)
        yield Diagnostic(
            code="LNT203",
            severity=Severity.ERROR,
            message=f"degenerate loop ({problem}) would be silently dropped",
            hint="fix or delete the loop in the source layout",
            location=box,
            cell=_owner(ctx, box) if box is not None else None,
        )


@rule(
    "LNT204",
    "self-intersecting-loop",
    "Loops whose boundary crosses itself; winding rules make the "
    "printed polarity of the pinched lobes ambiguous.",
    # Canonical (merged) loops cannot cross themselves, so only the raw
    # input loops are worth the quadratic scan.
    requires=("raw_loops",),
)
def check_self_intersections(ctx: LintContext) -> Iterator[Diagnostic]:
    for loop in ctx.raw_loops:
        points = [(int(x), int(y)) for x, y in loop]
        crossing = _first_self_crossing(points)
        if crossing is None:
            continue
        x, y = crossing
        yield Diagnostic(
            code="LNT204",
            severity=Severity.ERROR,
            message=f"loop boundary crosses itself at ({x}, {y})",
            hint="split the loop into simple polygons",
            location=Rect(x, y, x, y),
            cell=_owner(ctx, Rect(x, y, x, y)),
        )


@rule(
    "LNT205",
    "forbidden-pitch",
    "Edges sitting at a pitch the process cannot print within spec "
    "(from calibrated forbidden-pitch restrictions).",
    requires=("layout", "pitch_restrictions"),
)
def check_forbidden_pitch(ctx: LintContext) -> Iterator[Diagnostic]:
    merged = ctx.merged_layout()
    if merged.is_empty:
        return
    reach = max(int(r.high_pitch_nm) for r in ctx.pitch_restrictions) + 1
    probes = list(_edge_probes(merged))
    midpoints = np.array([midpoint for midpoint, _normal in probes])
    normals = np.array([normal for _midpoint, normal in probes])
    # Space outward, then width inward, for every edge in one query.
    found = EdgeIndex(merged).ray_distances(
        np.vstack((midpoints, midpoints)), np.vstack((normals, -normals)), reach
    ).tolist()
    boxes_by_restriction: dict = {}
    for (midpoint, _normal), space, width in zip(
        probes, found[: len(probes)], found[len(probes) :]
    ):
        if space == EdgeIndex.NO_HIT or width == EdgeIndex.NO_HIT:
            continue
        pitch = width + space
        for restriction in ctx.pitch_restrictions:
            if restriction.covers(pitch):
                x, y = midpoint
                boxes_by_restriction.setdefault(restriction, []).append(
                    (Rect(x, y, x, y), pitch)
                )
                break
    for restriction, hits in sorted(
        boxes_by_restriction.items(), key=lambda kv: kv[0].low_pitch_nm
    ):
        boxes = [box for box, _pitch in hits]
        pitches = sorted({pitch for _box, pitch in hits})
        yield from _located(
            ctx,
            "LNT205",
            Severity.WARNING,
            boxes,
            f"edge at forbidden pitch (measured "
            f"{pitches[0]}..{pitches[-1]} nm, restricted band "
            f"[{restriction.low_pitch_nm}, {restriction.high_pitch_nm}] nm, "
            f"worst error {restriction.worst_error_nm:g} nm)",
            "shift the neighbour or insert assist features to move the "
            "pitch out of the restricted band",
        )


@rule(
    "LNT206",
    "phase-conflict",
    "Odd cycles in the alternating-PSM phase graph; no phase "
    "assignment exists and the layout itself must change.",
    requires=("layout", "psm_recipe"),
)
def check_phase_conflicts(ctx: LintContext) -> Iterator[Diagnostic]:
    merged = ctx.merged_layout()
    if merged.is_empty:
        return
    assignment = assign_phases(merged, ctx.psm_recipe, strict=False)
    for group in assignment.conflicts:
        shifters = [assignment.shifters[i] for i in group]
        box = Rect(
            min(s.x1 for s in shifters),
            min(s.y1 for s in shifters),
            max(s.x2 for s in shifters),
            max(s.y2 for s in shifters),
        )
        yield Diagnostic(
            code="LNT206",
            severity=Severity.ERROR,
            message=(
                f"phase-conflict group of {len(group)} shifters (odd "
                f"cycle); alternating PSM cannot 2-color this "
                f"neighbourhood"
            ),
            hint=(
                "respace the critical lines or break the cycle with a "
                "non-critical jog (the paper's layout-change cost of "
                "strong PSM)"
            ),
            location=box,
            cell=_owner(ctx, box),
        )


@rule(
    "LNT207",
    "overlapping-placements",
    "Cell placements whose bounding boxes overlap; overlapping "
    "instances see context-dependent proximity, defeating "
    "correct-once-per-cell hierarchical OPC.",
    requires=("cell",),
)
def check_overlapping_placements(ctx: LintContext) -> Iterator[Diagnostic]:
    placements: List[Tuple[Rect, str]] = []

    def collect(cell, transform) -> None:
        for ref in cell.references:
            child_box = ref.cell.bbox(recursive=True)
            for place in ref.placements():
                placed = place.then(transform)
                if child_box is not None:
                    placements.append(
                        (placed.apply_rect(child_box), ref.cell.name)
                    )
                collect(ref.cell, placed)

    from ..geometry import Transform

    collect(ctx.cell, Transform())
    if len(placements) < 2:
        return
    span = max(
        max(box.width for box, _ in placements),
        max(box.height for box, _ in placements),
    )
    index: GridIndex = GridIndex(cell_size=max(1, span))
    index.insert_all([(box, i) for i, (box, _name) in enumerate(placements)])
    seen = set()
    boxes: List[Rect] = []
    names: List[Tuple[str, str]] = []
    for i, (box, name) in enumerate(placements):
        for other_box, j in index.query(box):
            if j <= i or (i, j) in seen:
                continue
            seen.add((i, j))
            overlap = box.intersection(other_box)
            # Abutting placements (shared edge, zero-area overlap) are
            # the normal tiling case, not a hazard.
            if overlap is None or overlap.is_empty:
                continue
            boxes.append(overlap)
            names.append((name, placements[j][1]))
    if boxes:
        pairs = sorted({f"{a}/{b}" for a, b in names})
        yield from _located(
            ctx,
            "LNT207",
            Severity.WARNING,
            boxes,
            f"overlapping cell placements ({', '.join(pairs[:4])}); "
            f"instances are no longer interchangeable for "
            f"hierarchical OPC",
            "separate the placements or flatten the overlapping region "
            "before correction",
        )


# -- helpers -------------------------------------------------------------------


def _vertex_loops(
    ctx: LintContext,
) -> Optional[Sequence[Sequence[Coord]]]:
    """Pre-merge vertex loops: raw input when given, else the layout's."""
    if ctx.raw_loops is not None:
        return ctx.raw_loops
    if ctx.layout is not None:
        return ctx.layout.loops
    return None


def _loop_bbox(points: Sequence[Coord]) -> Optional[Rect]:
    if not points:
        return None
    xs = [x for x, _y in points]
    ys = [y for _x, y in points]
    return Rect(min(xs), min(ys), max(xs), max(ys))


def _loop_problem(points: Sequence[Coord]) -> Optional[str]:
    """Why a vertex loop is degenerate, or ``None`` when it is fine."""
    if len(points) < 4:
        return f"only {len(points)} vertices"
    n = len(points)
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        if (x1, y1) == (x2, y2):
            return f"duplicate vertex at ({x1}, {y1})"
        if x1 != x2 and y1 != y2:
            return f"non-Manhattan edge ({x1},{y1})-({x2},{y2})"
    area2 = 0
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        area2 += x1 * y2 - x2 * y1
    if area2 == 0:
        return "zero enclosed area"
    return None


def _first_self_crossing(points: Sequence[Coord]) -> Optional[Coord]:
    """First proper crossing of a Manhattan loop's own boundary.

    Only *proper* crossings count (one edge passing strictly through the
    interior of a perpendicular edge); touching or collinear overlap is
    left to the degeneracy rule.  O(n^2) over the loop's edges, which is
    fine for the drawn-polygon sizes this repo handles.
    """
    n = len(points)
    if n < 4:
        return None
    edges = []
    for i in range(n):
        x1, y1 = points[i]
        x2, y2 = points[(i + 1) % n]
        if (x1, y1) != (x2, y2):
            edges.append((x1, y1, x2, y2))
    for i in range(len(edges)):
        ax1, ay1, ax2, ay2 = edges[i]
        for j in range(i + 1, len(edges)):
            bx1, by1, bx2, by2 = edges[j]
            if ax1 == ax2 and by1 == by2:  # A vertical, B horizontal
                hit = _proper_cross(ax1, ay1, ay2, by1, bx1, bx2)
                if hit:
                    return (ax1, by1)
            elif ay1 == ay2 and bx1 == bx2:  # A horizontal, B vertical
                hit = _proper_cross(bx1, by1, by2, ay1, ax1, ax2)
                if hit:
                    return (bx1, ay1)
    return None


def _proper_cross(
    vx: int, vy1: int, vy2: int, hy: int, hx1: int, hx2: int
) -> bool:
    """Vertical segment at ``vx`` strictly crosses horizontal at ``hy``."""
    vlo, vhi = (vy1, vy2) if vy1 < vy2 else (vy2, vy1)
    hlo, hhi = (hx1, hx2) if hx1 < hx2 else (hx2, hx1)
    return vlo < hy < vhi and hlo < vx < hhi


def _edge_probes(merged: Region):
    """(midpoint, outward normal) for every boundary edge of a region.

    Canonical loops are CCW for outer boundaries and CW for holes, so
    the right-hand normal of the traversal direction always points away
    from the region body.
    """
    for loop in merged.loops:
        n = len(loop)
        for i in range(n):
            x1, y1 = loop[i]
            x2, y2 = loop[(i + 1) % n]
            if x1 == x2 and y1 == y2:
                continue
            dx = (x2 > x1) - (x2 < x1)
            dy = (y2 > y1) - (y2 < y1)
            midpoint = ((x1 + x2) // 2, (y1 + y2) // 2)
            yield midpoint, (dy, -dx)
