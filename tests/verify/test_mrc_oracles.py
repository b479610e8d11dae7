"""The array MRC engine and the marker repair against independent oracles.

Two oracles, sharing no pair-search code with the engine:

* **The retired engine.**  ``_edge_rule_violations`` below is the
  per-edge engine the array sweep replaced -- ``_Edge`` objects from
  ``polygons()``, one ``GridIndex`` query per edge, a band boolean over
  the whole window per candidate pair -- kept verbatim, with the
  ``Polygon``-based area rule.  On seeded rect soups, for every rule
  setting, untiled and tiled, :func:`check_mask_region` must return
  exactly their sorted, deduplicated markers.
* **Scanline pixels.**  On the unit grid with ``notch_nm=0``, a width
  marker is a row or column material run shorter than ``min_width_nm``
  and a space or notch marker is an interior gap between two runs shorter
  than ``min_space_nm``.  The marker unions must equal those cell sets,
  and :func:`repair_mask` must equal the pixel repair that fills the short
  gaps and trims the short runs, pass by pass.

Repair edits must also stay within the limits they fix.  The
morphological residues of ``verify.drc`` are not an oracle: a neck that
no facing edge pair bounds (two rects overlapping diagonally) has a
width residue but no width marker.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import GridIndex, Polygon, Rect, Region
from repro.verify import mrc as engine
from repro.verify.mrc import (
    SEVERITY_ERROR,
    SEVERITY_WARNING,
    MRCRules,
    MRCViolation,
    check_mask_region,
    repair_mask,
)

SEEDED = settings(max_examples=200, deadline=None, derandomize=True, database=None)


# -- the retired engine, verbatim -----------------------------------------------

# ---------------------------------------------------------------------------
# Edge extraction
# ---------------------------------------------------------------------------

# A boundary edge of the merged mask.  axis "v": x == pos, lo..hi in y,
# outward +1 east / -1 west.  axis "h": y == pos, lo..hi in x, outward
# +1 north / -1 south.  loop identifies the polygon outline the edge
# came from, which is what separates a notch (same loop) from a space
# violation (different loops).
class _Edge:
    __slots__ = ("axis", "pos", "lo", "hi", "outward", "loop")

    def __init__(self, axis, pos, lo, hi, outward, loop):
        self.axis = axis
        self.pos = pos
        self.lo = lo
        self.hi = hi
        self.outward = outward
        self.loop = loop

    def bbox(self) -> Rect:
        if self.axis == "v":
            return Rect(self.pos, self.lo, self.pos, self.hi)
        return Rect(self.lo, self.pos, self.hi, self.pos)


class _Corner:
    __slots__ = ("x", "y", "qx", "qy", "loop")

    def __init__(self, x, y, qx, qy, loop):
        self.x = x
        self.y = y
        self.qx = qx
        self.qy = qy
        self.loop = loop


def _sign(value: int) -> int:
    return (value > 0) - (value < 0)


def _extract(
    polygons: Sequence[Polygon],
) -> Tuple[List[_Edge], List[_Corner]]:
    """Boundary edges and convex corners of merged-region loops.

    Assumes the interior-left loop convention of ``Region.polygons()``
    (outers CCW, holes CW), under which a convex corner is always a left
    turn and the outward normal of an edge points right of travel.
    """
    edges: List[_Edge] = []
    corners: List[_Corner] = []
    for loop_id, poly in enumerate(polygons):
        pts = poly.points
        n = len(pts)
        if n < 3:
            continue
        for i in range(n):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % n]
            if ax == bx and ay != by:
                # Vertical: up -> outward east, down -> outward west.
                outward = 1 if by > ay else -1
                edges.append(
                    _Edge("v", ax, min(ay, by), max(ay, by), outward, loop_id)
                )
            elif ay == by and ax != bx:
                # Horizontal: right -> outward south, left -> north.
                outward = -1 if bx > ax else 1
                edges.append(
                    _Edge("h", ay, min(ax, bx), max(ax, bx), outward, loop_id)
                )
            # Corner at pts[(i + 1) % n]: turn from this edge into the
            # next one.  Left turns are convex under interior-left.
            cx, cy = pts[(i + 2) % n]
            d1x, d1y = bx - ax, by - ay
            d2x, d2y = cx - bx, cy - by
            if d1x * d2y - d1y * d2x > 0:
                qx = _sign(d1x - d2x)
                qy = _sign(d1y - d2y)
                if qx != 0 and qy != 0:
                    corners.append(_Corner(bx, by, qx, qy, loop_id))
    return edges, corners


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


def _band_blockers(
    band: Rect, merged: Region, want_material: bool, axis: str
) -> List[Tuple[int, int]]:
    """Along-edge intervals of ``band`` interrupted by other geometry.

    For a width candidate the band must be solid material, so any
    *empty* sliver blocks it; for a space candidate the band must be
    empty, so any *material* blocks it.  ``want_material`` selects which
    (True = width).  ``axis`` is the paired edges' axis: a band between
    two vertical edges runs along y, so blocked intervals are y ranges,
    and vice versa.
    """
    band_region = Region(band)
    interference = (
        band_region - merged if want_material else band_region & merged
    )
    intervals: List[Tuple[int, int]] = []
    for rect in interference.rects():
        if axis == "v":
            intervals.append((rect.y1, rect.y2))
        else:
            intervals.append((rect.x1, rect.x2))
    return intervals


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------


def _grid_size(limit_nm: int) -> int:
    return max(64, limit_nm * 4)


def _edge_rule_violations(
    merged: Region, rules: MRCRules
) -> List[MRCViolation]:
    """Width/space/notch/edge/corner defects of one merged window."""
    polygons = merged.polygons()
    edges, corners = _extract(polygons)
    violations: List[MRCViolation] = []

    # --- min-edge (jog slivers) -------------------------------------
    if rules.min_edge_nm > 0:
        for edge in edges:
            length = edge.hi - edge.lo
            if 0 < length < rules.min_edge_nm:
                violations.append(
                    MRCViolation(
                        "MRC104",
                        "min-edge",
                        SEVERITY_WARNING,
                        edge.bbox(),
                        float(length),
                        float(rules.min_edge_nm),
                    )
                )

    # --- facing-edge pair rules -------------------------------------
    space_radius = max(rules.min_space_nm, rules.effective_notch_nm)
    reach = max(rules.min_width_nm, space_radius)
    index: GridIndex[_Edge] = GridIndex(_grid_size(reach))
    for edge in edges:
        index.insert(edge.bbox(), edge)

    def pair_candidates(edge: _Edge, radius: int):
        """Parallel edges within ``radius`` of ``edge`` (caller filters
        by outward direction and position)."""
        if edge.axis == "v":
            window = Rect(
                edge.pos - radius, edge.lo, edge.pos + radius, edge.hi
            )
        else:
            window = Rect(
                edge.lo, edge.pos - radius, edge.hi, edge.pos + radius
            )
        for _bbox, other in index.query(window):
            if other.axis == edge.axis and other is not edge:
                yield other

    def emit_band(
        a: _Edge, b: _Edge, rule_id: str, kind: str, severity: str, limit: int
    ) -> None:
        """Refine the band between facing edges a (low) and b (high)."""
        lo = max(a.lo, b.lo)
        hi = min(a.hi, b.hi)
        if hi <= lo:
            return
        distance = b.pos - a.pos
        want_material = kind == "min-width"
        if a.axis == "v":
            band = Rect(a.pos, lo, b.pos, hi)
        else:
            band = Rect(lo, a.pos, hi, b.pos)
        blocked = _band_blockers(band, merged, want_material, a.axis)
        for ilo, ihi in _subtract_intervals(lo, hi, blocked):
            if a.axis == "v":
                marker = Rect(a.pos, ilo, b.pos, ihi)
            else:
                marker = Rect(ilo, a.pos, ihi, b.pos)
            violations.append(
                MRCViolation(
                    rule_id,
                    kind,
                    severity,
                    marker,
                    float(distance),
                    float(limit),
                )
            )

    for edge in edges:
        # Width: this edge faces away from the band (outward on the low
        # side is -1: west/south), partner faces toward us from above.
        if edge.outward == -1:
            for other in pair_candidates(edge, rules.min_width_nm):
                if (
                    other.outward == 1
                    and 0 < other.pos - edge.pos < rules.min_width_nm
                ):
                    emit_band(
                        edge,
                        other,
                        "MRC101",
                        "min-width",
                        SEVERITY_ERROR,
                        rules.min_width_nm,
                    )
        # Space/notch: low edge outward +1 (interior below it), gap
        # above, partner outward -1 with interior above.
        if edge.outward == 1:
            for other in pair_candidates(edge, space_radius):
                if other.outward != -1:
                    continue
                gap = other.pos - edge.pos
                if gap <= 0:
                    continue
                same_loop = other.loop == edge.loop
                limit = (
                    rules.effective_notch_nm
                    if same_loop
                    else rules.min_space_nm
                )
                if gap < limit:
                    if same_loop:
                        emit_band(
                            edge,
                            other,
                            "MRC105",
                            "notch",
                            SEVERITY_ERROR,
                            limit,
                        )
                    else:
                        emit_band(
                            edge,
                            other,
                            "MRC102",
                            "min-space",
                            SEVERITY_ERROR,
                            limit,
                        )

    # --- corner-to-corner -------------------------------------------
    if rules.corner_nm > 0 and corners:
        corner_index: GridIndex[_Corner] = GridIndex(
            _grid_size(rules.corner_nm)
        )
        for corner in corners:
            corner_index.insert(
                Rect(corner.x, corner.y, corner.x, corner.y), corner
            )
        for corner in corners:
            # Anchor on the SW/NW member of each diagonal pair so every
            # unordered pair is visited exactly once.
            if corner.qx != 1:
                continue
            window = Rect(
                corner.x,
                corner.y - rules.corner_nm,
                corner.x + rules.corner_nm,
                corner.y + rules.corner_nm,
            )
            for _bbox, other in corner_index.query(window):
                dx = other.x - corner.x
                dy = other.y - corner.y
                if dx <= 0 or dy == 0:
                    continue
                # Diagonal opposition: exterior quadrants must point at
                # each other (NE vs SW or SE vs NW).
                if other.qx != -1 or other.qy != -corner.qy:
                    continue
                if _sign(dy) != corner.qy:
                    continue
                distance = math.hypot(dx, dy)
                if distance >= rules.corner_nm:
                    continue
                between = Rect.from_corners(
                    (corner.x, corner.y), (other.x, other.y)
                )
                if not (Region(between) & merged).is_empty:
                    continue
                violations.append(
                    MRCViolation(
                        "MRC106",
                        "corner",
                        SEVERITY_WARNING,
                        between,
                        round(distance, 3),
                        float(rules.corner_nm),
                    )
                )

    return violations


def _area_violations(merged: Region, rules: MRCRules) -> List[MRCViolation]:
    """Figures below the minimum writable area (global rule)."""
    if rules.min_area_nm2 <= 0:
        return []
    out: List[MRCViolation] = []
    for poly in merged.outer_polygons():
        area2 = poly.signed_area2()
        if 0 < area2 < 2 * rules.min_area_nm2:
            out.append(
                MRCViolation(
                    "MRC103",
                    "min-area",
                    SEVERITY_ERROR,
                    poly.bbox(),
                    area2 / 2.0,
                    float(rules.min_area_nm2),
                )
            )
    return out


def retired(mask: Region, rules: MRCRules, tile_nm: int = 0) -> List[MRCViolation]:
    """The retired engine's report: untiled, or over the same windows."""
    merged = mask.merged()
    if merged.is_empty:
        return []
    if tile_nm <= 0:
        found = _edge_rule_violations(merged, rules)
    else:
        found = []
        for payload in engine.window_payloads(merged, rules, tile_nm):
            cx1, cy1, cx2, cy2 = payload["core"]
            window = Region._from_canonical(
                [[tuple(pt) for pt in loop] for loop in payload["loops"]]
            )
            found.extend(
                v for v in _edge_rule_violations(window, rules)
                if cx1 <= v.marker.x1 < cx2 and cy1 <= v.marker.y1 < cy2
            )
    found.extend(_area_violations(merged, rules))
    unique = {v.sort_key(): v for v in found}
    return [unique[key] for key in sorted(unique)]


# -- strategies -------------------------------------------------------------------


@st.composite
def soups(draw, span: int = 400, smallest: int = 10, largest: int = 200):
    """2-10 rects of ``smallest``..``largest`` nm within ``span``."""
    rects = []
    for _ in range(draw(st.integers(min_value=2, max_value=10))):
        w = draw(st.integers(min_value=smallest, max_value=largest))
        h = draw(st.integers(min_value=smallest, max_value=largest))
        x = draw(st.integers(min_value=0, max_value=span - w))
        y = draw(st.integers(min_value=0, max_value=span - h))
        rects.append(Rect(x, y, x + w, y + h))
    return Region.from_rects(rects)


limits = st.integers(min_value=1, max_value=80)
options = st.integers(min_value=0, max_value=80)
rule_sets = st.builds(
    MRCRules,
    min_width_nm=limits,
    min_space_nm=limits,
    min_area_nm2=st.integers(min_value=0, max_value=900),
    min_edge_nm=options,
    notch_nm=options,
    corner_nm=options,
)


# -- exactness against the retired engine ---------------------------------------


@SEEDED
@given(mask=soups(), rules=rule_sets, tile_nm=st.sampled_from([0, 0, 120, 250]))
def test_engine_equals_the_retired_engine(mask, rules, tile_nm):
    report = check_mask_region(mask, rules, tile_nm=tile_nm, with_stats=False)
    assert report.violations == retired(mask, rules, tile_nm)


def test_engine_equals_the_retired_engine_on_holes_and_notches():
    """Fixed shapes the soups reach rarely: a donut, a comb, a staircase."""
    donut = Region(Rect(0, 0, 260, 260)) - Region(Rect(30, 30, 230, 230))
    comb = Region.from_rects(
        [Rect(0, 0, 400, 50)] + [Rect(x, 50, x + 25, 250) for x in range(0, 400, 55)]
    )
    stairs = Region.from_rects([Rect(i * 20, i * 20, i * 20 + 45, i * 20 + 45) for i in range(8)])
    for mask in (donut, comb, stairs, donut | comb.translated((100, 300))):
        for rules in (
            MRCRules(40, 40),
            MRCRules(30, 50, min_edge_nm=25, notch_nm=20, corner_nm=60),
            MRCRules(60, 20, notch_nm=45, corner_nm=35),
        ):
            for tile_nm in (0, 150):
                report = check_mask_region(mask, rules, tile_nm=tile_nm, with_stats=False)
                assert report.violations == retired(mask, rules, tile_nm)


# -- the scanline pixel oracle ------------------------------------------------------

#: Pixel soups live in [0, SPAN); MARGIN empty cells keep every gap that
#: touches the image border exterior.
SPAN = 72
MARGIN = 2
SIZE = SPAN + 2 * MARGIN

PIXELS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def paint(rects: Sequence[Rect]) -> np.ndarray:
    """Unit-cell raster of a union of rects, indexed ``[x, y]``."""
    image = np.zeros((SIZE, SIZE), dtype=bool)
    for r in rects:
        image[r.x1 + MARGIN:r.x2 + MARGIN, r.y1 + MARGIN:r.y2 + MARGIN] = True
    return image


def raster(region: Region) -> np.ndarray:
    """Unit-cell raster of a region, from the winding of its loops."""
    delta = np.zeros((SIZE + 1, SIZE), dtype=np.int64)
    for loop in region.merged().loops:
        for (x1, y1), (x2, y2) in zip(loop, loop[1:] + loop[:1]):
            if x1 == x2:
                lo, hi = sorted((y1, y2))
                delta[x1 + MARGIN, lo + MARGIN:hi + MARGIN] += 1 if y2 < y1 else -1
    return np.cumsum(delta, axis=0)[:-1] != 0


def short_runs(image: np.ndarray, limit: int, value: bool) -> np.ndarray:
    """Cells of row and column runs of ``value`` shorter than ``limit``.

    Runs of ``False`` count only between two runs of ``True`` (interior
    gaps); a gap open to the image border is exterior space.
    """
    out = np.zeros_like(image)
    for lines, res in ((image, out), (image.T, out.T)):
        # Each line padded with a non-run cell at both ends: a run starts
        # where the step is +1 and ends where it is -1, in line order.
        padded = np.pad(lines == value, ((0, 0), (1, 1)))
        step = np.diff(padded.astype(np.int8), axis=1)
        starts, ends = np.argwhere(step == 1), np.argwhere(step == -1)
        length = ends[:, 1] - starts[:, 1]
        interior = value | ((starts[:, 1] > 0) & (ends[:, 1] < lines.shape[1]))
        short = interior & (length < limit)
        for (line, a), (_, b) in zip(starts[short], ends[short]):
            res[line, a:b] = True
    return out


def marker_cells(report, rule_ids) -> np.ndarray:
    return paint([v.marker for v in report.violations if v.rule_id in rule_ids])


pixel_rules = st.builds(
    MRCRules,
    min_width_nm=st.integers(min_value=1, max_value=24),
    min_space_nm=st.integers(min_value=1, max_value=24),
)


@PIXELS
@given(mask=soups(span=SPAN, smallest=1, largest=40), rules=pixel_rules)
def test_marker_unions_equal_the_scanline_cells(mask, rules):
    report = check_mask_region(mask, rules, with_stats=False)
    image = raster(mask)
    assert np.array_equal(
        marker_cells(report, ("MRC101",)), short_runs(image, rules.min_width_nm, True)
    )
    assert np.array_equal(
        marker_cells(report, ("MRC102", "MRC105")),
        short_runs(image, rules.min_space_nm, False),
    )


def pixel_repair(image: np.ndarray, rules: MRCRules, max_passes: int) -> np.ndarray:
    """Fill the short gaps and trim the short runs, pass by pass."""
    for _ in range(max_passes):
        gaps = short_runs(image, rules.min_space_nm, False)
        runs = short_runs(image, rules.min_width_nm, True)
        if not (gaps.any() or runs.any()):
            break
        image = (image | gaps) & ~runs
    return image


@PIXELS
@given(
    mask=soups(span=SPAN, smallest=1, largest=40),
    rules=pixel_rules,
    max_passes=st.integers(min_value=0, max_value=4),
)
def test_repair_equals_the_pixel_repair(mask, rules, max_passes):
    repaired = repair_mask(mask, rules, max_passes=max_passes)
    assert np.array_equal(raster(repaired), pixel_repair(raster(mask), rules, max_passes))


@settings(PIXELS, max_examples=100)
@given(mask=soups(), rules=st.builds(MRCRules, min_width_nm=limits, min_space_nm=limits))
def test_repair_edits_stay_within_the_limits(mask, rules):
    """Fills stay within min_space of the mask and trims within min_width."""
    repaired = repair_mask(mask, rules)
    assert (repaired - mask.sized(rules.min_space_nm)).is_empty
    assert (mask.sized(-rules.min_width_nm) - repaired).is_empty
