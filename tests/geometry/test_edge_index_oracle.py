"""Batched edge-index ray queries against two oracles.

``ParentEdgeIndex`` is the per-query ``GridIndex`` scan the batched index
replaced, kept verbatim apart from names; ``brute_force`` scans every
boundary edge with no index at all.  The contract is exact: for every
origin, direction and range, :meth:`EdgeIndex.ray_distances` returns the
integer both oracles return (``EdgeIndex.NO_HIT`` for their ``None``), and
so do the one-query forms ``ray_distance`` and ``clearances``.  The
callers -- rule OPC, retargeting, SRAF insertion and the forbidden-pitch
lint -- give equal outputs with the oracle swapped in, from one batched
query per region.
"""

from __future__ import annotations

import re
from typing import List, Optional, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import PitchRestriction
from repro.design import BlockSpec, node_180nm, random_logic_block
from repro.errors import GeometryError
from repro.geometry import EdgeIndex, GridIndex, Rect, Region
from repro.layout import METAL1, METAL2, POLY
from repro.lint import LintContext, run_lint
from repro.opc import RetargetRules, RuleOPCRecipe, SRAFRecipe, insert_srafs, retarget, rule_opc

DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))

#: Farther than any two points of a test soup.
FAR = 10_000

SEEDED = settings(max_examples=60, deadline=None, derandomize=True, database=None)


# -- the oracles --------------------------------------------------------------


class ParentEdgeIndex:
    """The retired scalar engine: a ``GridIndex`` scan per query."""

    def __init__(self, region: Region, cell_size: int = 2000):
        self._index: GridIndex = GridIndex(cell_size)
        for loop in region.merged().loops:
            n = len(loop)
            for i in range(n):
                x1, y1 = loop[i]
                x2, y2 = loop[(i + 1) % n]
                bbox = Rect(min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))
                self._index.insert(bbox, (x1, y1, x2, y2))

    def ray_distance(self, origin, direction, max_distance: int) -> Optional[int]:
        dx, dy = direction
        if abs(dx) + abs(dy) != 1 or dx * dy != 0:
            raise GeometryError(f"direction must be an axis unit vector, got {direction}")
        ox, oy = origin
        window = Rect.from_corners(origin, (ox + dx * max_distance, oy + dy * max_distance))
        best: Optional[int] = None
        for _bbox, (x1, y1, x2, y2) in self._index.query(window):
            distance = parent_crossing_distance(ox, oy, dx, dy, x1, y1, x2, y2)
            if distance is None or distance <= 0 or distance > max_distance:
                continue
            if best is None or distance < best:
                best = distance
        return best


def parent_crossing_distance(ox, oy, dx, dy, x1, y1, x2, y2) -> Optional[int]:
    if dx != 0:  # horizontal ray hits vertical edges
        if x1 != x2:
            return None
        ylo, yhi = (y1, y2) if y1 < y2 else (y2, y1)
        if not (ylo <= oy < yhi):
            return None
        return (x1 - ox) * dx
    if y1 != y2:  # vertical ray hits horizontal edges
        return None
    xlo, xhi = (x1, x2) if x1 < x2 else (x2, x1)
    if not (xlo <= ox < xhi):
        return None
    return (y1 - oy) * dy


def brute_force(loops, origin, direction, max_distance: int) -> Optional[int]:
    """Nearest crossing in ``(0, max_distance]`` over every edge of ``loops``."""
    (ox, oy), (dx, dy) = origin, direction
    best: Optional[int] = None
    for loop in loops:
        for (x1, y1), (x2, y2) in zip(loop, loop[1:] + loop[:1]):
            if dx and x1 == x2 and min(y1, y2) <= oy < max(y1, y2):
                distance = (x1 - ox) * dx
            elif dy and y1 == y2 and min(x1, x2) <= ox < max(x1, x2):
                distance = (y1 - oy) * dy
            else:
                continue
            if 0 < distance <= max_distance and (best is None or distance < best):
                best = distance
    return best


class BatchedParent(ParentEdgeIndex):
    """The parent engine behind the batched interface, counting calls."""

    NO_HIT = EdgeIndex.NO_HIT
    batches: List[int] = []

    def ray_distances(self, origins, directions, max_distance: int) -> np.ndarray:
        BatchedParent.batches.append(len(origins))
        found = [
            self.ray_distance(
                tuple(int(v) for v in o), tuple(int(v) for v in d), max_distance
            )
            for o, d in zip(origins, directions)
        ]
        return np.array([self.NO_HIT if f is None else f for f in found], dtype=np.int64)


# -- inputs -------------------------------------------------------------------


def _rect(x: int, y: int, w: int, h: int) -> Rect:
    return Rect(x, y, x + w, y + h)


_rects = st.builds(
    _rect,
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=-30, max_value=30),
    st.integers(min_value=1, max_value=25),
    st.integers(min_value=1, max_value=25),
)


@st.composite
def soups(draw) -> Region:
    """Overlapping and corner-touching rects, with holes cut into some."""
    rects = draw(st.lists(_rects, min_size=1, max_size=6))
    region = Region.from_rects(rects)
    cuts = []
    for _ in range(draw(st.integers(min_value=0, max_value=2))):
        r = rects[draw(st.integers(min_value=0, max_value=len(rects) - 1))]
        x1 = draw(st.integers(min_value=r.x1, max_value=r.x2 - 1))
        y1 = draw(st.integers(min_value=r.y1, max_value=r.y2 - 1))
        x2 = draw(st.integers(min_value=x1 + 1, max_value=r.x2))
        y2 = draw(st.integers(min_value=y1 + 1, max_value=r.y2))
        cuts.append(Rect(x1, y1, x2, y2))
    return region - Region.from_rects(cuts) if cuts else region


def probe_origins(region: Region, extra: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Vertices, edge midpoints, ``extra`` points and points outside every band."""
    origins = list(extra)
    for loop in region.merged().loops:
        for (x1, y1), (x2, y2) in zip(loop, loop[1:] + loop[:1]):
            origins += [(x1, y1), ((x1 + x2) // 2, (y1 + y2) // 2)]
    box = region.bbox()
    if box is not None:
        cx, cy = (box.x1 + box.x2) // 2, (box.y1 + box.y2) // 2
        origins += [
            (cx, box.y2), (box.x2, cy), (cx, box.y1 - 3), (box.x1 - 3, cy),
            (box.x2 + 3, box.y2 + 3), (box.x1 - 3, box.y1 - 3),
        ]
    return origins


def check_against_oracles(region: Region, origins: List[Tuple[int, int]]) -> None:
    index = EdgeIndex(region)
    parent = ParentEdgeIndex(region)
    loops = region.merged().loops
    # The brute-force nearest hit in range ``m`` is the nearest hit, if <= m.
    queries = [(o, d, brute_force(loops, o, d, FAR)) for o in origins for d in DIRECTIONS]
    # Each query at its own hit distance and one less, plus fixed ranges.
    by_range: dict = {}
    for query in queries:
        hit = query[2]
        for m in (1, 5, 17, FAR) + ((hit, hit - 1) if hit is not None else ()):
            by_range.setdefault(m, []).append(query)
    for m, batch in sorted(by_range.items()):
        got = index.ray_distances([q[0] for q in batch], [q[1] for q in batch], m)
        assert got.dtype == np.int64 and got.shape == (len(batch),)
        for (o, d, hit), value in zip(batch, got.tolist()):
            want = hit if hit is not None and hit <= m else None
            assert parent.ray_distance(o, d, m) == want, (o, d, m)
            assert value == (EdgeIndex.NO_HIT if want is None else want), (o, d, m)
    # The one-query forms on about 100 queries (an odd stride visits all
    # four directions) and 25 origins.
    for o, d, hit in queries[:: max(1, len(queries) // 100) | 1]:
        assert index.ray_distance(o, d, FAR) == hit
    for o in origins[:: max(1, len(origins) // 25)]:
        for normal in DIRECTIONS:
            inward = (-normal[0], -normal[1])
            assert index.clearances(o, normal, FAR) == (
                parent.ray_distance(o, normal, FAR),
                parent.ray_distance(o, inward, FAR),
            )


# -- exactness ----------------------------------------------------------------


@given(region=soups(), extra=st.lists(
    st.tuples(st.integers(-40, 60), st.integers(-40, 60)), max_size=8
))
# A hole touching its outer boundary at a vertex (a pinched hole).
@example(
    region=Region.from_rects(
        [Rect(2, 3, 3, 5), Rect(2, 0, 4, 2), Rect(3, 2, 4, 4), Rect(0, 2, 2, 4)]
    ),
    extra=[(2, 2), (3, 3)],
)
# Two squares touching at one corner.
@example(
    region=Region.from_rects([Rect(0, 0, 10, 10), Rect(10, 10, 20, 20)]),
    extra=[(10, 10), (5, 10), (10, 5)],
)
# A ring: a hole well inside its outer boundary.
@example(
    region=Region(Rect(0, 0, 30, 30)) - Region(Rect(10, 10, 20, 20)),
    extra=[(15, 15), (0, 15), (25, 15)],
)
@SEEDED
def test_batched_queries_match_both_oracles(region, extra):
    check_against_oracles(region, probe_origins(region, extra))


class TestPinnedSemantics:
    """The three rules the oracles share, one case each."""

    # Two 10-high slabs stacked at x 0..10 and 20..30, offset by 10 in y.
    region = Region.from_rects([Rect(0, 0, 10, 10), Rect(20, 10, 30, 20)])

    def test_half_open_across_the_ray(self):
        index = EdgeIndex(self.region)
        # y == 10 lies in [10, 20) of the upper slab's edges only.
        got = index.ray_distances([(15, 10), (15, 10)], [(1, 0), (-1, 0)], 100)
        assert got.tolist() == [5, EdgeIndex.NO_HIT]
        # y == 0 is the lower slab's first row; y == 20 is outside every band.
        got = index.ray_distances([(-5, 0), (-5, 20)], [(1, 0), (1, 0)], 100)
        assert got.tolist() == [5, EdgeIndex.NO_HIT]

    def test_edge_through_the_origin_is_ignored(self):
        index = EdgeIndex(self.region)
        got = index.ray_distances([(10, 5), (20, 15)], [(1, 0), (-1, 0)], 100)
        assert got.tolist() == [EdgeIndex.NO_HIT, EdgeIndex.NO_HIT]
        assert index.ray_distance((10, 5), (-1, 0), 100) == 10

    def test_hit_at_exactly_max_distance_counts(self):
        index = EdgeIndex(self.region)
        got = index.ray_distances([(15, 15)] * 2, [(1, 0)] * 2, 5)
        assert got.tolist() == [5, 5]
        assert index.ray_distance((15, 15), (1, 0), 4) is None
        assert index.ray_distance((5, -7), (0, 1), 7) == 7


class TestErrors:
    def index(self) -> EdgeIndex:
        return EdgeIndex(Region(Rect(0, 0, 10, 10)))

    @pytest.mark.parametrize("bad", [(1, 1), (0, 0), (2, 0), (0, -2), (0.5, 0.5)])
    def test_first_bad_direction_is_named(self, bad):
        with pytest.raises(GeometryError, match=re.escape(f"unit vector, got {bad}")):
            self.index().ray_distances([(0, 0)] * 3, [(1, 0), bad, (-1, 1)], 10)
        with pytest.raises(GeometryError, match="axis unit vector"):
            self.index().ray_distance((0, 0), bad, 10)

    def test_non_integral_origin_is_rejected_not_truncated(self):
        with pytest.raises(GeometryError, match=r"integer dbu, got \(2\.5, 3\.0\)"):
            self.index().ray_distances([(1, 1), (2.5, 3.0)], [(1, 0), (1, 0)], 10)
        # Integral floats are exact, so they are accepted.
        assert self.index().ray_distances([(2.0, 3.0)], [(1, 0)], 10).tolist() == [8]

    def test_shapes_are_checked(self):
        with pytest.raises(GeometryError, match="2 origins but 1 directions"):
            self.index().ray_distances([(0, 0), (1, 1)], [(1, 0)], 10)
        with pytest.raises(GeometryError, match="pairs"):
            self.index().ray_distances([(0, 0, 0)], [(1, 0)], 10)

    def test_keys_that_would_overflow_int64_are_rejected(self):
        far = Region.from_rects([Rect(0, 0, 1, 1), Rect(2**40, 0, 2**40 + 1, 1)])
        assert EdgeIndex(far).ray_distance((1, 0), (1, 0), 2**41) == 2**40 - 1
        too_far = Region.from_rects([Rect(0, 0, 1, 1), Rect(2**62, 0, 2**62 + 1, 1)])
        with pytest.raises(GeometryError, match="too far apart"):
            EdgeIndex(too_far)

    def test_empty_batch_and_empty_region(self):
        got = self.index().ray_distances([], [], 10)
        assert got.dtype == np.int64 and got.shape == (0,)
        empty = EdgeIndex(Region())
        assert empty.ray_distances([(0, 0)], [(0, 1)], 10).tolist() == [EdgeIndex.NO_HIT]
        assert empty.clearances((0, 0), (1, 0), 10) == (None, None)


# -- the callers --------------------------------------------------------------


@pytest.fixture(scope="module")
def block_layers():
    library = random_logic_block(
        node_180nm(), BlockSpec(rows=3, row_width=10000, nets=20, seed=7)
    )
    top = library["block_top"]
    layers = [top.flat_region(layer).merged() for layer in (POLY, METAL1, METAL2)]
    assert all(not region.is_empty for region in layers)
    return layers


def _with_oracle(module: str, run):
    """``run()`` with the real index, then with the parent engine swapped in."""
    BatchedParent.batches.clear()
    real = run()
    with mock.patch(f"{module}.EdgeIndex", BatchedParent):
        swapped = run()
    return real, swapped, list(BatchedParent.batches)


def test_rule_opc_equals_the_oracle(block_layers):
    for region in block_layers:
        real, swapped, batches = _with_oracle(
            "repro.opc.rule_opc", lambda: rule_opc(region, RuleOPCRecipe())
        )
        assert real.corrected.loops == swapped.corrected.loops
        assert real.fragment_count == swapped.fragment_count
        # One batched query per region, one row per fragment.
        assert batches == [real.fragment_count]


def test_retarget_equals_the_oracle(block_layers):
    rules = RetargetRules(min_width_nm=240, min_space_nm=320)
    moved = 0
    for region in block_layers:
        real, swapped, batches = _with_oracle(
            "repro.opc.retarget", lambda: retarget(region, rules)
        )
        assert real.loops == swapped.loops
        assert len(batches) == 1
        moved += real != region
    assert moved  # the rules fire on this block


def test_insert_srafs_equals_the_oracle(block_layers):
    bars = 0
    for region in block_layers:
        real, swapped, batches = _with_oracle(
            "repro.opc.sraf", lambda: insert_srafs(region, SRAFRecipe())
        )
        assert real.loops == swapped.loops
        assert len(batches) == 1
        bars += len(real.loops)
    assert bars


def test_forbidden_pitch_lint_equals_the_oracle(block_layers):
    restrictions = (
        PitchRestriction(low_pitch_nm=380, high_pitch_nm=520, worst_error_nm=6.0),
        PitchRestriction(low_pitch_nm=600, high_pitch_nm=900, worst_error_nm=9.0),
    )

    def lint():
        report = run_lint(
            LintContext(layout=region, pitch_restrictions=restrictions),
            codes=["LNT205"],
        )
        return [(d.code, d.message, d.location) for d in report]

    findings = 0
    for region in block_layers:
        real, swapped, batches = _with_oracle("repro.lint.rules_layout", lint)
        assert real == swapped
        assert len(batches) == 1
        findings += len(real)
    assert findings
