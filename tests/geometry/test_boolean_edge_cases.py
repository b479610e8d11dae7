"""Boolean-engine edge cases: degenerate touches, nesting, extremes."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.geometry import Polygon, Rect, Region


class TestDegenerateTouches:
    def test_shared_edge_segment_union(self):
        # B shares only part of A's right edge.
        a = Region(Rect(0, 0, 100, 300))
        b = Region(Rect(100, 100, 200, 200))
        union = a | b
        assert union.area == 100 * 300 + 100 * 100
        assert len(union.outer_polygons()) == 1

    def test_checkerboard_corners(self):
        # Four squares meeting at one point, diagonal pairs filled.
        r = Region.from_rects([Rect(0, 0, 10, 10), Rect(10, 10, 20, 20)])
        merged = r.merged()
        assert merged.area == 200
        # Leftmost-turn stitching keeps the two loops separate and simple.
        assert len(merged.outer_polygons()) == 2
        for poly in merged.outer_polygons():
            assert poly.num_points == 4

    def test_full_containment_union(self):
        outer = Region(Rect(0, 0, 100, 100))
        inner = Region(Rect(25, 25, 75, 75))
        assert (outer | inner).area == 100 * 100

    def test_subtract_exact_copy_of_loop(self):
        shape = Region(Polygon([(0, 0), (50, 0), (50, 30), (20, 30), (20, 50), (0, 50)]))
        assert (shape - shape).is_empty

    def test_sliver_one_dbu(self):
        r = Region(Rect(0, 0, 1, 1000))
        assert r.merged().area == 1000
        assert (r & Region(Rect(0, 0, 1, 10))).area == 10


class TestNesting:
    def donut(self, outer, hole):
        return Region(outer) - Region(hole)

    def test_donut_in_donut(self):
        big = self.donut(Rect(0, 0, 300, 300), Rect(50, 50, 250, 250))
        small = self.donut(Rect(100, 100, 200, 200), Rect(130, 130, 170, 170))
        both = big | small
        expected = big.area + small.area
        assert both.area == expected
        assert len(both.holes()) == 2

    def test_island_inside_hole(self):
        ring = self.donut(Rect(0, 0, 300, 300), Rect(50, 50, 250, 250))
        island = Region(Rect(120, 120, 180, 180))
        combined = ring | island
        assert combined.contains_point((150, 150))
        assert not combined.contains_point((60, 150))

    def test_hole_exactly_filled(self):
        ring = self.donut(Rect(0, 0, 300, 300), Rect(50, 50, 250, 250))
        plug = Region(Rect(50, 50, 250, 250))
        assert ((ring | plug) ^ Region(Rect(0, 0, 300, 300))).is_empty

    def test_intersect_ring_with_plug(self):
        ring = self.donut(Rect(0, 0, 300, 300), Rect(50, 50, 250, 250))
        assert (ring & Region(Rect(50, 50, 250, 250))).is_empty


class TestExtremes:
    def test_huge_coordinates(self):
        big = 2**40  # far past int32; the engine is arbitrary-precision
        r = Region(Rect(big, big, big + 1000, big + 1000))
        shifted = r.translated((-big, -big))
        assert shifted.bbox() == Rect(0, 0, 1000, 1000)
        assert (r & Region(Rect(big + 500, big, big + 2000, big + 1000))).area == 500 * 1000

    def test_many_collinear_fragments_merge(self):
        # 50 abutting unit slabs fuse into one rectangle.
        r = Region.from_rects([Rect(i * 10, 0, (i + 1) * 10, 100) for i in range(50)])
        merged = r.merged()
        assert len(merged.outer_polygons()) == 1
        assert merged.outer_polygons()[0].num_points == 4

    def test_comb_structure(self):
        # A comb with 30 teeth: one loop, many vertices, exact area.
        spine = [Rect(0, 0, 30 * 40, 50)]
        teeth = [Rect(i * 40, 50, i * 40 + 20, 250) for i in range(30)]
        comb = Region.from_rects(spine + teeth).merged()
        assert len(comb.outer_polygons()) == 1
        assert comb.area == 30 * 40 * 50 + 30 * 20 * 200


@given(
    seed_rects=st.lists(
        st.tuples(
            st.integers(min_value=-30, max_value=30),
            st.integers(min_value=-30, max_value=30),
            st.integers(min_value=1, max_value=25),
            st.integers(min_value=1, max_value=25),
        ),
        min_size=1,
        max_size=8,
    )
)
# One loop that visits (2, 2) twice: a hole pinched against its outer
# boundary at a vertex.
@example(seed_rects=[(2, 3, 1, 2), (2, 0, 2, 2), (3, 2, 1, 2), (0, 2, 2, 2)])
@settings(max_examples=60, deadline=None)
def test_canonical_loops_are_simple(seed_rects):
    """Canonical loops turn at every vertex and touch themselves only at
    diagonal pinches.

    No vertex equals its successor and no three consecutive vertices are
    collinear.  A loop may visit a vertex twice, but only where exactly two
    of the four unit cells around it are covered, diagonally opposite.
    """
    region = Region.from_rects(
        [Rect(x, y, x + w, y + h) for x, y, w, h in seed_rects]
    ).merged()
    for loop in region.loops:
        for i, (bx, by) in enumerate(loop):
            ax, ay = loop[i - 1]
            cx, cy = loop[(i + 1) % len(loop)]
            assert (ax, ay) != (bx, by)
            assert (bx - ax) * (cy - by) - (by - ay) * (cx - bx) != 0
        for x, y in {p for p in loop if loop.count(p) > 1}:
            # Cell centres lower-left, lower-right, upper-left, upper-right.
            covered = [
                region.contains_point((x + dx - 0.5, y + dy - 0.5))
                for dx, dy in ((0, 0), (1, 0), (0, 1), (1, 1))
            ]
            assert covered in ([True, False, False, True], [False, True, True, False])


@given(
    seed_rects=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=1, max_value=20),
            st.integers(min_value=1, max_value=20),
        ),
        min_size=1,
        max_size=6,
    ),
    dx=st.integers(min_value=-100, max_value=100),
    dy=st.integers(min_value=-100, max_value=100),
)
@settings(max_examples=40, deadline=None)
def test_boolean_translation_equivariance(seed_rects, dx, dy):
    """ops commute with translation: T(A) - T(B) == T(A - B)."""
    rects = [Rect(x, y, x + w, y + h) for x, y, w, h in seed_rects]
    a = Region.from_rects(rects)
    b = Region.from_rects([r.translated((5, 3)) for r in rects])
    direct = (a - b).translated((dx, dy))
    shifted = a.translated((dx, dy)) - b.translated((dx, dy))
    assert (direct ^ shifted).is_empty
