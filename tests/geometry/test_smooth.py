"""Tests for bounded-error jog smoothing."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Polygon, Rect, Region, smooth_jogs


def staircase(step=4, runs=5, run_len=100, width=200):
    """A wide bar whose top edge staircases upward in small jogs."""
    points = [(0, 0), (runs * run_len, 0)]
    x = runs * run_len
    y = width
    points.append((x, y + (runs - 1) * step))
    for k in range(runs - 1, 0, -1):
        points.append((k * run_len, y + k * step))
        points.append((k * run_len, y + (k - 1) * step))
    points.append((0, y))
    return Region(Polygon(points))


class TestSmoothJogs:
    def test_rectangle_unchanged(self):
        r = Region(Rect(0, 0, 500, 300))
        assert (smooth_jogs(r, 10) ^ r).is_empty

    def test_staircase_partially_flattens(self):
        # Total rise 16 nm > tolerance 6 nm: jogs merge pairwise but the
        # tolerance band stops full flattening -- the bounded-error point.
        r = staircase(step=4)
        smoothed = smooth_jogs(r, 6)
        assert smoothed.merged().num_vertices < r.merged().num_vertices

    def test_staircase_fully_flattens_within_band(self):
        # Total rise 8 nm <= tolerance 10 nm: the staircase becomes a rect.
        r = staircase(step=4, runs=3)
        smoothed = smooth_jogs(r, 10)
        assert smoothed.merged().num_vertices == 4

    def test_large_jogs_preserved(self):
        r = staircase(step=50)
        smoothed = smooth_jogs(r, 6)
        assert smoothed.merged().num_vertices == r.merged().num_vertices

    def test_area_error_bounded(self):
        r = staircase(step=4, runs=5, run_len=100)
        smoothed = smooth_jogs(r, 6)
        # Each removed jog displaces at most run_len * step of area.
        assert abs(smoothed.area - r.area) <= 5 * 100 * 4

    def test_boundary_displacement_bounded(self):
        r = staircase(step=4)
        tol = 6
        smoothed = smooth_jogs(r, tol)
        assert (smoothed - r.sized(tol)).is_empty
        assert (r.sized(-tol) - smoothed).is_empty

    def test_empty_region(self):
        assert smooth_jogs(Region(), 5).is_empty

    def test_validation(self):
        with pytest.raises(GeometryError):
            smooth_jogs(Region(Rect(0, 0, 10, 10)), 0)

    def test_hole_loops_smoothed(self):
        outer = Region(Rect(0, 0, 1000, 1000))
        hole = staircase(step=3, runs=3, run_len=80, width=100).translated((100, 300))
        r = outer - hole
        smoothed = smooth_jogs(r, 5)
        assert len(smoothed.holes()) == 1
        assert (
            smoothed.holes()[0].num_points < r.merged().holes()[0].num_points
        )

    def test_shot_count_reduced_on_opc_output(self):
        """The use case: OPC staircases fracture into fewer shots."""
        from repro.geometry import fracture_array

        r = staircase(step=4, runs=8, run_len=80)
        smoothed = smooth_jogs(r, 6)
        assert len(fracture_array(smoothed, 2000)) < len(fracture_array(r, 2000))


@given(
    step=st.integers(min_value=1, max_value=8),
    runs=st.integers(min_value=2, max_value=6),
    tol=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=40, deadline=None)
def test_smoothing_stays_within_tolerance_band(step, runs, tol):
    r = staircase(step=step, runs=runs)
    smoothed = smooth_jogs(r, tol)
    assert (smoothed - r.sized(tol)).is_empty
    assert (r.sized(-tol) - smoothed).is_empty
