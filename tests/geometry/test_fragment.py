"""Unit and property tests for edge fragmentation and bias application."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import (
    FragmentationSpec,
    FragmentTag,
    Polygon,
    Rect,
    Region,
    apply_biases,
    fragment_region,
)

SPEC = FragmentationSpec(corner_length_nm=20, max_length_nm=60, min_length_nm=10, line_end_max_nm=50)


def line(width=40, length=400):
    return Region(Rect(0, 0, length, width))


class TestFragmentation:
    def test_covers_boundary_exactly(self):
        frags = fragment_region(line(), SPEC)
        assert len(frags) == 1
        total = sum(f.length for f in frags[0])
        assert total == line().merged().polygons()[0].perimeter

    def test_chained_endpoints(self):
        frags = fragment_region(line(), SPEC)[0]
        for a, b in zip(frags, frags[1:]):
            assert a.end == b.start
        assert frags[-1].end == frags[0].start

    def test_line_end_tagging(self):
        # A 40-wide line: the short (40 <= 50) left/right edges between two
        # convex corners are line ends.
        frags = fragment_region(line(width=40), SPEC)[0]
        tags = [f.tag for f in frags]
        assert tags.count(FragmentTag.LINE_END) == 2

    def test_wide_edge_not_line_end(self):
        frags = fragment_region(line(width=80), SPEC)[0]
        assert all(f.tag != FragmentTag.LINE_END for f in frags)

    def test_corner_fragments_present(self):
        frags = fragment_region(line(width=80), SPEC)[0]
        assert any(f.tag == FragmentTag.CORNER_CONVEX for f in frags)

    def test_concave_corner_tagged(self):
        ell = Region(
            Polygon([(0, 0), (400, 0), (400, 200), (200, 200), (200, 400), (0, 400)])
        )
        frags = fragment_region(ell, SPEC)[0]
        assert any(f.tag == FragmentTag.CORNER_CONCAVE for f in frags)

    def test_max_length_respected_for_runs(self):
        frags = fragment_region(line(length=1000), SPEC)[0]
        for f in frags:
            if f.tag == FragmentTag.NORMAL:
                assert f.length <= SPEC.max_length_nm

    def test_outward_normals(self):
        frags = fragment_region(line(), SPEC)[0]
        region = line()
        for f in frags:
            nx, ny = f.normal
            mx, my = f.midpoint
            # One step outward must leave the region interior.
            assert not region.contains_point((mx + nx * 2, my + ny * 2)) or (
                # except on boundary-adjacent corners: tolerate boundary hits
                region.contains_point((mx + nx * 2, my + ny * 2))
                and not region.contains_point((mx + nx * 3, my + ny * 3))
            )

    def test_invalid_spec_rejected(self):
        with pytest.raises(GeometryError):
            FragmentationSpec(0, 60, 10, 50).validated()
        with pytest.raises(GeometryError):
            FragmentationSpec(20, 5, 10, 50).validated()

    @pytest.mark.parametrize(
        "lengths",
        [
            (40.5, 80, 20, 260),
            (40, float("nan"), 20, 260),
            (40, 80, 20.0, 260),
            (40, 80, 20, float("inf")),
            (40, 80, 20, 260.5),
        ],
    )
    def test_lengths_must_be_whole_dbu(self, lengths):
        # Unchecked, a fractional length made fragment_region raise
        # TypeError from range(), and max_length_nm=nan silently cut a
        # 1000x300 rect into 12 fragments where 80 gives 38.
        with pytest.raises(GeometryError, match="whole dbu"):
            FragmentationSpec(*lengths).validated()
        with pytest.raises(GeometryError, match="whole dbu"):
            fragment_region(Region(Rect(0, 0, 1000, 300)), FragmentationSpec(*lengths))

    def test_numpy_integer_lengths_are_whole(self):
        spec = FragmentationSpec(*(np.int64(v) for v in (40, 80, 20, 260)))
        frags = fragment_region(Region(Rect(0, 0, 1000, 300)), spec)
        assert sum(len(loop) for loop in frags) == 38


class TestApplyBiases:
    def test_zero_bias_roundtrip(self):
        r = line()
        frags = fragment_region(r, SPEC)
        rebuilt = apply_biases(frags, [[0] * len(fl) for fl in frags])
        assert (rebuilt ^ r).is_empty

    def test_uniform_positive_bias_equals_sizing(self):
        r = line()
        frags = fragment_region(r, SPEC)
        rebuilt = apply_biases(frags, [[5] * len(fl) for fl in frags])
        assert (rebuilt ^ r.sized(5)).is_empty

    def test_uniform_negative_bias_equals_shrink(self):
        r = line()
        frags = fragment_region(r, SPEC)
        rebuilt = apply_biases(frags, [[-5] * len(fl) for fl in frags])
        assert (rebuilt ^ r.sized(-5)).is_empty

    def test_single_fragment_move_creates_jog(self):
        r = line(width=100, length=400)
        frags = fragment_region(r, SPEC)
        biases = [[0] * len(frags[0])]
        # Move one interior NORMAL fragment outward.
        idx = next(
            i for i, f in enumerate(frags[0]) if f.tag == FragmentTag.NORMAL
        )
        biases[0][idx] = 8
        rebuilt = apply_biases(frags, biases)
        assert rebuilt.area == r.area + frags[0][idx].length * 8

    def test_mismatched_biases_rejected(self):
        frags = fragment_region(line(), SPEC)
        with pytest.raises(GeometryError):
            apply_biases(frags, [[0]])

    def test_bias_on_hole_loop(self):
        r = Region(Rect(0, 0, 400, 400)) - Region(Rect(100, 100, 300, 300))
        frags = fragment_region(r, SPEC)
        assert len(frags) == 2
        rebuilt = apply_biases(frags, [[3] * len(fl) for fl in frags])
        assert (rebuilt ^ r.sized(3)).is_empty


@given(
    bias=st.integers(min_value=-10, max_value=10),
    width=st.integers(min_value=60, max_value=120),
    length=st.integers(min_value=200, max_value=500),
)
@settings(max_examples=40, deadline=None)
def test_uniform_bias_matches_sizing_property(bias, width, length):
    r = Region(Rect(0, 0, length, width))
    frags = fragment_region(r, SPEC)
    rebuilt = apply_biases(frags, [[bias] * len(fl) for fl in frags])
    assert (rebuilt ^ r.sized(bias)).is_empty
