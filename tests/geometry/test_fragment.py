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


def lengths(frags, rows):
    """The lengths of the fragments at ``rows``, in dbu."""
    return np.abs(frags.end[rows] - frags.start[rows]).sum(axis=1)


class TestFragmentation:
    def test_covers_boundary_exactly(self):
        frags = fragment_region(line(), SPEC)
        assert len(frags) == 1
        total = lengths(frags, frags[0]).sum()
        assert total == line().merged().polygons()[0].perimeter

    def test_chained_endpoints(self):
        frags = fragment_region(line(), SPEC)
        start, end = frags.start[frags[0]], frags.end[frags[0]]
        for a, b in zip(end, start[1:]):
            assert a.tolist() == b.tolist()
        assert end[-1].tolist() == start[0].tolist()

    def test_line_end_tagging(self):
        # A 40-wide line: the short (40 <= 50) left/right edges between two
        # convex corners are line ends.
        frags = fragment_region(line(width=40), SPEC)
        tags = frags.tags(frags[0])
        assert tags.count(FragmentTag.LINE_END) == 2

    def test_wide_edge_not_line_end(self):
        frags = fragment_region(line(width=80), SPEC)
        assert all(tag != FragmentTag.LINE_END for tag in frags.tags(frags[0]))

    def test_corner_fragments_present(self):
        frags = fragment_region(line(width=80), SPEC)
        assert any(tag == FragmentTag.CORNER_CONVEX for tag in frags.tags(frags[0]))

    def test_concave_corner_tagged(self):
        ell = Region(
            Polygon([(0, 0), (400, 0), (400, 200), (200, 200), (200, 400), (0, 400)])
        )
        frags = fragment_region(ell, SPEC)
        assert any(tag == FragmentTag.CORNER_CONCAVE for tag in frags.tags(frags[0]))

    def test_max_length_respected_for_runs(self):
        frags = fragment_region(line(length=1000), SPEC)
        rows = frags[0]
        for tag, length in zip(frags.tags(rows), lengths(frags, rows).tolist()):
            if tag == FragmentTag.NORMAL:
                assert length <= SPEC.max_length_nm

    def test_outward_normals(self):
        frags = fragment_region(line(), SPEC)
        region = line()
        rows = frags[0]
        for (nx, ny), (mx, my) in zip(
            frags.normal[rows].tolist(), frags.midpoint[rows].tolist()
        ):
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


def uniform(frags, bias):
    """One bias for every fragment of ``frags``."""
    return np.full(len(frags.tag), bias, dtype=np.int64)


class TestApplyBiases:
    def test_zero_bias_roundtrip(self):
        r = line()
        frags = fragment_region(r, SPEC)
        rebuilt = apply_biases(frags, uniform(frags, 0))
        assert (rebuilt ^ r).is_empty

    def test_uniform_positive_bias_equals_sizing(self):
        r = line()
        frags = fragment_region(r, SPEC)
        rebuilt = apply_biases(frags, uniform(frags, 5))
        assert (rebuilt ^ r.sized(5)).is_empty

    def test_uniform_negative_bias_equals_shrink(self):
        r = line()
        frags = fragment_region(r, SPEC)
        rebuilt = apply_biases(frags, uniform(frags, -5))
        assert (rebuilt ^ r.sized(-5)).is_empty

    def test_single_fragment_move_creates_jog(self):
        r = line(width=100, length=400)
        frags = fragment_region(r, SPEC)
        biases = uniform(frags, 0)
        # Move one interior NORMAL fragment outward.
        idx = frags.tags(frags[0]).index(FragmentTag.NORMAL)
        biases[idx] = 8
        rebuilt = apply_biases(frags, biases)
        assert rebuilt.area == r.area + lengths(frags, [idx])[0] * 8

    def test_mismatched_biases_rejected(self):
        frags = fragment_region(line(), SPEC)
        with pytest.raises(GeometryError):
            apply_biases(frags, [[0]])

    def test_bias_on_hole_loop(self):
        r = Region(Rect(0, 0, 400, 400)) - Region(Rect(100, 100, 300, 300))
        frags = fragment_region(r, SPEC)
        assert len(frags) == 2
        rebuilt = apply_biases(frags, uniform(frags, 3))
        assert (rebuilt ^ r.sized(3)).is_empty

    def test_integer_vector_moves_the_line(self):
        # 400x40 nm grown 5 nm on every side: 410 x 50.
        frags = fragment_region(line(), SPEC)
        assert apply_biases(frags, uniform(frags, 5)).area == 20_500
        assert apply_biases(frags, uniform(frags, 5).astype(np.int32)).area == 20_500

    def test_fragment_set_required(self):
        # Only a FragmentLoops carries the columns: anything else, such as
        # its per-loop ranges in a list, raises instead of failing on a
        # missing column.
        frags = fragment_region(line(), SPEC)
        with pytest.raises(GeometryError, match="FragmentLoops"):
            apply_biases(list(frags), uniform(frags, 0))

    @pytest.mark.parametrize(
        "biases",
        [
            lambda n: np.full(n, 0.9),
            lambda n: np.full(n, 5.0),
            lambda n: np.full(n, np.nan),
            lambda n: np.full(n, True),
            lambda n: [5] * n,
            lambda n: np.full((1, n), 5, dtype=np.int64),
        ],
        ids=["fraction", "whole-float", "nan", "bool", "list", "2-d"],
    )
    def test_non_integer_vector_rejected(self, biases):
        # Unchecked, a 0.9 nm vector was cast to 0 and moved nothing (the
        # line kept its 16,000 nm2), and a NaN vector cast to int64 with
        # only a RuntimeWarning.
        frags = fragment_region(line(), SPEC)
        with pytest.raises(GeometryError, match="1-D integer array"):
            apply_biases(frags, biases(len(frags.tag)))


@given(
    bias=st.integers(min_value=-10, max_value=10),
    width=st.integers(min_value=60, max_value=120),
    length=st.integers(min_value=200, max_value=500),
)
@settings(max_examples=40, deadline=None)
def test_uniform_bias_matches_sizing_property(bias, width, length):
    r = Region(Rect(0, 0, length, width))
    frags = fragment_region(r, SPEC)
    rebuilt = apply_biases(frags, uniform(frags, bias))
    assert (rebuilt ^ r.sized(bias)).is_empty
