"""``fracture_array`` and ``decompose_max_rects`` against the retired per-rect loops.

Both now run as array passes over the region's slab rect array: one
``np.lexsort`` by ``(y1, y2, x1)``, a run merge of rects that share their
y-extent and touch in x, and each merged rect split into columns by rows
at ``lo + (span * k) // pieces``; ``mask_data_stats`` counts shots from
that array with no ``Rect``.  The oracle is the retired path, kept here
verbatim: ``decompose_max_rects`` sorting ``Rect`` objects and fusing them
one by one, ``_split_rect`` and ``_cuts``, and ``fracture``, the ``Rect``
list form of ``fracture_array``.  They must give the same figures, in the
same order, with Python ``int`` coordinates in the lists: on soups with
holes, slabs that touch across strips, spans at multiples of the maximum
figure and one either side, and the empty region.
"""

from __future__ import annotations

from typing import List

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GeometryError
from repro.geometry import Rect, Region, decompose_max_rects, fracture_array
from repro.geometry.booleans import rect_list
from repro.mask import mask_data_stats

SEEDED = settings(max_examples=300, deadline=None, derandomize=True, database=None)


# -- the retired fracture, verbatim --------------------------------------------


def fracture(region: Region, max_figure: int) -> List[Rect]:
    """Fracture a region into writer figures no larger than ``max_figure``.

    Models mask data preparation for a variable-shaped-beam (VSB) or raster
    writer: the merged rectangle decomposition is split so that no figure
    exceeds ``max_figure`` dbu on either axis.  Figures come rect by rect
    of :func:`decompose_max_rects`, each rect's pieces by column, then by
    row.
    """
    return rect_list(fracture_array(region, max_figure))


def _retired_decompose_max_rects(region: Region) -> List[Rect]:
    slabs = sorted(region.rects(), key=lambda r: (r.y1, r.y2, r.x1))
    merged: List[Rect] = []
    for rect in slabs:
        if (
            merged
            and merged[-1].y1 == rect.y1
            and merged[-1].y2 == rect.y2
            and merged[-1].x2 == rect.x1
        ):
            merged[-1] = Rect(merged[-1].x1, rect.y1, rect.x2, rect.y2)
        else:
            merged.append(rect)
    return merged


def _retired_fracture(region: Region, max_figure: int) -> List[Rect]:
    if max_figure <= 0:
        raise GeometryError(f"max_figure must be positive, got {max_figure}")
    figures: List[Rect] = []
    for rect in _retired_decompose_max_rects(region):
        figures.extend(_split_rect(rect, max_figure))
    return figures


def _split_rect(rect: Rect, max_figure: int) -> List[Rect]:
    xs = _cuts(rect.x1, rect.x2, max_figure)
    ys = _cuts(rect.y1, rect.y2, max_figure)
    pieces: List[Rect] = []
    for i in range(len(xs) - 1):
        for j in range(len(ys) - 1):
            pieces.append(Rect(xs[i], ys[j], xs[i + 1], ys[j + 1]))
    return pieces


def _cuts(lo: int, hi: int, max_span: int) -> List[int]:
    span = hi - lo
    if span <= max_span:
        return [lo, hi]
    pieces = -(-span // max_span)  # ceil division
    cuts = [lo + (span * k) // pieces for k in range(pieces)]
    cuts.append(hi)
    return cuts


# -- strategies -------------------------------------------------------------------


@st.composite
def soups(draw, lattice: int = 40, field: int = 24):
    """Rects on a lattice, some subtracted to make holes and notches."""
    def rect():
        x = draw(st.integers(0, field - 1))
        y = draw(st.integers(0, field - 1))
        w = draw(st.integers(1, 8))
        h = draw(st.integers(1, 8))
        offset = draw(st.sampled_from([0, 0, 1, -1, 2**31 - 4096]))
        return Rect(
            x * lattice + offset, y * lattice, (x + w) * lattice + offset, (y + h) * lattice
        )

    region = Region.from_rects([rect() for _ in range(draw(st.integers(0, 10)))])
    holes = [rect() for _ in range(draw(st.integers(0, 4)))]
    return region - Region.from_rects(holes) if holes else region


def _touching_slabs(spans: List[int], height: int) -> Region:
    """Side-by-side columns of one height: slabs that touch across strips."""
    rects, x = [], 0
    for span in spans:
        rects.append(Rect(x, 0, x + span, height))
        x += span
    return Region.from_rects(rects)


def _check(region: Region, max_figure: int) -> None:
    expected = _retired_fracture(region, max_figure)
    figures = fracture(region, max_figure)
    assert figures == expected
    assert all(type(v) is int for rect in figures for v in rect)
    array = fracture_array(region, max_figure)
    assert array.dtype == np.int64 and array.shape == (len(expected), 4)
    assert array.tolist() == [list(rect) for rect in expected]
    assert decompose_max_rects(region) == _retired_decompose_max_rects(region)
    shots = len(_retired_fracture(region.merged(), max_figure))
    assert mask_data_stats(region, max_figure_nm=max_figure).shots == shots


@SEEDED
@given(region=soups(), max_figure=st.sampled_from([40, 80, 120, 200, 2000]) | st.integers(20, 400))
def test_soups_fracture_as_the_retired_loops(region, max_figure):
    _check(region.merged(), max_figure)


@SEEDED
@given(region=soups(), max_figure=st.integers(20, 500))
def test_raw_regions_fracture_as_the_retired_loops(region, max_figure):
    """A raw region's slab rects are finer; the order is still the retired one."""
    _check(Region([region, Rect(0, 0, 97, 41), Rect(60, 20, 140, 80)]), max_figure)


@SEEDED
@given(
    max_figure=st.integers(1, 60),
    multiples=st.lists(st.integers(1, 4), min_size=1, max_size=5),
    nudges=st.lists(st.sampled_from([-1, 0, 1]), min_size=5, max_size=5),
    rows=st.integers(1, 4),
)
def test_spans_at_multiples_of_the_maximum_and_either_side(max_figure, multiples, nudges, rows):
    spans = [max(1, m * max_figure + d) for m, d in zip(multiples, nudges)]
    height = max(1, rows * max_figure + nudges[-1])
    _check(_touching_slabs(spans, height), max_figure)
    _check(_touching_slabs(spans, height).merged(), max_figure)


def test_slabs_touching_across_strips():
    # Three columns of one height fuse into one rect; a column of another
    # height breaks the run, and the run resumes after it.
    region = Region.from_rects(
        [Rect(0, 0, 100, 50), Rect(100, 0, 250, 50), Rect(250, 0, 300, 80), Rect(300, 0, 400, 50)]
    )
    assert decompose_max_rects(region) == [
        Rect(0, 0, 250, 50), Rect(300, 0, 400, 50), Rect(250, 0, 300, 80),
    ]
    for max_figure in (1, 49, 50, 51, 100, 1000):
        _check(region, max_figure)


def test_empty_region():
    assert fracture(Region(), 100) == [] == decompose_max_rects(Region())
    assert fracture_array(Region(), 100).shape == (0, 4)
    _check(Region(), 100)


@pytest.mark.parametrize("max_figure", [0, -5, 2.5, 100.0, float("nan"), "100"])
def test_max_figure_must_be_a_positive_integer(max_figure):
    with pytest.raises(GeometryError, match="positive integer"):
        fracture_array(Region(Rect(0, 0, 10, 10)), max_figure)
