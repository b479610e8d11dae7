"""Booleans and sizing against an independent pixel oracle.

Operands are rect soups within 64 dbu, rasterized by cell centre: unit
cell ``(i, j)`` is covered when its centre ``(i + 0.5, j + 0.5)`` is.
Results are rasterized from their own loops through a winding difference
image -- never through ``Region.rects()`` -- so the oracle shares no code
with the sweep.  The boolean ops must cover exactly the cellwise boolean
of the operands, sizing must equal binary morphology with a square
structuring element, and every output loop must be canonical.
"""

from __future__ import annotations

import operator

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from repro.geometry import Rect, Region

SPAN = 64
#: Frame margin around the span, wide enough for the largest sizing.
MARGIN = 8
SIZE = SPAN + 2 * MARGIN

#: Each region operator with its cellwise counterpart.
OPS = {
    "union": (operator.or_, np.logical_or),
    "intersection": (operator.and_, np.logical_and),
    "difference": (operator.sub, lambda a, b: a & ~b),
    "xor": (operator.xor, np.logical_xor),
}


@st.composite
def soups(draw):
    rects = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        x = draw(st.integers(min_value=0, max_value=SPAN - 1))
        y = draw(st.integers(min_value=0, max_value=SPAN - 1))
        w = draw(st.integers(min_value=1, max_value=SPAN - x))
        h = draw(st.integers(min_value=1, max_value=SPAN - y))
        rects.append(Rect(x, y, x + w, y + h))
    return rects


def paint(rects) -> np.ndarray:
    """Cell-centre raster of a union of rects, indexed ``[x, y]``."""
    image = np.zeros((SIZE, SIZE), dtype=bool)
    for r in rects:
        image[r.x1 + MARGIN:r.x2 + MARGIN, r.y1 + MARGIN:r.y2 + MARGIN] = True
    return image


def winding(region: Region) -> np.ndarray:
    """Winding number of every cell centre, summed from the loops' edges.

    A downward edge adds ``+1`` to every cell right of it over its y
    extent, an upward one ``-1``: a difference image along x, summed.
    """
    delta = np.zeros((SIZE + 1, SIZE), dtype=np.int64)
    for loop in region.loops:
        for (x1, y1), (x2, y2) in zip(loop, loop[1:] + loop[:1]):
            if x1 == x2:
                lo, hi = sorted((y1, y2))
                delta[x1 + MARGIN, lo + MARGIN:hi + MARGIN] += 1 if y2 < y1 else -1
    return np.cumsum(delta, axis=0)[:-1]


#: Offset from a unit step's start point to the lower-left corner of the
#: cell on its left, and on its right, by step direction.
LEFT = {(1, 0): (0, 0), (-1, 0): (-1, -1), (0, 1): (-1, 0), (0, -1): (0, -1)}
RIGHT = {(1, 0): (0, -1), (-1, 0): (-1, 0), (0, 1): (0, 0), (0, -1): (-1, -1)}


def assert_canonical(region: Region, expected: np.ndarray) -> None:
    """``region``'s loops bound exactly ``expected``, interior on the left."""
    count = winding(region)
    # Outer loops CCW (+1) and holes CW (-1 inside an outer): never 2 or -1.
    assert set(np.unique(count)) <= {0, 1}
    assert np.array_equal(count == 1, expected)
    for loop in region.loops:
        n = len(loop)
        assert n >= 4
        for i in range(n):
            prev, cur, nxt = loop[i - 1], loop[i], loop[(i + 1) % n]
            assert cur != nxt, f"repeated vertex {cur}"
            ax, ay = cur[0] - prev[0], cur[1] - prev[1]
            bx, by = nxt[0] - cur[0], nxt[1] - cur[1]
            assert (ax == 0) != (ay == 0) and (bx == 0) != (by == 0)
            assert ax * by - ay * bx != 0, f"collinear vertex {cur}"
            # Walking the edge, the cell on the left is covered and the
            # cell on the right is not.
            sx, sy = int(np.sign(bx)), int(np.sign(by))
            (lx, ly), (rx, ry) = LEFT[sx, sy], RIGHT[sx, sy]
            for step in range(abs(bx) + abs(by)):
                px, py = cur[0] + sx * step + MARGIN, cur[1] + sy * step + MARGIN
                assert expected[px + lx, py + ly]
                assert not expected[px + rx, py + ry]


@given(a=soups(), b=soups(), op=st.sampled_from(sorted(OPS)))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_boolean_covers_the_cellwise_boolean(a, b, op):
    region_op, cellwise = OPS[op]
    result = region_op(Region.from_rects(a), Region.from_rects(b))
    assert_canonical(result, cellwise(paint(a), paint(b)))


@given(a=soups(), d=st.integers(min_value=1, max_value=MARGIN - 1))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_dilation_is_binary_dilation_by_a_square(a, d):
    square = np.ones((2 * d + 1, 2 * d + 1), dtype=bool)
    expected = ndimage.binary_dilation(paint(a), structure=square)
    assert_canonical(Region.from_rects(a).sized(d), expected)


@given(a=soups(), d=st.integers(min_value=1, max_value=MARGIN - 1))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_erosion_is_binary_erosion_by_a_square(a, d):
    square = np.ones((2 * d + 1, 2 * d + 1), dtype=bool)
    expected = ndimage.binary_erosion(paint(a), structure=square, border_value=0)
    assert_canonical(Region.from_rects(a).sized(-d), expected)
