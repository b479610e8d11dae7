"""``mask_data_stats``' GDS byte count against the retired serialise-and-measure.

The byte count is arithmetic now (``repro.layout.gds.stream_size``): each
boundary takes 32 bytes plus 8 per vertex inside a fixed frame of library
and cell records, with no ``Library``, ``Cell`` or byte stream built.  The
oracle is the retired path, kept here verbatim: a one-cell library holding
the merged geometry, serialised by ``GDSWriter`` and measured.  The two
must agree on empty and non-empty regions and on every layer, and raise
the same ``GDSError`` where the writer raises: a coordinate outside int32,
a layer outside int16, or a loop of more than 8,190 vertices.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GDSError
from repro.geometry import Rect, Region
from repro.layout import GDSWriter, Layer, Library
from repro.layout.gds import stream_size
from repro.mask import mask_data_stats

SEEDED = settings(max_examples=300, deadline=None, derandomize=True, database=None)


# -- the retired byte count, verbatim -------------------------------------------


def _retired_gds_bytes(geometry: Region, layer: Layer = Layer(1, 0, "mask")) -> int:
    merged = geometry.merged()
    library = Library("maskdata")
    cell = library.new_cell("mask")
    if not merged.is_empty:
        cell.set_region(layer, merged)
    return len(GDSWriter().to_bytes(library))


# -- helpers --------------------------------------------------------------------


def _staircase(steps: int, pitch: int = 10, x0: int = 0) -> List[tuple]:
    """One loop of ``2 * steps + 2`` vertices, none collinear."""
    points = [(x0, 0), (x0 + steps * pitch, 0)]
    for i in range(steps):
        points += [
            (x0 + (steps - i) * pitch, (i + 1) * pitch),
            (x0 + (steps - i - 1) * pitch, (i + 1) * pitch),
        ]
    return points


def _outcome(call):
    """``call``'s value, or the type and text of the error it raised."""
    try:
        return call()
    except GDSError as error:
        return type(error), str(error)


@st.composite
def soups(draw):
    lattice = draw(st.sampled_from([1, 10, 40]))
    offset = draw(st.sampled_from([0, -(2**31), 2**31 - 2000, 2**31 - 1000]))
    rects = []
    for _ in range(draw(st.integers(0, 8))):
        x, y = draw(st.integers(0, 30)), draw(st.integers(0, 30))
        w, h = draw(st.integers(1, 20)), draw(st.integers(1, 20))
        rects.append(
            Rect(offset + x * lattice, y * lattice, offset + (x + w) * lattice, (y + h) * lattice)
        )
    region = Region.from_rects(rects)
    holes = Region.from_rects(
        [Rect(offset + 5 * lattice, 5 * lattice, offset + 9 * lattice, 9 * lattice)]
    )
    return region - holes if draw(st.booleans()) else region


layers = st.builds(
    Layer,
    st.sampled_from([0, 1, 63, 255, 32767, 32768, -32768, -32769]),
    st.sampled_from([0, 10, 32767, 32768]),
)


@SEEDED
@given(region=soups(), layer=layers)
def test_byte_count_equals_the_serialised_length(region, layer):
    expected = _outcome(lambda: _retired_gds_bytes(region, layer))
    assert _outcome(lambda: mask_data_stats(region, layer).gds_bytes) == expected


def test_empty_and_single_rect():
    assert mask_data_stats(Region()).gds_bytes == _retired_gds_bytes(Region()) == 110
    square = Region(Rect(0, 0, 500, 500))
    assert mask_data_stats(square).gds_bytes == _retired_gds_bytes(square) == 110 + 32 + 32


def test_raises_past_8190_vertices_where_the_writer_raises():
    # A rectilinear loop has an even vertex count: 8,190 fits in one XY
    # record, 8,192 does not.
    fits = Region(_staircase(4094))
    assert fits.merged().num_vertices == 8190
    assert mask_data_stats(fits).gds_bytes == _retired_gds_bytes(fits)
    too_long = Region(_staircase(4095))
    assert too_long.merged().num_vertices == 8192
    expected = _outcome(lambda: _retired_gds_bytes(too_long))
    assert expected == (GDSError, "record too long (65548 bytes)")
    assert _outcome(lambda: mask_data_stats(too_long).gds_bytes) == expected


def test_stream_size_raises_at_8191_vertices():
    # The writer takes any stored loop; 8,191 vertices is the first that
    # overflows the XY record, collinear or not.
    layer = Layer(1, 0)
    for count, error in ((8190, None), (8191, "record too long (65540 bytes)")):
        loop = [(i, 0) for i in range(count - 1)] + [(0, 5)]
        library = Library("lib")
        library.new_cell("cell").set_region(layer, Region._from_loops([loop]))
        expected = _outcome(lambda: len(GDSWriter().to_bytes(library)))
        assert _outcome(lambda: stream_size("lib", "cell", layer, [loop])) == expected
        if error is not None:
            assert expected == (GDSError, error)


def test_first_bad_loop_names_the_error():
    # The writer stops at the first bad loop: here a coordinate outside
    # int32, ahead of a loop too long for its XY record.
    layer = Layer(1, 0)
    loops = [
        [(0, 0), (10, 0), (10, 10), (0, 10)],
        [(0, 0), (2**31, 0), (2**31, 10), (0, 10)],
        [(i, 0) for i in range(9000)] + [(0, 5)],
    ]
    library = Library("lib")
    library.new_cell("cell").set_region(layer, Region._from_loops(loops))
    expected = _outcome(lambda: len(GDSWriter().to_bytes(library)))
    assert expected == (GDSError, "coordinate 2147483648 is outside the GDSII int32 range")
    assert _outcome(lambda: stream_size("lib", "cell", layer, loops)) == expected
    assert _outcome(lambda: stream_size("lib", "cell", layer, loops[::-1])) == (
        GDSError, "record too long (72020 bytes)"
    )


@pytest.mark.parametrize("names", [("maskdata", "mask"), ("odd", "c"), ("x" * 7, "y" * 9)])
def test_names_pad_as_the_writer_pads(names):
    library_name, cell_name = names
    region = Region.from_rects([Rect(0, 0, 100, 40), Rect(60, 0, 100, 200)])
    library = Library(library_name)
    library.new_cell(cell_name).set_region(Layer(7, 0), region)
    assert stream_size(library_name, cell_name, Layer(7, 0), region.loops) == len(
        GDSWriter().to_bytes(library)
    )
