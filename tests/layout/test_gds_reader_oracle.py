"""The GDS reader against the retired per-boundary reader.

The reader now sets every BOUNDARY's XY payload aside while it parses the
records, decodes them all with one ``np.frombuffer``, drops closing
vertices and checks rectilinearity as array passes, and sends only loops
with a repeated or collinear vertex, or under four points, through
``Polygon``; each cell then receives its loops and PATH regions layer by
layer in file order.  The oracle is the retired reader, kept here
verbatim: one validated ``Polygon`` per boundary, added to its cell as the
record is read.  The two must give the same cells, layers (empty ones
included), loops with Python ``int`` coordinates, labels and references,
in the same order, and the same ``GeometryError`` text for the first
non-rectilinear edge in file order: on streams with and without closing
vertices, repeated vertices, collinear runs that take two stripping
passes, spikes, loops under four points, BOUNDARY and PATH on one layer,
labels and references.
"""

from __future__ import annotations

import struct
from itertools import chain
from typing import List, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GDSError, GeometryError
from repro.geometry import Transform
from repro.layout import Cell, GDSReader, Layer, Library
from repro.layout.gds import (
    _AREF,
    _BGNLIB,
    _BGNSTR,
    _BOUNDARY,
    _DATATYPE,
    _ENDEL,
    _ENDLIB,
    _ENDSTR,
    _FIXED_TIMESTAMP,
    _HEADER,
    _LAYER,
    _LIBNAME,
    _PATH,
    _PATHTYPE,
    _SNAME,
    _SREF,
    _STRING,
    _STRNAME,
    _TEXT,
    _TEXTTYPE,
    _UNITS,
    _WIDTH,
    _XY,
    _ascii,
    _int16,
    _int32,
    _iter_records,
    _path_to_region,
    _read_ascii,
    _record,
    pack_real8,
)
from repro.layout.reference import CellArray, CellRef

SEEDED = settings(max_examples=300, deadline=None, derandomize=True, database=None)


# -- the retired reader, verbatim -------------------------------------------------


class _RetiredReader(GDSReader):
    def _parse(self, data: bytes) -> Library:
        records = list(_iter_records(data))
        cursor = 0

        def expect(kind: Tuple[int, int]) -> bytes:
            nonlocal cursor
            if cursor >= len(records):
                raise GDSError("unexpected end of stream")
            rec_kind, payload = records[cursor]
            if rec_kind != kind:
                raise GDSError(f"expected record {kind}, got {rec_kind}")
            cursor += 1
            return payload

        def peek() -> Optional[Tuple[int, int]]:
            return records[cursor][0] if cursor < len(records) else None

        expect(_HEADER)
        expect(_BGNLIB)
        library_name = _read_ascii(expect(_LIBNAME))
        expect(_UNITS)
        library = Library(library_name)
        pending_refs: List[Tuple[Cell, str, Transform, Optional[Tuple[int, int, int, int]]]] = []

        while peek() == _BGNSTR:
            cursor += 1
            cell = Cell(_read_ascii(expect(_STRNAME)))
            while peek() != _ENDSTR:
                kind = peek()
                if kind == _BOUNDARY:
                    cursor += 1
                    layer_num = struct.unpack(">h", expect(_LAYER))[0]
                    datatype = struct.unpack(">h", expect(_DATATYPE))[0]
                    xy = expect(_XY)
                    expect(_ENDEL)
                    coords = struct.unpack(f">{len(xy) // 4}i", xy)
                    pts = list(zip(coords[0::2], coords[1::2]))
                    cell.add(Layer(layer_num, datatype), pts)
                elif kind == _PATH:
                    cursor += 1
                    layer_num = struct.unpack(">h", expect(_LAYER))[0]
                    datatype = struct.unpack(">h", expect(_DATATYPE))[0]
                    pathtype = 0
                    if peek() == _PATHTYPE:
                        pathtype = struct.unpack(">h", expect(_PATHTYPE))[0]
                    width = 0
                    if peek() == _WIDTH:
                        width = struct.unpack(">i", expect(_WIDTH))[0]
                    xy = expect(_XY)
                    expect(_ENDEL)
                    coords = struct.unpack(f">{len(xy) // 4}i", xy)
                    pts = list(zip(coords[0::2], coords[1::2]))
                    region = _path_to_region(pts, width, pathtype)
                    cell.add(Layer(layer_num, datatype), region)
                elif kind == _TEXT:
                    cursor += 1
                    layer_num = struct.unpack(">h", expect(_LAYER))[0]
                    texttype = struct.unpack(">h", expect(_TEXTTYPE))[0]
                    xy = struct.unpack(">2i", expect(_XY))
                    text = _read_ascii(expect(_STRING))
                    expect(_ENDEL)
                    cell.add_label(Layer(layer_num, texttype), text, xy)
                elif kind in (_SREF, _AREF):
                    is_aref = kind == _AREF
                    cursor += 1
                    sname = _read_ascii(expect(_SNAME))
                    transform, colrow, origin = self._read_placement(
                        records, is_aref, expect, peek
                    )
                    pending_refs.append((cell, sname, transform, colrow))
                else:
                    raise GDSError(f"unsupported element record {kind}")
            cursor += 1  # ENDSTR
            library.add(cell)

        expect(_ENDLIB)

        for parent, child_name, transform, colrow in pending_refs:
            child = library[child_name]
            if colrow is None:
                parent.references.append(CellRef(child, transform))
            else:
                cols, rows, col_pitch, row_pitch = colrow
                parent.references.append(
                    CellArray(child, cols, rows, col_pitch, row_pitch, transform)
                )
        return library


# -- streams ---------------------------------------------------------------------


def _stream(cells) -> bytes:
    """A GDSII stream of ``cells``: ``(name, elements)`` pairs in file order."""
    out = [
        _record(_HEADER, _int16(600)),
        _record(_BGNLIB, _int16(*_FIXED_TIMESTAMP)),
        _record(_LIBNAME, _ascii("oracle")),
        _record(_UNITS, pack_real8(1e-3) + pack_real8(1e-9)),
    ]
    for name, elements in cells:
        out += [_record(_BGNSTR, _int16(*_FIXED_TIMESTAMP)), _record(_STRNAME, _ascii(name))]
        for kind, layer, payload in elements:
            if kind == "boundary":
                out += [_record(_BOUNDARY), _record(_LAYER, _int16(layer[0])),
                        _record(_DATATYPE, _int16(layer[1])),
                        _record(_XY, _int32(*chain.from_iterable(payload))), _record(_ENDEL)]
            elif kind == "path":
                points, width, pathtype = payload
                out += [_record(_PATH), _record(_LAYER, _int16(layer[0])),
                        _record(_DATATYPE, _int16(layer[1])),
                        _record(_PATHTYPE, _int16(pathtype)), _record(_WIDTH, _int32(width)),
                        _record(_XY, _int32(*chain.from_iterable(points))), _record(_ENDEL)]
            elif kind == "text":
                out += [_record(_TEXT), _record(_LAYER, _int16(layer[0])),
                        _record(_TEXTTYPE, _int16(layer[1])), _record(_XY, _int32(0, 0)),
                        _record(_STRING, _ascii(payload)), _record(_ENDEL)]
            else:  # an SREF to an earlier cell
                out += [_record(_SREF), _record(_SNAME, _ascii(payload)),
                        _record(_XY, _int32(*layer)), _record(_ENDEL)]
        out.append(_record(_ENDSTR))
    out.append(_record(_ENDLIB))
    return b"".join(out)


def _snapshot(library: Library):
    """Every cell's layers (empty ones too), loops, labels and references."""
    snapshot = []
    for cell in library.cells:
        shapes = [
            (layer.gds_layer, layer.datatype, cell.region(layer).loops)
            for layer in cell._shapes
        ]
        refs = [(type(ref).__name__, ref.cell.name, ref.transform) for ref in cell.references]
        snapshot.append((cell.name, shapes, list(cell.labels), refs))
        for _, _, loops in shapes:
            assert all(type(v) is int for loop in loops for point in loop for v in point)
    return snapshot


def _outcome(reader: GDSReader, data: bytes):
    try:
        return _snapshot(reader.read(data))
    except (GDSError, GeometryError) as error:
        return type(error), str(error)


LAYERS = [(3, 0), (7, 0), (3, 10)]


@st.composite
def loops(draw):
    """A rectilinear vertex list, mangled as real streams and tools mangle them."""
    lattice = draw(st.sampled_from([1, 5, 40]))
    x0, y0 = draw(st.integers(-20, 20)) * lattice, draw(st.integers(-20, 20)) * lattice
    kind = draw(st.sampled_from(["rect", "staircase", "walk", "short"]))
    if kind == "rect":
        w, h = draw(st.integers(1, 9)) * lattice, draw(st.integers(1, 9)) * lattice
        points = [(x0, y0), (x0 + w, y0), (x0 + w, y0 + h), (x0, y0 + h)]
    elif kind == "staircase":
        steps = draw(st.integers(1, 4))
        points = [(x0, y0), (x0 + steps * lattice, y0)]
        for i in range(steps):
            points += [(x0 + (steps - i) * lattice, y0 + (i + 1) * lattice),
                       (x0 + (steps - i - 1) * lattice, y0 + (i + 1) * lattice)]
    elif kind == "walk":  # zero steps repeat a vertex, reversals make spikes
        points = [(x0, y0)]
        for step in draw(st.lists(st.integers(-3, 3), min_size=1, max_size=9)):
            x, y = points[-1]
            points.append((x + step * lattice, y) if len(points) % 2 else (x, y + step * lattice))
        points.append((x0, points[-1][1]))
    else:  # under four points, on one line so that the closing edge is straight
        points = [(x0, y0), (x0 + lattice, y0), (x0 + 3 * lattice, y0)]
        points = points[: draw(st.integers(0, 3))]
    for _ in range(draw(st.integers(0, 3))):
        if not points:
            break
        i = draw(st.integers(0, len(points) - 1))
        x, y = points[i]
        nx, ny = points[(i + 1) % len(points)]
        edit = draw(st.sampled_from(["rotate", "reverse", "collinear", "repeat", "spike"]))
        if edit == "rotate":
            points = points[i:] + points[:i]
        elif edit == "reverse":
            points = points[::-1]
        elif edit == "collinear" and (x, y) != (nx, ny):
            points.insert(i + 1, ((x + nx) // 2 if x != nx else x, (y + ny) // 2 if y != ny else y))
        elif edit == "repeat":
            points.insert(i, (x, y))
        elif edit == "spike":  # out and back along one axis
            d = draw(st.sampled_from([-2, -1, 1, 2])) * lattice
            points[i + 1 : i + 1] = [(x + d, y), (x, y)] if draw(st.booleans()) else [(x, y + d), (x, y)]
    closes = draw(st.sampled_from([0, 0, 1, 1, 2]))
    return points + points[:1] * closes


@st.composite
def streams(draw):
    cells = []
    for c in range(draw(st.integers(1, 4))):
        elements = []
        for _ in range(draw(st.integers(0, 8))):
            layer = draw(st.sampled_from(LAYERS))
            kind = draw(st.sampled_from(["boundary"] * 6 + ["path", "text", "sref"]))
            if kind == "boundary":
                elements.append((kind, layer, draw(loops())))
            elif kind == "path":
                x, y = draw(st.integers(-9, 9)) * 40, draw(st.integers(-9, 9)) * 40
                bend = [(x, y), (x + 200, y), (x + 200, y + draw(st.integers(1, 5)) * 40)]
                points = bend[: draw(st.integers(2, 3))]
                elements.append((kind, layer, (points, 20, draw(st.sampled_from([0, 2])))))
            elif kind == "text":
                elements.append((kind, layer, f"pin{len(elements)}"))
            elif c:
                elements.append((kind, (draw(st.integers(-9, 9)) * 100, 0), f"c{c - 1}"))
        cells.append((f"c{c}", elements))
    return cells


@SEEDED
@given(cells=streams())
def test_reader_keeps_the_retired_cells_layers_and_loops(cells):
    data = _stream(cells)
    expected = _outcome(_RetiredReader(), data)
    assert not isinstance(expected, tuple), expected
    assert _outcome(GDSReader(), data) == expected


@SEEDED
@given(cells=streams(), data=st.data())
def test_first_non_rectilinear_edge_in_file_order(cells, data):
    # Bend one or two boundaries off the axes: both readers name the same
    # first bad edge, whatever comes before it.
    boundaries = [
        (c, e) for c, (_, elements) in enumerate(cells)
        for e, (kind, _, points) in enumerate(elements) if kind == "boundary" and len(points) >= 3
    ]
    if not boundaries:
        cells = cells + [("extra", [("boundary", (3, 0), [(0, 0), (40, 0), (40, 40), (0, 40)])])]
        boundaries = [(len(cells) - 1, 0)]
    for c, e in data.draw(st.lists(st.sampled_from(boundaries), min_size=1, max_size=2)):
        kind, layer, points = cells[c][1][e]
        i = data.draw(st.integers(0, len(points) - 1))
        x, y = points[i]
        points = points[:i] + [(x + 7, y + 3)] + points[i + 1 :]
        cells[c][1][e] = (kind, layer, points)
    stream = _stream(cells)
    expected = _outcome(_RetiredReader(), stream)
    assert _outcome(GDSReader(), stream) == expected


def test_collinear_run_that_takes_two_stripping_passes():
    # The spike's tip goes in the first pass, its doubled base in the
    # second: a plain square is left.
    spiked = [(0, 0), (10, 0), (10, 10), (5, 10), (5, 15), (5, 10), (0, 10)]
    for points in (spiked, spiked + spiked[:1]):
        stream = _stream([("c", [("boundary", (3, 0), points)])])
        expected = _outcome(_RetiredReader(), stream)
        assert expected[0][1] == [(3, 0, [[(0, 0), (10, 0), (10, 10), (0, 10)]])]
        assert _outcome(GDSReader(), stream) == expected


def test_boundary_and_path_on_one_layer_keep_file_order():
    square = [(0, 0), (40, 0), (40, 40), (0, 40), (0, 0)]
    stream = _stream([("c", [
        ("boundary", (3, 0), square),
        ("path", (3, 0), ([(100, 0), (300, 0)], 20, 0)),
        ("boundary", (7, 0), [(0, 0), (0, 0), (5, 0)]),  # no area: an empty layer
        ("boundary", (3, 0), [(500, 0), (540, 0), (540, 40), (500, 40)]),
    ])])
    expected = _outcome(_RetiredReader(), stream)
    assert [shape[:2] for shape in expected[0][1]] == [(3, 0), (7, 0)]
    assert len(expected[0][1][0][2]) == 3 and expected[0][1][1][2] == []
    assert _outcome(GDSReader(), stream) == expected


def test_boundary_xy_of_odd_length_is_a_gds_error():
    stream = _stream([("c", [("boundary", (3, 0), [(0, 0), (40, 0), (40, 40), (0, 40)])])])
    xy = _record(_XY, _int32(0, 0, 40, 0, 40, 40, 0, 40))
    bad = stream.replace(xy, _record(_XY, _int32(0, 0, 40, 0, 40, 40, 0, 40, 0)))
    with pytest.raises(GDSError, match="not whole points"):
        GDSReader().read(bad)
