"""Binary GDSII stream reader and writer.

Implements the subset of GDSII used by Manhattan mask layouts: BOUNDARY
elements, SREF/AREF hierarchy with 90-degree orientations, and library
metadata.  Timestamps are written as fixed values so output is
byte-for-byte deterministic.

The mask data-volume experiments measure real on-disk bytes, so the writer
is a faithful stream-format implementation, not a toy: 8-byte excess-64
reals, even-length padded strings, record framing, and AREF lattices all
follow the Calma specification.  :func:`stream_size` gives the length of
the stream the writer makes of one cell of boundaries from loop and vertex
counts alone, and the reader decodes every BOUNDARY of a stream in one
array pass.
"""

from __future__ import annotations

import struct
from itertools import chain
from pathlib import Path
from typing import BinaryIO, Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import GDSError, GeometryError
from ..geometry import Coord, Polygon, Region, Transform
from .cell import Cell
from .layer import Layer
from .library import Library
from .reference import CellArray, CellRef

# Record types (record_type byte, data_type byte).
_HEADER = (0x00, 0x02)
_BGNLIB = (0x01, 0x02)
_LIBNAME = (0x02, 0x06)
_UNITS = (0x03, 0x05)
_ENDLIB = (0x04, 0x00)
_BGNSTR = (0x05, 0x02)
_STRNAME = (0x06, 0x06)
_ENDSTR = (0x07, 0x00)
_BOUNDARY = (0x08, 0x00)
_SREF = (0x0A, 0x00)
_AREF = (0x0B, 0x00)
_PATH = (0x09, 0x00)
_TEXT = (0x0C, 0x00)
_WIDTH = (0x0F, 0x03)
_TEXTTYPE = (0x16, 0x02)
_PATHTYPE = (0x21, 0x02)
_STRING = (0x19, 0x06)
_LAYER = (0x0D, 0x02)
_DATATYPE = (0x0E, 0x02)
_XY = (0x10, 0x03)
_ENDEL = (0x11, 0x00)
_SNAME = (0x12, 0x06)
_COLROW = (0x13, 0x02)
_STRANS = (0x1A, 0x01)
_MAG = (0x1B, 0x05)
_ANGLE = (0x1C, 0x05)

#: Deterministic timestamp written into BGNLIB/BGNSTR (Y, M, D, H, M, S x2).
_FIXED_TIMESTAMP = (2001, 6, 18, 0, 0, 0, 2001, 6, 18, 0, 0, 0)

_REFLECTION_FLAG = 0x8000

#: Most vertices of one BOUNDARY: its XY record holds at most 0xFFFF bytes,
#: 4 of framing and 8 per vertex, the first vertex repeated at the end.
_MAX_BOUNDARY_VERTICES = (0xFFFF - 4) // 8 - 1

#: Bytes of one BOUNDARY besides 8 per vertex: BOUNDARY 4, LAYER 6,
#: DATATYPE 6, XY 4 + 8 for the repeated first vertex, and ENDEL 4.
_BOUNDARY_BYTES = 32

#: Bytes of a library's records besides LIBNAME and its cells: HEADER 6,
#: BGNLIB 28, UNITS 20 and ENDLIB 4.
_LIBRARY_BYTES = 58

#: Bytes of a cell's records besides STRNAME and its elements: BGNSTR 28
#: and ENDSTR 4.
_CELL_BYTES = 32


# -- 8-byte excess-64 real conversion ------------------------------------------------


def pack_real8(value: float) -> bytes:
    """Encode a float as a GDSII 8-byte excess-64 real."""
    if value == 0.0:
        return b"\x00" * 8
    sign = 0
    if value < 0:
        sign = 0x80
        value = -value
    exponent = 64
    while value >= 1.0:
        value /= 16.0
        exponent += 1
    while value < 1.0 / 16.0:
        value *= 16.0
        exponent -= 1
    mantissa = int(round(value * float(1 << 56)))
    if mantissa >= 1 << 56:  # rounding carried past the top bit
        mantissa >>= 4
        exponent += 1
    if not 0 <= exponent <= 127:
        raise GDSError(f"real value out of GDSII range (exponent {exponent})")
    return bytes([sign | exponent]) + mantissa.to_bytes(7, "big")


def unpack_real8(data: bytes) -> float:
    """Decode a GDSII 8-byte excess-64 real."""
    if len(data) != 8:
        raise GDSError(f"8-byte real expected, got {len(data)} bytes")
    sign = -1.0 if data[0] & 0x80 else 1.0
    exponent = (data[0] & 0x7F) - 64
    mantissa = int.from_bytes(data[1:], "big") / float(1 << 56)
    return sign * mantissa * (16.0**exponent)


# -- record framing -------------------------------------------------------------


def _record(kind: Tuple[int, int], payload: bytes = b"") -> bytes:
    length = 4 + len(payload)
    if length > 0xFFFF:
        raise GDSError(f"record too long ({length} bytes)")
    return struct.pack(">HBB", length, kind[0], kind[1]) + payload


def _ascii(text: str) -> bytes:
    data = text.encode("ascii")
    if len(data) % 2:
        data += b"\x00"
    return data


def _int16(*values: int) -> bytes:
    try:
        return struct.pack(f">{len(values)}h", *values)
    except struct.error:
        _raise_out_of_range(values, 16, "value")
        raise


def _int32(*values: int) -> bytes:
    try:
        return struct.pack(f">{len(values)}i", *values)
    except struct.error:
        _raise_out_of_range(values, 32, "coordinate")
        raise


def _raise_out_of_range(values: Sequence[int], bits: int, what: str) -> None:
    """Raise :class:`GDSError` naming the first value outside signed ``bits`` bits."""
    limit = 1 << (bits - 1)
    for value in values:
        if not -limit <= value < limit:
            raise GDSError(f"{what} {value} is outside the GDSII int{bits} range") from None


# -- writer ---------------------------------------------------------------------


class GDSWriter:
    """Serialises a :class:`Library` to a GDSII stream."""

    def __init__(self, dbu_in_meters: float = 1e-9, dbu_in_user_units: float = 1e-3):
        self.dbu_in_meters = dbu_in_meters
        self.dbu_in_user_units = dbu_in_user_units

    def write(self, library: Library, target: Union[str, Path, BinaryIO]) -> int:
        """Write ``library``; returns the number of bytes written."""
        library.check_acyclic()
        if isinstance(target, (str, Path)):
            with open(target, "wb") as stream:
                return self._write_stream(library, stream)
        return self._write_stream(library, target)

    def to_bytes(self, library: Library) -> bytes:
        """Serialise ``library`` to an in-memory byte string."""
        import io

        buffer = io.BytesIO()
        self.write(library, buffer)
        return buffer.getvalue()

    def _write_stream(self, library: Library, stream: BinaryIO) -> int:
        written = 0

        def emit(data: bytes) -> None:
            nonlocal written
            stream.write(data)
            written += len(data)

        emit(_record(_HEADER, _int16(600)))
        emit(_record(_BGNLIB, _int16(*_FIXED_TIMESTAMP)))
        emit(_record(_LIBNAME, _ascii(library.name)))
        emit(
            _record(
                _UNITS,
                pack_real8(self.dbu_in_user_units) + pack_real8(self.dbu_in_meters),
            )
        )
        for cell in _children_first(library):
            self._write_cell(cell, emit)
        emit(_record(_ENDLIB))
        return written

    def _write_cell(self, cell: Cell, emit) -> None:
        emit(_record(_BGNSTR, _int16(*_FIXED_TIMESTAMP)))
        emit(_record(_STRNAME, _ascii(cell.name)))
        for layer in cell.layers:
            for loop in cell.region(layer).loops:
                self._write_boundary(layer, loop, emit)
        for label in cell.labels:
            emit(_record(_TEXT))
            emit(_record(_LAYER, _int16(label.layer.gds_layer)))
            emit(_record(_TEXTTYPE, _int16(label.layer.datatype)))
            emit(_record(_XY, _int32(label.position[0], label.position[1])))
            emit(_record(_STRING, _ascii(label.text)))
            emit(_record(_ENDEL))
        for ref in cell.references:
            if isinstance(ref, CellArray):
                self._write_aref(ref, emit)
            else:
                self._write_sref(ref, emit)
        emit(_record(_ENDSTR))

    def _write_boundary(self, layer: Layer, loop, emit) -> None:
        emit(_record(_BOUNDARY))
        emit(_record(_LAYER, _int16(layer.gds_layer)))
        emit(_record(_DATATYPE, _int16(layer.datatype)))
        coords: List[int] = []
        for x, y in loop:
            coords.extend((x, y))
        coords.extend(loop[0])  # GDSII repeats the first vertex
        emit(_record(_XY, _int32(*coords)))
        emit(_record(_ENDEL))

    def _write_strans(self, transform: Transform, emit) -> None:
        if transform.mirror_x or transform.rotation % 4 or transform.magnification != 1:
            flags = _REFLECTION_FLAG if transform.mirror_x else 0
            emit(_record(_STRANS, struct.pack(">H", flags)))
            if transform.magnification != 1:
                emit(_record(_MAG, pack_real8(float(transform.magnification))))
            if transform.rotation % 4:
                emit(_record(_ANGLE, pack_real8(90.0 * (transform.rotation % 4))))

    def _write_sref(self, ref: CellRef, emit) -> None:
        emit(_record(_SREF))
        emit(_record(_SNAME, _ascii(ref.cell.name)))
        self._write_strans(ref.transform, emit)
        emit(_record(_XY, _int32(ref.transform.dx, ref.transform.dy)))
        emit(_record(_ENDEL))

    def _write_aref(self, ref: CellArray, emit) -> None:
        emit(_record(_AREF))
        emit(_record(_SNAME, _ascii(ref.cell.name)))
        self._write_strans(ref.transform, emit)
        emit(_record(_COLROW, _int16(ref.cols, ref.rows)))
        ox, oy = ref.transform.dx, ref.transform.dy
        emit(
            _record(
                _XY,
                _int32(
                    ox,
                    oy,
                    ox + ref.cols * ref.col_pitch,
                    oy,
                    ox,
                    oy + ref.rows * ref.row_pitch,
                ),
            )
        )
        emit(_record(_ENDEL))


def stream_size(
    library_name: str, cell_name: str, layer: Layer, loops: Sequence[Sequence[Coord]]
) -> int:
    """The length of the stream :class:`GDSWriter` writes for one cell of loops.

    The library ``library_name`` holds one cell ``cell_name`` whose only
    elements are ``loops``, each a BOUNDARY on ``layer``: what the writer
    makes of a cell holding a region with these loops.  The length comes
    from the loop and vertex counts, with no byte of the stream built:
    each loop takes 32 bytes plus 8 per vertex, inside a fixed frame of
    library and cell records.  Raises the :class:`GDSError` the writer
    raises, at the first loop it would: for a layer or datatype outside
    int16, a coordinate outside int32, or a loop of more than 8,190
    vertices, whose XY record would pass 0xFFFF bytes.
    """
    size = (
        _LIBRARY_BYTES + len(_record(_LIBNAME, _ascii(library_name)))
        + _CELL_BYTES + len(_record(_STRNAME, _ascii(cell_name)))
    )
    if not loops:
        return size
    _int16(layer.gds_layer, layer.datatype)  # LAYER and DATATYPE come before XY
    lengths = np.fromiter(map(len, loops), dtype=np.int64, count=len(loops))
    vertices = int(lengths.sum())
    coords = np.fromiter(
        chain.from_iterable(chain.from_iterable(loops)), dtype=np.int64, count=2 * vertices
    )
    if (
        lengths.max() > _MAX_BOUNDARY_VERTICES
        or coords.min() < -(1 << 31)
        or coords.max() >= 1 << 31
    ):
        # The writer's own records raise its error at the first bad loop.
        writer = GDSWriter()
        for loop in loops:
            writer._write_boundary(layer, loop, lambda data: None)
    return size + _BOUNDARY_BYTES * len(loops) + 8 * vertices


# -- reader ----------------------------------------------------------------------


class GDSReader:
    """Parses a GDSII stream back into a :class:`Library`."""

    def read(self, source: Union[str, Path, bytes, BinaryIO]) -> Library:
        """Parse ``source`` and return the reconstructed library.

        A :class:`GDSError` from a stream read from a path names the path.
        """
        if isinstance(source, (str, Path)):
            with open(source, "rb") as stream:
                data = stream.read()
            try:
                return self._parse(data)
            except GDSError as error:
                raise GDSError(f"{source}: {error}") from None
        if isinstance(source, bytes):
            return self._parse(source)
        return self._parse(source.read())

    def _parse(self, data: bytes) -> Library:
        """The library of ``data``.

        Records are parsed in file order, with each BOUNDARY's XY payload
        set aside; :func:`_boundary_loops` then decodes and checks them
        all at once, and each cell receives its loops and PATH regions
        layer by layer in file order.
        """
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
        # BOUNDARY XY payloads in file order, and each cell's elements in
        # file order: (layer, index into the payloads or a PATH's region).
        payloads: List[bytes] = []
        elements: List[Tuple[Cell, List[Tuple[Layer, Union[int, Region]]]]] = []

        while peek() == _BGNSTR:
            cursor += 1
            cell = Cell(_read_ascii(expect(_STRNAME)))
            shapes: List[Tuple[Layer, Union[int, Region]]] = []
            while peek() != _ENDSTR:
                kind = peek()
                if kind == _BOUNDARY:
                    cursor += 1
                    layer_num = struct.unpack(">h", expect(_LAYER))[0]
                    datatype = struct.unpack(">h", expect(_DATATYPE))[0]
                    xy = expect(_XY)
                    expect(_ENDEL)
                    if len(xy) % 8:
                        raise GDSError(
                            f"BOUNDARY XY record of {len(xy)} bytes is not whole points"
                        )
                    shapes.append((Layer(layer_num, datatype), len(payloads)))
                    payloads.append(xy)
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
                    shapes.append((Layer(layer_num, datatype), region))
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
            elements.append((cell, shapes))

        expect(_ENDLIB)

        loops = _boundary_loops(payloads)
        for cell, shapes in elements:
            by_layer: Dict[Layer, List[List[Coord]]] = {}
            for layer, shape in shapes:
                kept = by_layer.setdefault(layer, [])
                if isinstance(shape, Region):
                    kept.extend(shape.loops)
                elif loops[shape]:
                    kept.append(loops[shape])
            for layer, kept in by_layer.items():
                cell.add(layer, Region._from_loops(kept))

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

    def _read_placement(self, records, is_aref, expect, peek):
        mirror = False
        magnification = 1
        rotation = 0
        if peek() == _STRANS:
            flags = struct.unpack(">H", expect(_STRANS))[0]
            mirror = bool(flags & _REFLECTION_FLAG)
            if peek() == _MAG:
                mag = unpack_real8(expect(_MAG))
                magnification = int(round(mag))
                if abs(mag - magnification) > 1e-9 or magnification < 1:
                    raise GDSError(f"non-integer magnification {mag} unsupported")
            if peek() == _ANGLE:
                angle = unpack_real8(expect(_ANGLE))
                quarter, remainder = divmod(angle, 90.0)
                if abs(remainder) > 1e-9:
                    raise GDSError(f"non-90-degree angle {angle} unsupported")
                rotation = int(quarter) % 4
        colrow = None
        if is_aref:
            cols, rows = struct.unpack(">2h", expect(_COLROW))
            xy = struct.unpack(">6i", expect(_XY))
            ox, oy = xy[0], xy[1]
            if xy[3] != oy or xy[4] != ox:
                raise GDSError("only axis-aligned AREF lattices are supported")
            col_pitch = (xy[2] - ox) // cols
            row_pitch = (xy[5] - oy) // rows
            colrow = (cols, rows, col_pitch, row_pitch)
        else:
            xy = struct.unpack(">2i", expect(_XY))
            ox, oy = xy
        expect(_ENDEL)
        transform = Transform(
            dx=ox, dy=oy, rotation=rotation, mirror_x=mirror, magnification=magnification
        )
        return transform, colrow, (ox, oy)


# -- helpers -----------------------------------------------------------------------


def _iter_records(data: bytes) -> Iterator[Tuple[Tuple[int, int], bytes]]:
    offset = 0
    size = len(data)
    while offset < size:
        if offset + 4 > size:
            raise GDSError("truncated record header")
        length, rec_type, data_type = struct.unpack_from(">HBB", data, offset)
        if length < 4 or offset + length > size:
            raise GDSError(f"bad record length {length} at offset {offset}")
        yield (rec_type, data_type), data[offset + 4 : offset + length]
        offset += length


def _boundary_loops(payloads: Sequence[bytes]) -> List[List[Coord]]:
    """Each BOUNDARY XY payload as the loop :class:`Polygon` makes of it.

    One ``np.frombuffer`` decodes every payload.  A closing vertex equal
    to the first is dropped, and every edge of a loop of three or more
    points must be axis-parallel: the first that is not, in file order,
    raises :class:`GeometryError` as :class:`Polygon` does.  A loop of four
    or more points with no repeated vertex and no collinear one is kept as
    decoded; any other goes through :class:`Polygon`, which strips it, and
    an empty list stands for a loop left with no area.
    """
    counts = np.fromiter(map(len, payloads), dtype=np.int64, count=len(payloads)) // 8
    flat = np.frombuffer(b"".join(payloads), dtype=">i4").astype(np.int64)
    xs, ys = flat[0::2], flat[1::2]
    points = list(zip(xs.tolist(), ys.tolist()))
    stops = counts.cumsum()
    starts = stops - counts
    # Drop a closing vertex that equals the first.
    closed = np.zeros(len(counts), dtype=bool)
    some = counts > 0
    first, last = starts[some], stops[some] - 1
    closed[some] = (xs[first] == xs[last]) & (ys[first] == ys[last])
    keep = np.ones(len(points), dtype=bool)
    keep[stops[closed] - 1] = False
    x, y = xs[keep], ys[keep]
    lengths = counts - closed
    # Each vertex's successor, wrapping around at the end of its loop.
    ends = lengths.cumsum()
    succ = np.arange(1, len(x) + 1)
    succ[ends[lengths > 0] - 1] = (ends - lengths)[lengths > 0]
    dx, dy = x[succ] - x, y[succ] - y
    diagonal = (dx != 0) & (dy != 0) & np.repeat(lengths >= 3, lengths)
    if diagonal.any():
        i = int(np.argmax(diagonal))
        raise GeometryError(
            f"non-rectilinear edge ({x[i]},{y[i]})->({x[succ[i]]},{y[succ[i]]}); "
            "only Manhattan polygons are supported"
        )
    # A repeated vertex is a zero edge, a collinear one two parallel edges.
    horizontal = dy == 0
    degenerate = (horizontal & (dx == 0)) | (horizontal == horizontal[succ])
    loop = np.repeat(np.arange(len(lengths)), lengths)
    clean = (lengths >= 4) & (np.bincount(loop[degenerate], minlength=len(lengths)) == 0)
    loops: List[List[Coord]] = []
    for start, stop, length, ok in zip(
        starts.tolist(), stops.tolist(), lengths.tolist(), clean.tolist()
    ):
        if ok:
            loops.append(points[start : start + length])
        else:
            polygon = Polygon(points[start:stop])
            loops.append([] if polygon.is_empty else polygon.points)
    return loops


def _read_ascii(payload: bytes) -> str:
    return payload.rstrip(b"\x00").decode("ascii")


def _path_to_region(points, width: int, pathtype: int):
    """Convert a GDSII PATH centreline into boundary geometry.

    Only Manhattan paths are supported (consistent with the rest of the
    kernel).  Path type 0 ends flush; types 1 (round) and 2 (square) are
    both rendered as half-width square extensions -- the standard
    Manhattan approximation.
    """
    from ..geometry import Rect, Region

    if width <= 0:
        raise GDSError(f"PATH needs a positive width, got {width}")
    if len(points) < 2:
        raise GDSError("PATH needs at least two points")
    half = width // 2
    extend = half if pathtype in (1, 2) else 0
    rects = []
    for index, ((x1, y1), (x2, y2)) in enumerate(zip(points, points[1:])):
        if x1 != x2 and y1 != y2:
            raise GDSError(f"non-Manhattan PATH segment ({x1},{y1})->({x2},{y2})")
        first = index == 0
        last = index == len(points) - 2
        rects.append(_segment_rect((x1, y1), (x2, y2), half,
                                   extend if first else 0,
                                   extend if last else 0))
    for x, y in points[1:-1]:
        rects.append(Rect(x - half, y - half, x + half, y + half))
    return Region.from_rects(rects)


def _segment_rect(a, b, half: int, extend_start: int, extend_end: int):
    """The rect of one Manhattan path segment, with end extensions."""
    from ..geometry import Rect

    (x1, y1), (x2, y2) = a, b
    if y1 == y2:  # horizontal
        if x2 >= x1:
            return Rect(x1 - extend_start, y1 - half, x2 + extend_end, y1 + half)
        return Rect(x2 - extend_end, y1 - half, x1 + extend_start, y1 + half)
    if x2 >= x1 and y2 >= y1:  # vertical up
        return Rect(x1 - half, y1 - extend_start, x1 + half, y2 + extend_end)
    return Rect(x1 - half, y2 - extend_end, x1 + half, y1 + extend_start)


def _children_first(library: Library) -> Iterator[Cell]:
    """Cells ordered so every child precedes its parents."""
    emitted: Dict[str, bool] = {}

    def visit(cell: Cell) -> Iterator[Cell]:
        if emitted.get(cell.name):
            return
        emitted[cell.name] = True
        for child in cell.child_cells():
            yield from visit(child)
        yield cell

    for cell in library.cells:
        yield from visit(cell)


def write_gds(library: Library, path: Union[str, Path]) -> int:
    """Write ``library`` to ``path``; returns bytes written."""
    return GDSWriter().write(library, path)


def read_gds(path: Union[str, Path, bytes]) -> Library:
    """Read a GDSII stream from a path or byte string."""
    return GDSReader().read(path)
