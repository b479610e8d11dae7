"""GDSII codec edge cases: orientations, empty cells, exotic values."""

import struct

import pytest

from repro.errors import GDSError
from repro.geometry import Rect, Region, Transform
from repro.layout import GDSReader, GDSWriter, Layer, Library, POLY
from repro.layout.gds import pack_real8


def roundtrip(library):
    return GDSReader().read(GDSWriter().to_bytes(library))


class TestOrientations:
    @pytest.mark.parametrize("rotation", [0, 1, 2, 3])
    @pytest.mark.parametrize("mirror", [False, True])
    def test_all_eight_orientations(self, rotation, mirror):
        lib = Library("o")
        leaf = lib.new_cell("leaf")
        leaf.add(POLY, Rect(0, 0, 100, 50))
        top = lib.new_cell("top")
        transform = Transform(dx=777, dy=-333, rotation=rotation, mirror_x=mirror)
        top.place(leaf, transform)
        restored = roundtrip(lib)
        ref = restored["top"].references[0]
        assert ref.transform == transform
        original_flat = top.flat_region(POLY)
        assert (restored["top"].flat_region(POLY) ^ original_flat).is_empty

    def test_mirrored_array(self):
        lib = Library("a")
        leaf = lib.new_cell("leaf")
        leaf.add(POLY, Rect(0, 0, 100, 50))
        top = lib.new_cell("top")
        top.place_array(
            leaf, cols=2, rows=3, col_pitch=500, row_pitch=400,
            transform=Transform(dx=10, dy=20, mirror_x=True),
        )
        restored = roundtrip(lib)
        assert (
            restored["top"].flat_region(POLY) ^ top.flat_region(POLY)
        ).is_empty


class TestExoticContent:
    def test_empty_cell_roundtrips(self):
        lib = Library("e")
        lib.new_cell("empty")
        restored = roundtrip(lib)
        assert "empty" in restored
        assert not restored["empty"].layers

    def test_large_coordinates(self):
        lib = Library("big")
        cell = lib.new_cell("c")
        big = 10**9  # a 1-metre die, still within int32
        cell.add(POLY, Rect(-big, -big, big, big))
        restored = roundtrip(lib)
        assert restored["c"].region(POLY).bbox() == Rect(-big, -big, big, big)

    @pytest.mark.parametrize("coordinate", [2**31, -(2**31) - 1])
    def test_coordinate_outside_int32_is_a_gds_error(self, coordinate):
        lib = Library("big")
        cell = lib.new_cell("c")
        cell.add(POLY, Rect(min(0, coordinate), 0, max(0, coordinate), 100))
        with pytest.raises(GDSError, match=f"coordinate {coordinate} is outside"):
            GDSWriter().to_bytes(lib)
        edges = Rect(-(2**31), 0, 2**31 - 1, 100)  # the int32 limits still fit
        cell.set_region(POLY, Region(edges))
        assert roundtrip(lib)["c"].region(POLY).bbox() == edges

    def test_layer_outside_int16_is_a_gds_error(self):
        lib = Library("l")
        lib.new_cell("c").add(Layer(32768, 0), Rect(0, 0, 10, 10))
        with pytest.raises(GDSError, match="value 32768 is outside the GDSII int16 range"):
            GDSWriter().to_bytes(lib)

    def test_loop_past_8190_vertices_is_too_long(self):
        def staircase(steps):
            points = [(0, 0), (steps * 10, 0)]
            for i in range(steps):
                points += [((steps - i) * 10, (i + 1) * 10), ((steps - i - 1) * 10, (i + 1) * 10)]
            return points

        lib = Library("s")
        lib.new_cell("c").add(POLY, staircase(4094))  # 8,190 vertices
        assert roundtrip(lib)["c"].region(POLY).num_vertices == 8190
        lib["c"].add(POLY, staircase(4095))  # 8,192 vertices
        with pytest.raises(GDSError, match="record too long"):
            GDSWriter().to_bytes(lib)

    def test_many_layers(self):
        from repro.layout import Layer

        lib = Library("m")
        cell = lib.new_cell("c")
        for n in range(1, 30):
            cell.add(Layer(n, n % 4), Rect(0, n * 100, 50, n * 100 + 50))
        restored = roundtrip(lib)
        assert len(restored["c"].layers) == 29

    def test_odd_length_names_padded(self):
        lib = Library("odd")
        lib.new_cell("abc")  # 3 chars -> needs NUL padding
        restored = roundtrip(lib)
        assert "abc" in restored

    def test_deep_hierarchy(self):
        lib = Library("deep")
        previous = lib.new_cell("leaf")
        previous.add(POLY, Rect(0, 0, 10, 10))
        for depth in range(10):
            parent = lib.new_cell(f"level{depth}")
            parent.place_at(previous, 100, 0)
            previous = parent
        restored = roundtrip(lib)
        flat = restored["level9"].flat_region(POLY)
        assert flat.bbox() == Rect(1000, 0, 1010, 10)


class TestReaderRejections:
    def make_sref_stream(self, angle_deg=None, mag=None):
        """Hand-build a stream with an SREF carrying arbitrary ANGLE/MAG."""
        lib = Library("h")
        leaf = lib.new_cell("leaf")
        leaf.add(POLY, Rect(0, 0, 10, 10))
        top = lib.new_cell("top")
        top.place_at(leaf, 0, 0)
        data = GDSWriter().to_bytes(lib)
        # Splice STRANS/ANGLE records in front of the SREF's XY record.
        xy_record = struct.pack(">HBB2i", 12, 0x10, 0x03, 0, 0)
        idx = data.index(xy_record, data.index(b"\x12\x06"))  # after SNAME
        extra = struct.pack(">HBBH", 6, 0x1A, 0x01, 0)
        if mag is not None:
            extra += struct.pack(">HBB", 12, 0x1B, 0x05) + pack_real8(mag)
        if angle_deg is not None:
            extra += struct.pack(">HBB", 12, 0x1C, 0x05) + pack_real8(angle_deg)
        return data[:idx] + extra + data[idx:]

    def test_non_90_angle_rejected(self):
        with pytest.raises(GDSError):
            GDSReader().read(self.make_sref_stream(angle_deg=45.0))

    def test_fractional_mag_rejected(self):
        with pytest.raises(GDSError):
            GDSReader().read(self.make_sref_stream(mag=1.5))

    def test_integer_mag_accepted(self):
        lib = GDSReader().read(self.make_sref_stream(mag=2.0, angle_deg=90.0))
        ref = lib["top"].references[0]
        assert ref.transform.magnification == 2
        assert ref.transform.rotation == 1

    def test_unknown_element_rejected(self):
        lib = Library("u")
        lib.new_cell("c")
        data = GDSWriter().to_bytes(lib)
        # Inject a PATH element (0x09) into the structure body.
        endstr = struct.pack(">HBB", 4, 0x07, 0x00)
        idx = data.index(endstr)
        path_record = struct.pack(">HBB", 4, 0x09, 0x00)
        with pytest.raises(GDSError):
            GDSReader().read(data[:idx] + path_record + data[idx:])
