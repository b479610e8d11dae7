"""Layout cells: per-layer geometry, text labels, and child references.

A :class:`Cell` stores raw loops per layer (merging is deferred -- layout
construction should be cheap), text labels (pin/net names), and a list of
child references.  Geometry can be added as
:class:`~repro.geometry.rect.Rect`, Polygon, Region or bare vertex loops.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from ..errors import LayoutError
from ..geometry import Coord, Rect, Region, Transform
from ..geometry.rect import bounding_box
from .layer import Layer
from .reference import CellArray, CellRef, Reference


class Label(NamedTuple):
    """A text annotation pinned to a layout location (a pin/net name)."""

    layer: Layer
    text: str
    position: Coord


class Cell:
    """A named layout cell with per-layer shapes and child references."""

    def __init__(self, name: str):
        if not name:
            raise LayoutError("cell name must be non-empty")
        self.name = name
        self._shapes: Dict[Layer, Region] = {}
        self.references: List[Reference] = []
        self.labels: List[Label] = []

    def __repr__(self) -> str:
        return (
            f"Cell({self.name!r}, layers={len(self._shapes)}, "
            f"refs={len(self.references)})"
        )

    # -- geometry ---------------------------------------------------------------

    def add(self, layer: Layer, shape) -> "Cell":
        """Add a shape (Rect, Polygon, Region or vertex loop) on ``layer``."""
        region = self._shapes.get(layer)
        if region is None:
            region = self._shapes[layer] = Region()
        region._add(shape)
        return self

    def set_region(self, layer: Layer, region: Region) -> "Cell":
        """Replace the geometry of ``layer`` wholesale."""
        self._shapes[layer] = Region(region)
        return self

    def region(self, layer: Layer) -> Region:
        """The raw region on ``layer`` (empty region when absent)."""
        return self._shapes.get(layer, Region())

    def add_label(self, layer: Layer, text: str, position: Coord) -> "Cell":
        """Attach a text label (pin/net name) at ``position`` on ``layer``."""
        if not text:
            raise LayoutError("label text must be non-empty")
        self.labels.append(Label(layer, text, (int(position[0]), int(position[1]))))
        return self

    def flat_labels(self, transform: Transform = Transform()) -> List[Label]:
        """All labels, hierarchy expanded into this cell's frame."""
        result = [
            Label(lbl.layer, lbl.text, transform.apply(lbl.position))
            for lbl in self.labels
        ]
        for ref in self.references:
            for place in ref.placements():
                result.extend(ref.cell.flat_labels(place.then(transform)))
        return result

    @property
    def layers(self) -> List[Layer]:
        """Layers with any geometry, in insertion order."""
        return [layer for layer, region in self._shapes.items() if region.num_loops]

    # -- hierarchy --------------------------------------------------------------

    def place(self, cell: "Cell", transform: Transform = Transform()) -> CellRef:
        """Place ``cell`` once under ``transform``; returns the reference."""
        ref = CellRef(cell, transform.validated())
        self.references.append(ref)
        return ref

    def place_at(self, cell: "Cell", x: int, y: int, rotation: int = 0,
                 mirror_x: bool = False) -> CellRef:
        """Convenience placement by position and orientation."""
        return self.place(cell, Transform(dx=x, dy=y, rotation=rotation,
                                          mirror_x=mirror_x))

    def place_array(
        self,
        cell: "Cell",
        cols: int,
        rows: int,
        col_pitch: int,
        row_pitch: int,
        transform: Transform = Transform(),
    ) -> CellArray:
        """Place a rectangular array of ``cell``; returns the reference."""
        ref = CellArray(cell, cols, rows, col_pitch, row_pitch, transform.validated())
        self.references.append(ref)
        return ref

    def child_cells(self) -> List["Cell"]:
        """Distinct directly-referenced child cells."""
        seen: Dict[str, Cell] = {}
        for ref in self.references:
            seen.setdefault(ref.cell.name, ref.cell)
        return list(seen.values())

    # -- queries ---------------------------------------------------------------

    def bbox(self, recursive: bool = True) -> Optional[Rect]:
        """Bounding box of own shapes, optionally including children."""
        boxes = [r.bbox() for r in self._shapes.values()]
        boxes = [b for b in boxes if b is not None]
        if recursive:
            for ref in self.references:
                child_box = ref.cell.bbox(recursive=True)
                if child_box is None:
                    continue
                for trans in ref.placements():
                    boxes.append(trans.apply_rect(child_box))
        return bounding_box(boxes)

    def flat_region(self, layer: Layer, transform: Transform = Transform()) -> Region:
        """All geometry on ``layer``, hierarchy expanded, as one raw region.

        ``transform`` maps the result into an enclosing frame; callers
        normally omit it.
        """
        result = Region()
        own = self._shapes.get(layer)
        if own is not None and own.num_loops:
            result._add(own if transform.is_identity else own.transformed(transform))
        for ref in self.references:
            for place in ref.placements():
                result._add(ref.cell.flat_region(layer, place.then(transform)))
        return result

    def flattened(self, name: Optional[str] = None) -> "Cell":
        """A new reference-free cell with all hierarchy expanded."""
        flat = Cell(name or f"{self.name}_flat")
        for layer in self._collect_layers():
            region = self.flat_region(layer)
            if region.num_loops:
                flat.set_region(layer, region)
        return flat

    def _collect_layers(self) -> List[Layer]:
        layers: Dict[Layer, None] = {}
        stack = [self]
        visited = set()
        while stack:
            cell = stack.pop()
            if id(cell) in visited:
                continue
            visited.add(id(cell))
            for layer in cell.layers:
                layers.setdefault(layer)
            stack.extend(cell.child_cells())
        return list(layers)
