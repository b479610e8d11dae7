"""Parametric standard-cell layout generation.

Cells follow the classic two-row CMOS template: NMOS strip above the VSS
rail, PMOS strip below the VDD rail, vertical poly gates crossing both,
input poly pads in the mid-cell gap, source contacts strapped to the
rails and drain contacts joined by an output strap.  The electrical
netlist is schematic-level plausible; what the experiments consume is the
realistic *geometry*: gate pitch, line ends, contact lattices, bends.

All dimensions derive from a :class:`~repro.design.rules.DesignRules`, so
the same generator emits 250/180/130 nm libraries.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DesignError
from ..geometry import Rect
from ..layout import (
    ACTIVE,
    BOUNDARY,
    CONTACT,
    Cell,
    Library,
    METAL1,
    NIMPLANT,
    NWELL,
    PIMPLANT,
    POLY,
)
from .primitives import transistor_stack
from .rules import DesignRules


@dataclass(frozen=True)
class CellSpec:
    """Template parameters of one logic cell."""

    name: str
    gates: int


#: The library contents: name -> gate count of the cell template.
STANDARD_CELLS = (
    CellSpec("INV", 1),
    CellSpec("BUF", 2),
    CellSpec("NAND2", 2),
    CellSpec("NOR2", 2),
    CellSpec("AOI21", 3),
    CellSpec("OAI22", 4),
    CellSpec("DFF", 8),
)


class StdCellGenerator:
    """Builds the standard-cell library for one rule set."""

    def __init__(self, rules: DesignRules):
        self.rules = rules
        r = rules
        self.nmos_width = 4 * r.active_width
        self.pmos_width = 5 * r.active_width
        self.mid_gap = 5 * r.contact_size
        self.edge_margin = r.poly_space // 2 + r.poly_width // 2
        self.nmos_y0 = r.rail_width + r.metal1_space + r.active_space // 2
        self.pmos_y0 = self.nmos_y0 + self.nmos_width + self.mid_gap

    @property
    def cell_height(self) -> int:
        """Uniform height of every generated cell."""
        r = self.rules
        return (
            self.pmos_y0
            + self.pmos_width
            + r.active_space // 2
            + r.metal1_space
            + r.rail_width
        )

    def cell_width(self, gates: int) -> int:
        """Width of a cell with ``gates`` poly fingers."""
        r = self.rules
        body = 2 * r.active_extension + gates * r.poly_pitch - (
            r.poly_pitch - r.poly_width
        )
        return body + 2 * self.edge_margin

    def make_cell(self, spec: CellSpec) -> Cell:
        """Generate one cell from its template spec."""
        if spec.gates < 1:
            raise DesignError(f"cell {spec.name!r} needs at least one gate")
        r = self.rules
        cell = Cell(spec.name)
        width = self.cell_width(spec.gates)
        height = self.cell_height
        cell.add(BOUNDARY, Rect(0, 0, width, height))

        # Power rails, labelled so net extraction names them.
        cell.add(METAL1, Rect(0, 0, width, r.rail_width))
        cell.add(METAL1, Rect(0, height - r.rail_width, width, height))
        cell.add_label(METAL1, "VSS", (width // 2, r.rail_width // 2))
        cell.add_label(METAL1, "VDD", (width // 2, height - r.rail_width // 2))

        # Device strips.
        x0 = self.edge_margin
        nmos_active, nmos_gates, nmos_contacts = transistor_stack(
            r, (x0, self.nmos_y0), spec.gates, self.nmos_width
        )
        pmos_active, pmos_gates, pmos_contacts = transistor_stack(
            r, (x0, self.pmos_y0), spec.gates, self.pmos_width
        )
        cell.add(ACTIVE, nmos_active)
        cell.add(ACTIVE, pmos_active)
        cell.add(NIMPLANT, nmos_active.expanded(r.active_space // 2))
        cell.add(PIMPLANT, pmos_active.expanded(r.active_space // 2))
        # Nwell spans the full cell width (abutting cells share one well).
        cell.add(
            NWELL, Rect(0, self.pmos_y0 - r.nwell_overlap_of_active, width, height)
        )

        # Gates: one continuous poly finger spanning both devices, with an
        # input landing pad in the mid-cell gap on alternating sides of the
        # finger.  The pad is poly-only (route-to-poly pin style): an m1
        # landing here would short the input to the neighbouring drain
        # strap at this gate pitch.
        pad = r.contact_size + 2 * r.poly_enclosure_of_contact
        for k, (ng, pg) in enumerate(zip(nmos_gates, pmos_gates)):
            cell.add(POLY, Rect(ng.x1, ng.y1, ng.x2, pg.y2))
            pad_y = self.nmos_y0 + self.nmos_width + r.gate_extension + (
                0 if k % 2 == 0 else pad
            )
            pad_x1 = ng.x1 + r.poly_width // 2 - pad // 2
            cell.add(POLY, Rect(pad_x1, pad_y, pad_x1 + pad, pad_y + pad))

        # Source/drain contacts and metal1 straps.  Columns alternate
        # source (strapped to the rail) and drain (strapped to the
        # opposite device's drain as the output).
        for idx, (nc, pc) in enumerate(zip(nmos_contacts, pmos_contacts)):
            for center, is_pmos in ((nc, False), (pc, True)):
                cut = Rect.from_center(center, r.contact_size, r.contact_size)
                cell.add(CONTACT, cut)
                pad_m1 = cut.expanded(r.metal1_enclosure_of_contact)
                cell.add(METAL1, pad_m1)
                if idx % 2 == 0:  # source column: strap to the rail
                    if is_pmos:
                        cell.add(
                            METAL1,
                            Rect(pad_m1.x1, pad_m1.y1, pad_m1.x2, height - r.rail_width),
                        )
                    else:
                        cell.add(METAL1, Rect(pad_m1.x1, r.rail_width, pad_m1.x2, pad_m1.y2))
            if idx % 2 == 1:  # drain column: vertical output strap
                ncut = Rect.from_center(nc, r.contact_size, r.contact_size)
                pcut = Rect.from_center(pc, r.contact_size, r.contact_size)
                strap_x1 = ncut.x1 - r.metal1_enclosure_of_contact
                strap_x2 = ncut.x2 + r.metal1_enclosure_of_contact
                cell.add(METAL1, Rect(strap_x1, ncut.y1, strap_x2, pcut.y2))
        return cell

    def library(self, name: str = "stdcells") -> Library:
        """The full standard-cell library for this rule set."""
        lib = Library(f"{name}_{self.rules.name}")
        for spec in STANDARD_CELLS:
            lib.add(self.make_cell(spec))
        return lib
