"""Integer lattice points and vectors.

Layout geometry lives on an integer grid (1 dbu = 1 nm).  ``Point`` is an
immutable value type supporting the small amount of vector arithmetic the
rest of the geometry kernel needs.  Hot loops inside the boolean engine use
plain ``(x, y)`` tuples for speed; ``Point`` is the user-facing type.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

Coord = Tuple[int, int]


class Point(NamedTuple):
    """An immutable integer point / vector in dbu."""

    x: int
    y: int

    def __add__(self, other: "Point | Coord") -> "Point":  # type: ignore[override]
        ox, oy = other
        return Point(self.x + ox, self.y + oy)

    def __sub__(self, other: "Point | Coord") -> "Point":
        ox, oy = other
        return Point(self.x - ox, self.y - oy)

    def __neg__(self) -> "Point":
        return Point(-self.x, -self.y)

    def __mul__(self, scale: int) -> "Point":  # type: ignore[override]
        return Point(self.x * scale, self.y * scale)

    __rmul__ = __mul__  # type: ignore[assignment]

    def cross(self, other: "Point | Coord") -> int:
        """Z component of the 2D cross product ``self x other``."""
        ox, oy = other
        return self.x * oy - self.y * ox

    def dot(self, other: "Point | Coord") -> int:
        """Dot product with another point/vector."""
        ox, oy = other
        return self.x * ox + self.y * oy

    def manhattan(self, other: "Point | Coord" = (0, 0)) -> int:
        """Manhattan (L1) distance to ``other`` (default: the origin)."""
        ox, oy = other
        return abs(self.x - ox) + abs(self.y - oy)

    def rotated90(self, quarter_turns: int = 1) -> "Point":
        """Rotate counter-clockwise about the origin by 90-degree steps."""
        x, y = self.x, self.y
        for _ in range(quarter_turns % 4):
            x, y = -y, x
        return Point(x, y)


def as_coord(point: "Point | Coord") -> Coord:
    """Normalise a point-like value to a plain ``(x, y)`` integer tuple."""
    x, y = point
    return (int(x), int(y))
