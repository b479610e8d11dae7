"""Bias rule tables for rule-based OPC.

A rule table maps the local (width, space) environment of an edge to a
fixed mask bias, the technology that carried the industry through the
early OPC-adoption years: measured proximity curves were binned into
look-up tables applied per edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import OPCError

if TYPE_CHECKING:  # pragma: no cover
    from ..litho import LithoSimulator

#: Spaces at least this large are treated as isolated.
ISOLATED = 10**9


@dataclass(frozen=True)
class BiasRule:
    """One bin of a bias table: applies when ``space < space_below_nm``."""

    space_below_nm: int
    bias_nm: int


class BiasTable:
    """Per-edge bias as a monotone binning over the facing space.

    Rules are sorted by ``space_below_nm``; an edge with measured space ``s``
    receives the bias of the first rule with ``s < space_below_nm``.  Edges
    facing nothing (isolated) match the last rule when its bound is
    :data:`ISOLATED`.  Bounds and biases are whole dbu.
    """

    def __init__(self, rules: Sequence[BiasRule]):
        if not rules:
            raise OPCError("bias table needs at least one rule")
        for rule in rules:
            if not all(
                isinstance(v, (int, np.integer)) for v in (rule.space_below_nm, rule.bias_nm)
            ):
                raise OPCError(f"bias table bounds and biases must be whole dbu, got {rule}")
        ordered = sorted(rules, key=lambda r: r.space_below_nm)
        bounds = [r.space_below_nm for r in ordered]
        if len(set(bounds)) != len(bounds):
            raise OPCError("bias table bins must have distinct bounds")
        self.rules: Tuple[BiasRule, ...] = tuple(ordered)
        self._bounds = np.array(bounds, dtype=np.int64)
        self._biases = np.array([r.bias_nm for r in ordered], dtype=np.int64)

    def biases_for(self, spaces: np.ndarray) -> np.ndarray:
        """The bias of the bin containing each space, as an int64 array.

        A negative space (such as :attr:`~repro.geometry.EdgeIndex.NO_HIT`)
        marks an isolated edge.  One ``searchsorted`` over the bin bounds.
        """
        spaces = np.asarray(spaces, dtype=np.int64)
        effective = np.where(spaces < 0, ISOLATED - 1, spaces)
        index = np.searchsorted(self._bounds, effective, side="right")
        return self._biases[np.minimum(index, len(self._biases) - 1)]

    def bias_for(self, space: Optional[int]) -> int:
        """The bias of the bin containing ``space`` (``None`` = isolated)."""
        return int(self.biases_for(np.array([-1 if space is None else space]))[0])

    def __len__(self) -> int:
        return len(self.rules)


def default_bias_table_180nm() -> BiasTable:
    """A classic 180 nm-node proximity bias table.

    Shape (not calibrated numbers): dense edges, where the process is
    anchored, get no bias; the bias grows monotonically through the
    semi-dense "forbidden pitch" territory toward the isolated limit.
    """
    return BiasTable(
        [
            BiasRule(space_below_nm=320, bias_nm=0),
            BiasRule(space_below_nm=480, bias_nm=4),
            BiasRule(space_below_nm=700, bias_nm=8),
            BiasRule(space_below_nm=1100, bias_nm=12),
            BiasRule(space_below_nm=ISOLATED, bias_nm=16),
        ]
    )


def calibrate_bias_table(
    simulator: "LithoSimulator",
    line_width_nm: int,
    spaces_nm: Sequence[int],
    dose: float = 1.0,
    iso_space_nm: int = 4000,
) -> BiasTable:
    """Build a bias table from simulated proximity data.

    The production workflow of the era: print a through-pitch test pattern,
    measure the CD at each space, and tabulate the per-edge bias that would
    restore the drawn CD (half the CD error, assuming locally linear
    response with slope ~1 per mask-edge nm).  ``spaces_nm`` are the bin
    sample points; bin bounds land midway between consecutive samples.  An
    additional isolated bin is calibrated at ``iso_space_nm``.
    """
    from ..geometry import Rect, Region
    from ..litho import binary_mask

    if line_width_nm <= 0:
        raise OPCError(f"line width must be positive, got {line_width_nm}")
    samples = sorted(set(int(s) for s in spaces_nm))
    if not samples:
        raise OPCError("need at least one space sample")

    def printed_cd(space: int) -> Optional[float]:
        pitch = line_width_nm + space
        lines = Region.from_rects(
            [Rect(k * pitch, -1500, k * pitch + line_width_nm, 1500)
             for k in range(-3, 4)]
        )
        window = Rect(-pitch, -400, pitch + line_width_nm, 400)
        return simulator.cd(
            binary_mask(lines), window, (line_width_nm // 2, 0), dose=dose
        )

    rules: List[BiasRule] = []
    all_samples = samples + [iso_space_nm]
    for k, space in enumerate(all_samples):
        cd = printed_cd(space)
        bias = 0 if cd is None else int(round((line_width_nm - cd) / 2.0))
        if k < len(samples):
            upper = (
                (samples[k] + samples[k + 1]) // 2
                if k + 1 < len(samples)
                else (samples[k] + iso_space_nm) // 2
            )
        else:
            upper = ISOLATED
        rules.append(BiasRule(space_below_nm=upper, bias_nm=bias))
    return BiasTable(rules)
