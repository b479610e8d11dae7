"""Printed-image analysis: contour regions, edge placement, CD cutlines.

Three measurement styles, in increasing precision:

* :func:`printed_region` converts a boolean develop map into an exact
  pixel-aligned :class:`~repro.geometry.region.Region` (for boolean-based
  ORC checks such as pinching and bridging);
* :func:`edge_offset` finds the sub-pixel threshold crossing along a ray
  (the EPE primitive used by model-based OPC);
* :func:`cutline_cd` measures a feature's printed CD across a cutline with
  sub-pixel interpolation.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import LithoError
from ..geometry import Region
from .raster import Grid

#: ``(anchor, outward normal)`` probe sites: a sequence of pairs, or an
#: ``(n, 2, 2)`` array of them.
Sites = Union[Sequence[Tuple[Tuple[float, float], Tuple[float, float]]], np.ndarray]


def printed_region(develop: np.ndarray, grid: Grid) -> Region:
    """The boolean develop map as an exact pixel-aligned region.

    Pixel corners land on the nearest dbu (half to even, as ``round``);
    runs of set pixels along each row become rects, which one sweep merges
    into a canonical region.
    """
    if develop.shape != grid.shape:
        raise LithoError(f"map shape {develop.shape} != grid shape {grid.shape}")
    padded = np.zeros((grid.ny, grid.nx + 2), dtype=np.int8)
    padded[:, 1:-1] = develop
    delta = np.diff(padded, axis=1)
    # Row-major order pairs each row's run starts with its stops.
    rows, starts = np.nonzero(delta == 1)
    stops = np.nonzero(delta == -1)[1]
    p = grid.pixel_nm
    rects = np.stack(
        [
            grid.x0 + starts * p,
            grid.y0 + rows * p,
            grid.x0 + stops * p,
            grid.y0 + (rows + 1) * p,
        ],
        axis=1,
    )
    return Region.from_rect_array(np.rint(rects).astype(np.int64))


def edge_offset(
    image: np.ndarray,
    grid: Grid,
    anchor: Tuple[float, float],
    direction: Tuple[float, float],
    threshold: float,
    search_nm: float = 80.0,
    step_nm: float = 1.0,
) -> Optional[float]:
    """Signed distance from ``anchor`` to the nearest threshold crossing.

    The image is sampled along ``anchor + t * direction`` for
    ``t in [-search_nm, +search_nm]``; the crossing nearest ``t = 0`` is
    located with linear interpolation.  Returns ``None`` when the image
    never crosses the threshold inside the search span.

    With ``direction`` an edge's outward normal, the return value is the
    edge-placement error: positive when the printed edge lies outside the
    target edge.
    """
    offset, _state = edge_offset_state(
        image, grid, anchor, direction, threshold, search_nm, step_nm
    )
    return offset


def edge_offset_state(
    image: np.ndarray,
    grid: Grid,
    anchor: Tuple[float, float],
    direction: Tuple[float, float],
    threshold: float,
    search_nm: float = 80.0,
    step_nm: float = 1.0,
) -> Tuple[Optional[float], str]:
    """Like :func:`edge_offset`, but also reports *why* when nothing crosses.

    The second element is ``"found"`` when a crossing exists, ``"dark"``
    when every sample sits below threshold (for positive resist: resist
    everywhere -- a bridged space), or ``"bright"`` when every sample sits
    above (the feature vanished).
    """
    offsets = _probe_offsets(search_nm, step_nm, "search_nm")
    dx, dy = direction
    norm = float(np.hypot(dx, dy))
    if norm == 0:
        raise LithoError("direction must be non-zero")
    dx, dy = dx / norm, dy / norm
    points = [(anchor[0] + t * dx, anchor[1] + t * dy) for t in offsets]
    samples = grid.sample(image, points)
    above = samples >= threshold
    crossings = np.flatnonzero(above[1:] != above[:-1])
    if len(crossings) == 0:
        return None, ("bright" if above.all() else "dark")
    best: Optional[float] = None
    for idx in crossings:
        lo, hi = samples[idx], samples[idx + 1]
        frac = (threshold - lo) / (hi - lo)
        t = offsets[idx] + frac * step_nm
        if best is None or abs(t) < abs(best):
            best = float(t)
    return best, "found"


def edge_offsets_batch(
    image: np.ndarray,
    grid: Grid,
    sites: Sites,
    threshold: float,
    search_nm: float = 80.0,
    step_nm: float = 1.0,
) -> List[Tuple[Optional[float], str]]:
    """Vectorized :func:`edge_offset_state` over many ``(anchor, normal)`` sites.

    One :meth:`Grid.sample` gather evaluates every probe point of every
    site at once -- the hot loop of model-based OPC, where a tile carries
    hundreds of control sites per iteration.  ``sites`` is read as one
    ``(n, 2, 2)`` float array, however it is given.  The arithmetic is
    the same IEEE operations per element as the scalar path, in the same
    order, so the results are byte-identical to calling
    :func:`edge_offset_state` per site (the parity tests assert this).
    """
    offsets = _probe_offsets(search_nm, step_nm, "search_nm")
    if len(sites) == 0:
        return []
    pairs = np.asarray(sites, dtype=float).reshape(-1, 2, 2)
    anchors, normals = pairs[:, 0], pairs[:, 1]
    norms = np.hypot(normals[:, 0], normals[:, 1])
    if np.any(norms == 0):
        raise LithoError("direction must be non-zero")
    dx = normals[:, 0] / norms
    dy = normals[:, 1] / norms
    # (n_sites, n_steps) probe coordinates, flattened into one gather.
    px = anchors[:, 0, np.newaxis] + offsets[np.newaxis, :] * dx[:, np.newaxis]
    py = anchors[:, 1, np.newaxis] + offsets[np.newaxis, :] * dy[:, np.newaxis]
    points = np.stack([px.ravel(), py.ravel()], axis=1)
    samples = grid.sample(image, points).reshape(len(sites), len(offsets))
    above = samples >= threshold
    flips = above[:, 1:] != above[:, :-1]
    found = flips.any(axis=1)
    states = np.where(found, "found", np.where(above.all(axis=1), "bright", "dark"))
    if not found.any():
        return [(None, state) for state in states.tolist()]
    # Every step's crossing, as the scalar path computes it at a flip.
    lo, hi = samples[:, :-1], samples[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = offsets[:-1] + (threshold - lo) / (hi - lo) * step_nm
    # argmin keeps the first minimal |t|, matching the scalar loop's
    # strict-< comparison; steps that do not cross never win.
    nearest = np.argmin(np.where(flips, np.abs(t), np.inf), axis=1)
    values = t[np.arange(len(t)), nearest].tolist()
    return [
        (value if ok else None, state)
        for value, ok, state in zip(values, found.tolist(), states.tolist())
    ]


def cutline_cd(
    image: np.ndarray,
    grid: Grid,
    center: Tuple[float, float],
    axis: str,
    threshold: float,
    bright_feature: bool = False,
    max_width_nm: float = 1000.0,
    step_nm: float = 1.0,
) -> Optional[float]:
    """The printed CD of the feature crossing ``center``, along ``axis``.

    Dark features (chrome lines in positive resist) are the region below
    threshold; bright features (contact holes) the region above.  Returns
    the sub-pixel distance between the two crossings bracketing ``center``,
    or ``None`` when the feature does not resolve at all.
    """
    if axis not in ("x", "y"):
        raise LithoError(f"axis must be 'x' or 'y', got {axis!r}")
    direction = (1.0, 0.0) if axis == "x" else (0.0, 1.0)
    offsets = _probe_offsets(max_width_nm, step_nm, "max_width_nm", scale=0.5)
    points = [
        (center[0] + t * direction[0], center[1] + t * direction[1]) for t in offsets
    ]
    samples = grid.sample(image, points)
    inside = samples >= threshold if bright_feature else samples < threshold
    mid = len(offsets) // 2
    if not inside[mid]:
        return None
    lo = mid
    while lo > 0 and inside[lo - 1]:
        lo -= 1
    hi = mid
    while hi < len(offsets) - 1 and inside[hi + 1]:
        hi += 1
    if lo == 0 or hi == len(offsets) - 1:
        return None  # feature extends past the cutline: not measurable
    left = _interp_crossing(offsets, samples, lo - 1, threshold)
    right = _interp_crossing(offsets, samples, hi, threshold)
    return right - left


def _probe_offsets(
    span_nm: float, step_nm: float, name: str, scale: float = 1.0
) -> np.ndarray:
    """Probe offsets ``-h .. +h`` every ``step_nm``, ``h = scale * span_nm``.

    ``span_nm`` (named ``name`` in the error) must be finite and at least
    0, and ``step_nm`` finite and positive; anything else raises
    :class:`LithoError` rather than probing an empty or endless span.
    """
    if not (math.isfinite(span_nm) and span_nm >= 0):
        raise LithoError(f"{name} must be finite and >= 0, got {span_nm}")
    if not (math.isfinite(step_nm) and step_nm > 0):
        raise LithoError(f"step_nm must be finite and positive, got {step_nm}")
    half = span_nm * scale
    return np.arange(-half, half + step_nm / 2, step_nm)


def _interp_crossing(
    offsets: np.ndarray, samples: np.ndarray, idx: int, threshold: float
) -> float:
    lo, hi = samples[idx], samples[idx + 1]
    if hi == lo:
        return float(offsets[idx])
    frac = (threshold - lo) / (hi - lo)
    frac = min(max(float(frac), 0.0), 1.0)
    return float(offsets[idx] + frac * (offsets[idx + 1] - offsets[idx]))
