"""EPE sites against the retired per-fragment site loop.

``epe_sites_tagged`` and ``measure_epe_sites`` read the columns of the
``FragmentLoops`` that ``fragment_region`` returns: the window test,
the corner filter, the anchors, normals, tags, loop indices and
fragment-in-loop indices are array passes, and each ``EPESite`` is built
once with its measured value and state.  The retired loops live on here,
verbatim, on the retired fragmenter's lists: they must give the same
sites in the same order, with the same tags, loop and fragment indices,
values and states, for any window (edges on site anchors included), with
and without corners, and on images where sites are found, dark and
bright.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.ndimage import gaussian_filter

from repro.errors import VerificationError
from repro.geometry import FragmentationSpec, FragmentTag, Rect, Region
from repro.litho import (
    Grid,
    LithoConfig,
    LithoSimulator,
    MaskSpec,
    binary_mask,
    edge_offsets_batch,
    krf_annular,
    rasterize,
)
from repro.verify import EPESite, EPEStats, measure_epe_sites
from repro.verify.epe import DEFAULT_EPE_FRAGMENTATION, Site, epe_sites_tagged

from ..geometry.test_fragment_oracle import retired_fragment_region

SEEDED = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SIMULATOR = LithoSimulator(LithoConfig(optics=krf_annular(), pixel_nm=8.0, ambit_nm=600))

_CORNER_TAGS = (FragmentTag.CORNER_CONVEX, FragmentTag.CORNER_CONCAVE)


# -- the retired site loops, verbatim ----------------------------------------------------


def retired_epe_sites_tagged(
    target: Region,
    window: Optional[Rect] = None,
    spec: FragmentationSpec = DEFAULT_EPE_FRAGMENTATION,
) -> List[Tuple[Site, FragmentTag]]:
    sites: List[Tuple[Site, FragmentTag]] = []
    for fragments in retired_fragment_region(target, spec):
        for fragment in fragments:
            anchor = fragment.control_point()
            if window is not None and not window.contains(anchor):
                continue
            sites.append(((anchor, fragment.normal), fragment.tag))
    return sites


def retired_measure_epe_sites(
    simulator: LithoSimulator,
    mask: MaskSpec,
    target: Region,
    window: Rect,
    dose: float = 1.0,
    defocus_nm: float = 0.0,
    spec: FragmentationSpec = DEFAULT_EPE_FRAGMENTATION,
    search_nm: float = 80.0,
    include_corners: bool = True,
    *,
    latent: Optional[Tuple[Grid, np.ndarray]] = None,
) -> Tuple[EPEStats, List[EPESite]]:
    sites: List[EPESite] = []
    for loop_index, fragments in enumerate(retired_fragment_region(target, spec)):
        for fragment_index, fragment in enumerate(fragments):
            anchor = fragment.control_point()
            if window is not None and not window.contains(anchor):
                continue
            if not include_corners and fragment.tag in _CORNER_TAGS:
                continue
            sites.append(
                EPESite(
                    x=anchor[0],
                    y=anchor[1],
                    normal=fragment.normal,
                    tag=fragment.tag.value,
                    loop_index=loop_index,
                    fragment_index=fragment_index,
                )
            )
    if not sites:
        raise VerificationError("target has no measurable edges inside the window")
    grid, image = (
        simulator.latent_image(mask, window, defocus_nm)
        if latent is None
        else latent
    )
    measured = edge_offsets_batch(
        image,
        grid,
        [(site.anchor, site.normal) for site in sites],
        simulator.config.resist.effective_threshold(dose),
        search_nm=search_nm,
    )
    sites = [
        replace(site, epe_nm=value, state=state)
        for site, (value, state) in zip(sites, measured)
    ]
    return EPEStats.from_values([site.epe_nm for site in sites]), sites


# -- strategies ------------------------------------------------------------------------


@st.composite
def targets(draw):
    """Rect soups of lines, line ends and notches, some with a hole."""
    rects = []
    for _ in range(draw(st.integers(1, 5))):
        x = draw(st.integers(-600, 600))
        y = draw(st.integers(-600, 600))
        w = draw(st.sampled_from([60, 120, 180, 260, 400, 900]))
        h = draw(st.sampled_from([60, 120, 180, 260, 400, 900]))
        rects.append(Rect(x, y, x + w, y + h))
    region = Region.from_rects(rects).merged()
    if draw(st.booleans()):
        region = region - Region(rects[0].expanded(-25))
    return region.merged()


def latent_of(target: Region, window: Rect, sigma: float) -> Tuple[Grid, np.ndarray]:
    """A smooth stand-in for a latent image: the blurred clear-field raster."""
    grid = Grid.over_window(window.expanded(120), 8.0)
    return grid, gaussian_filter(1.0 - rasterize(target, grid), sigma, mode="nearest")


@st.composite
def windows(draw, target: Region):
    """Windows whose edges lie on site anchors, one off them, or anywhere."""
    anchors = [anchor for (anchor, _n), _t in retired_epe_sites_tagged(target)]
    xs = [a[0] for a in anchors]
    ys = [a[1] for a in anchors]
    coord_x = st.one_of(
        st.sampled_from(xs), st.sampled_from(xs).map(lambda v: v + 1), st.integers(-800, 1600)
    )
    coord_y = st.one_of(
        st.sampled_from(ys), st.sampled_from(ys).map(lambda v: v - 1), st.integers(-800, 1600)
    )
    x1, x2 = sorted((draw(coord_x), draw(coord_x)))
    y1, y2 = sorted((draw(coord_y), draw(coord_y)))
    return Rect(x1, y1, x2 + 1, y2 + 1)


# -- tests ----------------------------------------------------------------------------


@SEEDED
@given(data=st.data())
def test_tagged_sites_equal_the_retired_loop(data):
    target = data.draw(targets())
    window = data.draw(st.one_of(st.none(), windows(target)))
    sites = epe_sites_tagged(target, window)
    assert sites == retired_epe_sites_tagged(target, window)
    assert all(type(c) is int for (anchor, normal), _tag in sites for c in anchor + normal)


@SEEDED
@given(
    data=st.data(),
    include_corners=st.booleans(),
    dose=st.sampled_from([0.4, 1.0, 1.6, 4.0]),
    search_nm=st.sampled_from([10.0, 40.0, 80.0]),
    sigma=st.sampled_from([2.0, 5.0]),
)
def test_measured_sites_equal_the_retired_loop(data, include_corners, dose, search_nm, sigma):
    target = data.draw(targets())
    window = data.draw(windows(target))
    latent = latent_of(target, window, sigma)
    mask = binary_mask(target)
    kwargs = dict(
        dose=dose, search_nm=search_nm, include_corners=include_corners, latent=latent
    )
    try:
        want = retired_measure_epe_sites(SIMULATOR, mask, target, window, **kwargs)
    except VerificationError:
        with pytest.raises(VerificationError):
            measure_epe_sites(SIMULATOR, mask, target, window, **kwargs)
        return
    stats, sites = measure_epe_sites(SIMULATOR, mask, target, window, **kwargs)
    assert sites == want[1]
    assert stats == want[0]
    assert all(type(v) is int for s in sites for v in (s.x, s.y) + s.normal)


def test_found_dark_and_bright_sites_all_occur():
    """The stand-in image gives every state, so the oracle compares them all."""
    target = Region.from_rects(
        [Rect(0, 0, 180, 900), Rect(300, 0, 480, 900), Rect(-400, 0, -300, 60)]
    )
    window = Rect(-600, -200, 700, 1100)
    latent = latent_of(target, window, 5.0)
    states = set()
    for dose in (0.4, 1.0, 4.0):
        kwargs = dict(dose=dose, search_nm=20.0, latent=latent)
        _stats, sites = measure_epe_sites(SIMULATOR, binary_mask(target), target, window, **kwargs)
        _want_stats, want = retired_measure_epe_sites(
            SIMULATOR, binary_mask(target), target, window, **kwargs
        )
        assert sites == want
        states |= {s.state for s in sites}
    assert states == {"found", "dark", "bright"}
