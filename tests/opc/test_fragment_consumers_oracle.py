"""Rule OPC, retargeting and model-OPC control sites against their retired loops.

All three read the columns of the ``FragmentLoops`` that ``fragment_region``
returns: midpoints and normals go to ``EdgeIndex.ray_distances`` as
arrays, the bias table is one ``searchsorted`` over its bounds, line-end
extensions and hammerheads are array adds on each line end's wrapped
neighbours in its loop, retargeting's space and width deficits are array
ops, and ``_control_sites`` takes its anchors, normals and inclusive
window mask from the columns, the sites as one ``(n, 2, 2)`` int64
array.  The per-fragment Python they replaced lives on here, verbatim:
the table's ``bias_for`` loop, ``rule_opc``'s and ``retarget``'s per-loop
bias loops and ``_control_sites``' loop, on the retired fragmenter's
lists.  The biases handed to ``apply_biases`` must be equal, and so must
the corrected geometry, including hammerheads on a
loop's first and last fragment, line ends that share a neighbour, edges
facing nothing within range, and spaces exactly at a bin bound.
"""

from __future__ import annotations

import importlib
from itertools import islice
from typing import List, Optional
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import EdgeIndex, FragmentTag, Rect, Region, fragment_region
from repro.opc import (
    BiasRule,
    BiasTable,
    ISOLATED,
    RetargetRules,
    RuleOPCRecipe,
    retarget,
    rule_opc,
)
from repro.opc.model_opc import DEFAULT_MODEL_FRAGMENTATION, _control_sites
from repro.opc.retarget import RETARGET_FRAGMENTATION
from repro.opc.rule_opc import DEFAULT_RULE_FRAGMENTATION, add_serifs

from ..geometry.test_bias_oracle import oracle_apply_biases
from ..geometry.test_fragment_oracle import retired_fragment_region

# The package exports functions of the same names as these modules.
rule_opc_module = importlib.import_module("repro.opc.rule_opc")
retarget_module = importlib.import_module("repro.opc.retarget")

SEEDED = settings(max_examples=200, deadline=None, derandomize=True, database=None)


# -- the retired per-fragment loops, verbatim -------------------------------------


def retired_bias_for(self: BiasTable, space: Optional[int]) -> int:
    """The bias of the bin containing ``space`` (``None`` = isolated)."""
    effective = ISOLATED - 1 if space is None else space
    for rule in self.rules:
        if effective < rule.space_below_nm:
            return rule.bias_nm
    return self.rules[-1].bias_nm


def retired_rule_opc(target: Region, recipe: RuleOPCRecipe):
    """The retired ``rule_opc``; returns its per-loop biases and corrected region."""
    recipe = recipe.validated()
    merged = target.merged()
    loops = retired_fragment_region(merged, recipe.fragmentation)
    flat = [fragment for fragments in loops for fragment in fragments]
    distances = EdgeIndex(merged).ray_distances(
        [f.midpoint for f in flat], [f.normal for f in flat], recipe.measure_range_nm
    )
    spaces = iter(distances.tolist())
    biases: List[List[int]] = []
    for fragments in loops:
        loop_biases = [
            retired_bias_for(recipe.bias_table, None if space == EdgeIndex.NO_HIT else space)
            for space in islice(spaces, len(fragments))
        ]
        line_end_slots = [
            i for i, f in enumerate(fragments) if f.tag == FragmentTag.LINE_END
        ]
        for i in line_end_slots:
            loop_biases[i] += recipe.line_end_extension_nm
            if recipe.hammerhead_extra_nm:
                n = len(fragments)
                loop_biases[(i - 1) % n] += recipe.hammerhead_extra_nm
                loop_biases[(i + 1) % n] += recipe.hammerhead_extra_nm
        biases.append(loop_biases)
    corrected = oracle_apply_biases(loops, biases)
    if recipe.serif_size_nm:
        corrected = add_serifs(corrected, recipe.serif_size_nm)
    return biases, corrected


def retired_retarget(target: Region, rules: RetargetRules):
    """The retired ``retarget``; returns its per-loop biases and result."""
    rules = rules.validated()
    merged = target.merged()
    loops = retired_fragment_region(merged, RETARGET_FRAGMENTATION)
    flat = [fragment for fragments in loops for fragment in fragments]
    midpoints = np.array([f.midpoint for f in flat])
    normals = np.array([f.normal for f in flat])
    # Space outward, then width inward, for every fragment in one query.
    found = EdgeIndex(merged).ray_distances(
        np.vstack((midpoints, midpoints)),
        np.vstack((normals, -normals)),
        rules.measure_range_nm,
    ).tolist()
    measured = zip(found[: len(flat)], found[len(flat) :])
    biases: List[List[int]] = []
    for fragments in loops:
        loop_biases = []
        for space, width in islice(measured, len(fragments)):
            bias = 0
            if space != EdgeIndex.NO_HIT and space < rules.min_space_nm:
                bias = -((rules.min_space_nm - space + 1) // 2)
            if width != EdgeIndex.NO_HIT and width < rules.min_width_nm:
                bias = (rules.min_width_nm - width + 1) // 2
            loop_biases.append(bias)
        biases.append(loop_biases)
    return biases, oracle_apply_biases(loops, biases)


def retired_control_sites(loops, window):
    sites = []
    active: List[int] = []
    for fragments in loops:
        for fragment in fragments:
            anchor = fragment.control_point()
            if window.contains(anchor):
                active.append(len(sites))
            sites.append((anchor, fragment.normal))
    return sites, np.array(active, dtype=np.intp)


# -- helpers ------------------------------------------------------------------------


def recorded_biases(module, call):
    """Run ``call()`` and return what it passed to ``module.apply_biases``."""
    seen = []
    real = module.apply_biases

    def record(loops, biases):
        seen.append(np.asarray(biases).tolist())
        return real(loops, biases)

    with mock.patch.object(module, "apply_biases", record):
        result = call()
    (biases,) = seen
    return biases, result


def flatten(biases: List[List[int]]) -> List[int]:
    return [b for loop_biases in biases for b in loop_biases]


@st.composite
def bias_tables(draw):
    bounds = sorted(draw(st.sets(st.integers(40, 1200), min_size=1, max_size=4)))
    if draw(st.booleans()):
        bounds.append(ISOLATED)
    return BiasTable([BiasRule(b, draw(st.integers(-12, 24))) for b in bounds])


@st.composite
def line_rows(draw, gaps):
    """A row of vertical lines with drawn widths and gaps, plus squares
    small enough that every side is a line end."""
    rects = []
    x = 0
    for _ in range(draw(st.integers(1, 5))):
        width = draw(st.sampled_from([40, 60, 120, 180, 259, 260, 261, 400]))
        y = draw(st.integers(-300, 300))
        height = draw(st.sampled_from([100, 260, 600, 1500]))
        rects.append(Rect(x, y, x + width, y + height))
        x += width + draw(gaps)
    for _ in range(draw(st.integers(0, 2))):
        side = draw(st.integers(20, 260))
        sx = draw(st.integers(-600, x + 600))
        sy = draw(st.integers(-900, 900))
        rects.append(Rect(sx, sy, sx + side, sy + side))
    return Region.from_rects(rects).merged()


# -- the bias table --------------------------------------------------------------------


@SEEDED
@given(table=bias_tables(), data=st.data())
def test_bias_lookup_equals_the_retired_loop(table, data):
    edges = [r.space_below_nm for r in table.rules]
    near = [e + d for e in edges for d in (-1, 0, 1)]
    spaces = data.draw(
        st.lists(
            st.one_of(
                st.none(),
                st.sampled_from(near + [0, ISOLATED - 1, ISOLATED, 2 * ISOLATED]),
                st.integers(0, 1500),
            ),
            max_size=40,
        )
    )
    want = [retired_bias_for(table, s) for s in spaces]
    assert [table.bias_for(s) for s in spaces] == want
    assert all(type(table.bias_for(s)) is int for s in spaces)
    as_array = np.array([EdgeIndex.NO_HIT if s is None else s for s in spaces], dtype=np.int64)
    assert table.biases_for(as_array).tolist() == want


# -- rule OPC ---------------------------------------------------------------------------


@st.composite
def rule_cases(draw):
    table = draw(bias_tables())
    bounds = [r.space_below_nm for r in table.rules if r.space_below_nm < ISOLATED]
    gaps = st.one_of(
        st.sampled_from([b + d for b in bounds for d in (-1, 0, 1)]), st.integers(1, 1500)
    )
    recipe = RuleOPCRecipe(
        bias_table=table,
        fragmentation=draw(
            st.sampled_from([DEFAULT_RULE_FRAGMENTATION, DEFAULT_MODEL_FRAGMENTATION])
        ),
        line_end_extension_nm=draw(st.integers(0, 30)),
        hammerhead_extra_nm=draw(st.sampled_from([0, 0, 7, 15])),
        serif_size_nm=draw(st.sampled_from([0, 0, 0, 30])),
        measure_range_nm=draw(st.sampled_from([100, 700, 4000])),
    )
    return draw(line_rows(gaps)), recipe


def assert_rule_opc_equal(target: Region, recipe: RuleOPCRecipe) -> None:
    biases, result = recorded_biases(rule_opc_module, lambda: rule_opc(target, recipe))
    want_biases, want_corrected = retired_rule_opc(target, recipe)
    assert biases == flatten(want_biases)
    assert result.corrected.loops == want_corrected.loops
    assert result.fragment_count == len(flatten(want_biases))


@SEEDED
@given(case=rule_cases())
def test_rule_opc_equals_the_retired_loop(case):
    assert_rule_opc_equal(*case)


def test_hammerheads_wrap_around_and_share_neighbours():
    """A vertical line whose first fragment, and a horizontal line whose
    last fragment, is a line end, and a square of four line ends, each
    neighbour of two of them; one line faces nothing within range."""
    targets = [
        Region(Rect(0, 0, 180, 2000)),
        Region(Rect(0, 0, 2000, 180)),
        Region(Rect(0, 0, 100, 100)),
        Region.from_rects([Rect(0, 0, 180, 2000), Rect(500, 0, 680, 2000)]),
    ]
    loops = [fragment_region(t, DEFAULT_RULE_FRAGMENTATION) for t in targets]
    line_end = FragmentTag.LINE_END
    assert loops[0].tags(loops[0][0])[0] == line_end
    assert loops[1].tags(loops[1][0])[-1] == line_end
    assert all(tag == line_end for tag in loops[2].tags(loops[2][0]))
    for target in targets:
        for measure_range_nm in (100, 4000):
            recipe = RuleOPCRecipe(
                line_end_extension_nm=20,
                hammerhead_extra_nm=15,
                measure_range_nm=measure_range_nm,
            )
            assert_rule_opc_equal(target, recipe)


def test_spaces_exactly_at_the_default_bounds():
    table = RuleOPCRecipe().bias_table
    for bound in (r.space_below_nm for r in table.rules[:-1]):
        for gap in (bound - 1, bound, bound + 1):
            target = Region.from_rects([Rect(0, 0, 180, 2000), Rect(180 + gap, 0, 360 + gap, 2000)])
            assert_rule_opc_equal(target, RuleOPCRecipe(hammerhead_extra_nm=10))


# -- retargeting ---------------------------------------------------------------------


@st.composite
def retarget_cases(draw):
    rules = RetargetRules(
        min_width_nm=draw(st.integers(30, 200)),
        min_space_nm=draw(st.integers(30, 200)),
        measure_range_nm=draw(st.sampled_from([100, 4000])),
    )
    near = [v + d for v in (rules.min_width_nm, rules.min_space_nm) for d in (-2, -1, 0, 1)]
    gaps = st.one_of(st.sampled_from([v for v in near if v > 0]), st.integers(1, 400))
    return draw(line_rows(gaps)), rules


@SEEDED
@given(case=retarget_cases())
def test_retarget_equals_the_retired_loop(case):
    target, rules = case
    biases, result = recorded_biases(retarget_module, lambda: retarget(target, rules))
    want_biases, want = retired_retarget(target, rules)
    assert biases == flatten(want_biases)
    assert result.loops == want.loops


def test_width_wins_where_both_deficits_fire():
    """Two 40 nm lines 40 nm apart: every facing edge is both too narrow
    and too close, and moves outward."""
    target = Region.from_rects([Rect(0, 0, 40, 1000), Rect(80, 0, 120, 1000)])
    rules = RetargetRules(min_width_nm=100, min_space_nm=100)
    biases, result = recorded_biases(retarget_module, lambda: retarget(target, rules))
    want_biases, want = retired_retarget(target, rules)
    assert biases == flatten(want_biases)
    assert max(biases) == 30 and min(biases) >= 0
    assert result.loops == want.loops


# -- model-OPC control sites -----------------------------------------------------------


@SEEDED
@given(data=st.data())
def test_control_sites_equal_the_retired_loop(data):
    gaps = st.integers(1, 600)
    target = data.draw(line_rows(gaps))
    loops = fragment_region(target, DEFAULT_MODEL_FRAGMENTATION)
    # Window edges on midpoints, one off them, or anywhere.
    xs = loops.midpoint[:, 0].tolist()
    ys = loops.midpoint[:, 1].tolist()
    coord_x = st.one_of(
        st.sampled_from(xs), st.sampled_from(xs).map(lambda v: v + 1), st.integers(-700, 3000)
    )
    coord_y = st.one_of(
        st.sampled_from(ys), st.sampled_from(ys).map(lambda v: v - 1), st.integers(-1000, 1900)
    )
    x1, x2 = sorted((data.draw(coord_x), data.draw(coord_x)))
    y1, y2 = sorted((data.draw(coord_y), data.draw(coord_y)))
    window = Rect(x1, y1, x2, y2)
    sites, active = _control_sites(loops, window)
    want_sites, want_active = retired_control_sites(
        retired_fragment_region(target, DEFAULT_MODEL_FRAGMENTATION), window
    )
    assert sites.tolist() == [[list(anchor), list(normal)] for anchor, normal in want_sites]
    assert sites.dtype == np.int64 and sites.shape == (len(want_sites), 2, 2)
    assert active.dtype == want_active.dtype and active.tolist() == want_active.tolist()
