"""Edge-based MRC engine: every rule localizes, clean masks stay clean.

Each planted-violation fixture encodes one defect whose exact marker
rect is known by construction; the assertions pin rule id, marker and
measured value so a regression in edge pairing or coverage refinement
cannot hide behind "some violation was found somewhere".
"""

import pytest

from repro.errors import OPCError
from repro.geometry import Rect, Region
from repro.verify.mrc import (
    MRC_RULE_CATALOG,
    MRCReport,
    MRCRules,
    MRCViolation,
    check_mask_region,
)


def rects(*boxes):
    return Region.from_rects([Rect(*b) for b in boxes])


def findings(report):
    """(rule_id, marker, measured) triples, in report order."""
    return [
        (v.rule_id, tuple(v.marker), v.measured_nm)
        for v in report.violations
    ]


class TestCleanMasks:
    def test_two_legal_squares_are_clean(self):
        report = check_mask_region(rects((0, 0, 200, 200), (300, 0, 500, 200)))
        assert report.is_clean
        assert not report.has_errors

    def test_at_limit_geometry_is_legal(self):
        """Exactly-at-limit width and space must NOT fire (>= limit ok)."""
        report = check_mask_region(
            rects((0, 0, 40, 200), (80, 0, 120, 200)), MRCRules(40, 40)
        )
        assert report.is_clean

    def test_empty_region_is_clean_with_zero_stats(self):
        report = check_mask_region(Region())
        assert report.is_clean
        assert (report.shot_count, report.figure_count) == (0, 0)


class TestWidthRule:
    def test_narrow_bar_localizes_exactly(self):
        report = check_mask_region(rects((0, 0, 30, 200)))
        assert findings(report) == [("MRC101", (0, 0, 30, 200), 30.0)]
        assert report.violations[0].severity == "error"

    def test_coverage_refinement_marks_only_the_narrow_neck(self):
        """A bite out of a legal bar flags just the 20nm neck, nothing else."""
        bitten = rects((0, 0, 60, 300)) - rects((20, 100, 60, 200))
        report = check_mask_region(bitten)
        assert findings(report) == [("MRC101", (0, 100, 20, 200), 20.0)]

    def test_donut_ring_fires_on_all_four_walls(self):
        donut = rects((0, 0, 260, 260)) - rects((30, 30, 230, 230))
        report = check_mask_region(donut)
        assert [f[0] for f in findings(report)] == ["MRC101"] * 4
        assert {f[1] for f in findings(report)} == {
            (0, 30, 30, 230),
            (30, 0, 230, 30),
            (30, 230, 230, 260),
            (230, 30, 260, 230),
        }


class TestSpaceRule:
    def test_tight_gap_localizes_exactly(self):
        report = check_mask_region(rects((0, 0, 200, 200), (230, 0, 430, 200)))
        assert findings(report) == [("MRC102", (200, 0, 230, 200), 30.0)]


class TestNotchRule:
    def test_slot_in_one_outline_is_a_notch_not_a_space(self):
        """The same 30nm gap inside one loop is MRC105, not MRC102."""
        slotted = rects((0, 0, 200, 200)) - rects((85, 150, 115, 200))
        report = check_mask_region(slotted)
        assert findings(report) == [("MRC105", (85, 150, 115, 200), 30.0)]

    def test_notch_limit_inherits_min_space_when_zero(self):
        rules = MRCRules(min_space_nm=40, notch_nm=0)
        assert rules.effective_notch_nm == 40
        assert MRCRules(min_space_nm=40, notch_nm=25).effective_notch_nm == 25

    def test_wide_slot_is_legal_under_a_looser_notch_limit(self):
        slotted = rects((0, 0, 200, 200)) - rects((85, 150, 115, 200))
        report = check_mask_region(slotted, MRCRules(notch_nm=20))
        assert report.is_clean


class TestAreaRule:
    def test_sliver_fires_area_and_width(self):
        report = check_mask_region(rects((0, 0, 1, 3), (100, 0, 300, 200)))
        ids = [f[0] for f in findings(report)]
        assert ids.count("MRC103") == 1
        assert "MRC101" in ids
        area = next(
            v for v in report.violations if v.rule_id == "MRC103"
        )
        assert tuple(area.marker) == (0, 0, 1, 3)
        assert area.measured_nm == 3.0
        assert "nm^2" in area.message()


class TestEdgeAndCornerRules:
    def test_short_jog_edge_warns_at_its_segment(self):
        report = check_mask_region(
            rects((0, 0, 200, 100), (0, 100, 195, 200)),
            MRCRules(min_edge_nm=10),
        )
        assert findings(report) == [("MRC104", (195, 100, 200, 100), 5.0)]
        assert report.violations[0].severity == "warning"
        assert report.warning_count == 1
        assert not report.has_errors

    def test_diagonal_corners_measure_euclidean_distance(self):
        report = check_mask_region(
            rects((0, 0, 100, 100), (130, 130, 230, 230)),
            MRCRules(corner_nm=50),
        )
        assert [f[0] for f in findings(report)] == ["MRC106"]
        violation = report.violations[0]
        assert tuple(violation.marker) == (100, 100, 130, 130)
        assert violation.measured_nm == pytest.approx(42.426, abs=1e-3)

    def test_zero_limits_disable_edge_and_corner_rules(self):
        report = check_mask_region(
            rects((0, 0, 200, 100), (0, 100, 195, 200)),
            MRCRules(min_edge_nm=0, corner_nm=0),
        )
        assert report.is_clean


class TestRulesValidation:
    def test_nonpositive_width_raises(self):
        with pytest.raises(OPCError):
            check_mask_region(rects((0, 0, 100, 100)), MRCRules(0, 40))

    def test_negative_optional_limit_raises(self):
        with pytest.raises(OPCError):
            MRCRules(corner_nm=-1).validated()

    def test_positional_back_compat_means_width_space(self):
        rules = MRCRules(40, 60)
        assert (rules.min_width_nm, rules.min_space_nm) == (40, 60)

    def test_interaction_covers_every_edge_rule(self):
        rules = MRCRules(40, 40, min_edge_nm=90, corner_nm=55)
        assert rules.interaction_nm == 90


class TestStatsAndSummary:
    def test_vsb_fracture_counts_shots_vertices_figures(self):
        l_shape = rects((0, 0, 100, 300), (0, 0, 300, 100))
        report = check_mask_region(l_shape)
        assert (report.shot_count, report.vertex_count,
                report.figure_count) == (2, 6, 1)

    def test_with_stats_false_skips_the_estimate(self):
        report = check_mask_region(
            rects((0, 0, 100, 300)), with_stats=False
        )
        assert (report.shot_count, report.vertex_count,
                report.figure_count) == (0, 0, 0)

    def test_summary_dict_ranks_errors_first_and_caps_markers(self):
        report = check_mask_region(
            rects((0, 0, 30, 200), (100, 0, 300, 100), (100, 100, 295, 200)),
            MRCRules(min_edge_nm=10),
        )
        summary = report.summary_dict(max_markers=1)
        assert summary["violations"] == 2
        assert summary["errors"] == 1 and summary["warnings"] == 1
        assert len(summary["markers"]) == 1
        assert summary["markers"][0]["rule_id"] == "MRC101"
        assert summary["limits"] == report.rules.to_dict()

    def test_violation_round_trips_through_dict(self):
        violation = check_mask_region(rects((0, 0, 30, 200))).violations[0]
        assert MRCViolation.from_dict(violation.to_dict()) == violation

    def test_catalog_severity_matches_emitted_markers(self):
        dirty = rects((0, 0, 30, 200), (100, 0, 300, 100), (100, 100, 295, 200))
        report = check_mask_region(dirty, MRCRules(min_edge_nm=10))
        for violation in report.violations:
            kind, severity, _ = MRC_RULE_CATALOG[violation.rule_id]
            assert violation.kind == kind
            assert violation.severity == severity


class TestLegacyShim:
    """repro.opc.mrc stays alive as a count-only back-compat facade."""

    def test_shim_and_engine_agree_on_dirty_verdict(self):
        from repro.opc.mrc import check_mask

        dirty = rects((0, 0, 30, 200), (200, 0, 430, 200))
        legacy = check_mask(dirty)
        modern = check_mask_region(dirty)
        assert not legacy.is_clean
        assert legacy.width_violation_count == 1
        assert modern.by_rule() == {"MRC101": 1}

    def test_default_rules_are_constructed_per_call(self):
        """The old shared-mutable-default bug: rules must not leak
        between calls when the caller omits them."""
        from repro.opc.mrc import check_mask

        first = check_mask(rects((0, 0, 30, 200)))
        second = check_mask(rects((0, 0, 200, 200)))
        assert not first.is_clean
        assert second.is_clean

    def test_repair_post_condition_verified_by_the_edge_engine(self):
        from repro.opc.mrc import repair_mask_residuals

        mask = rects((0, 0, 200, 200), (230, 0, 430, 200))
        repaired, residual = repair_mask_residuals(mask, MRCRules(40, 40))
        assert residual == []
        assert not check_mask_region(repaired, with_stats=False).has_errors

    def test_repair_strict_raises_with_localized_residuals(self):
        from repro.opc.mrc import repair_mask

        mask = rects((0, 0, 200, 200), (230, 0, 430, 200))
        with pytest.raises(OPCError, match="MRC102"):
            repair_mask(mask, MRCRules(40, 40), max_passes=0, strict=True)

    def test_lenient_repair_skips_the_residual_sweep(self, monkeypatch):
        """No sweep result is computed and thrown away.  The sweep *is*
        the repair: one engine call per fill-and-trim pass plus the
        sweep that finds nothing left to edit, strict or lenient, and a
        flow that ships the repaired mask takes that last sweep as its
        postflight verdict instead of sweeping again."""
        from repro.flow import CorrectionLevel, correct_region
        from repro.flow import correct as correct_flow
        from repro.lint import rules_mask
        from repro.opc import ISOLATED, BiasRule, BiasTable, RuleOPCRecipe
        from repro.opc import mrc as opc_mrc
        from repro.verify import mrc as engine

        sweeps = []
        sweep = engine.check_mask_region

        def counted(*args, **kwargs):
            sweeps.append(args[0])
            return sweep(*args, **kwargs)

        # Both bindings a sweep is reached through: the repair loop's and
        # the postflight lint rules'.
        monkeypatch.setattr(engine, "check_mask_region", counted)
        monkeypatch.setattr(rules_mask, "check_mask_region", counted)
        rules = MRCRules(40, 40)
        mask = rects((0, 0, 200, 200), (230, 0, 430, 200))  # one gap to fill

        repair = engine.repair_mask_region(mask, rules)
        assert (repair.passes, len(sweeps)) == (1, 2)
        assert repair.report.is_clean
        for strict in (False, True):
            sweeps.clear()
            assert opc_mrc.repair_mask(mask, rules, strict=strict) == repair.mask
            assert len(sweeps) == 2
        sweeps.clear()
        assert opc_mrc.repair_mask_residuals(mask, rules) == (repair.mask, [])
        assert len(sweeps) == 2

        # A rule correction that moves no edge leaves the same gap.
        repairs = []

        def recorded(*args, **kwargs):
            repairs.append(engine.repair_mask_region(*args, **kwargs))
            return repairs[-1]

        monkeypatch.setattr(correct_flow, "repair_mask_region", recorded)
        sweeps.clear()
        result = correct_region(
            mask,
            CorrectionLevel.RULE,
            rule_recipe=RuleOPCRecipe(
                bias_table=BiasTable([BiasRule(ISOLATED, 0)]),
                line_end_extension_nm=0,
            ),
            mrc=rules,
        )
        assert [r.passes for r in repairs] == [1]
        assert len(sweeps) == 2
        assert result.mrc_report.is_clean and result.corrected == repair.mask
