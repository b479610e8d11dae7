"""The fail-fast gate: bad jobs die before any simulator work.

The acceptance bar: a known-bad recipe pushed through ``tapeout_region``
raises :class:`PreflightError` with zero simulator activity -- no
``sim.aerial_calls``, no opc/sim spans in the trace.
"""

import pytest

from repro import obs
from repro.errors import PreflightError
from repro.flow import (
    CorrectionLevel,
    TapeoutRecipe,
    correct_region,
    tapeout_region,
)
from repro.geometry import Rect, Region
from repro.lint import (
    Diagnostic,
    LintContext,
    LintReport,
    Severity,
    gate,
    preflight_correction,
    preflight_tapeout,
    run_lint,
)
from repro.litho import LithoConfig, LithoSimulator, krf_annular
from repro.opc import ModelOPCRecipe, TilingSpec


@pytest.fixture(scope="module")
def simulator():
    return LithoSimulator(
        LithoConfig(optics=krf_annular(), pixel_nm=8.0, ambit_nm=600)
    )


def target():
    return Region.from_rects(
        [Rect(x, -400, x + 180, 400) for x in (0, 460)]
    )


def bad_recipe():
    """Constructs fine (every field is individually legal) but is
    statically doomed: the EPE probe cannot resolve its own tolerance."""
    return TapeoutRecipe(
        level=CorrectionLevel.MODEL,
        model_recipe=ModelOPCRecipe(
            epe_search_nm=1.0, epe_tolerance_nm=1.5, max_iterations=1
        ),
        tiling=TilingSpec(tile_nm=1500, halo_nm=300),
    )


def all_span_names(roots):
    names = []

    def walk(span):
        names.append(span.name)
        for child in span.children:
            walk(child)

    for root in roots:
        walk(root)
    return names


class TestGate:
    def test_clean_report_passes_through(self):
        report = LintReport([])
        assert gate(report) is report

    def test_warnings_do_not_block(self):
        report = LintReport(
            [Diagnostic("LNT104", Severity.WARNING, "slow pool")]
        )
        assert gate(report) is report

    def test_errors_raise_with_diagnostics_attached(self):
        report = LintReport([
            Diagnostic("LNT102", Severity.ERROR, "aliasing"),
            Diagnostic("LNT104", Severity.WARNING, "slow pool"),
        ])
        with pytest.raises(PreflightError) as err:
            gate(report, stage="tapeout")
        assert "tapeout preflight" in str(err.value)
        assert len(err.value.diagnostics) == 2

    def test_error_flood_summarised(self):
        report = LintReport([
            Diagnostic("LNT201", Severity.ERROR, f"sliver {i}")
            for i in range(7)
        ])
        with pytest.raises(PreflightError) as err:
            gate(report)
        assert "7 blocking problem(s)" in str(err.value)
        assert "and 4 more" in str(err.value)


    def test_findings_past_the_location_cap_all_count(self, simulator):
        """25 sub-resolution bars list 20 locations and one "... and 5
        more" line; the gate counts the 25 findings, not the 21 lines."""
        bars = Region.from_rects(
            [Rect(200 * i, 0, 200 * i + 30, 400) for i in range(25)]
        )
        report = run_lint(
            LintContext(layout=bars, litho=simulator.config), codes=["LNT201"]
        )
        assert len(report) == 21
        assert report.error_count == 25
        assert report.summary_dict()["errors"] == 25
        with pytest.raises(PreflightError) as err:
            gate(report)
        assert "found 25 blocking problem(s)" in str(err.value)
        assert "; and 22 more" in str(err.value)


class TestPreflightFunctions:
    def test_good_tapeout_job_returns_report(self, simulator):
        report = preflight_tapeout(
            target(),
            TapeoutRecipe(
                level=CorrectionLevel.MODEL,
                tiling=TilingSpec(tile_nm=1500, halo_nm=300),
            ),
            litho=simulator.config,
        )
        assert not report.has_errors

    def test_bad_tapeout_job_raises(self, simulator):
        with pytest.raises(PreflightError) as err:
            preflight_tapeout(target(), bad_recipe(), litho=simulator.config)
        assert any(d.code == "LNT105" for d in err.value.diagnostics)

    def test_correction_preflight_catches_coarse_pixel(self):
        aliasing = LithoConfig(
            optics=krf_annular(), pixel_nm=120.0, ambit_nm=600
        )
        with pytest.raises(PreflightError):
            preflight_correction(target(), "none", litho=aliasing)


class TestFailFast:
    def test_bad_recipe_rejected_before_any_simulator_call(self, simulator):
        """The acceptance test: zero sim activity when preflight rejects."""
        with obs.capture() as cap:
            with pytest.raises(PreflightError):
                tapeout_region(
                    target(), simulator, dose=1.0, recipe=bad_recipe()
                )
        names = all_span_names(cap.roots)
        assert "tapeout.preflight" in names
        assert not any(
            name.startswith(("sim", "opc", "litho")) for name in names
        ), f"simulator touched before preflight verdict: {names}"
        snapshot = obs.registry().snapshot()
        aerial = snapshot.get("sim.aerial_calls", {}).get("value", 0)
        assert aerial == 0

    def test_escape_hatch_skips_the_gate(self, simulator):
        # preflight=False on a level-NONE run: no lint, no simulator.
        result = correct_region(
            target(), CorrectionLevel.NONE, preflight=False
        )
        assert not result.corrected.is_empty

    def test_clean_job_passes_and_reports_into_span(self, simulator):
        with obs.capture() as cap:
            correct_region(target(), CorrectionLevel.NONE)
        preflight_span = cap.find("correct.preflight")
        assert preflight_span is not None
        assert preflight_span.attrs["errors"] == 0

    def test_correct_region_gates_by_default(self, simulator):
        with pytest.raises(PreflightError):
            correct_region(
                target(),
                CorrectionLevel.MODEL,
                simulator=simulator,
                model_recipe=ModelOPCRecipe(
                    epe_search_nm=1.0, epe_tolerance_nm=1.5
                ),
            )
