"""Integration tests for EPE measurement and ORC."""

import pytest

from repro import obs
from repro.errors import VerificationError
from repro.geometry import Rect, Region
from repro.litho import LithoConfig, LithoSimulator, binary_mask, krf_annular
from repro.opc import model_opc
from repro.verify import (
    EPEStats,
    ProcessCorner,
    epe_sites,
    measure_epe,
    measure_epe_sites,
    orc_through_window,
    run_orc,
    worst_corner,
)
from repro.verify.orc import _filter_area


@pytest.fixture(scope="module")
def simulator():
    return LithoSimulator(LithoConfig(optics=krf_annular(), pixel_nm=8.0, ambit_nm=600))


@pytest.fixture(scope="module")
def target():
    rects = [Rect(x, -1500, x + 180, 1500) for x in (-920, -460, 0, 460, 920)]
    return Region.from_rects(rects)


@pytest.fixture(scope="module")
def window():
    return Rect(-1100, -600, 1300, 600)


@pytest.fixture(scope="module")
def anchor_dose(simulator, target, window):
    return simulator.dose_to_size(binary_mask(target), window, (90, 0), 180.0)


class TestEPEStats:
    def test_from_values(self):
        stats = EPEStats.from_values([1.0, -1.0, 3.0, None])
        assert stats.count == 3
        assert stats.missing == 1
        assert stats.mean_nm == pytest.approx(1.0)
        assert stats.max_abs_nm == pytest.approx(3.0)

    def test_all_missing(self):
        stats = EPEStats.from_values([None, None])
        assert stats.count == 0
        assert stats.missing == 2

    def test_rms(self):
        stats = EPEStats.from_values([3.0, 4.0])
        assert stats.rms_nm == pytest.approx((12.5) ** 0.5)


class TestEPESites:
    def test_sites_on_edges(self, target, window):
        sites = epe_sites(target, window)
        assert len(sites) > 20
        for (x, y), _normal in sites:
            assert window.contains((int(x), int(y)))

    def test_no_window_gives_all(self, target, window):
        assert len(epe_sites(target)) > len(epe_sites(target, window))

    def test_empty_target_raises_in_measure(self, simulator, window):
        with pytest.raises(VerificationError):
            measure_epe(simulator, binary_mask(Region()), Region(), window)


class TestMeasureEPE:
    def test_uncorrected_has_bias(self, simulator, target, window, anchor_dose):
        stats, values = measure_epe(
            simulator, binary_mask(target), target, window, dose=anchor_dose
        )
        assert stats.count > 0
        assert stats.rms_nm > 0.5  # line ends pull back even when sides anchor

    def test_corrected_beats_uncorrected(self, simulator, target, window, anchor_dose):
        before, _ = measure_epe(
            simulator, binary_mask(target), target, window, dose=anchor_dose
        )
        corrected = model_opc(target, simulator, window, dose=anchor_dose).corrected
        after, _ = measure_epe(
            simulator, binary_mask(corrected), target, window, dose=anchor_dose
        )
        assert after.rms_nm < before.rms_nm


class TestORC:
    def test_nominal_clean(self, simulator, target, window, anchor_dose):
        report = run_orc(
            simulator,
            binary_mask(target),
            target,
            window,
            ProcessCorner(dose=anchor_dose),
        )
        assert report.is_clean  # nominal print of dense lines is not catastrophic

    def test_severe_overdose_bridges_or_pinches(self, simulator, target, window, anchor_dose):
        report = run_orc(
            simulator,
            binary_mask(target),
            target,
            window,
            ProcessCorner(dose=anchor_dose * 2.4, name="overdose"),
        )
        assert not report.is_clean

    def test_through_window_reports(self, simulator, target, window, anchor_dose):
        corners = [
            ProcessCorner(0.0, anchor_dose, "nominal"),
            ProcessCorner(700.0, anchor_dose * 0.9, "defocus+underdose"),
        ]
        reports = orc_through_window(
            simulator, binary_mask(target), target, window, corners
        )
        assert len(reports) == 2
        worst = worst_corner(reports)
        assert worst.epe.max_abs_nm >= reports[0].epe.max_abs_nm

    def test_one_latent_image_serves_print_and_epe(
        self, simulator, target, window, anchor_dose
    ):
        """run_orc images its window once, and its report equals the one
        built from two images: simulator.printed plus measure_epe_sites."""
        mask = binary_mask(target)
        corner = ProcessCorner(defocus_nm=300.0, dose=anchor_dose * 1.05)
        with obs.capture():
            report = run_orc(simulator, mask, target, window, corner)
            calls = obs.registry().snapshot()["sim.aerial_calls"]["value"]
        assert calls == 1

        with obs.capture():
            printed = simulator.printed(
                mask, window, defocus_nm=corner.defocus_nm, dose=corner.dose
            )
            stats, sites = measure_epe_sites(
                simulator, mask, target, window,
                dose=corner.dose, defocus_nm=corner.defocus_nm,
            )
            calls = obs.registry().snapshot()["sim.aerial_calls"]["value"]
        assert calls == 2
        intent = target.merged() & Region(window)
        pinch = (intent.sized(-50) - printed).merged()
        bridge = (printed - intent.sized(50)).merged()
        assert report.epe == stats and report.sites == sites
        assert report.pinch_sites.loops == _filter_area(pinch, 400).loops
        assert report.bridge_sites.loops == _filter_area(bridge, 400).loops

    def test_empty_corner_list_rejected(self, simulator, target, window):
        with pytest.raises(VerificationError):
            orc_through_window(simulator, binary_mask(target), target, window, [])

    def test_margin_validation(self, simulator, target, window):
        with pytest.raises(VerificationError):
            run_orc(
                simulator,
                binary_mask(target),
                target,
                window,
                critical_margin_nm=0,
            )
