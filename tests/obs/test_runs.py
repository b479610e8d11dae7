"""The persistent run ledger: round-trip, fingerprints, diffing, gating.

Covers the acceptance surface of ``repro.obs.runs``: write -> read ->
diff of identical runs shows zero deltas, fingerprints are stable across
process restarts, an injected 2x slowdown trips the regression gate
(:func:`repro.obs.analyze.gate`) with the offending span path named,
and the canonical form is byte-stable modulo run id / timestamp / git
revision.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro import obs
from repro.errors import ReproError
from repro.flow import CorrectionLevel, TapeoutRecipe, tapeout_region
from repro.geometry import Rect, Region
from repro.litho import LithoConfig, LithoSimulator, krf_annular
from repro.obs import metrics as obs_metrics
from repro.obs import runs as obs_runs
from repro.obs.analyze import gate
from repro.obs.trace import Span
from repro.opc import ModelOPCRecipe, TilingSpec

CONFIG = {"kind": "test", "node": "180nm", "tile_nm": 1500}


def make_roots(scale=1.0, extra_child=None):
    """A tiny synthetic tapeout-shaped span tree with known durations."""
    root = Span("tapeout")
    root.start_s, root.end_s = 0.0, 1.0 * scale
    correct = Span("tapeout.correct")
    correct.start_s, correct.end_s = 0.0, 0.8 * scale
    root.children.append(correct)
    tiny = Span("tapeout.orc")
    tiny.start_s, tiny.end_s = 0.8 * scale, 0.8 * scale + 0.001 * scale
    root.children.append(tiny)
    if extra_child is not None:
        root.children.append(extra_child)
    return [root]


def make_record(scale=1.0, quality=None, config=CONFIG, label="tapeout",
                metrics=None):
    return obs_runs.new_record(
        label,
        config,
        make_roots(scale),
        metrics=metrics if metrics is not None else {},
        quality=quality if quality is not None else {"figures": 10},
        git_rev=None,
    )


def timed_record(seconds):
    """A record whose only span is a ``tapeout`` root of ``seconds``."""
    root = Span("tapeout")
    root.start_s, root.end_s = 0.0, seconds
    return obs_runs.new_record(
        "tapeout", CONFIG, [root], metrics={}, quality={}, git_rev=None
    )


def hist_snapshot(name, values, bounds=(0.1, 0.5, 1.0)):
    """A one-histogram metrics snapshot built through the real registry."""
    registry = obs_metrics.MetricsRegistry()
    histogram = registry.histogram(name, bounds)
    for value in values:
        histogram.observe(value)
    return registry.snapshot()


class TestFingerprint:
    def test_equal_configs_equal_fingerprints(self):
        recipe_a = TapeoutRecipe(model_recipe=ModelOPCRecipe(max_iterations=3))
        recipe_b = TapeoutRecipe(model_recipe=ModelOPCRecipe(max_iterations=3))
        assert obs_runs.config_fingerprint(
            {"recipe": recipe_a}
        ) == obs_runs.config_fingerprint({"recipe": recipe_b})

    def test_config_change_changes_fingerprint(self):
        base = TapeoutRecipe()
        other = TapeoutRecipe(tiling=TilingSpec(tile_nm=1234))
        assert obs_runs.config_fingerprint(
            {"recipe": base}
        ) != obs_runs.config_fingerprint({"recipe": other})

    def test_dict_key_order_is_irrelevant(self):
        assert obs_runs.config_fingerprint(
            {"a": 1, "b": [1, 2]}
        ) == obs_runs.config_fingerprint({"b": [1, 2], "a": 1})

    def test_stable_across_process_restarts(self):
        """A fresh interpreter computes the same fingerprint for the
        same config -- the property the ledger's baseline lookup needs."""
        snippet = (
            "from repro.obs.runs import config_fingerprint\n"
            "from repro.flow import TapeoutRecipe\n"
            "from repro.litho import LithoConfig, krf_annular\n"
            "print(config_fingerprint({'recipe': TapeoutRecipe(), "
            "'litho': LithoConfig(optics=krf_annular())}))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        fresh = subprocess.run(
            [sys.executable, "-c", snippet],
            capture_output=True, text=True, check=True,
            env={"PYTHONPATH": src, "PATH": "/usr/bin:/bin"},
        ).stdout.strip()
        here = obs_runs.config_fingerprint(
            {
                "recipe": TapeoutRecipe(),
                "litho": LithoConfig(optics=krf_annular()),
            }
        )
        assert fresh == here


class TestLedgerRoundTrip:
    def test_write_read_round_trip(self, tmp_path):
        ledger = obs_runs.RunLedger(tmp_path)
        record = make_record()
        ledger.append(record)
        loaded = ledger.load(record.run_id)
        assert loaded.to_dict() == record.to_dict()

    def test_diff_of_identical_runs_is_all_zero(self, tmp_path):
        ledger = obs_runs.RunLedger(tmp_path)
        a, b = make_record(), make_record()
        ledger.append(a)
        ledger.append(b)
        diff = obs_runs.diff_runs(
            ledger.load(a.run_id), ledger.load(b.run_id)
        )
        assert not diff.changed_metrics
        assert not diff.changed_quality
        assert all(d.delta == 0.0 for d in diff.span_deltas)
        assert "(no metric deltas)" in obs_runs.diff_markdown(diff)

    def test_index_rebuilds_after_deletion(self, tmp_path):
        ledger = obs_runs.RunLedger(tmp_path)
        ids = []
        for _ in range(3):
            record = make_record()
            ledger.append(record)
            ids.append(record.run_id)
        ledger.index_path.unlink()
        assert [e.run_id for e in ledger.entries()] == ids
        assert ledger.load(ids[1]).run_id == ids[1]

    def test_resolve_references(self, tmp_path):
        ledger = obs_runs.RunLedger(tmp_path)
        records = [make_record() for _ in range(3)]
        for record in records:
            ledger.append(record)
        assert ledger.resolve("last").run_id == records[-1].run_id
        assert ledger.resolve("prev").run_id == records[-2].run_id
        assert ledger.resolve("last~2").run_id == records[0].run_id
        assert ledger.resolve(records[0].run_id[:8]).run_id == records[0].run_id
        with pytest.raises(ReproError):
            ledger.resolve("no-such-run")
        with pytest.raises(ReproError):
            ledger.resolve("last~9")

    def test_entries_filter_by_fingerprint_and_label(self, tmp_path):
        ledger = obs_runs.RunLedger(tmp_path)
        a = make_record(config={"v": 1})
        b = make_record(config={"v": 2}, label="other")
        ledger.append(a)
        ledger.append(b)
        assert [e.run_id for e in ledger.entries(fingerprint=a.fingerprint)] == [
            a.run_id
        ]
        assert [e.run_id for e in ledger.entries(label="other")] == [b.run_id]


class TestCanonicalForm:
    def test_byte_stable_modulo_volatile_fields(self):
        """Two runs of the same config differ only in id/timestamp/rev
        and wall-clock noise; their canonical JSON must be byte-equal."""
        a = make_record(scale=1.0)
        b = make_record(scale=1.37)  # different timings, same everything else
        assert a.run_id != b.run_id
        assert a.canonical_json() == b.canonical_json()

    def test_canonical_form_sees_real_changes(self):
        a = make_record(quality={"figures": 10})
        b = make_record(quality={"figures": 12})
        assert a.canonical_json() != b.canonical_json()

    def test_schema_version_enforced(self):
        data = make_record().to_dict()
        data["schema"] = "repro-run/999"
        with pytest.raises(ReproError):
            obs_runs.RunRecord.from_dict(data)


class TestHistogramDiff:
    """diff_runs compares histogram *distributions*, not just counts."""

    def test_histogram_stats_known_values(self):
        # 10 fast observations, 10 near the top bucket: the 95th-rank
        # observation (rank 19) lands in the le=1.0 bucket.
        record = hist_snapshot(
            "tile.runtime_s", [0.05] * 10 + [0.9] * 10
        )["tile.runtime_s"]
        stats = obs_runs.histogram_stats(record)
        assert stats["mean"] == pytest.approx((0.05 * 10 + 0.9 * 10) / 20)
        assert stats["p95"] == 1.0

    def test_overflow_bucket_reports_observed_max(self):
        record = hist_snapshot("x", [2.0, 3.0, 7.0])["x"]
        assert obs_runs.histogram_stats(record)["p95"] == 7.0

    def test_non_histograms_and_empty_return_none(self):
        assert obs_runs.histogram_stats({"kind": "counter", "value": 3}) is None
        assert obs_runs.histogram_stats({}) is None
        empty = hist_snapshot("x", [])["x"]
        assert obs_runs.histogram_stats(empty) is None

    def test_stats_match_registry_quantile(self):
        """Bucket-resolution p95/mean agree with Histogram.quantile/mean
        for arbitrary seeded distributions."""
        import random

        for seed in range(20):
            rng = random.Random(seed)
            values = [rng.uniform(0.0, 2.0) for _ in range(rng.randint(1, 60))]
            registry = obs_metrics.MetricsRegistry()
            histogram = registry.histogram("h", (0.1, 0.5, 1.0))
            for value in values:
                histogram.observe(value)
            stats = obs_runs.histogram_stats(registry.snapshot()["h"])
            assert stats["p95"] == histogram.quantile(0.95)
            assert stats["mean"] == pytest.approx(histogram.mean)

    def test_diff_carries_mean_and_p95_deltas(self):
        base = make_record(
            metrics=hist_snapshot("tile.runtime_s", [0.05, 0.08, 0.09])
        )
        cand = make_record(
            metrics=hist_snapshot("tile.runtime_s", [0.4, 0.45, 0.9])
        )
        diff = obs_runs.diff_runs(base, cand)
        keyed = {d.key: d for d in diff.histogram_deltas}
        assert set(keyed) == {"tile.runtime_s.mean", "tile.runtime_s.p95"}
        mean = keyed["tile.runtime_s.mean"]
        assert mean.base == pytest.approx((0.05 + 0.08 + 0.09) / 3)
        assert mean.cand == pytest.approx((0.4 + 0.45 + 0.9) / 3)
        p95 = keyed["tile.runtime_s.p95"]
        assert (p95.base, p95.cand) == (0.1, 1.0)

    def test_markdown_has_distribution_section(self):
        base = make_record(
            metrics=hist_snapshot("tile.runtime_s", [0.05, 0.08, 0.09])
        )
        cand = make_record(
            metrics=hist_snapshot("tile.runtime_s", [0.4, 0.45, 0.9])
        )
        text = obs_runs.diff_markdown(obs_runs.diff_runs(base, cand))
        assert "### histograms (distribution deltas)" in text
        assert "| tile.runtime_s.mean |" in text
        assert "| tile.runtime_s.p95 |" in text

    def test_markdown_omits_section_without_histograms(self):
        text = obs_runs.diff_markdown(
            obs_runs.diff_runs(make_record(), make_record())
        )
        assert "### histograms" not in text

    def test_one_sided_histogram_still_listed(self):
        base = make_record()
        cand = make_record(metrics=hist_snapshot("x", [0.2, 0.3]))
        diff = obs_runs.diff_runs(base, cand)
        keyed = {d.key: d for d in diff.histogram_deltas}
        assert keyed["x.mean"].base is None
        assert keyed["x.mean"].cand == pytest.approx(0.25)
        assert "| x.p95 |" in obs_runs.diff_markdown(diff)


class TestRegressionGate:
    def test_identical_runs_pass(self):
        baselines = [make_record() for _ in range(3)]
        verdict = gate(make_record(), baselines)
        assert verdict.ok
        assert verdict.checked_spans > 0

    def test_injected_slowdown_fires_with_span_path_named(self):
        baselines = [make_record() for _ in range(3)]
        slow = make_record(scale=2.0)
        verdict = gate(slow, baselines)
        assert not verdict.ok
        keys = {r.key for r in verdict.regressions if r.kind == "span"}
        assert "tapeout/tapeout.correct" in keys
        assert "tapeout/tapeout.correct" in verdict.summary()

    def test_noise_floor_protects_tiny_spans(self):
        """The 1 ms orc span doubling must not trip the gate: it is
        far below the absolute floor even at a huge relative delta."""
        baselines = [make_record() for _ in range(3)]
        slow = make_record(scale=2.0)
        verdict = gate(
            slow, baselines,
            policy=obs_runs.RegressionPolicy(rel_threshold=0.25, abs_floor_s=0.05),
        )
        assert all(r.key != "tapeout/tapeout.orc" for r in verdict.regressions)

    def test_quality_growth_fires(self):
        baselines = [make_record(quality={"epe_rms_nm": 2.0})]
        worse = make_record(quality={"epe_rms_nm": 3.0})
        verdict = gate(worse, baselines)
        assert any(
            r.kind == "quality" and r.key == "epe_rms_nm"
            for r in verdict.regressions
        )

    def test_higher_is_better_keys_flip_direction(self):
        baselines = [make_record(quality={"mrc_clean": 1})]
        broken = make_record(quality={"mrc_clean": 0})
        verdict = gate(broken, baselines)
        assert any(r.key == "mrc_clean" for r in verdict.regressions)
        # ...and an improvement is not a regression.
        better = make_record(quality={"mrc_clean": 1})
        assert gate(
            better, [make_record(quality={"mrc_clean": 1})]
        ).ok

    def test_needs_a_baseline(self):
        with pytest.raises(ReproError):
            gate(make_record(), [])

    def test_zero_baseline_median_fails_without_dividing(self):
        verdict = gate(
            timed_record(0.002), [timed_record(0.0)],
            policy=obs_runs.RegressionPolicy(abs_floor_s=0.0),
        )
        assert not verdict.ok
        (regression,) = verdict.regressions
        assert (regression.key, regression.baseline) == ("tapeout", 0.0)
        assert regression.detail == (
            "+0.002 s over baseline median, threshold +25% and floor 0 s"
        )

    @pytest.mark.parametrize(
        "field", ["rel_threshold", "abs_floor_s", "quality_rel_threshold"]
    )
    @pytest.mark.parametrize("value", [-0.5, float("nan"), float("inf")])
    def test_policy_thresholds_are_finite_and_non_negative(self, field, value):
        with pytest.raises(ReproError, match=field):
            obs_runs.RegressionPolicy(**{field: value})
        assert getattr(obs_runs.RegressionPolicy(**{field: 0.0}), field) == 0.0


class TestDashboard:
    def test_dashboard_is_self_contained_html(self):
        records = [make_record(), make_record(), make_record(scale=1.5)]
        html = obs_runs.dashboard_html(records)
        assert html.startswith("<!doctype html>")
        assert "<svg" in html  # sparklines
        assert records[-1].run_id in html
        assert "http" not in html.split("</style>")[1]  # no external assets

    def test_empty_ledger_renders(self):
        assert "empty run ledger" in obs_runs.dashboard_html([])

    def test_write_dashboard(self, tmp_path):
        out = tmp_path / "dash.html"
        obs_runs.write_dashboard_html(out, [make_record()])
        assert out.read_text().startswith("<!doctype html>")


class TestAutoRecord:
    @pytest.fixture()
    def small_tapeout(self):
        target = Region.from_rects(
            [Rect(x, -400, x + 180, 400) for x in (0, 460)]
        )
        simulator = LithoSimulator(
            LithoConfig(optics=krf_annular(), pixel_nm=8.0, ambit_nm=600)
        )
        recipe = TapeoutRecipe(
            level=CorrectionLevel.MODEL,
            model_recipe=ModelOPCRecipe(max_iterations=1),
            tiling=TilingSpec(tile_nm=1500, halo_nm=300),
        )
        return target, simulator, recipe

    def test_instrumented_tapeout_appends_one_record(
        self, tmp_path, monkeypatch, small_tapeout
    ):
        target, simulator, recipe = small_tapeout
        monkeypatch.setenv(obs_runs.RUNS_DIR_ENV, str(tmp_path))
        with obs.capture():
            tapeout_region(target, simulator, dose=1.0, recipe=recipe,
                           verify=False)
        ledger = obs_runs.RunLedger(tmp_path)
        entries = ledger.entries()
        # Exactly one record: the nested correct_region must not add its own.
        assert [e.label for e in entries] == ["tapeout"]
        record = ledger.load_entry(entries[0])
        assert record.quality["figures"] > 0
        assert record.fingerprint
        assert any(root["name"] == "tapeout" for root in record.spans)

    def test_uninstrumented_run_records_nothing(
        self, tmp_path, monkeypatch, small_tapeout
    ):
        target, simulator, recipe = small_tapeout
        monkeypatch.setenv(obs_runs.RUNS_DIR_ENV, str(tmp_path))
        tapeout_region(target, simulator, dose=1.0, recipe=recipe,
                       verify=False)
        assert obs_runs.RunLedger(tmp_path).entries() == []

    def test_suppression_blocks_auto_record(
        self, tmp_path, monkeypatch, small_tapeout
    ):
        target, simulator, recipe = small_tapeout
        monkeypatch.setenv(obs_runs.RUNS_DIR_ENV, str(tmp_path))
        with obs_runs.suppress_auto_record():
            with obs.capture():
                tapeout_region(target, simulator, dose=1.0, recipe=recipe,
                               verify=False)
        assert obs_runs.RunLedger(tmp_path).entries() == []

    def test_disabled_without_env(self, monkeypatch):
        monkeypatch.delenv(obs_runs.RUNS_DIR_ENV, raising=False)
        assert not obs_runs.auto_enabled()


class TestQualityFromMetrics:
    def test_quality_gauges_and_tile_counters_lift(self):
        snapshot = {
            "quality.pw_area": {"kind": "gauge", "value": 1.5},
            "quality.lineend_pullback_nm": {"kind": "gauge", "value": 12.0},
            "opc.tile_retries": {"kind": "counter", "value": 2},
            "sim.aerial_calls": {"kind": "counter", "value": 99},
        }
        record = obs_runs.new_record(
            "x", {}, make_roots(), metrics=snapshot, git_rev=None
        )
        assert record.quality["pw_area"] == 1.5
        assert record.quality["lineend_pullback_nm"] == 12.0
        assert record.quality["tile_retries"] == 2
        assert "sim.aerial_calls" not in record.quality

    def test_histograms_flatten_to_counts_only(self):
        snapshot = {
            "tile.runtime_s": {
                "kind": "histogram", "count": 4, "sum": 1.23, "mean": 0.3,
                "min": 0.1, "max": 0.9,
                "buckets": [{"le": 1.0, "count": 4}, {"le": "inf", "count": 0}],
            }
        }
        flat = obs_runs.flatten_metrics(snapshot)
        assert flat == {"tile.runtime_s.count": 4}


class TestSchemaCompat:
    """Pre-spatial (``repro-run/1``) records stay loadable under 1.1."""

    def make_spatial(self, runtime=0.5):
        return {
            "version": 1,
            "window": [0, 0, 1000, 1000],
            "site_count": 1,
            "missing_sites": 0,
            "worst_sites": [
                {"x": 5, "y": 5, "normal": [1, 0], "tag": "normal",
                 "loop": 0, "fragment": 0, "epe_nm": 2.0,
                 "state": "found", "cell": None}
            ],
            "epe_grid": None,
            "tiles": [
                {"index": 0, "rect": [0, 0, 1000, 1000], "fragments": 4,
                 "iterations": 2, "converged": True,
                 "runtime_s": runtime, "curve": []}
            ],
            "tiles_converged": 1,
            "tiles_stalled": 0,
        }

    def test_v1_record_loads_with_schema_preserved(self):
        data = make_record().to_dict()
        assert data["schema"] == obs_runs.RUN_SCHEMA  # new records are 1.1
        data.pop("spatial", None)
        data["schema"] = "repro-run/1"
        record = obs_runs.RunRecord.from_dict(data)
        assert record.schema == "repro-run/1"
        assert record.spatial is None
        assert record.to_dict() == data  # byte-for-byte round trip

    def test_v1_record_round_trips_through_ledger(self, tmp_path):
        """A ledger written by the previous release loads, diffs and
        serialises unchanged under the 1.1 code."""
        data = make_record().to_dict()
        data.pop("spatial", None)
        data["schema"] = "repro-run/1"
        path = tmp_path / "runs.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(data, sort_keys=True) + "\n")
        ledger = obs_runs.RunLedger(tmp_path)
        loaded = ledger.load(data["run_id"])
        assert loaded.schema == "repro-run/1"
        assert loaded.to_dict() == data
        diff = obs_runs.diff_runs(loaded, make_record())
        assert not diff.changed_quality

    def test_spatial_payload_round_trips(self):
        record = obs_runs.new_record(
            "x", CONFIG, make_roots(), metrics={}, quality={"figures": 1},
            spatial=self.make_spatial(), git_rev=None,
        )
        assert record.schema == obs_runs.RUN_SCHEMA
        back = obs_runs.RunRecord.from_dict(record.to_dict())
        assert back.spatial == record.spatial
        assert back.canonical_json() == record.canonical_json()

    def test_canonical_form_ignores_tile_runtime(self):
        fast = obs_runs.new_record(
            "x", CONFIG, make_roots(), metrics={},
            spatial=self.make_spatial(runtime=0.1), git_rev=None,
        )
        slow = obs_runs.new_record(
            "x", CONFIG, make_roots(), metrics={},
            spatial=self.make_spatial(runtime=9.9), git_rev=None,
        )
        assert fast.to_dict()["spatial"] != slow.to_dict()["spatial"]
        assert fast.canonical_json() == slow.canonical_json()

    def test_canonical_form_sees_spatial_changes(self):
        good = obs_runs.new_record(
            "x", CONFIG, make_roots(), metrics={},
            spatial=self.make_spatial(), git_rev=None,
        )
        stalled_payload = self.make_spatial()
        stalled_payload["tiles"][0]["converged"] = False
        stalled_payload["tiles_converged"] = 0
        stalled_payload["tiles_stalled"] = 1
        stalled = obs_runs.new_record(
            "x", CONFIG, make_roots(), metrics={},
            spatial=stalled_payload, git_rev=None,
        )
        assert good.canonical_json() != stalled.canonical_json()


class TestPreflightSchema:
    """Schema 1.2: the additive static-preflight summary field."""

    PREFLIGHT = {
        "ok": True,
        "errors": 0,
        "warnings": 1,
        "info": 0,
        "codes": ["LNT104"],
    }

    def test_new_records_carry_the_current_schema(self):
        assert obs_runs.RUN_SCHEMA == "repro-run/1.5"
        assert make_record().schema == "repro-run/1.5"

    def test_preflight_payload_round_trips(self):
        record = obs_runs.new_record(
            "x", CONFIG, make_roots(), metrics={}, quality={"figures": 1},
            preflight=self.PREFLIGHT, git_rev=None,
        )
        back = obs_runs.RunRecord.from_dict(record.to_dict())
        assert back.preflight == self.PREFLIGHT
        assert back.canonical_json() == record.canonical_json()

    def test_absent_preflight_omitted_from_dict(self):
        data = make_record().to_dict()
        assert "preflight" not in data

    def test_pre_1_2_record_loads_and_diffs(self, tmp_path):
        """A 1.1 ledger (no preflight field) loads, diffs and serialises
        unchanged under the 1.2 code."""
        data = make_record().to_dict()
        data["schema"] = "repro-run/1.1"
        path = tmp_path / "runs.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(data, sort_keys=True) + "\n")
        ledger = obs_runs.RunLedger(tmp_path)
        loaded = ledger.load(data["run_id"])
        assert loaded.schema == "repro-run/1.1"
        assert loaded.preflight is None
        assert loaded.to_dict() == data
        fresh = obs_runs.new_record(
            "tapeout", CONFIG, make_roots(), metrics={},
            quality={"figures": 10}, preflight=self.PREFLIGHT, git_rev=None,
        )
        diff = obs_runs.diff_runs(loaded, fresh)
        assert not diff.changed_quality

    def test_preflight_round_trips_through_ledger(self, tmp_path):
        record = obs_runs.new_record(
            "x", CONFIG, make_roots(), metrics={}, quality={"figures": 1},
            preflight=self.PREFLIGHT, git_rev=None,
        )
        ledger = obs_runs.RunLedger(tmp_path)
        ledger.append(record)
        assert ledger.load(record.run_id).preflight == self.PREFLIGHT

    def test_instrumented_tapeout_records_preflight_verdict(
        self, tmp_path, monkeypatch
    ):
        from repro.litho import LithoSimulator, krf_annular
        from repro.opc import ModelOPCRecipe, TilingSpec

        target = Region.from_rects(
            [Rect(x, -400, x + 180, 400) for x in (0, 460)]
        )
        simulator = LithoSimulator(
            LithoConfig(optics=krf_annular(), pixel_nm=8.0, ambit_nm=600)
        )
        recipe = TapeoutRecipe(
            level=CorrectionLevel.MODEL,
            model_recipe=ModelOPCRecipe(max_iterations=1),
            tiling=TilingSpec(tile_nm=1500, halo_nm=300),
        )
        monkeypatch.setenv(obs_runs.RUNS_DIR_ENV, str(tmp_path))
        with obs.capture():
            tapeout_region(target, simulator, dose=1.0, recipe=recipe,
                           verify=False)
        ledger = obs_runs.RunLedger(tmp_path)
        record = ledger.load_entry(ledger.entries()[0])
        assert record.preflight is not None
        assert record.preflight["ok"] is True
        assert record.preflight["errors"] == 0


class TestEventsSchema:
    """Schema 1.3: the additive ``events_path`` + ``progress`` fields."""

    PROGRESS = {
        "complete": True, "dropped": 0, "events": 12, "failures": 0,
        "fallbacks": 0, "iterations": 3, "last_rms_epe_nm": 1.5,
        "phases": ["tapeout.correct"], "retries": 0, "run_label": "tapeout",
        "run_wall_s": 0.5, "seq_monotonic": True, "tiles_done": 2,
        "tiles_total": 2, "workers": 1, "worst_max_epe_nm": 40.0,
    }

    def _events(self, n=3):
        base = {"schema": "repro-event/1", "ts": 0.0, "pid": 1, "data": {}}
        stream = [{**base, "seq": 0, "type": "run.start"}]
        stream += [
            {**base, "seq": i, "type": "progress"} for i in range(1, n + 1)
        ]
        stream.append({**base, "seq": n + 1, "type": "run.end"})
        return stream

    def test_persist_run_events_writes_and_stamps(self, tmp_path):
        record = make_record()
        events = self._events()
        path = obs_runs.persist_run_events(
            tmp_path, record, events, self.PROGRESS
        )
        assert record.events_path == f"events/{record.run_id}.jsonl"
        assert record.progress == self.PROGRESS
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines == events
        for line in path.read_text().splitlines():
            assert line == json.dumps(json.loads(line), sort_keys=True)

    def test_events_fields_round_trip_through_ledger(self, tmp_path):
        record = make_record()
        obs_runs.persist_run_events(
            tmp_path, record, self._events(), self.PROGRESS
        )
        ledger = obs_runs.RunLedger(tmp_path)
        ledger.append(record)
        loaded = ledger.load(record.run_id)
        assert loaded.events_path == record.events_path
        assert loaded.progress == self.PROGRESS

    def test_absent_events_fields_omitted_from_dict(self):
        data = make_record().to_dict()
        assert "events_path" not in data
        assert "progress" not in data

    def test_canonical_form_excludes_events_and_progress(self, tmp_path):
        plain = make_record()
        stamped = make_record()
        obs_runs.persist_run_events(
            tmp_path, stamped, self._events(), self.PROGRESS
        )
        assert plain.canonical_json() == stamped.canonical_json()

    def test_pre_1_3_record_loads_unchanged(self, tmp_path):
        data = make_record().to_dict()
        data["schema"] = "repro-run/1.2"
        path = tmp_path / "runs.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(data, sort_keys=True) + "\n")
        loaded = obs_runs.RunLedger(tmp_path).load(data["run_id"])
        assert loaded.schema == "repro-run/1.2"
        assert loaded.events_path is None
        assert loaded.progress is None
        assert loaded.to_dict() == data

    def test_record_run_persists_captured_events(self, tmp_path, monkeypatch):
        from repro.obs import events as ev
        from repro.obs import watch

        monkeypatch.setenv(obs_runs.RUNS_DIR_ENV, str(tmp_path))
        with ev.run_scope("tapeout") as run_events:
            ev.emit("tile.scheduled", index=0)
            ev.emit("tile.done", index=0)
            ev.emit("progress", done=1, total=1)
        obs_runs.record_run(
            label="tapeout", config=CONFIG, roots=make_roots(),
            quality={"figures": 1}, events=run_events,
        )
        ledger = obs_runs.RunLedger(tmp_path)
        record = ledger.load_entry(ledger.entries()[0])
        assert record.events_path
        log_path = Path(tmp_path) / record.events_path
        tracker = watch.replay(log_path)
        assert tracker.summary() == record.progress
        assert record.progress["tiles_done"] == 1
        assert record.progress["complete"] is True


class TestMRCSchema:
    """Schema 1.5: the additive postflight ``mrc`` summary field."""

    MRC = {
        "ok": False,
        "violations": 2,
        "errors": 2,
        "warnings": 0,
        "by_rule": {"MRC101": 1, "MRC102": 1},
        "shot_count": 14,
        "vertex_count": 40,
        "figure_count": 3,
        "limits": {"min_width_nm": 40.0, "min_space_nm": 40.0},
        "markers": [
            {"rule_id": "MRC101", "kind": "width", "severity": "error",
             "marker": [0.0, 0.0, 30.0, 200.0], "measured_nm": 30.0,
             "limit_nm": 40.0, "cell": "TOP"},
        ],
    }

    def test_mrc_payload_round_trips(self, tmp_path):
        record = obs_runs.new_record(
            "x", CONFIG, make_roots(), metrics={}, quality={"figures": 1},
            mrc=self.MRC, git_rev=None,
        )
        ledger = obs_runs.RunLedger(tmp_path)
        ledger.append(record)
        loaded = ledger.load(record.run_id)
        assert loaded.mrc == self.MRC
        assert loaded.canonical_json() == record.canonical_json()

    def test_mrc_summary_lands_in_quality_gauges(self):
        record = obs_runs.new_record(
            "x", CONFIG, make_roots(), metrics={}, quality={"figures": 1},
            mrc=self.MRC, git_rev=None,
        )
        assert record.quality["mrc_violations"] == 2
        assert record.quality["mask_shot_count"] == 14

    def test_explicit_quality_wins_over_mrc_defaults(self):
        record = obs_runs.new_record(
            "x", CONFIG, make_roots(), metrics={},
            quality={"figures": 1, "mrc_violations": 7},
            mrc=self.MRC, git_rev=None,
        )
        assert record.quality["mrc_violations"] == 7

    def test_absent_mrc_omitted_from_dict(self):
        data = make_record().to_dict()
        assert "mrc" not in data

    def test_pre_1_5_record_loads_and_diffs(self, tmp_path):
        """A 1.4 ledger (no mrc field) loads, diffs and serialises
        unchanged under the 1.5 code."""
        data = make_record().to_dict()
        data["schema"] = "repro-run/1.4"
        path = tmp_path / "runs.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(data, sort_keys=True) + "\n")
        ledger = obs_runs.RunLedger(tmp_path)
        loaded = ledger.load(data["run_id"])
        assert loaded.schema == "repro-run/1.4"
        assert loaded.mrc is None
        assert loaded.to_dict() == data
        fresh = obs_runs.new_record(
            "tapeout", CONFIG, make_roots(), metrics={},
            quality={"figures": 10}, mrc=self.MRC, git_rev=None,
        )
        diff = obs_runs.diff_runs(loaded, fresh)
        assert diff is not None


class TestCorruptLedger:
    """Corrupt or truncated ledger files fail as one-line ReproErrors.

    The regression this guards: a half-written ``runs.jsonl`` line (a
    crashed run, a full disk) used to escape as a raw ``JSONDecodeError``
    traceback from every ``repro runs`` subcommand.
    """

    def test_corrupt_runs_jsonl_is_a_repro_error(self, tmp_path):
        (tmp_path / "runs.jsonl").write_text('{"truncated": \n')
        with pytest.raises(ReproError, match="line 1 is not valid JSON"):
            obs_runs.RunLedger(tmp_path).entries()

    def test_corrupt_line_in_healthy_ledger_names_the_line(self, tmp_path):
        ledger = obs_runs.RunLedger(tmp_path)
        ledger.append(make_record())
        with open(tmp_path / "runs.jsonl", "a", encoding="utf-8") as handle:
            handle.write("{oops\n")
        (tmp_path / "index.jsonl").unlink()  # force a rebuild
        with pytest.raises(ReproError, match="line 2 is not valid JSON"):
            obs_runs.RunLedger(tmp_path).entries()

    def test_corrupt_index_is_rebuilt_from_healthy_runs(self, tmp_path):
        ledger = obs_runs.RunLedger(tmp_path)
        record = make_record()
        ledger.append(record)
        (tmp_path / "index.jsonl").write_text("not json at all\n")
        fresh = obs_runs.RunLedger(tmp_path)
        entries = fresh.entries()
        assert [e.run_id for e in entries] == [record.run_id]
        # The rebuild also repaired the sidecar for the next reader.
        assert fresh.load_entry(entries[0]).run_id == record.run_id
