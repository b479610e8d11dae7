"""End-to-end tests for ``repro profile --record`` and ``repro runs``.

Two identical recorded quickstart runs must diff to zero metric deltas
and pass the regression gate against each other; a hand-injected 2x
slowdown must make ``runs check`` exit non-zero naming the slow span.
"""

import json
import xml.etree.ElementTree as ET

import pytest

from repro.cli import main
from repro.obs import runs as obs_runs

PROFILE_ARGS = [
    "profile", "--record", "--max-iterations", "1", "--no-verify",
    "--tile-nm", "3000",
]


@pytest.fixture(scope="module")
def recorded_ledger(tmp_path_factory):
    """A ledger with two identically-configured quickstart runs."""
    runs_dir = tmp_path_factory.mktemp("ledger")
    for _ in range(2):
        assert main(PROFILE_ARGS + ["--runs-dir", str(runs_dir)]) == 0
    return runs_dir


class TestProfileRecord:
    def test_two_runs_recorded_with_same_fingerprint(self, recorded_ledger):
        entries = obs_runs.RunLedger(recorded_ledger).entries()
        assert len(entries) == 2
        assert entries[0].fingerprint == entries[1].fingerprint
        assert all(e.label == "profile:quickstart pattern" for e in entries)

    def test_delta_line_printed_on_second_run(self, recorded_ledger, capsys):
        assert main(PROFILE_ARGS + ["--runs-dir", str(recorded_ledger)]) == 0
        out = capsys.readouterr().out
        assert "recorded run" in out
        assert "% vs " in out  # one-line delta vs the previous fingerprint run

    def test_records_are_byte_stable_modulo_volatile(self, recorded_ledger):
        ledger = obs_runs.RunLedger(recorded_ledger)
        entries = ledger.entries()[:2]
        first, second = (ledger.load_entry(e) for e in entries)
        assert first.run_id != second.run_id
        assert first.canonical_json() == second.canonical_json()

    def test_quality_metrics_captured(self, recorded_ledger):
        record = obs_runs.RunLedger(recorded_ledger).load_entry(
            obs_runs.RunLedger(recorded_ledger).resolve("last")
        )
        assert record.quality["figures"] > 0
        assert record.quality["vertices"] > 0
        assert "mrc_clean" in record.quality


class TestRunsCommands:
    def test_list(self, recorded_ledger, capsys):
        assert main(["runs", "list", "--dir", str(recorded_ledger)]) == 0
        out = capsys.readouterr().out
        assert "profile:quickstart pattern" in out

    def test_list_empty_dir(self, tmp_path, capsys):
        assert main(["runs", "list", "--dir", str(tmp_path)]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_show(self, recorded_ledger, capsys):
        assert main(["runs", "show", "last", "--dir", str(recorded_ledger)]) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out
        assert "tapeout" in out

    def test_diff_identical_runs_zero_metric_deltas(self, recorded_ledger, capsys):
        code = main(
            ["runs", "diff", "last~1", "last", "--dir", str(recorded_ledger)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "(no metric deltas)" in out
        assert "span wall time" in out

    def test_check_passes_against_itself(self, recorded_ledger, capsys):
        code = main(
            ["runs", "check", "--baseline", "1", "--dir", str(recorded_ledger)]
        )
        assert code == 0
        assert "runs check: OK" in capsys.readouterr().out

    def test_check_without_baseline_is_ok(self, tmp_path, capsys):
        assert main(PROFILE_ARGS + ["--runs-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        assert main(["runs", "check", "--dir", str(tmp_path)]) == 0
        assert "insufficient history (have 0, need 3)" in (
            capsys.readouterr().out
        )

    def test_check_against_a_zero_second_baseline(self, tmp_path, capsys):
        from tests.obs.test_runs import timed_record

        ledger = obs_runs.RunLedger(tmp_path)
        ledger.append(timed_record(0.0))
        ledger.append(timed_record(0.002))
        code = main(
            ["runs", "check", "--against", "prev", "--abs-floor", "0",
             "--dir", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out.startswith("runs check: FAIL (1 regressions)")
        assert "REGRESSION [span] tapeout: 0 -> 0.002 (+0.002 s over" in captured.out
        assert captured.err == ""

    def test_check_strict_blocks_on_thin_history(self, tmp_path, capsys):
        assert main(PROFILE_ARGS + ["--runs-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        code = main(["runs", "check", "--strict", "--dir", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "insufficient history" in captured.err

    def test_report_writes_dashboard(self, recorded_ledger, tmp_path, capsys):
        out_path = tmp_path / "dash.html"
        code = main(
            ["runs", "report", "--dir", str(recorded_ledger),
             "-o", str(out_path)]
        )
        assert code == 0
        html = out_path.read_text()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html

    def test_unknown_run_reference_errors(self, recorded_ledger, capsys):
        code = main(
            ["runs", "show", "zzzznope", "--dir", str(recorded_ledger)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err


class TestCheckGateFires:
    def _slow_copy(self, record, factor):
        """The same record with every span duration scaled by ``factor``."""
        def scale(node):
            return {
                "name": node["name"],
                "start_s": node["start_s"] * factor,
                "duration_s": node["duration_s"] * factor,
                "attrs": node.get("attrs", {}),
                "children": [scale(c) for c in node.get("children", [])],
            }

        return obs_runs.new_record(
            record.label,
            record.config,
            [scale(root) for root in record.spans],
            metrics=record.metrics,
            quality=record.quality,
            git_rev=None,
        )

    def test_injected_slowdown_exits_nonzero(
        self, recorded_ledger, tmp_path, capsys
    ):
        source = obs_runs.RunLedger(recorded_ledger)
        baseline = source.load_entry(source.resolve("last"))
        gated = obs_runs.RunLedger(tmp_path / "gated")
        gated.append(self._slow_copy(baseline, 1.0))
        gated.append(self._slow_copy(baseline, 2.0))
        code = main(
            ["runs", "check", "--baseline", "1",
             "--dir", str(tmp_path / "gated")]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "runs check: FAIL" in out
        assert "tapeout/tapeout.correct" in out  # offending span path named

    def test_against_explicit_baseline(self, recorded_ledger, tmp_path, capsys):
        source = obs_runs.RunLedger(recorded_ledger)
        baseline = source.load_entry(source.resolve("last"))
        gated = obs_runs.RunLedger(tmp_path / "gated2")
        first = self._slow_copy(baseline, 1.0)
        gated.append(first)
        gated.append(self._slow_copy(baseline, 2.0))
        code = main(
            ["runs", "check", "--against", first.run_id,
             "--dir", str(tmp_path / "gated2")]
        )
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


def _scaled_copy(record, factor, jitter=0.0):
    """The same record with every span duration scaled by ``factor``."""
    scale = factor + jitter

    def walk(node):
        return {
            "name": node["name"],
            "start_s": node["start_s"] * scale,
            "duration_s": node["duration_s"] * scale,
            "attrs": node.get("attrs", {}),
            "children": [walk(c) for c in node.get("children", [])],
        }

    return obs_runs.new_record(
        record.label,
        record.config,
        [walk(root) for root in record.spans],
        metrics=record.metrics,
        quality=record.quality,
        git_rev=None,
    )


class TestRegressionIntelligenceCli:
    """``runs check --json/--adaptive`` and ``runs analyze``."""

    @pytest.fixture()
    def synthetic_ledger(self, recorded_ledger, tmp_path):
        """Five near-identical runs cloned from one recorded baseline."""
        source = obs_runs.RunLedger(recorded_ledger)
        base = source.load_entry(source.resolve("last"))
        ledger = obs_runs.RunLedger(tmp_path / "synthetic")
        for jitter in (0.0, 0.001, -0.001, 0.002, -0.002):
            ledger.append(_scaled_copy(base, 1.0, jitter))
        return tmp_path / "synthetic", base

    def test_check_json_has_full_comparison_table(
        self, recorded_ledger, capsys
    ):
        code = main(
            ["runs", "check", "--baseline", "1", "--json",
             "--dir", str(recorded_ledger)]
        )
        assert code == 0
        out = capsys.readouterr().out.strip()
        parsed = json.loads(out)
        assert parsed["ok"] is True
        assert parsed["checked"]["spans"] > 0
        # Every checked item appears, pass or fail, with its margin.
        assert len(parsed["comparisons"]) >= parsed["checked"]["spans"]
        assert {
            "kind", "key", "baseline", "candidate", "margin", "verdict"
        } <= set(parsed["comparisons"][0])
        assert out == json.dumps(parsed, sort_keys=True)

    def test_adaptive_gate_fails_injected_slowdown(
        self, synthetic_ledger, capsys
    ):
        runs_dir, base = synthetic_ledger
        obs_runs.RunLedger(runs_dir).append(_scaled_copy(base, 2.0))
        code = main(
            ["runs", "check", "--adaptive", "--json", "--dir", str(runs_dir)]
        )
        assert code == 1
        parsed = json.loads(capsys.readouterr().out)
        assert parsed["ok"] is False
        assert any("adaptive" in note for note in parsed["notes"])
        assert any(
            r["key"] == "tapeout/tapeout.correct"
            for r in parsed["regressions"]
        )

    def test_adaptive_gate_passes_same_noise_candidate(
        self, synthetic_ledger, capsys
    ):
        runs_dir, base = synthetic_ledger
        obs_runs.RunLedger(runs_dir).append(_scaled_copy(base, 1.0, 0.001))
        code = main(
            ["runs", "check", "--adaptive", "--dir", str(runs_dir)]
        )
        assert code == 0
        assert "runs check: OK" in capsys.readouterr().out

    def test_analyze_markdown_report(self, synthetic_ledger, capsys):
        runs_dir, _ = synthetic_ledger
        assert main(["runs", "analyze", "--dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "run.wall_s" in out
        assert "| metric |" in out

    def test_analyze_json_is_deterministic(self, synthetic_ledger, capsys):
        runs_dir, _ = synthetic_ledger
        assert main(
            ["runs", "analyze", "--json", "--dir", str(runs_dir)]
        ) == 0
        out = capsys.readouterr().out.strip()
        parsed = json.loads(out)
        assert "run.wall_s" in parsed["series"]
        assert len(parsed["run_ids"]) == 5
        assert out == json.dumps(parsed, sort_keys=True)

    def test_analyze_named_metric_only(self, synthetic_ledger, capsys):
        runs_dir, _ = synthetic_ledger
        assert main(
            ["runs", "analyze", "run.wall_s", "--json", "--dir", str(runs_dir)]
        ) == 0
        parsed = json.loads(capsys.readouterr().out)
        assert list(parsed["series"]) == ["run.wall_s"]

    def test_analyze_empty_ledger_is_graceful(self, tmp_path, capsys):
        assert main(["runs", "analyze", "--dir", str(tmp_path)]) == 0
        assert "no runs recorded" in capsys.readouterr().out

    def test_check_reads_slo_file(self, synthetic_ledger, tmp_path, capsys):
        runs_dir, _ = synthetic_ledger
        slo_path = tmp_path / "repro-slo.toml"
        slo_path.write_text(
            '["run.wall_s"]\nobjective = 1e-6\n'
            'direction = "below"\nwindow = 5\nbudget = 0.0\n'
        )
        code = main(
            ["runs", "check", "--slo", str(slo_path), "--json",
             "--dir", str(runs_dir)]
        )
        assert code == 1
        parsed = json.loads(capsys.readouterr().out)
        assert any(r["kind"] == "slo" for r in parsed["regressions"])


class TestInspect:
    """``repro inspect``: worst-site table, artifacts, pre-spatial grace."""

    @pytest.fixture(scope="class")
    def spatial_ledger(self, tmp_path_factory):
        """One recorded run with verification on, so sites are captured."""
        runs_dir = tmp_path_factory.mktemp("spatial-ledger")
        args = [
            "profile", "--record", "--max-iterations", "1",
            "--tile-nm", "3000", "--runs-dir", str(runs_dir),
        ]
        assert main(args) == 0
        return runs_dir

    def test_record_carries_spatial_and_quality(self, spatial_ledger):
        ledger = obs_runs.RunLedger(spatial_ledger)
        record = ledger.load_entry(ledger.resolve("last"))
        assert record.schema == obs_runs.RUN_SCHEMA
        payload = record.spatial
        assert payload["site_count"] > 0
        assert payload["worst_sites"]
        assert payload["tiles"]
        assert record.quality["tiles_converged"] + record.quality[
            "tiles_stalled"
        ] == len(payload["tiles"])
        assert "missing_sites" in record.quality

    def test_show_prints_spatial_summary_line(self, spatial_ledger, capsys):
        assert main(["runs", "show", "last", "--dir", str(spatial_ledger)]) == 0
        out = capsys.readouterr().out
        assert "spatial:" in out
        assert "EPE sites" in out
        assert "repro inspect" in out

    def test_inspect_prints_tables_and_writes_artifacts(
        self, spatial_ledger, tmp_path, capsys
    ):
        prefix = str(tmp_path / "map")
        code = main(
            ["inspect", "last", "--dir", str(spatial_ledger), "-o", prefix]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Worst EPE sites" in out
        assert "Tile convergence" in out
        assert "| # | x | y |" in out.replace("(nm)", "").replace("  ", " ")
        svg = (tmp_path / "map.svg").read_text()
        ET.fromstring(svg)  # valid XML
        assert "EPE hotspot map" in svg
        html = (tmp_path / "map.html").read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "<svg" in html

    def test_inspect_no_artifacts_flag(self, spatial_ledger, tmp_path, capsys):
        prefix = str(tmp_path / "skip")
        code = main(
            ["inspect", "last", "--dir", str(spatial_ledger),
             "-o", prefix, "--no-artifacts"]
        )
        assert code == 0
        assert not (tmp_path / "skip.svg").exists()
        assert "wrote" not in capsys.readouterr().out

    def test_inspect_defaults_to_last(self, spatial_ledger, capsys):
        code = main(
            ["inspect", "--dir", str(spatial_ledger), "--no-artifacts"]
        )
        assert code == 0
        assert "Worst EPE sites" in capsys.readouterr().out

    @pytest.fixture()
    def v1_ledger(self, tmp_path, spatial_ledger):
        """A ledger holding one pre-spatial (schema repro-run/1) record."""
        source = obs_runs.RunLedger(spatial_ledger)
        data = source.load_entry(source.resolve("last")).to_dict()
        data.pop("spatial", None)
        data["schema"] = "repro-run/1"
        with open(tmp_path / "runs.jsonl", "w", encoding="utf-8") as handle:
            handle.write(json.dumps(data, sort_keys=True) + "\n")
        return tmp_path

    def test_inspect_pre_spatial_record_is_graceful(self, v1_ledger, capsys):
        code = main(["inspect", "last", "--dir", str(v1_ledger)])
        assert code == 0
        out = capsys.readouterr().out
        assert "no spatial data" in out
        assert "repro-run/1" in out

    def test_show_pre_spatial_record_is_graceful(self, v1_ledger, capsys):
        assert main(["runs", "show", "last", "--dir", str(v1_ledger)]) == 0
        out = capsys.readouterr().out
        assert "spatial: none recorded" in out


class TestJsonOutput:
    """``runs list --json`` / ``runs show --json``: deterministic output."""

    def test_list_json_is_deterministic_sorted(self, recorded_ledger, capsys):
        assert main(["runs", "list", "--json", "--dir", str(recorded_ledger)]) == 0
        out = capsys.readouterr().out.strip()
        parsed = json.loads(out)
        assert isinstance(parsed, list) and len(parsed) >= 2
        assert {"run_id", "label", "fingerprint", "wall_s"} <= set(parsed[0])
        # Byte-stable: re-serialising with sort_keys reproduces the output.
        assert out == json.dumps(parsed, sort_keys=True)

    def test_list_json_respects_limit_and_filters(self, recorded_ledger, capsys):
        assert main(
            ["runs", "list", "--json", "-n", "1", "--dir", str(recorded_ledger)]
        ) == 0
        assert len(json.loads(capsys.readouterr().out)) == 1
        assert main(
            ["runs", "list", "--json", "--label", "nope",
             "--dir", str(recorded_ledger)]
        ) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_show_json_round_trips_the_record(self, recorded_ledger, capsys):
        assert main(
            ["runs", "show", "last", "--json", "--dir", str(recorded_ledger)]
        ) == 0
        out = capsys.readouterr().out.strip()
        parsed = json.loads(out)
        assert parsed["schema"] == obs_runs.RUN_SCHEMA
        assert parsed["label"] == "profile:quickstart pattern"
        assert out == json.dumps(parsed, sort_keys=True)


class TestCorruptLedgerCli:
    """Broken ledgers and SLO files exit 2 with a one-line error, never a
    traceback."""

    def _assert_graceful(self, argv, capsys, match):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert match in captured.err
        assert "Traceback" not in captured.err

    def test_empty_dir_show_errors(self, tmp_path, capsys):
        self._assert_graceful(
            ["runs", "show", "last", "--dir", str(tmp_path)],
            capsys, "no matching runs",
        )

    def test_empty_dir_diff_errors(self, tmp_path, capsys):
        self._assert_graceful(
            ["runs", "diff", "prev", "last", "--dir", str(tmp_path)],
            capsys, "no matching runs",
        )

    def test_empty_dir_check_passes_with_note(self, tmp_path, capsys):
        # A fresh ledger is not an error: the gate passes with an
        # insufficient-history note so first CI runs do not block.
        assert main(["runs", "check", "--dir", str(tmp_path)]) == 0
        assert "insufficient history (have 0, need 3)" in (
            capsys.readouterr().out
        )

    def test_empty_dir_check_strict_errors(self, tmp_path, capsys):
        self._assert_graceful(
            ["runs", "check", "--strict", "--dir", str(tmp_path)],
            capsys, "insufficient history",
        )

    def test_malformed_slo_file_errors_one_line(self, tmp_path, capsys):
        slo = tmp_path / "bad.toml"
        slo.write_text('["run.wall_s"\nobjective = 1.0\n')
        self._assert_graceful(
            ["runs", "check", "--slo", str(slo), "--dir", str(tmp_path)],
            capsys, f"{slo}: ",
        )

    def test_corrupt_runs_jsonl_errors_one_line(self, tmp_path, capsys):
        (tmp_path / "runs.jsonl").write_text('{"half a record...\n')
        self._assert_graceful(
            ["runs", "list", "--dir", str(tmp_path)], capsys, "not valid JSON"
        )

    def test_truncated_tail_line_errors_one_line(
        self, recorded_ledger, tmp_path, capsys
    ):
        runs = (recorded_ledger / "runs.jsonl").read_text()
        broken = tmp_path / "broken"
        broken.mkdir()
        # A crash mid-append: the last line stops partway through a record.
        half_line = runs.splitlines()[0][:40] + "\n"
        (broken / "runs.jsonl").write_text(runs + half_line)
        self._assert_graceful(
            ["runs", "list", "--dir", str(broken)], capsys, "not valid JSON"
        )


class TestWatchCli:
    """``repro watch``: replay from ledger refs and raw event logs."""

    @pytest.fixture(scope="class")
    def events_ledger(self, tmp_path_factory):
        """One recorded parallel run with a persisted event stream."""
        runs_dir = tmp_path_factory.mktemp("events-ledger")
        events = runs_dir / "live.jsonl"
        args = PROFILE_ARGS + [
            "--runs-dir", str(runs_dir), "--workers", "2",
            "--events", str(events),
        ]
        assert main(args) == 0
        return runs_dir, events

    def test_record_carries_events_and_progress(self, events_ledger):
        runs_dir, _ = events_ledger
        ledger = obs_runs.RunLedger(runs_dir)
        record = ledger.load_entry(ledger.resolve("last"))
        assert record.events_path
        assert (runs_dir / record.events_path).exists()
        assert record.progress["complete"] is True
        assert record.progress["tiles_done"] == record.progress["tiles_total"]
        assert record.progress["seq_monotonic"] is True

    def test_replay_ledger_ref_matches_recorded_summary(
        self, events_ledger, capsys
    ):
        runs_dir, _ = events_ledger
        code = main(["watch", "--replay", "last", "--dir", str(runs_dir)])
        out = capsys.readouterr().out
        assert code == 0
        assert "replay matches the recorded progress summary" in out
        assert "repro watch · profile:quickstart pattern [done]" in out

    def test_one_tile_run_records_and_replays_its_progress(
        self, tmp_path, capsys
    ):
        """A window that fits one tile still goes through the tile loop."""
        args = [
            "profile", "--record", "--max-iterations", "1", "--no-verify",
            "--dose", "1.0", "--tile-nm", "100000", "--runs-dir", str(tmp_path),
        ]
        assert main(args) == 0
        ledger = obs_runs.RunLedger(tmp_path)
        record = ledger.load_entry(ledger.resolve("last"))
        assert record.progress["tiles_done"] == record.progress["tiles_total"] == 1
        capsys.readouterr()
        assert main(["watch", "--replay", "last", "--dir", str(tmp_path)]) == 0
        tiles = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("tiles ")
        ]
        assert len(tiles) == 1 and " 1/1 " in tiles[0]

    def test_replay_live_sink_file_renders(self, events_ledger, capsys):
        _, events = events_ledger
        assert main(["watch", "--replay", str(events)]) == 0
        out = capsys.readouterr().out
        assert "[done]" in out
        assert "seq ok" in out

    def test_once_renders_current_contents(self, events_ledger, capsys):
        _, events = events_ledger
        assert main(["watch", str(events), "--once", "--validate"]) == 0
        assert "events" in capsys.readouterr().out

    def test_replay_run_without_events_errors(self, recorded_ledger, capsys):
        # recorded_ledger predates --events only if captures are absent;
        # strip the pointer from a copy to simulate a pre-1.3 record.
        ledger = obs_runs.RunLedger(recorded_ledger)
        data = ledger.load_entry(ledger.resolve("last")).to_dict()
        data.pop("events_path", None)
        data.pop("progress", None)
        stripped = recorded_ledger / "stripped"
        stripped.mkdir(exist_ok=True)
        (stripped / "runs.jsonl").write_text(
            json.dumps(data, sort_keys=True) + "\n"
        )
        code = main(["watch", "--replay", "last", "--dir", str(stripped)])
        captured = capsys.readouterr()
        assert code == 2
        assert "no recorded event stream" in captured.err

    def test_watch_without_target_errors(self, capsys):
        assert main(["watch"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_log_replay_errors(self, tmp_path, capsys):
        code = main(
            ["watch", "--replay", "zzz-no-such-run", "--dir", str(tmp_path)]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err
