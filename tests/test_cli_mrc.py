"""End-to-end tests for ``repro mrc`` and the ``correct`` postflight gate."""

import json
import re

import pytest

from repro import obs
from repro.cli import main
from repro.flow import CorrectionLevel, correct_region
from repro.geometry import Rect
from repro.layout import Layer
from repro.layout.gds import read_gds, write_gds
from repro.layout.library import Library
from repro.obs import runs as obs_runs
from repro.obs.trace import Span

POLY = Layer(3)


@pytest.fixture(scope="module")
def clean_gds(tmp_path_factory):
    """Legal 180 nm bars: writable under the default mask rules."""
    lib = Library("mrc")
    cell = lib.new_cell("LINES")
    for x in (0, 500, 1000):
        cell.add(POLY, Rect(x, 0, x + 180, 2000))
    path = tmp_path_factory.mktemp("mrc") / "clean.gds"
    write_gds(lib, path)
    return path


@pytest.fixture(scope="module")
def dirty_gds(tmp_path_factory):
    """A 30 nm bar (MRC101) and a 30 nm gap (MRC102) by construction."""
    lib = Library("mrc")
    cell = lib.new_cell("DIRTY")
    cell.add(POLY, Rect(0, 0, 30, 200))
    cell.add(POLY, Rect(200, 0, 430, 200))
    cell.add(POLY, Rect(460, 0, 690, 200))
    path = tmp_path_factory.mktemp("mrc") / "dirty.gds"
    write_gds(lib, path)
    return path


@pytest.fixture(scope="module")
def jog_gds(tmp_path_factory):
    """A 4 nm jog 42 nm from a neighbour: smoothing the jog away would
    leave a 38 nm gap (MRC102 under the 40 nm limit)."""
    lib = Library("jog")
    cell = lib.new_cell("JOG")
    cell.add(POLY, Rect(0, 0, 100, 200))
    cell.add(POLY, Rect(0, 0, 104, 180))
    cell.add(POLY, Rect(142, 185, 300, 400))
    path = tmp_path_factory.mktemp("mrc") / "jog.gds"
    write_gds(lib, path)
    return path


@pytest.fixture(scope="module")
def block_gds(tmp_path_factory):
    path = tmp_path_factory.mktemp("mrc") / "block.gds"
    assert main(["generate", "block", "-o", str(path)]) == 0
    return path


class TestGdsMode:
    def test_clean_mask_exits_zero_with_shot_estimate(
        self, clean_gds, capsys
    ):
        assert main(["mrc", str(clean_gds), "--layer", "3"]) == 0
        out = capsys.readouterr().out
        assert "VSB shots" in out

    def test_dirty_mask_exits_one_with_localized_markers(
        self, dirty_gds, capsys
    ):
        assert main(["mrc", str(dirty_gds), "--layer", "3"]) == 1
        out = capsys.readouterr().out
        assert "MRC101" in out and "MRC102" in out

    def test_missing_layer_flag_is_operational_error(self, dirty_gds):
        assert main(["mrc", str(dirty_gds)]) == 2

    def test_custom_limits_change_the_verdict(self, clean_gds):
        assert main([
            "mrc", str(clean_gds), "--layer", "3", "--min-width", "200",
        ]) == 1

    def test_json_format_parses(self, dirty_gds, capsys):
        main(["mrc", str(dirty_gds), "--layer", "3", "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["ok"] is False
        assert "MRC101" in payload["summary"]["codes"]

    def test_sarif_format_lists_mrc_rules_and_artifact(
        self, dirty_gds, capsys
    ):
        main(["mrc", str(dirty_gds), "--layer", "3", "--format", "sarif"])
        log = json.loads(capsys.readouterr().out)
        assert log["version"] == "2.1.0"
        results = log["runs"][0]["results"]
        assert {r["ruleId"] for r in results} == {"MRC101", "MRC102"}
        uri = results[0]["locations"][0]["physicalLocation"][
            "artifactLocation"]["uri"]
        assert uri.endswith("dirty.gds")

    def test_output_file(self, dirty_gds, tmp_path):
        out = tmp_path / "mask.sarif"
        main([
            "mrc", str(dirty_gds), "--layer", "3",
            "--format", "sarif", "-o", str(out),
        ])
        assert json.loads(out.read_text())["version"] == "2.1.0"


class TestLedgerMode:
    def make_record(self, mrc):
        root = Span("tapeout")
        root.start_s, root.end_s = 0.0, 1.0
        return obs_runs.new_record(
            "tapeout", {"kind": "test"}, [root], metrics={},
            quality={"figures": 3}, mrc=mrc, git_rev=None,
        )

    def test_recorded_summary_renders_without_rescanning(
        self, tmp_path, capsys
    ):
        mrc = {
            "ok": False, "violations": 1, "errors": 1, "warnings": 0,
            "by_rule": {"MRC101": 1}, "shot_count": 9, "vertex_count": 24,
            "figure_count": 3,
            "limits": {"min_width_nm": 40, "min_space_nm": 40},
            "markers": [{
                "rule_id": "MRC101", "kind": "min-width",
                "severity": "error", "marker": [0, 0, 30, 200],
                "measured_nm": 30.0, "limit_nm": 40.0,
            }],
        }
        ledger = obs_runs.RunLedger(tmp_path)
        ledger.append(self.make_record(mrc))
        assert main(["mrc", "last", "--dir", str(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "MRC101" in out and "9 VSB shots" in out

    def test_pre_1_5_record_is_an_operational_error(self, tmp_path, capsys):
        record = self.make_record(None)
        data = record.to_dict()
        data["schema"] = "repro-run/1.4"
        with open(tmp_path / "runs.jsonl", "w", encoding="utf-8") as handle:
            handle.write(json.dumps(data, sort_keys=True) + "\n")
        assert main(["mrc", "last", "--dir", str(tmp_path)]) == 2
        assert "repro-run/1.5" in capsys.readouterr().err


class TestCorrectGate:
    def test_dirty_mask_blocks_export_with_no_artifact(
        self, dirty_gds, tmp_path, capsys
    ):
        out = tmp_path / "dirty_opc.gds"
        with obs.capture() as cap:
            code = main([
                "correct", str(dirty_gds), "--layer", "3", "--level",
                "none", "--dose", "1.0", "--no-preflight", "-o", str(out),
            ])
        assert code == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert "postflight" in err and "nothing was exported" in err
        names = []

        def walk(span):
            names.append(span.name)
            for child in span.children:
                walk(child)

        for root in cap.roots:
            walk(root)
        assert not any(name.startswith("export") for name in names)

    def test_no_postflight_ships_anyway(self, dirty_gds, tmp_path, capsys):
        out = tmp_path / "dirty_opc.gds"
        code = main([
            "correct", str(dirty_gds), "--layer", "3", "--level", "none",
            "--dose", "1.0", "--no-preflight", "--no-postflight",
            "-o", str(out),
        ])
        assert code == 0
        assert out.exists()

    @pytest.mark.parametrize(
        "fixture, level", [("jog_gds", "none"), ("block_gds", "rule")]
    )
    def test_exported_mask_is_the_signed_off_mask(
        self, fixture, level, request, tmp_path, capsys
    ):
        """--smooth finishes the mask before the gate, so the file written
        is the mask postflight signed off (level none ignores it)."""
        gds = request.getfixturevalue(fixture)
        out = tmp_path / "opc.gds"
        capsys.readouterr()
        assert main([
            "correct", str(gds), "--layer", "3", "--level", level,
            "--dose", "1.0", "--no-preflight", "--smooth", "4",
            "-o", str(out),
        ]) == 0
        signed = re.search(
            r"(\d+) vertices, (\d+) shots", capsys.readouterr().out
        ).groups()

        assert main([
            "mrc", str(out), "--layer", "3", "--datatype", "10",
        ]) == 0
        scanned = re.search(
            r"(\d+) vertices, ~(\d+) VSB shots", capsys.readouterr().out
        ).groups()
        assert scanned == signed

        # The export keeps the drawn layer beside the corrected one.
        exported = read_gds(out).top_cell()
        result = correct_region(
            exported.flat_region(POLY), CorrectionLevel(level), dose=1.0,
            preflight=False, smooth_tolerance_nm=4,
        )
        written = exported.flat_region(Layer(3, 10))
        assert written.merged().loops == result.corrected.loops

    def test_clean_mask_reports_postflight_verdict(
        self, clean_gds, tmp_path, capsys
    ):
        out = tmp_path / "clean_opc.gds"
        code = main([
            "correct", str(clean_gds), "--layer", "3", "--level", "none",
            "--dose", "1.0", "--no-preflight", "-o", str(out),
        ])
        assert code == 0
        assert out.exists()
        assert "postflight: clean" in capsys.readouterr().out
