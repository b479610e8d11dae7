"""End-to-end tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.layout import Layer, read_gds


@pytest.fixture(scope="module")
def stdcell_gds(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "cells.gds"
    assert main(["generate", "stdcells", "--node", "180nm", "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def block_gds(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "block.gds"
    code = main(
        ["generate", "block", "--node", "180nm", "--rows", "2",
         "--row-width", "6000", "--seed", "5", "-o", str(path)]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_block_readable(self, block_gds):
        library = read_gds(block_gds)
        assert any(c.name.endswith("_top") for c in library.cells)

    def test_sram(self, tmp_path):
        path = tmp_path / "sram.gds"
        assert main(["generate", "sram", "-o", str(path)]) == 0
        assert "SRAM6T" in read_gds(path)

    def test_stdcells(self, stdcell_gds):
        assert "NAND2" in read_gds(stdcell_gds)


class TestStats:
    def test_stats_runs(self, block_gds, capsys):
        assert main(["stats", str(block_gds)]) == 0
        out = capsys.readouterr().out
        assert "flat figures" in out
        assert "poly" in out or "L3.0" in out

    def test_stats_named_cell(self, stdcell_gds, capsys):
        assert main(["stats", str(stdcell_gds), "--cell", "INV"]) == 0
        assert "INV" in capsys.readouterr().out


class TestDRC:
    def test_clean_block(self, block_gds, capsys):
        assert main(["drc", str(block_gds), "--node", "180nm"]) == 0
        assert "clean" in capsys.readouterr().out

    def test_violating_layout(self, tmp_path, capsys):
        from repro.geometry import Rect
        from repro.layout import Library, POLY, write_gds

        lib = Library("bad")
        cell = lib.new_cell("bad")
        cell.add(POLY, Rect(0, 0, 50, 2000))  # below min width
        path = tmp_path / "bad.gds"
        write_gds(lib, path)
        assert main(["drc", str(path), "--node", "180nm"]) == 1
        assert "poly.w" in capsys.readouterr().out


class TestCorrect:
    def test_rule_correction(self, stdcell_gds, tmp_path, capsys):
        out = tmp_path / "inv_opc.gds"
        code = main(
            ["correct", str(stdcell_gds), "--cell", "INV", "--layer", "3",
             "--level", "rule", "--dose", "1.0", "-o", str(out)]
        )
        assert code == 0
        library = read_gds(out)
        cell = library["INV_opc"]
        assert not cell.region(Layer(3, 0)).is_empty
        assert not cell.region(Layer(3, 10)).is_empty  # OPC datatype

    def test_missing_layer_errors(self, stdcell_gds, tmp_path, capsys):
        code = main(
            ["correct", str(stdcell_gds), "--cell", "INV", "--layer", "55",
             "--level", "rule", "--dose", "1.0", "-o", str(tmp_path / "x.gds")]
        )
        assert code == 2
        assert "no geometry" in capsys.readouterr().err

    def test_model_correction_auto_dose(self, stdcell_gds, tmp_path, capsys):
        out = tmp_path / "inv_model.gds"
        code = main(
            ["correct", str(stdcell_gds), "--cell", "INV", "--layer", "3",
             "--level", "model", "-o", str(out)]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "auto dose-to-size" in text
        corrected = read_gds(out)["INV_opc"].region(Layer(3, 10))
        assert corrected.num_vertices > 50  # fragmentation jogs present

    def test_smooth_reduces_vertices(self, stdcell_gds, tmp_path, capsys):
        raw = tmp_path / "raw.gds"
        smooth = tmp_path / "smooth.gds"
        base = ["correct", str(stdcell_gds), "--cell", "INV", "--layer", "3",
                "--level", "model"]
        assert main(base + ["-o", str(raw)]) == 0
        assert main(base + ["--smooth", "4", "-o", str(smooth)]) == 0
        raw_vertices = read_gds(raw)["INV_opc"].region(Layer(3, 10)).num_vertices
        smooth_vertices = (
            read_gds(smooth)["INV_opc"].region(Layer(3, 10)).num_vertices
        )
        assert smooth_vertices < raw_vertices

    def test_report_subcommand(self, stdcell_gds, capsys):
        code = main(
            ["report", str(stdcell_gds), "--cell", "INV", "--layer", "3",
             "--levels", "none,rule", "--dose", "1.0"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "| none |" in out and "| rule |" in out
        assert "Worst data volume" in out

    def test_profile_flag_prints_span_tree(self, stdcell_gds, tmp_path, capsys):
        code = main(
            ["correct", str(stdcell_gds), "--cell", "INV", "--layer", "3",
             "--level", "rule", "--dose", "1.0",
             "-o", str(tmp_path / "inv.gds"), "--profile"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "### Span tree" in out
        assert "| correct |" in out

    def test_report_bad_level(self, stdcell_gds, capsys):
        code = main(
            ["report", str(stdcell_gds), "--cell", "INV", "--layer", "3",
             "--levels", "none,magic", "--dose", "1.0"]
        )
        assert code == 2
        assert "unknown correction level" in capsys.readouterr().err

    def test_trace_flag_writes_trace_json(self, stdcell_gds, tmp_path, capsys):
        import json

        out = tmp_path / "inv_opc.gds"
        trace = tmp_path / "trace.json"
        code = main(
            ["correct", str(stdcell_gds), "--cell", "INV", "--layer", "3",
             "--level", "rule", "--dose", "1.0", "-o", str(out),
             "--trace", str(trace)]
        )
        assert code == 0
        document = json.loads(trace.read_text())
        assert document["schema"].startswith("repro-trace/")
        assert any(span["name"] == "correct" for span in document["spans"])
        assert "wrote trace" in capsys.readouterr().out

class TestBadInput:
    """Bad input exits 2 with one ``error: ...`` line, not a traceback."""

    def correct(self, gds, tmp_path, *extra, output=None):
        return main(
            ["correct", str(gds), "--cell", "INV", "--layer", "3",
             "--level", "rule", "-o", str(output or tmp_path / "out.gds"), *extra]
        )

    @pytest.mark.parametrize("dose", ["abc", "-1", "0", "nan", "inf"])
    def test_dose_must_be_positive_or_auto(self, stdcell_gds, tmp_path, capsys, dose):
        with pytest.raises(SystemExit) as exit_info:
            self.correct(stdcell_gds, tmp_path, "--dose", dose)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument --dose: expected a positive number or 'auto', got '{dose}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["correct", "check", "profile"])
    @pytest.mark.parametrize(
        "flag, value, minimum",
        [("--workers", "0", 1), ("--workers", "two", 1), ("--max-retries", "-1", 0)],
    )
    def test_pool_flags_are_range_checked(self, capsys, command, flag, value, minimum):
        with pytest.raises(SystemExit) as exit_info:
            main([command, flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: expected an integer >= {minimum}, got '{value}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, flag",
        [("check", "--baseline"), ("list", "-n"), ("analyze", "--limit"),
         ("report", "--limit")],
    )
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_runs_counts_are_range_checked(self, tmp_path, capsys, command, flag, value):
        # Unchecked, 0 would select every run and -1 all but the oldest.
        with pytest.raises(SystemExit) as exit_info:
            main(["runs", command, "--dir", str(tmp_path), flag, value])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {flag}: expected an integer >= 1, got '{value}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, field",
        [
            # A negative margin flags identical runs as regressions ...
            (["--quality-rel", "-0.5"], "quality_rel_threshold"),
            (["--rel", "-1", "--abs-floor", "-1"], "rel_threshold"),
            # ... and a NaN one makes a gate that can never fail.
            (["--rel", "nan", "--quality-rel", "nan"], "rel_threshold"),
            (["--abs-floor", "inf"], "abs_floor_s"),
        ],
    )
    def test_runs_check_thresholds_are_finite_and_non_negative(
        self, tmp_path, capsys, flags, field
    ):
        assert main(["runs", "check", "--dir", str(tmp_path), *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: regression policy {field} must be a finite number >= 0")
        assert err.count("\n") == 1

    def test_unwritable_output(self, stdcell_gds, tmp_path, capsys):
        output = tmp_path / "missing-dir" / "out.gds"
        assert self.correct(stdcell_gds, tmp_path, "--dose", "1.0", output=output) == 2
        assert capsys.readouterr().err.startswith(f"error: {output}: ")

    def test_unwritable_trace(self, stdcell_gds, tmp_path, capsys):
        trace = tmp_path / "missing-dir" / "trace.json"
        code = self.correct(stdcell_gds, tmp_path, "--dose", "1.0", "--trace", str(trace))
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {trace}: ")

    def test_negative_smoothing_is_rejected(self, stdcell_gds, tmp_path, capsys):
        code = self.correct(stdcell_gds, tmp_path, "--dose", "1.0", "--smooth", "-1")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "smooth" in err
        assert not (tmp_path / "out.gds").exists()

    def test_missing_input_gds(self, tmp_path, capsys):
        gds = tmp_path / "missing.gds"
        assert self.correct(gds, tmp_path, "--dose", "1.0") == 2
        assert capsys.readouterr().err == f"error: {gds}: No such file or directory\n"

    @pytest.mark.parametrize("command", ["correct", "check", "mrc", "profile", "report"])
    def test_empty_layer_is_named(self, stdcell_gds, tmp_path, capsys, command):
        output = tmp_path / "out.gds"
        argv = [command, str(stdcell_gds), "--cell", "INV", "--layer", "99"]
        if command in ("correct", "profile", "report"):
            argv += ["--dose", "1.0"]
        if command == "correct":
            argv += ["-o", str(output)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: cell 'INV' has no geometry on layer 99/0\n"
        assert not output.exists()

    def test_garbage_input_gds_is_named(self, tmp_path, capsys):
        gds = tmp_path / "garbage.gds"
        gds.write_bytes(b"not a GDSII stream")
        assert main(["stats", str(gds)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {gds}: bad record length ")


class TestProfile:
    def test_profile_quickstart_smoke(self, capsys):
        """`repro profile` on the built-in quickstart pattern exits 0."""
        code = main(
            ["profile", "--level", "rule", "--dose", "1.0", "--no-verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "quickstart pattern" in out
        assert "### Span tree" in out
        assert "tapeout" in out

    def test_profile_writes_trace_json(self, tmp_path, capsys):
        import json

        trace = tmp_path / "profile.json"
        code = main(
            ["profile", "--level", "rule", "--dose", "1.0", "--no-verify",
             "--trace", str(trace)]
        )
        assert code == 0
        document = json.loads(trace.read_text())
        assert document["spans"][0]["name"] == "tapeout"
        stage_names = {
            child["name"] for child in document["spans"][0]["children"]
        }
        assert "tapeout.correct" in stage_names

    def test_profile_gds_needs_layer(self, stdcell_gds, capsys):
        for command in ("check", "mrc", "profile"):
            assert main([command, str(stdcell_gds)]) == 2
            err = capsys.readouterr().err
            assert err == f"error: {command} needs --layer with a GDS file\n"


class TestCorrectMore:
    def test_dark_field_flag_runs(self, tmp_path, capsys):
        from repro.design import contact_array
        from repro.layout import CONTACT, Library, write_gds

        lib = Library("cts")
        cell = lib.new_cell("cts")
        cell.set_region(CONTACT, contact_array(220, 280, 3, 3).region)
        src = tmp_path / "cts.gds"
        write_gds(lib, src)
        out = tmp_path / "cts_opc.gds"
        code = main(
            ["correct", str(src), "--layer", "6", "--level", "rule",
             "--dose", "1.0", "--dark-field", "-o", str(out)]
        )
        assert code == 0
