"""End-to-end tests for ``repro profile --flame/--memory``.

One sampled quickstart run must produce the full artifact set
(span-tagged collapsed stacks, self-contained SVG and HTML) plus a
``repro-run/1.4`` ledger record whose profile summary carries CPU and
peak-RSS gauges -- and the whole path must degrade to a no-op note
under ``REPRO_PROF=0``.
"""

import os

import pytest

from repro.cli import main
from repro.obs import prof
from repro.obs import runs as obs_runs

FLAME_ARGS = [
    "profile", "--flame", "--max-iterations", "1", "--no-verify",
    "--tile-nm", "3000", "--hz", "200",
]


@pytest.fixture(scope="module")
def flame_run(tmp_path_factory):
    """One sampled, recorded quickstart run and its artifact prefix."""
    out_dir = tmp_path_factory.mktemp("flame")
    runs_dir = out_dir / "ledger"
    prefix = str(out_dir / "flame")
    assert main(
        FLAME_ARGS
        + ["--record", "--runs-dir", str(runs_dir), "-o", prefix]
    ) == 0
    return prefix, runs_dir


class TestFlameArtifacts:
    def test_all_three_artifacts_written(self, flame_run):
        prefix, _ = flame_run
        for ext in (".collapsed", ".svg", ".html"):
            assert os.path.exists(prefix + ext), f"missing {prefix + ext}"

    def test_collapsed_stack_format(self, flame_run):
        prefix, _ = flame_run
        with open(prefix + ".collapsed", encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle if line.strip()]
        assert lines
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert int(count) > 0
            assert ";" in stack
        # samples are attributed to pipeline spans, not just "(no span)"
        assert any(line.startswith("tapeout") for line in lines)

    def test_svg_is_self_contained(self, flame_run):
        prefix, _ = flame_run
        with open(prefix + ".svg", encoding="utf-8") as handle:
            svg = handle.read()
        assert svg.lstrip().startswith("<svg")
        assert "<script" not in svg

    def test_html_is_self_contained(self, flame_run):
        prefix, _ = flame_run
        with open(prefix + ".html", encoding="utf-8") as handle:
            html = handle.read()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html and "<script" not in html

    def test_record_carries_profile_summary(self, flame_run):
        _, runs_dir = flame_run
        ledger = obs_runs.RunLedger(runs_dir)
        record = ledger.load_entry(ledger.resolve("last"))
        assert record.schema == obs_runs.RUN_SCHEMA
        assert record.profile is not None
        assert record.profile["sample_count"] > 0
        assert record.profile["hz"] == 200.0
        assert record.quality["cpu_total_s"] > 0
        assert record.quality["peak_rss_bytes"] > 0

    def test_cpu_agrees_with_sampled_wall_fractions(self, flame_run):
        # acceptance: per-span cpu_s never exceeds its physical limit --
        # its sampled wall slice on every usable core (multithreaded BLAS
        # legitimately runs process CPU above wall time) -- by more than
        # rounding, and the wall total tracks the record's span-derived
        # wall time within tolerance.
        _, runs_dir = flame_run
        ledger = obs_runs.RunLedger(runs_dir)
        record = ledger.load_entry(ledger.resolve("last"))
        payload = record.profile
        wall_total = sum(payload["wall_s"].values())
        cores = len(os.sched_getaffinity(0))
        for span_name, cpu_s in payload["cpu_s"].items():
            assert cpu_s <= payload["wall_s"][span_name] * cores + 0.05
        assert wall_total == pytest.approx(record.wall_s, rel=0.5, abs=1.0)

    def test_summary_printed(self, flame_run, capsys, tmp_path):
        prefix = str(tmp_path / "f2")
        assert main(FLAME_ARGS + ["-o", prefix]) == 0
        out = capsys.readouterr().out
        assert "sampled" in out and "Hz" in out
        assert "peak rss" in out
        assert "wrote flame graph" in out

    def test_runs_show_prints_profile_line(self, flame_run, capsys):
        _, runs_dir = flame_run
        assert main(["runs", "show", "last", "--dir", str(runs_dir)]) == 0
        out = capsys.readouterr().out
        assert "profile:" in out
        assert "sample(s)" in out


class TestKillSwitch:
    def test_prof_disabled_writes_note_not_garbage(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setenv(prof.PROF_ENV, "0")
        prefix = str(tmp_path / "off")
        assert main(FLAME_ARGS + ["-o", prefix]) == 0
        out = capsys.readouterr().out
        assert "sampling disabled" in out
        # artifacts still written (empty collapsed, valid empty flame)
        assert os.path.exists(prefix + ".collapsed")
        assert os.path.getsize(prefix + ".collapsed") == 0
        with open(prefix + ".svg", encoding="utf-8") as handle:
            assert handle.read().lstrip().startswith("<svg")


class TestMemoryFlag:
    def test_memory_digest_lands_in_html(self, tmp_path):
        prefix = str(tmp_path / "mem")
        assert main(FLAME_ARGS + ["--memory", "-o", prefix]) == 0
        with open(prefix + ".html", encoding="utf-8") as handle:
            html = handle.read()
        assert "tracemalloc" in html
