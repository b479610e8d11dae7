"""Instrumented end-to-end run: the trace must tell the tape-out story.

Runs the full pipeline on a small test pattern with observability on and
asserts the exported trace carries every stage span, per-iteration and
per-tile detail, and live simulator counters.
"""

import json

import pytest

from repro import obs
from repro.flow import CorrectionLevel, TapeoutRecipe, tapeout_region
from repro.geometry import Rect, Region
from repro.litho import LithoConfig, LithoSimulator, krf_annular
from repro.opc import ModelOPCRecipe, TilingSpec

STAGES = [
    "tapeout.preflight",
    "tapeout.retarget",
    "tapeout.correct",
    "correct.smooth",
    "correct.repair",
    "tapeout.orc",
]


@pytest.fixture(scope="module")
def simulator():
    return LithoSimulator(
        LithoConfig(optics=krf_annular(), pixel_nm=8.0, ambit_nm=600)
    )


@pytest.fixture(scope="module")
def profiled_run(simulator, tmp_path_factory):
    """One instrumented tapeout, with every export taken while the
    process-wide registry still holds the run's metrics (the per-test
    reset fixture clears it afterwards)."""
    target = Region.from_rects(
        [Rect(x, -600, x + 180, 600) for x in (0, 460, 920)]
    )
    recipe = TapeoutRecipe(
        level=CorrectionLevel.MODEL,
        model_recipe=ModelOPCRecipe(max_iterations=2),
        tiling=TilingSpec(tile_nm=600, halo_nm=300),
    )
    with obs.capture() as cap:
        result = tapeout_region(target, simulator, dose=1.0, recipe=recipe)
    trace_path = tmp_path_factory.mktemp("obs") / "trace.json"
    obs.write_trace_json(trace_path, cap.roots)
    return {
        "result": result,
        "cap": cap,
        "snapshot": obs.registry().snapshot(),
        "events": obs.chrome_trace_events(cap.roots),
        "markdown": obs.trace_markdown(cap.roots),
        "trace_path": trace_path,
    }


class TestTraceContents:
    def test_every_stage_span_present(self, profiled_run):
        root = profiled_run["cap"].root
        assert root is not None and root.name == "tapeout"
        for stage in STAGES:
            assert root.find(stage) is not None, stage
        assert root.find("tapeout.orc").attrs.get("skipped") is False

    def test_per_iteration_spans(self, profiled_run):
        iterations = profiled_run["cap"].root.find_all("opc.iteration")
        assert iterations
        first = iterations[0]
        assert {"rms_epe_nm", "max_epe_nm", "moved_fragments",
                "missing_edges", "converged"} <= set(first.attrs)

    def test_per_tile_spans_with_stitch_stats(self, profiled_run):
        tiles = profiled_run["cap"].root.find_all("opc.tile")
        assert len(tiles) >= 2  # 600 nm tiles over a wider pattern
        assert all("fragments" in tile.attrs for tile in tiles)
        assert any(tile.attrs.get("stitched_vertices", 0) > 0
                   for tile in tiles)

    def test_simulator_counters_live(self, profiled_run):
        snapshot = profiled_run["snapshot"]
        assert snapshot["sim.aerial_calls"]["value"] > 0
        assert snapshot["opc.iterations"]["value"] > 0
        assert snapshot["sim.grid_px"]["count"] > 0
        assert snapshot["tile.runtime_s"]["count"] >= 2

    def test_runtime_derives_from_the_trace(self, profiled_run):
        correct_span = profiled_run["cap"].root.find("correct")
        assert correct_span is not None
        runtime = profiled_run["result"].correction.runtime_s
        assert runtime == pytest.approx(correct_span.duration_s)
        assert runtime > 0


class TestExporters:
    def test_json_document_round_trips(self, profiled_run):
        document = json.loads(profiled_run["trace_path"].read_text())
        assert document["schema"] == "repro-trace/1"
        names = {span["name"] for span in _walk(document["spans"])}
        assert set(STAGES) <= names
        assert document["metrics"]["sim.aerial_calls"]["value"] > 0
        assert document["chrome_trace"]

    def test_chrome_events_are_complete_events(self, profiled_run):
        events = profiled_run["events"]
        assert events and all(e["ph"] == "X" for e in events)
        assert min(e["ts"] for e in events) == pytest.approx(0.0)
        assert any(e["name"] == "tapeout" for e in events)

    def test_markdown_covers_stages_and_metrics(self, profiled_run):
        text = profiled_run["markdown"]
        for stage in STAGES:
            assert stage in text
        assert "sim.aerial_calls" in text

    def test_trace_json_is_deterministic(self, profiled_run, tmp_path):
        """Same capture, two dumps: byte-identical, keys sorted throughout.

        Run records and trace files must diff cleanly in tests, so the
        exporter sorts keys at every nesting level and keeps the stable
        pre-order span walk.
        """
        cap = profiled_run["cap"]
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        obs.write_trace_json(first, cap.roots)
        obs.write_trace_json(second, cap.roots)
        assert first.read_bytes() == second.read_bytes()
        text = first.read_text()
        document = json.loads(text)
        assert text == json.dumps(document, indent=1, sort_keys=True) + "\n"


def _walk(spans):
    for span in spans:
        yield span
        yield from _walk(span["children"])
