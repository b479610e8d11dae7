"""Cross-process trace merging: span grafting, snapshot folding, round-trips.

These are the unit-level guarantees behind the parallel OPC pool's
observability story: a worker's span trees and metric snapshot cross the
process boundary as plain data and fold into the parent's trace and
registry without losing nesting, wall times, or a single count.
"""

import json

import pytest

from repro import obs
from repro.errors import ReproError
from repro.obs.export import TRACE_SCHEMA, span_from_dict, span_to_dict


def _worker_roots():
    """A realistic two-root worker trace, captured then taken."""
    obs.enable()
    with obs.span("opc.tile", tile=0) as outer:
        with obs.span("opc.model"):
            with obs.span("opc.iteration", iteration=1):
                pass
    with obs.span("opc.tile", tile=1):
        pass
    return obs.take_finished()


class TestSpanRoundTrip:
    def test_span_dict_round_trip_preserves_tree(self):
        roots = _worker_roots()
        rebuilt = span_from_dict(span_to_dict(roots[0]))
        original_walk = list(roots[0].walk())
        rebuilt_walk = list(rebuilt.walk())
        assert [s.name for s in rebuilt_walk] == [
            s.name for s in original_walk
        ]
        assert [s.attrs for s in rebuilt_walk] == [
            s.attrs for s in original_walk
        ]
        for rebuilt_span, original_span in zip(rebuilt_walk, original_walk):
            assert rebuilt_span.duration_s == pytest.approx(
                original_span.duration_s, abs=1e-9
            )

    def test_round_trip_survives_json(self):
        roots = _worker_roots()
        doc = json.loads(json.dumps(span_to_dict(roots[0])))
        rebuilt = span_from_dict(doc)
        assert rebuilt.find("opc.iteration") is not None
        assert rebuilt.find("opc.iteration").attrs == {"iteration": 1}


class TestMergeSpans:
    def test_merge_grafts_under_parent_preserving_nesting(self):
        worker = [span_from_dict(span_to_dict(r)) for r in _worker_roots()]
        obs.enable()
        with obs.span("opc.parallel") as pool_span:
            obs.merge_spans(pool_span, worker)
        assert len(pool_span.children) == 2
        tiles = pool_span.find_all("opc.tile")
        assert [t.attrs["tile"] for t in tiles] == [0, 1]
        assert pool_span.find("opc.iteration") is not None

    def test_merge_preserves_durations_and_relative_offsets(self):
        worker = [span_from_dict(span_to_dict(r)) for r in _worker_roots()]
        durations = [r.duration_s for r in worker]
        gap = worker[1].start_s - worker[0].start_s
        obs.enable()
        with obs.span("opc.parallel") as pool_span:
            obs.merge_spans(pool_span, worker)
        assert [r.duration_s for r in pool_span.children] == pytest.approx(
            durations, abs=1e-9
        )
        assert (
            pool_span.children[1].start_s - pool_span.children[0].start_s
        ) == pytest.approx(gap, abs=1e-9)

    def test_rebase_anchors_earliest_root_at_parent_start(self):
        worker = [span_from_dict(span_to_dict(r)) for r in _worker_roots()]
        # Simulate a foreign perf_counter origin far from the parent's.
        for root in worker:
            for node in root.walk():
                node.start_s += 1e6
                node.end_s += 1e6
        obs.enable()
        with obs.span("opc.parallel") as pool_span:
            obs.merge_spans(pool_span, worker)
        earliest = min(child.start_s for child in pool_span.children)
        assert earliest == pytest.approx(pool_span.start_s, abs=1e-9)
        # Children now sit inside the parent's timeline, not a megasecond out.
        for child in pool_span.children:
            assert child.start_s < pool_span.start_s + 10.0

    def test_merge_without_parent_collects_finished_roots(self):
        worker = [span_from_dict(span_to_dict(r)) for r in _worker_roots()]
        obs.enable()
        obs.take_finished()
        obs.merge_spans(None, worker, rebase=False)
        finished = obs.take_finished()
        assert [s.name for s in finished] == ["opc.tile", "opc.tile"]

    def test_merge_empty_roots_is_a_noop(self):
        obs.enable()
        with obs.span("opc.parallel") as pool_span:
            obs.merge_spans(pool_span, [])
        assert pool_span.children == []


class TestMergeSnapshot:
    def _snapshot(self, build):
        registry = obs.MetricsRegistry()
        build(registry)
        return registry.snapshot()

    def test_counters_sum_exactly(self):
        parent = obs.MetricsRegistry()
        parent.counter("opc.tiles").inc(3)
        for n in (2, 5):
            parent.merge_snapshot(
                self._snapshot(lambda r, n=n: r.counter("opc.tiles").inc(n))
            )
        assert parent.counter("opc.tiles").value == 10

    def test_gauges_are_last_write_wins(self):
        parent = obs.MetricsRegistry()
        parent.gauge("mask.vertices").set(7.0)
        parent.merge_snapshot(
            self._snapshot(lambda r: r.gauge("mask.vertices").set(42.0))
        )
        assert parent.gauge("mask.vertices").value == 42.0
        # A never-set incoming gauge does not clobber the parent's sample.
        parent.merge_snapshot(
            self._snapshot(lambda r: r.gauge("mask.vertices"))
        )
        assert parent.gauge("mask.vertices").value == 42.0

    def test_histograms_merge_bucket_wise(self):
        bounds = (1.0, 2.0, 4.0)
        parent = obs.MetricsRegistry()
        for value in (0.5, 3.0):
            parent.histogram("tile.runtime_s", bounds).observe(value)
        parent.merge_snapshot(
            self._snapshot(
                lambda r: [
                    r.histogram("tile.runtime_s", bounds).observe(v)
                    for v in (1.5, 9.0)
                ]
            )
        )
        merged = parent.histogram("tile.runtime_s", bounds)
        assert merged.count == 4
        assert merged.total == pytest.approx(14.0)
        assert merged.min == 0.5 and merged.max == 9.0
        assert merged.bucket_counts == [1, 1, 1, 1]

    def test_empty_histogram_snapshot_is_harmless(self):
        bounds = (1.0, 2.0)
        parent = obs.MetricsRegistry()
        parent.histogram("tile.runtime_s", bounds).observe(0.5)
        parent.merge_snapshot(
            self._snapshot(lambda r: r.histogram("tile.runtime_s", bounds))
        )
        merged = parent.histogram("tile.runtime_s", bounds)
        assert merged.count == 1 and merged.min == 0.5

    def test_histogram_bounds_mismatch_is_an_error(self):
        parent = obs.MetricsRegistry()
        parent.histogram("tile.runtime_s", (1.0, 2.0)).observe(0.5)
        snapshot = self._snapshot(
            lambda r: r.histogram("tile.runtime_s", (1.0, 3.0)).observe(0.5)
        )
        with pytest.raises(ReproError, match="bounds differ"):
            parent.merge_snapshot(snapshot)

    def test_kind_mismatch_is_an_error(self):
        parent = obs.MetricsRegistry()
        parent.gauge("opc.tiles")
        snapshot = self._snapshot(lambda r: r.counter("opc.tiles").inc(1))
        with pytest.raises(ReproError):
            parent.merge_snapshot(snapshot)

    def test_unknown_kind_is_an_error(self):
        parent = obs.MetricsRegistry()
        with pytest.raises(ReproError, match="unknown kind"):
            parent.merge_snapshot({"x": {"kind": "summary", "value": 1}})

    def test_module_level_merge_respects_enable_switch(self):
        snapshot = self._snapshot(lambda r: r.counter("opc.tiles").inc(4))
        obs.merge_snapshot(snapshot)  # disabled: dropped
        assert obs.registry().get("opc.tiles") is None
        obs.enable()
        obs.merge_snapshot(snapshot)
        assert obs.registry().counter("opc.tiles").value == 4


class TestWorkerOutcomeEdgeCases:
    """The degenerate payloads a faulted pool actually produces.

    A tile that died mid-run ships no spans (or a minimal dict without
    the optional keys); its telemetry events may arrive after the
    failure was registered, or be drained out of worker-time order.
    None of that may corrupt the merged trace or the event stream.
    """

    def test_merge_empty_worker_span_list_leaves_parent_intact(self):
        # A retried-then-dead tile contributes zero roots; the pool span
        # must still close cleanly with only its healthy children.
        healthy = [span_from_dict(span_to_dict(r)) for r in _worker_roots()]
        obs.enable()
        with obs.span("opc.parallel") as pool_span:
            obs.merge_spans(pool_span, healthy)
            obs.merge_spans(pool_span, [])  # the failed tile's share
        assert len(pool_span.children) == 2
        assert pool_span.find("opc.iteration") is not None

    def test_failed_job_ships_an_empty_envelope(self):
        # Only a job that returns fills its envelope, so the failed
        # attempt of a retried tile never counts twice.
        with pytest.raises(RuntimeError):
            with obs.record_worker(observe=True, profile_hz=50.0) as telemetry:
                obs.count("opc.tiles")
                with obs.span("opc.tile", tile=0):
                    raise RuntimeError("worker died")
        assert telemetry == obs.WorkerTelemetry()
        assert not obs.enabled()

    def test_absorb_skips_jobs_that_ran_in_the_parent(self):
        # Serial-fallback tiles recorded straight into the parent and
        # carry no envelope.
        with obs.record_worker(observe=True, profile_hz=0.0) as telemetry:
            obs.count("opc.tiles")
            with obs.span("opc.tile", tile=0):
                pass
        assert telemetry.spans and telemetry.metrics and telemetry.profile is None
        obs.reset_metrics()
        obs.enable()
        with obs.span("opc.parallel") as pool_span:
            obs.absorb_workers(pool_span, [None, telemetry, None])
        assert [child.name for child in pool_span.children] == ["opc.tile"]
        assert obs.registry().counter("opc.tiles").value == 1

    def test_span_from_dict_tolerates_minimal_payload(self):
        span = span_from_dict(
            {"name": "opc.tile", "start_s": 1.0, "duration_s": 0.5}
        )
        assert span.name == "opc.tile"
        assert span.attrs == {}
        assert span.children == []
        assert span.duration_s == pytest.approx(0.5)

    def test_span_from_dict_tolerates_null_attrs(self):
        span = span_from_dict(
            {"name": "opc.tile", "start_s": 0.0, "duration_s": 0.1,
             "attrs": None, "children": []}
        )
        assert span.attrs == {}

    def test_events_after_tile_failure_keep_stream_consistent(self):
        from repro.obs import events as ev

        ring = ev.bus().attach(obs.RingBufferSink())
        # The pool registers the final failure, then the fallback rerun
        # emits a late tile.done -- exactly the serial-fallback order.
        ev.emit("tile.scheduled", index=0)
        ev.emit("tile.scheduled", index=1)
        ev.emit("tile.failed", index=1, final=True, fallback=True,
                reason="worker died")
        ev.emit("tile.done", index=1, runtime_s=0.1)
        ev.emit("tile.done", index=0, runtime_s=0.1)
        ev.emit("progress", done=2, total=2, failures=1, fallbacks=1)
        assert ev.validate_events(ring.events) == 6
        tracker = obs.ProgressTracker()
        tracker.consume_all(ring.events)
        summary = tracker.summary()
        assert summary["tiles_done"] == 2
        assert summary["tiles_total"] == 2
        assert summary["failures"] == 1
        assert summary["fallbacks"] == 1

    def test_out_of_order_queue_drain_restamps_monotonically(self):
        from repro.obs import events as ev

        ring = ev.bus().attach(obs.RingBufferSink())
        # Two workers' messages interleave with wildly out-of-order
        # worker timestamps (their clocks are independent); the parent's
        # re-stamped seq must stay strictly increasing regardless.
        messages = [
            {"type": "tile.start", "ts": 900.0, "pid": 11, "data": {"index": 2}},
            {"type": "tile.start", "ts": 100.0, "pid": 12, "data": {"index": 0}},
            {"type": "tile.done", "ts": 950.0, "pid": 11, "data": {"index": 2}},
            {"type": "tile.done", "ts": 105.0, "pid": 12, "data": {"index": 0}},
        ]
        import queue as queue_mod

        q = queue_mod.Queue()
        for message in messages:
            q.put(message)
        assert ev.drain_queue(q) == 4
        events = ring.events
        assert ev.validate_events(events) == 4  # includes monotone seq
        # Worker timestamps and pids survive the re-stamp untouched.
        assert [e["ts"] for e in events] == [900.0, 100.0, 950.0, 105.0]
        assert [e["pid"] for e in events] == [11, 12, 11, 12]

    def test_replay_of_drained_stream_is_deterministic(self, tmp_path):
        from repro.obs import events as ev
        from repro.obs import watch

        path = tmp_path / "events.jsonl"
        sink = ev.bus().attach(obs.JsonlSink(path))
        ring = ev.bus().attach(obs.RingBufferSink())
        with ev.run_scope("merge-demo"):
            ev.bus().forward(
                {"type": "tile.done", "ts": 55.5, "pid": 7,
                 "data": {"index": 0}, "drops": 2}
            )
            ev.emit("progress", done=1, total=1)
        ev.bus().detach(sink)
        ev.bus().detach(ring)
        sink.close()
        live = obs.ProgressTracker()
        live.consume_all(ring.events)
        assert watch.replay(path).summary() == live.summary()
        assert live.summary()["dropped"] == 2


class TestTraceDocumentRoundTrip:
    def test_document_with_merged_worker_spans_round_trips(self):
        worker = [span_from_dict(span_to_dict(r)) for r in _worker_roots()]
        obs.enable()
        with obs.span("opc.parallel", n_workers=2) as pool_span:
            obs.merge_spans(pool_span, worker)
        obs.count("opc.tiles", 2)
        doc = obs.trace_document(obs.take_finished())
        doc = json.loads(json.dumps(doc))  # must survive real JSON
        assert doc["schema"] == TRACE_SCHEMA
        rebuilt = [span_from_dict(entry) for entry in doc["spans"]]
        assert rebuilt[0].name == "opc.parallel"
        assert len(rebuilt[0].find_all("opc.tile")) == 2
        assert rebuilt[0].find("opc.iteration") is not None
        assert doc["metrics"]["opc.tiles"]["value"] == 2
        # Chrome events cover every span in the tree.
        assert len(doc["chrome_trace"]) == len(list(rebuilt[0].walk()))
