"""Unit tests for the ``repro-event/1`` bus (:mod:`repro.obs.events`).

Covers the bus mechanics (sequence numbering, sink fan-out,
attach/detach), every sink type including the never-blocking worker-side
:class:`QueueSink`, parent-side re-stamping via ``forward``, the
``run_scope`` nesting rules, the trace phase hooks, the resource
sampler, schema validation, and :class:`ProgressTracker` folding.
"""

import json
import queue

import pytest

from repro import obs
from repro.errors import ReproError
from repro.obs import events as ev


def _drain_ring(ring):
    return [e["type"] for e in ring.events]


class TestEventBus:
    def test_inactive_without_sinks(self):
        assert not ev.active()
        before = ev.bus().emitted
        ev.emit("progress", done=1)  # must be a silent no-op
        assert ev.bus().emitted == before

    def test_attach_activates_detach_deactivates(self):
        ring = obs.RingBufferSink()
        ev.bus().attach(ring)
        assert ev.active()
        ev.bus().detach(ring)
        assert not ev.active()

    def test_seq_strictly_increasing_and_schema_stamped(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        for i in range(5):
            ev.emit("opc.iteration", iteration=i)
        events = ring.events
        assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)
        assert len({e["seq"] for e in events}) == 5
        assert all(e["schema"] == ev.EVENT_SCHEMA for e in events)
        assert ev.validate_events(events) == 5

    def test_fan_out_to_every_sink(self):
        seen = []
        ring = ev.bus().attach(obs.RingBufferSink())
        ev.bus().attach(obs.CallbackSink(seen.append))
        ev.emit("tile.start", index=3)
        assert len(ring.events) == 1
        assert len(seen) == 1
        assert seen[0]["data"] == {"index": 3}

    def test_emit_counts(self):
        before = ev.bus().emitted
        ev.bus().attach(obs.RingBufferSink())
        ev.emit("tile.start", index=0)
        ev.emit("tile.done", index=0)
        assert ev.bus().emitted == before + 2


class TestSinks:
    def test_jsonl_sink_writes_flushed_sorted_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = ev.bus().attach(obs.JsonlSink(path))
        ev.emit("tile.start", index=1)
        # Flushed per line: readable before close.
        line = path.read_text().strip()
        assert json.loads(line)["type"] == "tile.start"
        assert line == json.dumps(json.loads(line), sort_keys=True)
        ev.bus().detach(sink)
        sink.close()
        sink.close()  # idempotent

    def test_ring_buffer_capacity(self):
        ring = ev.bus().attach(obs.RingBufferSink(capacity=3))
        for i in range(10):
            ev.emit("opc.iteration", iteration=i)
        kept = [e["data"]["iteration"] for e in ring.events]
        assert kept == [7, 8, 9]

    def test_queue_sink_forwards_type_ts_pid_data(self):
        q = queue.Queue(maxsize=10)
        sink = ev.QueueSink(q)
        ev.bus().attach(sink)
        ev.emit("tile.done", index=2)
        message = q.get_nowait()
        assert message["type"] == "tile.done"
        assert message["data"] == {"index": 2}
        assert "seq" not in message  # parent re-stamps
        assert sink.dropped == 0

    def test_queue_sink_full_queue_drops_and_reports(self):
        q = queue.Queue(maxsize=1)
        sink = ev.QueueSink(q)
        ev.bus().attach(sink)
        ev.emit("tile.start", index=0)  # fills the queue
        ev.emit("tile.done", index=0)  # dropped
        ev.emit("opc.iteration", iteration=1)  # dropped
        assert sink.dropped == 2
        q.get_nowait()  # make room; next emit carries the loss
        ev.emit("progress", done=1)
        message = q.get_nowait()
        assert message["drops"] == 2
        # Pending drops were handed over exactly once.
        ev.emit("progress", done=2)
        assert "drops" not in q.get_nowait()


class TestForward:
    def test_forward_restamps_seq_preserves_ts_pid_drops(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        ev.emit("tile.start", index=0)
        forwarded = ev.bus().forward(
            {"type": "tile.done", "ts": 123.5, "pid": 999,
             "data": {"index": 0}, "drops": 3}
        )
        assert forwarded["ts"] == 123.5
        assert forwarded["pid"] == 999
        assert forwarded["drops"] == 3
        events = ring.events
        assert events[1]["seq"] > events[0]["seq"]
        assert ev.validate_events(events) == 2
        assert ev.bus().dropped == 3

    def test_drain_queue_forwards_everything(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        q = queue.Queue()
        for i in range(4):
            q.put({"type": "opc.iteration", "ts": float(i), "pid": 1,
                   "data": {"iteration": i}})
        assert ev.drain_queue(q) == 4
        assert len(ring.events) == 4
        assert ev.drain_queue(q) == 0  # empty queue ends cleanly

    def test_drain_queue_tolerates_broken_queue(self):
        class Broken:
            def get_nowait(self):
                raise OSError("handle closed by a killed worker")

        assert ev.drain_queue(Broken()) == 0


class TestWorkerForwarding:
    def test_install_clears_inherited_sinks(self):
        inherited = ev.bus().attach(obs.RingBufferSink())
        q = queue.Queue()
        try:
            ev.install_worker_forwarding(q)
            ev.emit("tile.start", index=0)
            # The inherited parent sink must never see worker events.
            assert inherited.events == []
            assert q.get_nowait()["type"] == "tile.start"
            assert ev.worker_drop_count() == 0
        finally:
            ev.install_worker_forwarding(None)

    def test_install_none_deactivates(self):
        ev.install_worker_forwarding(queue.Queue())
        ev.install_worker_forwarding(None)
        assert not ev.active()
        assert ev.worker_drop_count() == 0


class TestRunScope:
    def test_emits_run_start_end_when_active(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        with ev.run_scope("demo") as handle:
            ev.emit("progress", done=1, total=2)
        types = _drain_ring(ring)
        assert types[0] == "run.start"
        assert types[-1] == "run.end"
        assert handle.captured
        assert [e["type"] for e in handle.events] == types
        end = ring.events[-1]
        assert end["data"]["label"] == "demo"
        assert end["data"]["wall_s"] >= 0

    def test_silent_when_nothing_flows(self):
        before = ev.bus().emitted
        with ev.run_scope("demo") as handle:
            pass
        assert not handle.captured
        assert handle.events == []
        assert ev.bus().emitted == before

    def test_force_captures_without_sinks(self):
        with ev.run_scope("demo", force=True) as handle:
            pass
        assert handle.captured
        assert [e["type"] for e in handle.events] == ["run.start", "run.end"]
        # The forced ring is detached on exit.
        assert not ev.active()

    def test_nested_scope_is_inert(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        with ev.run_scope("outer") as outer:
            with ev.run_scope("inner") as inner:
                pass
            assert not inner.captured
        labels = [e["data"]["label"] for e in ring.events]
        assert labels == ["outer", "outer"]
        assert outer.captured

    def test_progress_summary_matches_fresh_fold(self):
        ev.bus().attach(obs.RingBufferSink())
        with ev.run_scope("demo") as handle:
            ev.emit("tile.scheduled", index=0)
            ev.emit("tile.done", index=0)
            ev.emit("progress", done=1, total=1)
        tracker = obs.ProgressTracker()
        tracker.consume_all(handle.events)
        assert handle.progress_summary() == tracker.summary()

    def test_progress_summary_none_when_uncaptured(self):
        with ev.run_scope("demo") as handle:
            pass
        assert handle.progress_summary() is None


class TestPhaseHooks:
    def test_phase_span_emits_start_end(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        with obs.span("tapeout.retarget"):
            pass
        events = ring.events
        assert [e["type"] for e in events] == ["phase.start", "phase.end"]
        assert events[0]["data"] == {"name": "tapeout.retarget"}
        assert events[1]["data"]["name"] == "tapeout.retarget"
        assert events[1]["data"]["duration_s"] >= 0

    def test_phase_hooks_fire_with_recording_enabled_too(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        obs.enable()
        with obs.span("correct.repair"):
            pass
        assert _drain_ring(ring) == ["phase.start", "phase.end"]

    def test_non_phase_span_is_silent(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        with obs.span("opc.tile"):
            pass
        assert ring.events == []


class TestPoolProgress:
    def test_inactive_progress_is_free(self):
        before = ev.bus().emitted
        progress = ev.PoolProgress(total=3)
        progress.scheduled(0)
        progress.tile_done(0)
        assert ev.bus().emitted == before

    def test_full_tile_lifecycle(self):
        ring = ev.bus().attach(obs.RingBufferSink())

        class Tile:
            x1, y1, x2, y2 = 0, 0, 100, 100

        progress = ev.PoolProgress(total=2, n_workers=2)
        progress.scheduled(0, Tile())
        progress.scheduled(1, Tile())
        progress.retry(0, attempt=1, reason="worker died")
        progress.failed(0, reason="worker died", fallback=True)
        progress.tile_done(0)
        progress.tile_done(1)
        types = _drain_ring(ring)
        assert types == [
            "tile.scheduled", "tile.scheduled", "tile.retry", "tile.failed",
            "progress", "progress",
        ]
        assert ring.events[0]["data"] == {
            "index": 0, "x1": 0, "y1": 0, "x2": 100, "y2": 100,
        }
        final = ring.events[-1]["data"]
        assert final["done"] == 2
        assert final["total"] == 2
        assert final["pct"] == 100.0
        assert final["retries"] == 1
        assert final["failures"] == 1
        assert final["fallbacks"] == 1
        assert final["eta_s"] == 0.0
        assert final["ewma_tile_s"] is not None
        assert ev.validate_events(ring.events) == 6

    def test_eta_positive_while_tiles_remain(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        progress = ev.PoolProgress(total=5)
        ev._sleep(0.01)
        progress.tile_done(0)
        data = ring.events[-1]["data"]
        assert data["eta_s"] > 0
        assert data["done"] == 1


class TestResourceSampler:
    def test_sample_shape(self):
        sampler = ev.ResourceSampler(interval_s=0)
        first = sampler.sample()
        assert first["cpu_percent"] is None  # no delta yet
        assert first["rss_bytes"] > 0
        second = sampler.sample()
        assert second["cpu_percent"] is not None
        assert second["cpu_percent"] >= 0

    def test_piggybacks_on_emissions(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        ev.bus().sampler = ev.ResourceSampler(interval_s=0)
        ev.emit("tile.start", index=0)
        types = _drain_ring(ring)
        assert "worker.resource" in types
        # The sampler must not recurse on its own events.
        assert types.count("worker.resource") == 1

    def test_interval_rate_limits(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        ev.bus().sampler = ev.ResourceSampler(interval_s=3600)
        for i in range(5):
            ev.emit("opc.iteration", iteration=i)
        types = _drain_ring(ring)
        assert types.count("worker.resource") == 1  # only the first emit

    def test_interval_env_parsing(self, monkeypatch):
        monkeypatch.setenv(ev.RESOURCE_INTERVAL_ENV, "0")
        assert ev.resource_interval_s() == 0.0
        monkeypatch.setenv(ev.RESOURCE_INTERVAL_ENV, "2.5")
        assert ev.resource_interval_s() == 2.5
        monkeypatch.setenv(ev.RESOURCE_INTERVAL_ENV, "nonsense")
        assert ev.resource_interval_s() == ev.DEFAULT_RESOURCE_INTERVAL_S
        monkeypatch.delenv(ev.RESOURCE_INTERVAL_ENV)
        assert ev.resource_interval_s() == ev.DEFAULT_RESOURCE_INTERVAL_S

    def test_queue_max_env_parsing(self, monkeypatch):
        monkeypatch.setenv(ev.QUEUE_MAX_ENV, "7")
        assert ev.queue_max() == 7
        monkeypatch.setenv(ev.QUEUE_MAX_ENV, "0")
        assert ev.queue_max() == 1  # clamped to a working queue
        monkeypatch.delenv(ev.QUEUE_MAX_ENV)
        assert ev.queue_max() == ev.DEFAULT_QUEUE_MAX


class TestValidateEvent:
    def _good(self, **overrides):
        event = {
            "schema": ev.EVENT_SCHEMA, "type": "progress", "seq": 0,
            "ts": 1000.0, "pid": 42, "data": {},
        }
        event.update(overrides)
        return event

    def test_accepts_good_event(self):
        assert ev.validate_event(self._good()) == 0

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"schema": "repro-event/999"}, "unsupported event schema"),
            ({"type": "nonsense"}, "unknown event type"),
            ({"seq": -1}, "seq must be"),
            ({"seq": True}, "seq must be"),
            ({"seq": "7"}, "seq must be"),
            ({"ts": "now"}, "ts must be"),
            ({"pid": -5}, "pid must be"),
            ({"data": []}, "data must be"),
            ({"drops": -1}, "drops must be"),
            ({"extra_key": 1}, "unknown event key"),
        ],
    )
    def test_rejects_malformed(self, overrides, message):
        with pytest.raises(ReproError, match=message):
            ev.validate_event(self._good(**overrides))

    def test_rejects_non_object(self):
        with pytest.raises(ReproError, match="not an object"):
            ev.validate_event([1, 2, 3])

    def test_rejects_non_monotonic_stream(self):
        stream = [self._good(seq=0), self._good(seq=2), self._good(seq=2)]
        with pytest.raises(ReproError, match="strictly increasing"):
            ev.validate_events(stream)

    def test_live_stream_validates(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        with ev.run_scope("demo"):
            with obs.span("tapeout.correct"):
                ev.emit("opc.iteration", iteration=0, rms_epe_nm=1.5)
        assert ev.validate_events(ring.events) == len(ring.events)


class TestProgressTracker:
    def test_folds_counts_and_phases(self):
        ring = ev.bus().attach(obs.RingBufferSink())
        with ev.run_scope("demo"):
            with obs.span("tapeout.retarget"):
                pass
            with obs.span("tapeout.correct"):
                ev.emit("tile.scheduled", index=0)
                ev.emit("tile.scheduled", index=1)
                ev.emit("tile.start", index=0)
                ev.emit("tile.done", index=0)
                ev.emit("progress", done=1, total=2)
        tracker = obs.ProgressTracker()
        tracker.consume_all(ring.events)
        s = tracker.summary()
        assert s["run_label"] == "demo"
        assert s["complete"] is True
        assert s["phases"] == ["tapeout.retarget", "tapeout.correct"]
        assert s["tiles_done"] == 1
        assert s["tiles_total"] == 2
        assert s["seq_monotonic"] is True
        assert s["events"] == len(ring.events)

    def test_failure_counted_only_when_final(self):
        tracker = obs.ProgressTracker()
        base = {"schema": ev.EVENT_SCHEMA, "ts": 0.0, "pid": 1}
        tracker.consume(
            {**base, "seq": 0, "type": "tile.failed",
             "data": {"index": 0, "final": False}}
        )
        tracker.consume(
            {**base, "seq": 1, "type": "tile.failed",
             "data": {"index": 0, "final": True, "fallback": True}}
        )
        assert tracker.failures == 1
        assert tracker.fallbacks == 1

    def test_progress_payload_does_not_double_count(self):
        tracker = obs.ProgressTracker()
        base = {"schema": ev.EVENT_SCHEMA, "ts": 0.0, "pid": 1}
        tracker.consume(
            {**base, "seq": 0, "type": "tile.retry",
             "data": {"index": 0, "attempt": 1}}
        )
        tracker.consume(
            {**base, "seq": 1, "type": "progress",
             "data": {"done": 1, "total": 2, "retries": 1}}
        )
        assert tracker.retries == 1

    def test_detects_non_monotonic_seq(self):
        tracker = obs.ProgressTracker()
        base = {"schema": ev.EVENT_SCHEMA, "ts": 0.0, "pid": 1,
                "type": "progress", "data": {}}
        tracker.consume({**base, "seq": 5})
        tracker.consume({**base, "seq": 3})
        assert tracker.summary()["seq_monotonic"] is False

    def test_accumulates_drops(self):
        tracker = obs.ProgressTracker()
        base = {"schema": ev.EVENT_SCHEMA, "ts": 0.0, "pid": 1,
                "type": "progress", "data": {}}
        tracker.consume({**base, "seq": 0, "drops": 2})
        tracker.consume({**base, "seq": 1, "drops": 1})
        assert tracker.summary()["dropped"] == 3

    def test_opc_iteration_extremes(self):
        tracker = obs.ProgressTracker()
        base = {"schema": ev.EVENT_SCHEMA, "ts": 0.0, "pid": 1,
                "type": "opc.iteration"}
        for seq, (rms, worst) in enumerate([(5.0, 40.0), (2.0, 55.0), (1.0, 30.0)]):
            tracker.consume(
                {**base, "seq": seq,
                 "data": {"iteration": seq, "rms_epe_nm": rms,
                          "max_epe_nm": worst}}
            )
        s = tracker.summary()
        assert s["iterations"] == 3
        assert s["worst_max_epe_nm"] == 55.0
        assert s["last_rms_epe_nm"] == 1.0

    def test_workers_keyed_by_pid(self):
        tracker = obs.ProgressTracker()
        base = {"schema": ev.EVENT_SCHEMA, "ts": 0.0,
                "type": "worker.resource"}
        tracker.consume({**base, "seq": 0, "pid": 101,
                         "data": {"cpu_percent": 50.0, "rss_bytes": 1 << 20}})
        tracker.consume({**base, "seq": 1, "pid": 102,
                         "data": {"cpu_percent": 80.0, "rss_bytes": 2 << 20}})
        tracker.consume({**base, "seq": 2, "pid": 101,
                         "data": {"cpu_percent": 60.0, "rss_bytes": 1 << 20}})
        s = tracker.summary()
        assert s["workers"] == 2
        assert tracker.workers[101]["cpu_percent"] == 60.0
