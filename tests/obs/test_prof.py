"""The sampling profiler: sampling, merging, exports, ledger schema 1.4."""

import json
import threading
import time

import pytest

from repro import obs
from repro.errors import ReproError
from repro.obs import prof
from repro.obs import runs as obs_runs
from repro.obs import trace as obs_trace
from repro.obs.analyze import gate


def busy_wait(seconds):
    deadline = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < deadline:
        x += sum(i * i for i in range(200))
    return x


def make_profile(samples, cpu_s=None, wall_s=None, hz=50.0, count=None,
                 rss=0, memory=()):
    profile = prof.Profile(hz)
    profile.samples = dict(samples)
    profile.cpu_s = dict(cpu_s or {})
    profile.wall_s = dict(wall_s or {})
    profile.sample_count = (
        count if count is not None else sum(samples.values())
    )
    profile.peak_rss_bytes = rss
    profile.memory = list(memory)
    return profile


# -- the sampler ---------------------------------------------------------------

class TestSampler:
    def test_samples_tagged_with_open_span_path(self):
        obs.enable()
        try:
            with prof.SamplingProfiler(hz=150) as profiler:
                with obs.span("tapeout"):
                    with obs.span("tapeout.correct"):
                        busy_wait(0.3)
        finally:
            obs.disable()
            obs.take_finished()
        profile = profiler.profile
        assert profile.sample_count > 5
        tagged = [
            key for key in profile.samples
            if key.startswith("tapeout/tapeout.correct;")
        ]
        assert tagged, f"no span-tagged samples in {sorted(profile.samples)}"
        # this test function is on the sampled stack
        assert any("test_prof.py:busy_wait" in key for key in tagged)

    def test_cpu_and_wall_attributed_to_root_span(self):
        obs.enable()
        try:
            with prof.SamplingProfiler(hz=150) as profiler:
                with obs.span("tapeout"):
                    busy_wait(0.3)
        finally:
            obs.disable()
            obs.take_finished()
        profile = profiler.profile
        assert profile.wall_s.get("tapeout", 0.0) == pytest.approx(0.3, abs=0.15)
        # a busy loop: CPU time tracks wall time
        assert profile.cpu_s.get("tapeout", 0.0) > 0.1
        assert profile.peak_rss_bytes > 0

    def test_sleep_shows_low_cpu_high_wall(self):
        obs.enable()
        try:
            with prof.SamplingProfiler(hz=150) as profiler:
                with obs.span("tapeout"):
                    time.sleep(0.3)
        finally:
            obs.disable()
            obs.take_finished()
        profile = profiler.profile
        wall = profile.wall_s.get("tapeout", 0.0)
        cpu = profile.cpu_s.get("tapeout", 0.0)
        assert wall == pytest.approx(0.3, abs=0.15)
        assert cpu < wall / 2  # sleeping burns no CPU

    def test_kill_switch_makes_profiler_inert(self, monkeypatch):
        monkeypatch.setenv(prof.PROF_ENV, "0")
        profiler = prof.SamplingProfiler(hz=500)
        with profiler:
            busy_wait(0.05)
        assert not profiler.running
        assert profiler.profile.sample_count == 0
        assert profiler.profile.samples == {}
        assert prof.active_hz() == 0.0

    def test_hz_env_override_and_default(self, monkeypatch):
        monkeypatch.delenv(prof.PROF_HZ_ENV, raising=False)
        assert prof.default_hz() == prof.DEFAULT_HZ
        monkeypatch.setenv(prof.PROF_HZ_ENV, "33.5")
        assert prof.default_hz() == 33.5
        assert prof.SamplingProfiler().hz == 33.5
        monkeypatch.setenv(prof.PROF_HZ_ENV, "not-a-number")
        assert prof.default_hz() == prof.DEFAULT_HZ

    def test_active_profiler_registration(self):
        assert prof.active_profiler() is None
        with prof.SamplingProfiler(hz=200) as profiler:
            assert prof.active_profiler() is profiler
            assert prof.active_hz() == 200.0
        assert prof.active_profiler() is None
        assert prof.active_hz() == 0.0

    def test_untagged_samples_fall_back_to_no_span(self):
        with prof.SamplingProfiler(hz=150) as profiler:
            busy_wait(0.2)
        assert any(
            key.startswith(prof.NO_SPAN + ";")
            for key in profiler.profile.samples
        )

    def test_open_span_paths_sees_other_threads(self):
        obs.enable()
        ready = threading.Event()
        release = threading.Event()

        def worker():
            with obs.span("other.thread"):
                ready.set()
                release.wait(timeout=5)

        thread = threading.Thread(target=worker)
        thread.start()
        try:
            assert ready.wait(timeout=5)
            paths = obs_trace.open_span_paths()
            assert "other.thread" in paths.values()
        finally:
            release.set()
            thread.join()
            obs.disable()
            obs.take_finished()

    def test_reset_worker_state_clears_registry(self):
        obs.enable()
        try:
            with obs.span("stale"):
                obs_trace.reset_worker_state()
                assert obs_trace.open_span_paths() == {}
                # re-registered: new spans are visible again
                with obs.span("fresh"):
                    assert "fresh" in obs_trace.open_span_paths().values()
        except AssertionError:
            raise
        finally:
            obs.disable()
            obs.take_finished()


# -- serialization -------------------------------------------------------------

class TestSerialization:
    def test_roundtrip(self):
        profile = make_profile(
            {"tapeout;a.py:f": 3, "(no span);b.py:g": 1},
            cpu_s={"tapeout": 1.5}, wall_s={"tapeout": 2.0},
            rss=4096, memory=[{"phase": "x", "peak_bytes": 10, "top_sites": []}],
        )
        doc = prof.profile_to_dict(profile)
        assert doc["schema"] == prof.PROF_SCHEMA
        rebuilt = prof.profile_from_dict(doc)
        assert prof.profile_to_dict(rebuilt) == doc

    def test_dict_is_json_serializable_and_sorted(self):
        profile = make_profile({"b;x": 1, "a;y": 2}, cpu_s={"b": 0.5, "a": 0.25})
        doc = prof.profile_to_dict(profile)
        json.dumps(doc)
        assert list(doc["samples"]) == sorted(doc["samples"])
        assert list(doc["cpu_s"]) == sorted(doc["cpu_s"])

    def test_unknown_schema_rejected(self):
        with pytest.raises(ReproError, match="unsupported profile schema"):
            prof.profile_from_dict({"schema": "repro-prof/99"})


# -- merging -------------------------------------------------------------------

class TestMergeProfiles:
    def children(self):
        # exactly-representable floats so fsum equality is exact
        a = make_profile({"t;f": 4, "t;g": 1}, cpu_s={"t": 0.25},
                         wall_s={"t": 0.5}, rss=100)
        b = make_profile({"t;f": 2, "(no span);h": 3}, cpu_s={"t": 0.125},
                         wall_s={"t": 0.25}, rss=300)
        c = make_profile({}, cpu_s={}, wall_s={}, rss=0)  # empty worker
        return [a, b, c]

    def test_merge_counts_and_prefix(self):
        parent = make_profile({"root;p": 1}, cpu_s={"root": 1.0},
                              wall_s={"root": 1.0}, rss=200)
        prof.merge_profiles(parent, self.children(), prefix="opc.parallel")
        assert parent.samples == {
            "root;p": 1,
            "opc.parallel/t;f": 6,
            "opc.parallel/t;g": 1,
            "opc.parallel;h": 3,
        }
        assert parent.cpu_s == {"root": 1.0, "opc.parallel": 0.375}
        assert parent.wall_s == {"root": 1.0, "opc.parallel": 0.75}
        assert parent.sample_count == 1 + 10
        assert parent.peak_rss_bytes == 300

    def test_merge_without_prefix_keeps_keys(self):
        parent = prof.Profile()
        prof.merge_profiles(parent, self.children())
        assert parent.samples["t;f"] == 6
        assert parent.cpu_s == {"t": 0.375}

    def test_determinism_across_drain_order(self):
        import itertools

        results = []
        for order in itertools.permutations(self.children()):
            parent = make_profile({"root;p": 1}, cpu_s={"root": 1.0})
            prof.merge_profiles(parent, list(order), prefix="opc.parallel")
            results.append(prof.profile_to_dict(parent))
        for other in results[1:]:
            assert other == results[0]

    def test_empty_children_are_noop(self):
        parent = make_profile({"root;p": 2}, cpu_s={"root": 0.5}, rss=50)
        before = prof.profile_to_dict(parent)
        prof.merge_profiles(parent, [], prefix="opc.parallel")
        prof.merge_profiles(parent, [prof.Profile()], prefix="opc.parallel")
        assert prof.profile_to_dict(parent) == before

    def test_cpu_total_parity_across_worker_counts(self):
        # The pool ships one profile per *tile*, so the merged multiset is
        # identical however tiles were spread over workers.  Simulate
        # n_workers in {1, 2, 4} over the same 8 per-tile profiles.
        tiles = [
            make_profile({f"t;tile{i}": i + 1}, cpu_s={"t": 0.25 * (i + 1)},
                         wall_s={"t": 0.5}, rss=10 * i)
            for i in range(8)
        ]
        totals = []
        dicts = []
        for n_workers in (1, 2, 4):
            # deal tiles round-robin to workers, drain workers in reverse
            # order -- the parent still merges in tile order
            shards = [tiles[w::n_workers] for w in range(n_workers)]
            drained = [p for shard in reversed(shards) for p in shard]
            by_tile = sorted(
                drained, key=lambda p: sorted(p.samples)
            )
            parent = make_profile({"root;p": 1}, cpu_s={"root": 1.0})
            prof.merge_profiles(parent, by_tile, prefix="opc.parallel")
            totals.append(parent.cpu_total_s)
            dicts.append(prof.profile_to_dict(parent))
        assert totals[0] == totals[1] == totals[2]
        assert dicts[0] == dicts[1] == dicts[2]

    def test_absorb_worker_profiles_requires_active(self):
        # no active profiler: worker profiles are dropped silently
        doc = prof.profile_to_dict(make_profile({"t;f": 1}, cpu_s={"t": 0.5}))
        envelopes = [obs.WorkerTelemetry(profile=doc)]
        pool_span = obs_trace.Span("opc.parallel")
        obs.absorb_workers(pool_span, envelopes)
        with prof.SamplingProfiler(hz=100) as profiler:
            obs.absorb_workers(pool_span, envelopes)
        assert profiler.profile.samples.get("opc.parallel/t;f") == 1
        assert profiler.profile.cpu_s.get("opc.parallel") == 0.5

    def test_memory_entries_merge_deterministically(self):
        a = make_profile({}, memory=[{"phase": "z", "peak_bytes": 1}])
        b = make_profile({}, memory=[{"phase": "a", "peak_bytes": 2}])
        forward, backward = prof.Profile(), prof.Profile()
        prof.merge_profiles(forward, [a, b])
        prof.merge_profiles(backward, [b, a])
        assert forward.memory == backward.memory
        assert {e["phase"] for e in forward.memory} == {"a", "z"}


# -- summaries & exports -------------------------------------------------------

class TestExports:
    def profile(self):
        return make_profile(
            {
                "tapeout/tapeout.correct;m.py:f;m.py:g": 5,
                "tapeout/tapeout.orc;m.py:f;v.py:h": 3,
                "(no span);w.py:idle": 2,
            },
            cpu_s={"tapeout": 0.75}, wall_s={"tapeout": 1.0},
            hz=97.0, rss=64 * 2 ** 20,
        )

    def test_collapsed_text_format(self):
        text = prof.collapsed_text(self.profile())
        lines = text.splitlines()
        assert lines == sorted(lines)
        for line in lines:
            stack, _, count = line.rpartition(" ")
            assert stack and int(count) > 0
            assert ";" in stack

    def test_collapsed_text_empty_profile(self):
        assert prof.collapsed_text(prof.Profile()) == ""

    def test_write_collapsed(self, tmp_path):
        path = tmp_path / "p.collapsed"
        prof.write_collapsed(path, self.profile())
        content = path.read_text()
        assert content.endswith("\n")
        assert len(content.splitlines()) == 3

    def test_profile_summary_shape(self):
        summary = prof.profile_summary(self.profile(), top=2)
        assert summary["schema"] == prof.PROF_SCHEMA
        assert summary["sample_count"] == 10
        assert summary["peak_rss_bytes"] == 64 * 2 ** 20
        assert summary["cpu_total_s"] == 0.75
        assert summary["cpu_s"] == {"tapeout": 0.75}
        # leaf frames aggregated across stacks, count-desc
        assert summary["top_frames"] == [["m.py:g", 5], ["v.py:h", 3]]
        json.dumps(summary)

    def test_flame_svg_self_contained_and_deterministic(self):
        profile = self.profile()
        svg = prof.flame_svg(profile)
        assert svg.startswith("<svg")
        assert svg.endswith("</svg>")
        assert "http://www.w3.org/2000/svg" in svg
        assert "<script" not in svg and "href=" not in svg
        assert "tapeout/tapeout.correct" in svg
        assert svg == prof.flame_svg(self.profile())

    def test_flame_svg_empty_profile(self):
        svg = prof.flame_svg(prof.Profile())
        assert svg.startswith("<svg") and svg.endswith("</svg>")

    def test_flame_html_self_contained(self, tmp_path):
        prof.write_flame_html(tmp_path / "f.html", self.profile())
        html = (tmp_path / "f.html").read_text()
        assert html.startswith("<!doctype html>")
        assert "<svg" in html
        assert "<script" not in html and "src=" not in html
        assert "cpu" in html.lower()

    def test_flame_html_includes_memory_table(self):
        profile = self.profile()
        profile.memory = [{
            "phase": "tapeout.correct", "current_bytes": 5, "peak_bytes": 2048,
            "top_sites": [{"site": "m.py:10", "bytes": 2048, "count": 3}],
        }]
        html = prof.flame_html(profile)
        assert "tracemalloc" in html
        assert "m.py:10" in html


# -- memory telemetry ----------------------------------------------------------

class TestMemoryTelemetry:
    def test_phase_end_records_tracemalloc_digest(self):
        sink = obs.RingBufferSink()
        obs.event_bus().attach(sink)
        try:
            with prof.SamplingProfiler(hz=100, memory=True, top_n=3) as profiler:
                with obs.span("tapeout.correct"):  # a PHASE_SPANS member
                    junk = [bytearray(2048) for _ in range(200)]
                assert junk
        finally:
            obs.event_bus().detach(sink)
        phases = [entry["phase"] for entry in profiler.profile.memory]
        assert "tapeout.correct" in phases
        entry = next(
            e for e in profiler.profile.memory
            if e["phase"] == "tapeout.correct"
        )
        assert entry["peak_bytes"] > 0
        assert len(entry["top_sites"]) <= 3
        for site in entry["top_sites"]:
            assert ":" in site["site"] and site["bytes"] >= 0

    def test_memory_off_by_default(self):
        with prof.SamplingProfiler(hz=200) as profiler:
            with obs.span("tapeout.correct"):
                busy_wait(0.02)
        assert profiler.profile.memory == []


# -- run ledger schema 1.4 -----------------------------------------------------

class TestLedger14:
    def summary(self):
        return prof.profile_summary(make_profile(
            {"tapeout;m.py:f": 7}, cpu_s={"tapeout": 0.5},
            wall_s={"tapeout": 1.0}, rss=128 * 2 ** 20,
        ))

    def test_new_record_lifts_profile_gauges(self):
        record = obs_runs.new_record(
            "test", {"k": 1}, [], metrics={}, profile=self.summary(),
            git_rev=None,
        )
        assert record.schema == obs_runs.RUN_SCHEMA
        assert record.profile is not None
        assert record.quality["cpu_total_s"] == 0.5
        assert record.quality["cpu.tapeout_s"] == 0.5
        assert record.quality["peak_rss_bytes"] == 128 * 2 ** 20

    def test_record_roundtrips_through_dict(self):
        record = obs_runs.new_record(
            "test", {"k": 1}, [], metrics={}, profile=self.summary(),
            git_rev=None,
        )
        loaded = obs_runs.RunRecord.from_dict(
            json.loads(json.dumps(record.to_dict()))
        )
        assert loaded.profile == record.profile
        assert loaded.quality == record.quality

    def test_pre_14_records_still_load(self):
        record = obs_runs.new_record(
            "test", {"k": 1}, [], metrics={}, git_rev=None,
        )
        data = record.to_dict()
        assert "profile" not in data  # additive: absent when not sampled
        for old_schema in obs_runs.SUPPORTED_SCHEMAS:
            data["schema"] = old_schema
            loaded = obs_runs.RunRecord.from_dict(data)
            assert loaded.profile is None
            assert loaded.schema == old_schema

    def test_canonical_dict_excludes_volatile_profile_gauges(self):
        record = obs_runs.new_record(
            "test", {"k": 1}, [], metrics={}, profile=self.summary(),
            git_rev=None,
        )
        canonical = record.canonical_dict()
        assert "cpu_total_s" not in canonical["quality"]
        assert "cpu.tapeout_s" not in canonical["quality"]
        assert "peak_rss_bytes" not in canonical["quality"]
        assert "profile" not in canonical

    def test_peak_rss_gates_lower_is_better(self):
        assert "peak_rss_bytes" not in obs_runs.HIGHER_IS_BETTER

    def test_check_regressions_gates_on_cpu_and_rss(self):
        def rec(cpu, rss):
            summary = prof.profile_summary(make_profile(
                {"t;f": 1}, cpu_s={"t": cpu}, wall_s={"t": 1.0}, rss=rss,
            ))
            return obs_runs.new_record(
                "gate", {"k": 1}, [], metrics={}, profile=summary,
                git_rev=None,
            )

        baseline = rec(1.0, 100 * 2 ** 20)
        ok = rec(1.02, 101 * 2 ** 20)
        policy = obs_runs.RegressionPolicy(
            quality_rel_threshold=0.10, rel_threshold=0.10
        )
        assert gate(ok, [baseline], policy=policy).ok
        slow = rec(2.0, 100 * 2 ** 20)
        verdict = gate(slow, [baseline], policy=policy)
        assert not verdict.ok
        assert any("cpu_total_s" in r.key for r in verdict.regressions)
        fat = rec(1.0, 400 * 2 ** 20)
        verdict = gate(fat, [baseline], policy=policy)
        assert not verdict.ok
        assert any("peak_rss_bytes" in r.key for r in verdict.regressions)
