"""Regression intelligence over the ledger: stats, CUSUM, gate, SLOs.

Covers the acceptance surface of ``repro.obs.analyze``: pure noise
yields no change points across seeds, an injected 15% step at run 12 of
20 is localized to run 12 +/- 1, the adaptive gate fails a post-step
candidate while passing a same-noise pre-step one (no hand-tuned
floors), flaky metrics demote FAIL -> WARN, SLO budgets parse from both
TOML front ends identically, and mixed-schema ledgers (1.0 - 1.4)
analyze without error.
"""

import math
import random
import re
import sys
from pathlib import Path

import pytest

from repro.errors import ReproError
from repro.obs import analyze
from repro.obs import runs as obs_runs
from repro.obs.trace import Span

N_CASES = 20

CONFIG = {"kind": "test", "node": "180nm", "tile_nm": 1500}


def make_record(scale=1.0, quality=None, correct_s=0.8, config=CONFIG):
    """One synthetic tapeout-shaped record; ``scale`` stretches spans."""
    root = Span("tapeout")
    root.start_s, root.end_s = 0.0, 1.0 * scale
    correct = Span("tapeout.correct")
    correct.start_s, correct.end_s = 0.0, correct_s * scale
    root.children.append(correct)
    return obs_runs.new_record(
        "tapeout", config, [root],
        metrics={},
        quality=quality if quality is not None else {"figures": 10},
        git_rev=None,
    )


def make_history(n, seed=0, noise=0.01, step_at=None, step=0.15,
                 epe_nm=3.0):
    """``n`` records with seeded noise and an optional relative step."""
    rng = random.Random(seed)
    records = []
    for i in range(n):
        bump = (1.0 + step) if step_at is not None and i >= step_at else 1.0
        scale = bump * (1.0 + rng.gauss(0.0, noise))
        records.append(make_record(
            scale=scale,
            quality={
                "figures": 10,
                "epe_rms_nm": epe_nm * bump * (1.0 + rng.gauss(0.0, noise)),
            },
        ))
    return records


class TestRobustStats:
    def test_known_values(self):
        stats = analyze.robust_stats([1.0, 2.0, 3.0, 4.0, 100.0])
        assert stats.median == 3.0
        assert stats.mad == 1.0  # the outlier does not move it
        assert stats.sigma == pytest.approx(analyze.MAD_SIGMA)
        assert (stats.minimum, stats.maximum) == (1.0, 100.0)

    def test_empty_errors(self):
        with pytest.raises(ReproError):
            analyze.robust_stats([])

    def test_pstdev_fallback_when_mad_collapses(self):
        # Over half the samples identical -> MAD 0, but the series is
        # not constant; sigma must still carry a scale.
        stats = analyze.robust_stats([1.0, 1.0, 1.0, 5.0])
        assert stats.mad == 0.0
        assert stats.sigma > 0.0

    def test_flakiness_semantics(self):
        assert analyze.flakiness([2.0]) == 0.0
        assert analyze.flakiness([2.0, 2.0, 2.0]) == 0.0
        assert math.isinf(analyze.flakiness([-1.0, 0.0, 1.0]))
        noisy = analyze.flakiness([1.0, 1.3, 0.8, 1.1])
        assert noisy > analyze.DEFAULT_FLAKY_THRESHOLD


class TestCusum:
    def test_pure_noise_has_no_changepoints(self):
        """Property: in-control series never alarm (across seeds)."""
        for seed in range(N_CASES):
            rng = random.Random(seed)
            values = [1.0 + rng.gauss(0.0, 0.01) for _ in range(20)]
            assert analyze.cusum_changepoints(values) == [], f"seed {seed}"

    def test_injected_step_localized_within_one_run(self):
        """Property: a 15% step at index 11 lands at 11 +/- 1."""
        for seed in range(N_CASES):
            rng = random.Random(1000 + seed)
            values = [
                (1.15 if i >= 11 else 1.0) * (1.0 + rng.gauss(0.0, 0.01))
                for i in range(20)
            ]
            cps = analyze.cusum_changepoints(values)
            ups = [cp for cp in cps if cp.direction == "up"]
            assert len(ups) == 1, f"seed {seed}: {cps}"
            assert ups[0].index in (10, 11, 12), f"seed {seed}: {ups}"

    def test_sustained_step_alarms_exactly_once(self):
        values = [1.0] * 10 + [1.5] * 10
        # Perturb one sample so the halves are not perfectly flat.
        values[3] = 1.001
        cps = analyze.cusum_changepoints(values)
        assert [cp.index for cp in cps] == [10]
        assert cps[0].direction == "up"
        assert cps[0].before == pytest.approx(1.0, abs=0.01)
        assert cps[0].after == pytest.approx(1.5, abs=0.01)

    def test_downward_step_detected(self):
        rng = random.Random(7)
        values = [
            (0.8 if i >= 12 else 1.0) * (1.0 + rng.gauss(0.0, 0.005))
            for i in range(24)
        ]
        cps = analyze.cusum_changepoints(values)
        assert any(cp.direction == "down" and cp.index in (11, 12, 13)
                   for cp in cps)

    def test_short_and_flat_series_are_silent(self):
        assert analyze.cusum_changepoints([1.0, 2.0, 3.0]) == []
        assert analyze.cusum_changepoints([1.0] * 30) == []

    def test_deterministic(self):
        rng = random.Random(3)
        values = [1.0 + rng.gauss(0.0, 0.02) for _ in range(15)]
        values[9:] = [v * 1.3 for v in values[9:]]
        assert (analyze.cusum_changepoints(values)
                == analyze.cusum_changepoints(values))


class TestAdaptiveFloors:
    def test_floors_scale_with_noise(self):
        history = make_history(12, seed=2, noise=0.01)
        floors = analyze.learn_floors(history)
        assert floors.n_history == 12
        span_floor = floors.span_floor_s["tapeout"]
        sigma = analyze.robust_stats(
            [r.wall_s for r in history]
        ).sigma
        assert span_floor == pytest.approx(
            max(analyze.DEFAULT_FLOOR_K * sigma, analyze.MIN_SPAN_FLOOR_S)
        )

    def test_minimum_span_floor(self):
        # Two nearly-identical runs: the MAD collapses, the floor must
        # not follow it below the scheduler-jitter minimum.
        history = [make_record(scale=1.0), make_record(scale=1.0)]
        floors = analyze.learn_floors(history)
        assert floors.span_floor_s["tapeout"] >= analyze.MIN_SPAN_FLOOR_S

    def test_deterministic_quality_gets_exact_match_margin(self):
        history = [make_record(quality={"figures": 10}) for _ in range(5)]
        floors = analyze.learn_floors(history)
        assert floors.quality_margin["figures"] == 0.0

    def test_single_sample_learns_nothing(self):
        floors = analyze.learn_floors([make_record()])
        assert floors.span_floor_s == {}
        assert floors.quality_margin == {}


class TestSLO:
    def test_direction_semantics(self):
        below = analyze.SLO(metric="quality.epe_rms_nm", objective=4.0)
        assert below.violated_by(4.5)
        assert not below.violated_by(4.0)
        above = analyze.SLO(
            metric="quality.mrc_clean", objective=1.0, direction="above"
        )
        assert above.violated_by(0.0)
        assert not above.violated_by(1.0)

    def test_burn_and_breach(self):
        slo = analyze.SLO(
            metric="m", objective=1.0, window=5, budget=0.2
        )
        series = analyze.MetricSeries(
            "m", tuple("abcdefg"), (0.5, 0.5, 1.5, 0.5, 1.5, 1.5, 0.5)
        )
        status = analyze.evaluate_slo(slo, series)
        assert status.checked == 5  # window caps the lookback
        assert status.violations == 3
        assert status.burn == pytest.approx(0.6)
        assert status.breached
        assert status.latest_ok is True  # newest value itself is fine

    def test_no_data(self):
        slo = analyze.SLO(metric="m", objective=1.0)
        status = analyze.evaluate_slo(slo, None)
        assert status.checked == 0
        assert not status.breached
        assert status.latest_ok is None

    def test_load_standalone_file(self, tmp_path):
        path = tmp_path / "repro-slo.toml"
        path.write_text(
            '["quality.epe_rms_nm"]\n'
            "objective = 4.0\n"
            "window = 8\n"
            "budget = 0.25\n"
            '\n["quality.mrc_clean"]\n'
            "objective = 1.0\n"
            'direction = "above"\n'
        )
        slos = analyze.load_slos(path)
        assert set(slos) == {"quality.epe_rms_nm", "quality.mrc_clean"}
        assert slos["quality.epe_rms_nm"].window == 8
        assert slos["quality.epe_rms_nm"].budget == 0.25
        assert slos["quality.mrc_clean"].direction == "above"

    def test_load_pyproject_table(self, tmp_path):
        path = tmp_path / "pyproject.toml"
        path.write_text(
            "[project]\nname = 'x'\n"
            '[tool.repro.slo."run.wall_s"]\n'
            "objective = 30.0\n"
        )
        slos = analyze.load_slos(path)
        assert set(slos) == {"run.wall_s"}
        assert slos["run.wall_s"].objective == 30.0

    def test_default_search_order(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert analyze.load_slos() == {}  # nothing declared -> no SLOs
        (tmp_path / "repro-slo.toml").write_text(
            '["run.wall_s"]\nobjective = 9.0\n'
        )
        assert set(analyze.load_slos()) == {"run.wall_s"}

    def test_explicit_missing_path_errors(self, tmp_path):
        with pytest.raises(ReproError):
            analyze.load_slos(tmp_path / "nope.toml")

    def test_rejected_tables(self, tmp_path):
        bad = [
            '["m"]\nobjective = "four"\n',
            '["m"]\nobjective = 4.0\ndirection = "sideways"\n',
            '["m"]\nobjective = 4.0\nwindow = 0\n',
            '["m"]\nobjective = 4.0\nbudget = 1.5\n',
            '["m"]\nobjective = 4.0\ntypo_key = 1\n',
        ]
        for i, text in enumerate(bad):
            path = tmp_path / f"slo{i}.toml"
            path.write_text(text)
            with pytest.raises(ReproError):
                analyze.load_slos(path)

    def test_rejected_tables_name_their_file(self, tmp_path):
        """Every rejected table's error starts with the file's path, as
        a malformed file's does, standalone or under pyproject.toml."""
        bad = {
            "abc.toml": '["m"]\nobjective = "abc"\n',
            "scalar.toml": 'm = 4.0\n[tool.repro.slo]\nm = 4.0\n',
            "window.toml": '["m"]\nobjective = 4.0\nwindow = 0\n',
            "pyproject.toml": '[tool.repro.slo.m]\nobjective = 4.0\nbudget = 1.5\n',
        }
        for name, text in bad.items():
            path = tmp_path / name
            path.write_text(text)
            with pytest.raises(ReproError, match="^" + re.escape(f"{path}: SLO 'm' ")):
                analyze.load_slos(path)

    def test_minimal_parser_matches_tomllib(self):
        """The pre-3.11 fallback parses an SLO file exactly like tomllib."""
        tomllib = pytest.importorskip("tomllib")
        text = (
            "# budgets\n"
            '[tool.repro.slo."quality.epe_rms_nm"]\n'
            "objective = 4.5  # nm\n"
            'direction = "below"\n'
            "window = 10\n"
            "budget = 0.2\n"
            '["run.wall_s"]\n'
            "objective = 30\n"
        )
        assert (analyze._parse_minimal_toml(text)
                == tomllib.loads(text))

    @pytest.mark.parametrize("subset_parser", [False, True])
    def test_malformed_file_is_a_repro_error_naming_it(
        self, tmp_path, monkeypatch, subset_parser
    ):
        if subset_parser:  # as on Python < 3.11, where tomllib is missing
            monkeypatch.setitem(sys.modules, "tomllib", None)
        bad = {
            "syntax.toml": b'["m"\nobjective = 4.0\n',
            "latin1.toml": b'["m"]\nobjective = 4.0  # \xb5m\n',
        }
        for name, data in bad.items():
            path = tmp_path / name
            path.write_bytes(data)
            with pytest.raises(ReproError, match=re.escape(f"{path}: ")):
                analyze.load_slos(path)
        # The default search reads the same files the same way.
        monkeypatch.chdir(tmp_path)
        (tmp_path / "repro-slo.toml").write_bytes(bad["syntax.toml"])
        with pytest.raises(ReproError, match="^repro-slo.toml: "):
            analyze.load_slos()

    REPO_PYPROJECT = Path(__file__).resolve().parents[2] / "pyproject.toml"

    PYPROJECT = (
        "[project]\n"
        'name = "x"\n'
        "dependencies = [\n"
        '    "numpy>=1.24",\n'
        '    "scipy>=1.10",\n'
        "]\n"
        '[tool.setuptools.package-data]\n'
        'repro = ["py.typed"]\n'
        '[tool.repro.slo."run.wall_s"]\n'
        "objective = {objective}\n"
        "window = 5\n"
        "budget = 0.2\n"
        "[tool.ruff]\n"
        'select = ["E4", "F"]\n'
    )

    @pytest.mark.parametrize("subset_parser", [False, True])
    def test_this_repos_pyproject_declares_no_slos(self, monkeypatch, subset_parser):
        if subset_parser:  # as on Python < 3.11, where tomllib is missing
            monkeypatch.setitem(sys.modules, "tomllib", None)
        assert analyze.load_slos(self.REPO_PYPROJECT) == {}

    @pytest.mark.parametrize("subset_parser", [False, True])
    def test_pyproject_slo_tables_beside_arrays(self, tmp_path, monkeypatch, subset_parser):
        if subset_parser:
            monkeypatch.setitem(sys.modules, "tomllib", None)
        path = tmp_path / "pyproject.toml"
        path.write_text(self.PYPROJECT.format(objective="30.0"))
        assert analyze.load_slos(path) == {
            "run.wall_s": analyze.SLO(
                metric="run.wall_s", objective=30.0, direction="below",
                window=5, budget=0.2,
            )
        }

    @pytest.mark.parametrize("subset_parser", [False, True])
    def test_bad_value_in_a_pyproject_slo_table_is_named(
        self, tmp_path, monkeypatch, subset_parser
    ):
        if subset_parser:
            monkeypatch.setitem(sys.modules, "tomllib", None)
        path = tmp_path / "pyproject.toml"
        path.write_text(self.PYPROJECT.format(objective="3O.0"))
        with pytest.raises(ReproError, match="^" + re.escape(f"{path}: ")):
            analyze.load_slos(path)

    def test_subset_parser_never_drops_a_pyproject_slo_table(self, tmp_path, monkeypatch):
        monkeypatch.setitem(sys.modules, "tomllib", None)
        path = tmp_path / "pyproject.toml"
        path.write_text(
            '[project]\nname = "x"\n'
            '[tool.repro.slo."run.wall_s"]  # nightly budget\n'
            "objective = 30.0\n"
        )
        with pytest.raises(ReproError, match="^" + re.escape(f"{path}: ")):
            analyze.load_slos(path)


class TestAnalyzeRecords:
    def test_acceptance_20_run_step_at_12(self):
        """The headline criterion: a 15% step at run 12 of 20 is
        reported at run 12 +/- 1 (0-based index 11 +/- 1)."""
        records = make_history(20, seed=5, step_at=11)
        report = analyze.analyze_records(records)
        for name in ("run.wall_s", "quality.epe_rms_nm"):
            ups = [cp for cp in report.analyses[name].change_points
                   if cp.direction == "up"]
            assert len(ups) == 1, name
            assert ups[0].index in (10, 11, 12), (name, ups)

    def test_mixed_fingerprints_filtered_with_note(self):
        other = make_record(config={"kind": "other"})
        records = [other] + make_history(6, seed=1)
        report = analyze.analyze_records(records)
        assert len(report.run_ids) == 6
        assert any("fingerprint" in note for note in report.notes)

    def test_mixed_schema_ledger_analyzes(self):
        """Every supported schema revision feeds the same analysis."""
        records = []
        for i, schema in enumerate(obs_runs.SUPPORTED_SCHEMAS):
            data = make_history(1, seed=40 + i)[0].to_dict()
            data["schema"] = schema
            records.append(obs_runs.RunRecord.from_dict(data))
        report = analyze.analyze_records(records)
        assert len(report.run_ids) == len(obs_runs.SUPPORTED_SCHEMAS)
        assert "run.wall_s" in report.analyses

    def test_unknown_metric_noted(self):
        report = analyze.analyze_records(
            make_history(4), metrics=["no.such_metric"]
        )
        assert any("no.such_metric" in note for note in report.notes)
        assert report.analyses == {}

    def test_empty_errors(self):
        with pytest.raises(ReproError):
            analyze.analyze_records([])

    def test_report_markdown_shape(self):
        records = make_history(20, seed=5, step_at=11)
        slos = {"quality.epe_rms_nm": analyze.SLO(
            metric="quality.epe_rms_nm", objective=3.2, window=10,
            budget=0.2,
        )}
        report = analyze.analyze_records(records, slos=slos)
        text = analyze.report_markdown(report)
        assert "| metric | latest |" in text
        assert "### change points" in text
        assert "### SLO budgets" in text
        assert "BREACH" in text  # the post-step runs burn the budget
        assert any(bar in text for bar in analyze._SPARK_BARS)

    def test_json_round_trip_is_deterministic(self):
        import json

        records = make_history(8, seed=3, step_at=4)
        a = json.dumps(analyze.analyze_records(records).to_dict(),
                       sort_keys=True)
        b = json.dumps(analyze.analyze_records(records).to_dict(),
                       sort_keys=True)
        assert a == b


class TestGate:
    def test_adaptive_fails_step_passes_noise(self):
        """The acceptance gate: post-step candidate FAILs, same-noise
        pre-step candidate passes -- no hand-tuned floor anywhere."""
        history = make_history(11, seed=9)
        rng = random.Random(99)
        post_step = make_record(
            scale=1.15,
            quality={"figures": 10,
                     "epe_rms_nm": 3.0 * 1.15 * (1 + rng.gauss(0, 0.01))},
        )
        pre_step = make_record(
            scale=1.0 + rng.gauss(0.0, 0.01),
            quality={"figures": 10,
                     "epe_rms_nm": 3.0 * (1 + rng.gauss(0, 0.01))},
        )
        baselines = history[-3:]
        failed = analyze.gate(post_step, baselines, history=history,
                              adaptive=True)
        assert not failed.ok
        assert any(r.kind == "quality" and r.key == "epe_rms_nm"
                   for r in failed.regressions)
        passed = analyze.gate(pre_step, baselines, history=history,
                              adaptive=True)
        assert passed.ok, passed.summary()
        assert any("adaptive floors" in note for note in passed.notes)

    def test_adaptive_catches_what_plain_misses(self):
        """A 5% quality drift passes the hand-tuned +/-10% threshold but
        fails the 4-sigma margin learned from ~1% noise."""
        history = make_history(11, seed=21)
        drift = make_record(
            quality={"figures": 10, "epe_rms_nm": 3.0 * 1.05},
        )
        baselines = history[-3:]
        plain = analyze.gate(drift, baselines, history=history,
                             adaptive=False)
        assert plain.ok, plain.summary()
        adaptive = analyze.gate(drift, baselines, history=history,
                                adaptive=True)
        assert not adaptive.ok
        assert any(r.key == "epe_rms_nm" and "adaptive margin" in r.detail
                   for r in adaptive.regressions)

    def test_adaptive_span_floor_beats_abs_floor(self):
        """A big slowdown on a tiny span hides under the 50 ms hand
        floor; the learned floor sees it."""
        history = [make_record(correct_s=0.02) for _ in range(6)]
        slow = make_record(correct_s=0.03)  # +50% on a 20 ms span
        plain = analyze.gate(slow, history[-3:], history=history,
                             adaptive=False)
        assert plain.ok
        adaptive = analyze.gate(slow, history[-3:], history=history,
                                adaptive=True)
        assert any(
            r.kind == "span" and r.key == "tapeout/tapeout.correct"
            for r in adaptive.regressions
        ), adaptive.summary()

    def test_flaky_metric_demotes_to_warn(self):
        rng = random.Random(31)
        history = [
            make_record(quality={"figures": 10,
                                 "shots": 100 * (1 + rng.gauss(0, 0.3))})
            for _ in range(10)
        ]
        spike = make_record(quality={"figures": 10, "shots": 500.0})
        verdict = analyze.gate(spike, history[-3:], history=history,
                               adaptive=True)
        assert verdict.ok  # demoted findings never flip the verdict
        assert any(w.key == "shots" and w.severity == "warn"
                   for w in verdict.warnings)
        assert any("flaky" in note for note in verdict.notes)

    def test_slo_breach_fails_gate(self):
        history = make_history(10, seed=13, step_at=5)
        slos = {"quality.epe_rms_nm": analyze.SLO(
            metric="quality.epe_rms_nm", objective=3.2, window=10,
            budget=0.2,
        )}
        verdict = analyze.gate(
            history[-1], history[-4:-1], history=history[:-1], slos=slos
        )
        assert not verdict.ok
        assert any(r.kind == "slo" for r in verdict.regressions)
        assert verdict.checked_slos == 1

    def test_slo_without_data_is_a_note(self):
        history = make_history(5, seed=1)
        slos = {"quality.nonexistent": analyze.SLO(
            metric="quality.nonexistent", objective=1.0,
        )}
        verdict = analyze.gate(history[-1], history[:-1],
                               history=history[:-1], slos=slos)
        assert verdict.ok
        assert any("no data" in note for note in verdict.notes)

    def test_comparison_table_covers_every_check(self):
        history = make_history(5, seed=2)
        verdict = analyze.gate(history[-1], history[:-1])
        kinds = {c.kind for c in verdict.comparisons}
        assert kinds == {"span", "quality"}
        assert len(verdict.comparisons) == (
            verdict.checked_spans + verdict.checked_quality
        )
        assert all(c.verdict == "ok" for c in verdict.comparisons)
