"""The one regression gate against the two-function gate it replaced.

:func:`repro.obs.analyze.gate` used to hand the median comparison to
``repro.obs.runs.check_regressions``, injecting learned floors, margins
and flaky keys through three keyword hooks.  That pair is kept here as
the oracle.  On seeded ledgers -- plain and adaptive, with and without a
deeper history, with SLOs on about half, with a flaky key that sometimes
spikes -- the gate's verdict must equal the oracle's, byte for byte, in
``to_dict()`` and ``summary()``.
"""

import json
import random
from statistics import median

from repro.obs import analyze
from repro.obs import runs as obs_runs
from repro.obs.trace import Span

N_SEEDS = 200

CONFIG = {"kind": "gate-oracle", "node": "180nm"}

#: The oracle's tuning constants (the old keyword defaults).
FLAKY_THRESHOLD = 0.10
FLOOR_K = 4.0


def _num(value):
    return float(value) if isinstance(value, (int, float)) else None


def oracle_check_regressions(
    candidate, baselines, policy, span_floors=None, quality_margins=None,
    flaky=None,
):
    """The retired ``repro.obs.runs.check_regressions``."""
    if not baselines:
        raise AssertionError("the oracle is only run with baselines")
    report = obs_runs.RegressionReport(
        candidate_id=candidate.run_id,
        baseline_ids=[b.run_id for b in baselines],
        regressions=[],
    )
    base_times = [b.span_times() for b in baselines]
    for path, timing in candidate.span_times().items():
        samples = [t[path].total_s for t in base_times if path in t]
        if not samples:
            continue
        report.checked_spans += 1
        base = median(samples)
        floor = policy.abs_floor_s
        floor_kind = "floor"
        if span_floors is not None and path in span_floors:
            floor = span_floors[path]
            floor_kind = "adaptive floor"
        margin = max(floor, base * policy.rel_threshold)
        failed = (
            timing.total_s - base > floor
            and timing.total_s > base * (1.0 + policy.rel_threshold)
        )
        report.comparisons.append(obs_runs.Comparison(
            kind="span", key=path, baseline=base, candidate=timing.total_s,
            margin=margin, verdict="fail" if failed else "ok",
        ))
        if failed:
            report.regressions.append(obs_runs.Regression(
                kind="span", key=path, baseline=base,
                candidate=timing.total_s,
                detail=(
                    f"+{100.0 * (timing.total_s - base) / base:.1f}% over "
                    f"baseline median, threshold "
                    f"+{100.0 * policy.rel_threshold:.0f}% "
                    f"and {floor_kind} {floor:g} s"
                ),
            ))
    flaky_keys = frozenset(flaky or ())
    for key in sorted(candidate.quality):
        cand_value = _num(candidate.quality.get(key))
        if cand_value is None:
            continue
        samples = [
            value
            for value in (_num(b.quality.get(key)) for b in baselines)
            if value is not None
        ]
        if not samples:
            continue
        report.checked_quality += 1
        base = median(samples)
        if quality_margins is not None and key in quality_margins:
            margin = quality_margins[key]
            threshold_desc = f"adaptive margin +/-{margin:g}"
        else:
            margin = policy.quality_rel_threshold * abs(base)
            threshold_desc = (
                f"threshold +/-{100.0 * policy.quality_rel_threshold:.0f}%"
            )
        if key in obs_runs.HIGHER_IS_BETTER:
            failed = cand_value < base - margin - 1e-12
            direction = "dropped below"
        else:
            failed = cand_value > base + margin + 1e-12
            direction = "grew past"
        demoted = failed and key in flaky_keys
        verdict = "ok" if not failed else ("warn" if demoted else "fail")
        report.comparisons.append(obs_runs.Comparison(
            kind="quality", key=key, baseline=base, candidate=cand_value,
            margin=margin, verdict=verdict,
        ))
        if failed:
            finding = obs_runs.Regression(
                kind="quality", key=key, baseline=base, candidate=cand_value,
                detail=(
                    f"{direction} baseline median, {threshold_desc}"
                    + ("; demoted to WARN (flaky metric)" if demoted else "")
                ),
                severity="warn" if demoted else "fail",
            )
            if demoted:
                report.warnings.append(finding)
            else:
                report.regressions.append(finding)
    return report


def oracle_gate(candidate, baselines, history=None, policy=None,
                adaptive=False, slos=None):
    """The retired ``repro.obs.analyze.gate``, which called the above."""
    policy = policy or obs_runs.RegressionPolicy()
    past = list(history) if history is not None else list(baselines)
    span_floors, quality_margins, flaky = {}, {}, ()
    if adaptive and past:
        floors = analyze.learn_floors(past)
        span_floors = floors.span_floor_s
        quality_margins = floors.quality_margin
        flaky = sorted(
            name[len("quality."):]
            for name, series in analyze.extract_series(past).items()
            if name.startswith("quality.")
            and len(series.values) >= analyze.MIN_SERIES_LEN
            and analyze.flakiness(series.values) >= FLAKY_THRESHOLD
        )
    report = oracle_check_regressions(
        candidate, baselines, policy, span_floors=span_floors,
        quality_margins=quality_margins, flaky=flaky,
    )
    if adaptive:
        report.notes.append(
            f"adaptive floors learned from {len(past)} run(s) "
            f"(k={FLOOR_K:g} sigma)"
        )
        if flaky:
            report.notes.append(
                "flaky (WARN-only) quality key(s): " + ", ".join(flaky)
            )
    for name in sorted(slos or {}):
        slo = slos[name]
        rows = list(past)
        if all(r.run_id != candidate.run_id for r in rows):
            rows.append(candidate)
        status = analyze.evaluate_slo(
            slo, analyze.extract_series(rows).get(name)
        )
        if status.checked == 0:
            report.notes.append(f"SLO {name}: no data in this run group")
            continue
        report.checked_slos += 1
        detail = (
            f"burn {status.violations}/{status.checked} within window "
            f"{slo.window} vs budget {slo.budget:g} "
            f"(objective {'<=' if slo.direction == 'below' else '>='} "
            f"{slo.objective:g})"
        )
        finding = obs_runs.Regression(
            kind="slo", key=name, baseline=slo.objective,
            candidate=(
                status.latest_value if status.latest_value is not None else 0.0
            ),
            detail=detail,
            severity="fail" if status.breached else "warn",
        )
        if status.breached:
            report.regressions.append(finding)
        elif status.latest_ok is False:
            report.warnings.append(finding)
    return report


# -- seeded ledgers -------------------------------------------------------------

def _record(rng, run_id, scale, quality):
    """A tapeout-shaped record; a stage that some runs skip included."""
    root = Span("tapeout")
    root.start_s = clock = 0.0
    for name, base_s in (
        ("tapeout.correct", 0.8), ("tapeout.orc", 0.002), ("tapeout.mrc", 0.06),
    ):
        if name == "tapeout.mrc" and rng.random() < 0.2:
            continue
        child = Span(name)
        child.start_s = clock
        clock += base_s * scale * (1.0 + rng.gauss(0.0, 0.02))
        child.end_s = clock
        root.children.append(child)
    root.end_s = clock + 0.01
    return obs_runs.new_record(
        "oracle", CONFIG, [root], metrics={}, quality=quality,
        run_id=run_id, timestamp="2026-01-01T00:00:00+00:00", git_rev=None,
    )


def _quality(rng, bump, spike):
    quality = {
        "figures": 10,  # deterministic: adaptive margin 0
        "epe_rms_nm": 3.0 * bump * (1.0 + rng.gauss(0.0, 0.02)),
        "shots": 100.0 * spike * (1.0 + rng.gauss(0.0, 0.3)),  # flaky
        "mrc_clean": 1 if rng.random() < 0.9 else 0,  # higher is better
        "verdict": "clean",  # not a number: never gated
    }
    if rng.random() < 0.15:
        del quality["epe_rms_nm"]
    return quality


def _scenario(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 12)
    history = [
        _record(rng, f"s{seed}-{i}", 1.0 + rng.gauss(0.0, 0.02),
                _quality(rng, 1.0, 1.0))
        for i in range(n)
    ]
    bump = rng.choice([1.0, 1.0, 1.05, 1.3, 0.8])
    spike = 5.0 if rng.random() < 0.3 else 1.0
    candidate = _record(
        rng, f"s{seed}-cand", bump * (1.0 + rng.gauss(0.0, 0.02)),
        _quality(rng, bump, spike),
    )
    baselines = history[-rng.randint(1, min(3, n)):]
    if rng.random() < 0.2:
        history = history + [candidate]
    policy = obs_runs.RegressionPolicy(
        rel_threshold=rng.choice([0.1, 0.25]),
        abs_floor_s=rng.choice([0.0, 0.01, 0.05]),
        quality_rel_threshold=rng.choice([0.05, 0.10]),
    )
    slos = None
    if rng.random() < 0.5:
        slos = {
            "quality.epe_rms_nm": analyze.SLO(
                metric="quality.epe_rms_nm",
                objective=rng.uniform(2.9, 3.5),
                direction=rng.choice(["below", "above"]),
                window=rng.randint(1, 10),
                budget=rng.choice([0.0, 0.2, 0.5]),
            ),
            "quality.absent": analyze.SLO(metric="quality.absent", objective=1.0),
        }
    return candidate, baselines, history, policy, slos


def test_gate_matches_the_retired_two_function_gate():
    tally = {"fail": 0, "ok": 0, "demoted": 0, "slo": 0}
    for seed in range(N_SEEDS):
        candidate, baselines, history, policy, slos = _scenario(seed)
        for adaptive in (False, True):
            for past in (None, history):
                args = dict(history=past, policy=policy, adaptive=adaptive,
                            slos=slos)
                got = analyze.gate(candidate, baselines, **args)
                want = oracle_gate(candidate, baselines, **args)
                case = f"seed {seed}, adaptive={adaptive}, history={past is not None}"
                assert json.dumps(got.to_dict(), sort_keys=True) == json.dumps(
                    want.to_dict(), sort_keys=True
                ), case
                assert got.summary() == want.summary(), case
                tally["ok" if got.ok else "fail"] += 1
                tally["demoted"] += any(
                    "demoted" in w.detail for w in got.warnings
                )
                tally["slo"] += got.checked_slos > 0
    # The corpus exercises every branch the two gates split between them.
    assert tally["fail"] >= 100 and tally["ok"] >= 100, tally
    assert tally["demoted"] >= 20, tally
    assert tally["slo"] >= 200, tally
