"""Shared fixtures for the experiment benchmarks.

Every benchmark regenerates one table or figure of the reconstructed
evaluation (see DESIGN.md section 5 and the mismatch notice at its top).
Fixtures here hold the expensive shared state: the anchored simulator and
the calibrated rule-OPC bias table.

Run the suite with::

    pytest benchmarks/ --benchmark-only -s

``-s`` lets each experiment print its table; the qualitative assertions
run either way.

Result emission: every benchmark run writes one ``BENCH_<module>.json``
summary per benchmark module (e.g. ``BENCH_bench_e01_proximity.json``)
into ``$REPRO_BENCH_OUT`` when set, otherwise into the current working
directory.  Each summary carries the per-test outcomes and call
durations, so a CI trajectory can track benchmark wall time without
parsing pytest output.  Set ``REPRO_RUNS_DIR`` as well to additionally
append full instrumented records to the persistent run ledger.
"""

import json
import os
from collections import defaultdict
from pathlib import Path

import pytest

from repro import obs
from repro.design import line_space_array, node_180nm
from repro.litho import LithoConfig, LithoSimulator, binary_mask, krf_annular
from repro.obs import runs as obs_runs
from repro.opc import RuleOPCRecipe, calibrate_bias_table

#: The drawn CD every experiment targets.
TARGET_CD = 180.0

#: Directory receiving the ``BENCH_*.json`` summaries (default: cwd).
BENCH_OUT_ENV = "REPRO_BENCH_OUT"

_bench_results = []


def pytest_runtest_logreport(report):
    """Collect call-phase outcomes of every benchmark test."""
    if report.when != "call":
        return
    module = report.nodeid.split("::", 1)[0]
    if Path(module).stem.startswith("bench_"):
        _bench_results.append(
            {
                "nodeid": report.nodeid,
                "outcome": report.outcome,
                "duration_s": round(report.duration, 6),
            }
        )


def pytest_sessionfinish(session, exitstatus):
    """Write one ``BENCH_<module>.json`` summary per benchmark module.

    The output directory is ``$REPRO_BENCH_OUT`` (created if missing) or
    the current working directory -- the documented contract a results
    trajectory scrapes after a benchmark run.
    """
    if not _bench_results:
        return
    out_dir = Path(os.environ.get(BENCH_OUT_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    by_module = defaultdict(list)
    for result in _bench_results:
        by_module[Path(result["nodeid"].split("::", 1)[0]).stem].append(result)
    for module, tests in sorted(by_module.items()):
        summary = {
            "bench": module,
            "tests": tests,
            "passed": sum(1 for t in tests if t["outcome"] == "passed"),
            "failed": sum(1 for t in tests if t["outcome"] == "failed"),
            "total_duration_s": round(
                sum(t["duration_s"] for t in tests), 6
            ),
        }
        path = out_dir / f"BENCH_{module}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")


@pytest.fixture(autouse=True)
def obs_run_record(request):
    """Append every benchmark invocation to the persistent run ledger.

    Set ``REPRO_RUNS_DIR=<dir>`` to record each benchmark with
    :mod:`repro.obs` and append one :class:`repro.obs.runs.RunRecord`
    (label ``bench:<nodeid>``, fingerprinted by the nodeid) to the ledger
    there, so ``repro runs diff``/``check`` can compare bench runs over
    time.  Without the variable this fixture is inert and benchmarks run
    uninstrumented.
    """
    runs_dir = os.environ.get(obs_runs.RUNS_DIR_ENV)
    if not runs_dir:
        yield
        return
    # The fixture records one aggregate run per benchmark; keep the flows
    # inside it from auto-appending their own inner records.
    with obs_runs.suppress_auto_record():
        with obs.capture() as cap:
            yield
    # The global registry still holds this run's metrics (capture resets
    # it at entry, not exit), so the default snapshot picks them up.
    nodeid = request.node.nodeid
    record = obs_runs.new_record(
        label=f"bench:{nodeid}",
        config={"kind": "bench", "nodeid": nodeid},
        roots=cap.roots,
    )
    obs_runs.RunLedger(runs_dir).append(record)


@pytest.fixture(scope="session")
def rules():
    return node_180nm()


@pytest.fixture(scope="session")
def simulator():
    return LithoSimulator(
        LithoConfig(optics=krf_annular(), pixel_nm=8.0, ambit_nm=600)
    )


@pytest.fixture(scope="session")
def anchor_pattern():
    """The dense 180 nm / 460 nm-pitch anchor grating."""
    return line_space_array(180, 280)


@pytest.fixture(scope="session")
def anchor_dose(simulator, anchor_pattern):
    """Dose-to-size on the anchor feature (the process's exposure point)."""
    return simulator.dose_to_size(
        binary_mask(anchor_pattern.region),
        anchor_pattern.window,
        anchor_pattern.site("center"),
        TARGET_CD,
    )


@pytest.fixture(scope="session")
def bias_table(simulator, anchor_dose):
    """A rule-OPC bias table calibrated from simulated proximity data."""
    return calibrate_bias_table(
        simulator, 180, [260, 360, 540, 900, 1400], dose=anchor_dose
    )


@pytest.fixture(scope="session")
def rule_recipe(bias_table):
    return RuleOPCRecipe(bias_table=bias_table)
