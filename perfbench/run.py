"""Run one seeded workload of the repository benchmark and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload tapeout_block [--seed 5] [--seconds 30] [--trace 0]

One invocation sets the workload up ``Workload.setups`` times, each into
a fresh empty kernel store (``setup_s`` is their median), makes one
first run, discards warm-up runs, then repeats the workload until
``--seconds`` have passed and at least ``MIN_TIMED_RUNS`` runs were
made, and reports medians.  A calibration unit (``calibrate.py``) timed
between the timed runs scales ``wall_s`` and ``cpu_s`` to a reference
host speed; the times as measured are printed beside them.  With
``--trace 1`` it then makes traced passes and reports the per-layer
metrics instead of the end-to-end ones.  Every run's output is checked
(see ``NOTES.md``).  Earlier lines of standard output are a readable
report; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

Scratch files -- the private kernel store and the GDS output -- live in a
temporary directory under the repository root, removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("e10_model", "tapeout_block", "rule_dataprep")

#: Kernel-store location read by every ``LithoSimulator`` (and pool worker).
KERNEL_DIR_ENV = "REPRO_KERNEL_CACHE_DIR"

#: Fewest timed runs behind a median, however long they take: single
#: runs on a shared 2-core host vary by +-25%.
MIN_TIMED_RUNS = 5

#: Calibration units timed before the first timed run and after each:
#: the median of more units follows the host's speed more closely.
UNITS_PER_GAP = 2

#: Largest share of traced wall time the layer self times may leave
#: unattributed before the traced run counts as failed.
UNATTRIBUTED_LIMIT = 0.15

#: Thread settings recorded with every result.
THREAD_ENVS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

Metric = Tuple[float, str]


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def peak_rss_bytes() -> int:
    """Largest resident set of this process or any reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) * 1024  # Linux reports KiB


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolation quantile (0.0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def host_fingerprint() -> dict:
    """What a result must match to be compared like with like."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_build = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas_build = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {name: os.environ.get(name) for name in THREAD_ENVS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_build,
    }


@dataclass
class Traced:
    """One traced pass: wall time, layer timings, spans and counters."""

    wall_s: float
    tracer: object
    roots: list
    counters: Dict[str, float] = field(default_factory=dict)

    def spans(self, name: str) -> List[float]:
        return [
            span.duration_s
            for root in self.roots
            for span in root.find_all(name)
        ]


class Bench:
    """One invocation: setup, checked runs, optional traced passes."""

    def __init__(self, workload, seed: int, seconds: float, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digest: Optional[str] = None
        self.first_output = None

    # -- checked runs ---------------------------------------------------------

    def fail(self, message: str) -> None:
        self.problems.append(message)
        print(f"FAIL {message}")

    def check(self, output, label: str) -> None:
        """Count one attempted run and fail it if its output is wrong."""
        self.attempted += 1
        if output is None:
            self.failed += 1
            return
        problems = output.problems()
        digest = output.digest()
        if self.digest is None:
            self.digest = digest
            self.first_output = output
        elif digest != self.digest:
            problems.append(f"mask digest {digest} differs from the first run")
        if problems:
            self.failed += 1
            for problem in problems:
                self.fail(f"{label}: {problem}")

    def attempt(self, state, run, label: str) -> Tuple[float, float]:
        """One checked run; returns its wall and CPU seconds."""
        cpu_before = cpu_seconds()
        start = perf_counter()
        output = None
        try:
            output = run(state)
        except Exception as error:  # a failed run is counted, not fatal
            self.fail(f"{label} raised {type(error).__name__}: {error}")
        wall = perf_counter() - start
        cpu = cpu_seconds() - cpu_before
        self.check(output, label)
        return wall, cpu

    def traced(self, state, run, label: str) -> Traced:
        """One checked run with layer wrappers and program spans on."""
        from repro import obs
        from layers import LayerTracer

        output = None
        with LayerTracer() as tracer, obs.capture() as capture:
            start = perf_counter()
            try:
                output = run(state)
            except Exception as error:
                self.fail(f"{label} raised {type(error).__name__}: {error}")
            wall = perf_counter() - start
        self.check(output, label)
        counters = {
            name: record["value"]
            for name, record in obs.registry().snapshot().items()
            if record["kind"] == "counter"
        }
        return Traced(wall, tracer, capture.roots, counters)

    # -- the invocation -------------------------------------------------------

    def run(self, trace: bool) -> dict:
        workload = self.workload
        setup_times = []
        for index in range(workload.setups):
            store = self.workdir / f"kernels-{index}"
            os.environ[KERNEL_DIR_ENV] = str(store)
            state = None  # free the previous setup's state first
            start = perf_counter()
            state = workload.setup(self.seed, self.workdir)
            setup_times.append(perf_counter() - start)
        kernels_after_setup = sorted(store.glob("*.kc"))
        first_s, _ = self.attempt(state, workload.run, "first run")

        reference = None
        try:
            reference = workload.reference(state)
        except Exception as error:
            self.fail(f"reference raised {type(error).__name__}: {error}")
        if reference is not None:
            if reference.problems():
                self.fail(f"reference: {'; '.join(reference.problems())}")
            if reference.digest() != self.digest:
                self.fail(
                    f"pooled mask {self.digest} differs from the serial "
                    f"reference {reference.digest()}"
                )
        for index in range(workload.warmups):
            self.attempt(state, workload.run, f"warm-up {index + 1}")
        from calibrate import REFERENCE_S, Calibration

        calibration = Calibration()
        cals = [calibration.seconds() for _ in range(UNITS_PER_GAP)]
        walls, cpus = [], []
        start = perf_counter()
        while len(walls) < MIN_TIMED_RUNS or perf_counter() - start < self.seconds:
            wall, cpu = self.attempt(state, workload.run, f"run {len(walls) + 1}")
            walls.append(wall)
            cpus.append(cpu)
            cals += [calibration.seconds() for _ in range(UNITS_PER_GAP)]
        # A kernel built after setup means setup missed a grid and timed
        # runs paid for a TCC decomposition.
        built = sorted(set(store.glob("*.kc")) - set(kernels_after_setup))
        if built:
            self.fail(f"{len(built)} kernel set(s) built after setup")

        quality = {}
        if self.first_output is not None:
            quality = workload.quality(state, self.first_output)
        measured = {
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
        }
        # Seconds at the reference speed: the host's speed drifts by tens
        # of per cent between invocations, and the calibration unit drifts
        # with it (see calibrate.py and NOTES.md).  Setup runs before the
        # units and follows them less closely, so it stays as measured.
        scale = REFERENCE_S / statistics.median(cals)
        end_to_end = {
            "wall_s": (measured["wall_s"] * scale, "s"),
            "cpu_s": (measured["cpu_s"] * scale, "s"),
            "peak_rss_bytes": (float(peak_rss_bytes()), "bytes"),
            "setup_s": (statistics.median(setup_times), "s"),
            "shot_count": (float(quality.get("shot_count", 0)), "count"),
            "mask_vertices": (float(quality.get("mask_vertices", 0)), "count"),
        }
        layers: Dict[str, Metric] = {}
        if trace:
            timed = self.traced(state, workload.run, "traced run")
            split = timed
            if reference is not None:
                # Pool workers cannot report to parent-side wrappers: the
                # layer split comes from a serial pass of the same fixture.
                split = self.traced(state, workload.reference, "traced serial pass")
            layers = self.layer_metrics(timed, split, measured["wall_s"])

        self.report(walls, setup_times, first_s, cals, measured, end_to_end,
                    quality, reference)
        metrics = layers if trace else end_to_end
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }

    # -- per-layer metrics ----------------------------------------------------

    def layer_metrics(self, timed: Traced, split: Traced, wall_s: float) -> Dict[str, Metric]:
        from layers import LAYERS

        layers = split.tracer.layers
        metrics: Dict[str, Metric] = {}
        for name in LAYERS:
            if name in ("opc.tiled", "opc.pool"):
                continue
            metrics[f"{name}_s"] = (layers[name].self_s, "s")
            metrics[f"{name}_calls"] = (float(layers[name].calls), "count")
        metrics["litho.socs_image_p90_s"] = (
            quantile(layers["litho.socs_image"].samples, 0.9), "s"
        )
        metrics["litho.epe_sites"] = (float(layers["litho.epe_probe"].work), "count")
        metrics["layout.gds_bytes"] = (float(layers["layout.gds_write"].work), "bytes")

        hits = timed.counters.get("sim.kernel_cache_hits", 0)
        misses = timed.counters.get("sim.kernel_cache_misses", 0)
        # No store lookup at all means every kernel came from memory.
        hit_ratio = hits / (hits + misses) if hits + misses else 1.0
        metrics["litho.kernel_cache_hit_ratio"] = (hit_ratio, "ratio")

        tiles = timed.spans("opc.tile")
        iterations = timed.spans("opc.iteration")
        metrics["opc.tile_p50_s"] = (quantile(tiles, 0.5), "s")
        metrics["opc.tile_p90_s"] = (quantile(tiles, 0.9), "s")
        metrics["opc.tile_max_s"] = (max(tiles, default=0.0), "s")
        metrics["opc.tiles"] = (float(len(tiles)), "count")
        metrics["opc.iteration_p50_s"] = (quantile(iterations, 0.5), "s")
        metrics["opc.iteration_p90_s"] = (quantile(iterations, 0.9), "s")
        metrics["opc.iterations"] = (float(len(iterations)), "count")

        own = timed.tracer.layers
        pool_s = own["opc.pool"].total_s
        workers = getattr(self.workload, "workers", 1)
        if own["opc.pool"].calls:
            overhead = pool_s - sum(tiles) / workers
            busy = sum(tiles) / (pool_s * workers)
            loop_s = pool_s
        else:
            overhead = busy = 0.0
            loop_s = sum(tiles)
        metrics["opc.pool_s"] = (pool_s, "s")
        metrics["opc.pool_overhead_s"] = (overhead, "s")
        metrics["opc.pool_busy_ratio"] = (busy, "ratio")
        metrics["opc.tile_retries"] = (float(timed.counters.get("opc.tile_retries", 0)), "count")
        metrics["opc.shm_fallbacks"] = (float(timed.counters.get("opc.shm_fallbacks", 0)), "count")
        stitch = 0.0
        if own["opc.tiled"].calls:
            stitch = own["opc.tiled"].total_s - own["opc.plan_tiles"].total_s - loop_s
        metrics["opc.stitch_s"] = (stitch, "s")

        unattributed = timed.wall_s - timed.tracer.attributed_s()
        metrics["trace.overhead_ratio"] = (timed.wall_s / wall_s, "ratio")
        metrics["trace.unattributed_s"] = (unattributed, "s")

        if unattributed > UNATTRIBUTED_LIMIT * timed.wall_s:
            self.fail(
                f"layer self times leave {unattributed:.3f} s of "
                f"{timed.wall_s:.3f} s unattributed (limit "
                f"{UNATTRIBUTED_LIMIT:.0%})"
            )
        if hit_ratio < 1.0:
            self.fail(f"kernel cache hit ratio {hit_ratio:.3f} < 1 in a timed run")
        abbe = max(layers["litho.abbe_image"].calls, own["litho.abbe_image"].calls)
        if abbe:
            self.fail(f"{abbe} Abbe image call(s): a SOCS fallback fired")
        return metrics

    # -- human-readable report ------------------------------------------------

    def report(self, walls, setup_times, first_s, cals, measured, end_to_end,
               quality, reference) -> None:
        workload = self.workload
        print(
            f"workload {workload.name}  seed {self.seed}  "
            f"(default {workload.default_seed}, held-out {workload.held_out_seed})"
        )
        print(f"mask digest {self.digest}")
        if reference is not None:
            print(f"serial reference digest {reference.digest()}")
        for label, times in (
            ("setups", setup_times), ("first run", [first_s]),
            ("timed runs", walls), ("calibration units", cals),
        ):
            print(f"{label} (s): " + " ".join(f"{t:.4f}" for t in times))
        speed = f"at reference speed ({statistics.median(cals):.4f} s a unit here)"
        notes = {
            "wall_s": f"median of {len(walls)} timed runs, {speed}",
            "cpu_s": f"median per timed run, process plus pool workers, {speed}",
            "setup_s": f"median of {len(setup_times)} setups, as measured",
            "first_run_s": "the first run after the last setup, as measured",
        }
        # Printed after the gated metrics: a single first run is too noisy
        # to gate, and the rest are 0 on a healthy run or not produced by
        # every workload.
        rows = dict(end_to_end)
        for name, value in measured.items():
            rows[f"{name[:-2]}_measured_s"] = (value, "s")
            notes[f"{name[:-2]}_measured_s"] = f"{name} as measured on this host"
        rows["first_run_s"] = (first_s, "s")
        rows["fail_ratio"] = (self.failed / self.attempted, "ratio")
        notes["fail_ratio"] = f"{self.failed} of {self.attempted} runs failed"
        for name in ("epe_rms_nm", "epe_max_nm", "orc_epe_rms_nm"):
            rows[name] = (quality.get(name), "nm")
        rows["mrc_violations"] = (quality.get("mrc_violations"), "count")
        for name, (value, unit) in rows.items():
            shown = "n/a" if value is None else f"{value:.6g}"
            note = notes.get(name, "")
            if value is None:
                note = f"not produced by {workload.name}"
            print(f"  {name:<16} {shown:>14} {unit:<6} {note}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument(
        "--seed", type=int, default=None,
        help="BlockSpec seed of the generated layout (default per workload)",
    )
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # The program's own telemetry stays off: no ledger auto-records, no
    # profiler, no event bus, no inherited kernel store.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    print("host " + json.dumps(host_fingerprint(), sort_keys=True))
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        result = Bench(workload, seed, args.seconds, workdir).run(bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    print(json.dumps(result))
    return 0


def _stop_resource_tracker() -> None:
    """Stop and reap the helper process shared memory starts, if any."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


if __name__ == "__main__":
    sys.exit(main())
