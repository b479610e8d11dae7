"""Command-line interface: generate, inspect, check and correct layouts.

The subcommands mirror a minimal mask-synthesis flow::

    repro generate block --node 180nm -o block.gds
    repro stats block.gds
    repro drc block.gds --node 180nm
    repro check block.gds --layer 3 --format sarif -o check.sarif
    repro correct block.gds --layer 3 --level model --node 180nm -o out.gds
    repro mrc out.gds --layer 3 --datatype 10 --format sarif -o mask.sarif
    repro profile block.gds --layer 3 --node 180nm
    repro runs list

``correct`` writes the corrected geometry onto the OPC datatype (10) and
SRAFs onto datatype 11 next to the drawn layer, the usual tape-out
convention.  Before anything is written the corrected mask passes the
MRC postflight gate (:mod:`repro.lint.postflight`); blocking defects
exit 1 with nothing exported unless ``--no-postflight``.  The ``mrc``
subcommand runs the same edge-based check standalone on any mask GDS --
or renders the summary persisted in a recorded run -- with the same
text/JSON/SARIF emitters as ``check``.  ``correct --profile`` (or ``--trace out.json``) and the
``profile`` subcommand record the run with :mod:`repro.obs` and report
where the time went; ``profile`` without a GDS file runs the built-in
quickstart pattern, and ``profile --record`` appends the run to the
persistent ledger (:mod:`repro.obs.runs`).  The ``runs`` family
(``list``/``show``/``diff``/``check``/``report``) inspects that ledger;
``runs check`` exits non-zero on a perf/quality regression so CI can
gate on it.  ``inspect`` opens one recorded run's spatial diagnostics
(:mod:`repro.obs.spatial`): the worst-EPE-site table, per-tile
convergence, and an SVG/HTML hotspot map written next to the CWD.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from typing import Optional, Sequence

from . import obs
from .obs import analyze as obs_analyze
from .obs import runs as obs_runs
from .design import (
    BlockSpec,
    StdCellGenerator,
    line_space_array,
    node_130nm,
    node_180nm,
    node_250nm,
    random_logic_block,
    sram_array,
    drc_ruleset,
)
from .errors import PostflightError, ReproError
from .flow import (
    CorrectionLevel,
    TapeoutRecipe,
    correct_region,
    hotspot_markdown,
    print_table,
    tapeout_quality,
    tapeout_region,
    tapeout_spatial,
)
from .geometry import Rect, Region
from .layout import Layer, Library, layout_stats, opc_layer, read_gds, sraf_layer, write_gds
from .litho import LithoConfig, LithoSimulator, binary_mask, krf_annular
from .opc import ModelOPCRecipe, ParallelSpec, TilingSpec
from .verify import run_drc

_NODES = {"250nm": node_250nm, "180nm": node_180nm, "130nm": node_130nm}
_LEVELS = {level.value: level for level in CorrectionLevel}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="OPC adoption toolkit: generate, inspect, check, correct",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate an example layout")
    gen.add_argument("kind", choices=["block", "sram", "stdcells"])
    gen.add_argument("--node", choices=sorted(_NODES), default="180nm")
    gen.add_argument("--seed", type=int, default=42)
    gen.add_argument("--rows", type=int, default=3)
    gen.add_argument("--row-width", type=int, default=12000)
    gen.add_argument("-o", "--output", required=True)

    stats = sub.add_parser("stats", help="layout statistics of a GDS file")
    stats.add_argument("gds")
    stats.add_argument("--cell", help="cell name (default: the top cell)")

    drc = sub.add_parser("drc", help="run the node DRC deck on a GDS file")
    drc.add_argument("gds")
    drc.add_argument("--node", choices=sorted(_NODES), default="180nm")
    drc.add_argument("--cell", help="cell name (default: the top cell)")

    correct = sub.add_parser("correct", help="apply OPC/RET to one layer")
    correct.add_argument("gds")
    correct.add_argument("--layer", type=int, required=True, help="GDS layer number")
    correct.add_argument("--datatype", type=int, default=0)
    correct.add_argument("--level", choices=sorted(_LEVELS), default="model")
    correct.add_argument("--node", choices=sorted(_NODES), default="180nm")
    correct.add_argument("--cell", help="cell name (default: the top cell)")
    correct.add_argument(
        "--dose",
        type=_dose_arg,
        default="auto",
        help="relative exposure dose, or 'auto' for dose-to-size on the "
        "node's dense anchor feature",
    )
    correct.add_argument(
        "--dark-field",
        action="store_true",
        help="treat features as clear openings on chrome (contact/via layers)",
    )
    correct.add_argument(
        "--smooth",
        type=int,
        default=0,
        metavar="NM",
        help="post-OPC jog smoothing tolerance in nm (0 = off; ignored at "
        "--level none)",
    )
    correct.add_argument("-o", "--output", required=True)
    correct.add_argument(
        "--no-preflight", action="store_true",
        help="skip the static lint gate that runs before correction",
    )
    correct.add_argument(
        "--no-postflight", action="store_true",
        help="skip the MRC gate on the corrected mask (the defects are "
        "still your problem at the mask shop)",
    )
    _add_obs_flags(correct)
    _add_parallel_flags(correct)

    check = sub.add_parser(
        "check",
        help="static preflight lint of a layout + recipe (no simulation); "
        "exit 1 on error-severity findings",
    )
    check.add_argument(
        "gds", nargs="?",
        help="GDS file to lint (omit for the built-in quickstart pattern)",
    )
    check.add_argument("--layer", type=int, help="GDS layer number")
    check.add_argument("--datatype", type=int, default=0)
    check.add_argument("--cell", help="cell name (default: the top cell)")
    check.add_argument("--node", choices=sorted(_NODES), default="180nm")
    check.add_argument("--level", choices=sorted(_LEVELS), default="model")
    check.add_argument(
        "--grid-nm", type=int, default=1, metavar="NM",
        help="mask manufacturing grid for the off-grid vertex rule "
        "(default 1 = every integer vertex is legal)",
    )
    check.add_argument(
        "--dark-field", action="store_true",
        help="lint as a contact/via (clear-openings-on-chrome) flow",
    )
    check.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (default text)",
    )
    check.add_argument(
        "-o", "--output", metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    _add_parallel_flags(check)

    mrc_cmd = sub.add_parser(
        "mrc",
        help="postflight mask-rule check: localized MRC violations plus "
        "the VSB shot estimate of a mask GDS, or the persisted summary "
        "of a recorded run; exit 1 on error-severity findings",
    )
    mrc_cmd.add_argument(
        "target",
        help="mask GDS file to scan, or a ledger run reference "
        "('last', 'prev', 'last~N', id prefix) whose recorded MRC "
        "summary is rendered",
    )
    mrc_cmd.add_argument(
        "--layer", type=int, help="GDS layer number (GDS mode only)"
    )
    mrc_cmd.add_argument(
        "--datatype", type=int, default=0,
        help="GDS datatype (default 0; corrected masks from `repro "
        "correct` live on datatype 10)",
    )
    mrc_cmd.add_argument("--cell", help="cell name (default: the top cell)")
    mrc_cmd.add_argument(
        "--min-width", type=int, default=40, metavar="NM",
        help="minimum mask feature width (default 40)",
    )
    mrc_cmd.add_argument(
        "--min-space", type=int, default=40, metavar="NM",
        help="minimum mask-figure spacing (default 40)",
    )
    mrc_cmd.add_argument(
        "--min-area", type=int, default=4, metavar="NM2",
        help="minimum figure area in nm^2 (default 4)",
    )
    mrc_cmd.add_argument(
        "--min-edge", type=int, default=0, metavar="NM",
        help="minimum edge length; 0 disables the rule (default 0)",
    )
    mrc_cmd.add_argument(
        "--notch", type=int, default=0, metavar="NM",
        help="minimum notch width; 0 inherits --min-space (default 0)",
    )
    mrc_cmd.add_argument(
        "--corner", type=int, default=0, metavar="NM",
        help="minimum corner-to-corner diagonal gap; 0 disables "
        "(default 0)",
    )
    mrc_cmd.add_argument(
        "--format", choices=["text", "json", "sarif"], default="text",
        help="report format (default text)",
    )
    mrc_cmd.add_argument(
        "-o", "--output", metavar="PATH",
        help="write the report to PATH instead of stdout",
    )
    _add_runs_dir(mrc_cmd)

    profile = sub.add_parser(
        "profile",
        help="run an instrumented tapeout and print the span-tree profile",
    )
    profile.add_argument(
        "gds", nargs="?",
        help="GDS file to profile (omit for the built-in quickstart pattern)",
    )
    profile.add_argument("--layer", type=int, help="GDS layer number")
    profile.add_argument("--datatype", type=int, default=0)
    profile.add_argument("--cell", help="cell name (default: the top cell)")
    profile.add_argument("--level", choices=sorted(_LEVELS), default="model")
    profile.add_argument("--node", choices=sorted(_NODES), default="180nm")
    profile.add_argument("--dose", type=_dose_arg, default="auto")
    profile.add_argument(
        "--max-iterations", type=int, default=None,
        help="cap model-OPC iterations (default: recipe default)",
    )
    profile.add_argument(
        "--tile-nm", type=int, default=None,
        help="override the correction tile span in nm",
    )
    profile.add_argument(
        "--no-verify", action="store_true", help="skip the ORC stage"
    )
    profile.add_argument(
        "--trace", metavar="PATH",
        help="also write the trace document (JSON) to PATH",
    )
    profile.add_argument(
        "--record", action="store_true",
        help="append this run to the persistent run ledger and print the "
        "wall-time delta vs. the previous run of the same fingerprint",
    )
    profile.add_argument(
        "--runs-dir", metavar="DIR", default=None,
        help="run ledger directory (default: $REPRO_RUNS_DIR or .repro-runs)",
    )
    profile.add_argument(
        "--flame", action="store_true",
        help="sample the run with the repro.obs.prof profiler and write "
        "span-tagged collapsed stacks plus a self-contained flame-graph "
        "SVG/HTML (REPRO_PROF=0 disables sampling)",
    )
    profile.add_argument(
        "--memory", action="store_true",
        help="also record tracemalloc top allocation sites per pipeline "
        "phase and the RSS high-water mark (implies sampling; slower)",
    )
    profile.add_argument(
        "--hz", type=float, default=None,
        help="sampling rate for --flame/--memory "
        "(default: $REPRO_PROF_HZ or 47)",
    )
    profile.add_argument(
        "-o", "--output-prefix", metavar="PREFIX", default="repro-flame",
        help="output prefix for --flame artifacts: "
        "PREFIX.collapsed, PREFIX.svg, PREFIX.html",
    )
    profile.add_argument(
        "--no-preflight", action="store_true",
        help="skip the static lint gate that runs before the tapeout",
    )
    profile.add_argument(
        "--no-postflight", action="store_true",
        help="skip the MRC gate on the repaired mask before signoff",
    )
    _add_events_flag(profile)
    _add_parallel_flags(profile)

    report = sub.add_parser(
        "report", help="markdown tape-out report comparing correction levels"
    )
    report.add_argument("gds")
    report.add_argument("--layer", type=int, required=True)
    report.add_argument("--datatype", type=int, default=0)
    report.add_argument("--node", choices=sorted(_NODES), default="180nm")
    report.add_argument("--cell", help="cell name (default: the top cell)")
    report.add_argument(
        "--levels",
        default="none,rule,model",
        help="comma-separated correction levels to compare",
    )
    report.add_argument("--dose", type=_dose_arg, default="auto")

    runs = sub.add_parser(
        "runs", help="inspect and gate on the persistent run ledger"
    )
    runs_sub = runs.add_subparsers(dest="runs_command", required=True)

    runs_list = runs_sub.add_parser("list", help="recorded runs, oldest first")
    _add_runs_dir(runs_list)
    runs_list.add_argument("--label", help="only runs with this label")
    runs_list.add_argument("--fingerprint", help="only runs with this config")
    runs_list.add_argument(
        "-n", type=_int_at_least(1), default=20, dest="limit",
        help="show at most N most recent runs (default 20)",
    )
    runs_list.add_argument(
        "--json", action="store_true",
        help="machine-readable output (deterministic, sort_keys)",
    )

    runs_show = runs_sub.add_parser("show", help="one run in detail")
    _add_runs_dir(runs_show)
    runs_show.add_argument(
        "run", help="run id prefix, or 'last' / 'prev' / 'last~N'"
    )
    runs_show.add_argument(
        "--json", action="store_true",
        help="machine-readable output (deterministic, sort_keys)",
    )

    runs_diff = runs_sub.add_parser(
        "diff", help="per-span and per-metric deltas between two runs"
    )
    _add_runs_dir(runs_diff)
    runs_diff.add_argument("base", help="baseline run reference")
    runs_diff.add_argument("cand", help="candidate run reference")

    runs_check = runs_sub.add_parser(
        "check",
        help="gate the newest run against baseline medians "
        "(exit 1 on regression)",
    )
    _add_runs_dir(runs_check)
    runs_check.add_argument(
        "--run", default="last", help="candidate run reference (default last)"
    )
    runs_check.add_argument(
        "--baseline", type=_int_at_least(1), default=3, metavar="N",
        help="median over up to N prior same-fingerprint runs (default 3)",
    )
    runs_check.add_argument(
        "--against", metavar="REF",
        help="compare against one explicit run instead of the fingerprint "
        "history",
    )
    runs_check.add_argument(
        "--rel", type=float, default=0.25, metavar="FRAC",
        help="relative span slowdown threshold (default 0.25 = +25%%)",
    )
    runs_check.add_argument(
        "--abs-floor", type=float, default=0.05, metavar="SECONDS",
        help="noise floor: ignore span slowdowns below this (default 0.05 s)",
    )
    runs_check.add_argument(
        "--quality-rel", type=float, default=0.10, metavar="FRAC",
        help="relative quality-metric threshold (default 0.10)",
    )
    runs_check.add_argument(
        "--adaptive", action="store_true",
        help="replace the hand-tuned floors with k-sigma noise floors "
        "learned from the fingerprint history (MAD-robust); flaky quality "
        "metrics demote to WARN",
    )
    runs_check.add_argument(
        "--strict", action="store_true",
        help="error (exit 2) when fewer than --baseline prior runs exist, "
        "instead of passing with an insufficient-history note",
    )
    runs_check.add_argument(
        "--slo", metavar="PATH",
        help="SLO budget file (default: ./repro-slo.toml, else "
        "[tool.repro.slo] in pyproject.toml)",
    )
    runs_check.add_argument(
        "--json", action="store_true",
        help="machine-readable verdict with the full comparison table "
        "(deterministic, sort_keys)",
    )

    runs_analyze = runs_sub.add_parser(
        "analyze",
        help="trend report over the fingerprint history: robust stats, "
        "CUSUM change points, flaky scores, SLO budget burn",
    )
    _add_runs_dir(runs_analyze)
    runs_analyze.add_argument(
        "metrics", nargs="*",
        help="metric series to analyze (e.g. run.wall_s "
        "quality.epe_rms_nm); default: wall clock plus every quality key",
    )
    runs_analyze.add_argument(
        "--all", action="store_true",
        help="analyze every numeric series (spans, counters, gauges too)",
    )
    runs_analyze.add_argument("--label", help="only runs with this label")
    runs_analyze.add_argument(
        "--fingerprint",
        help="analyze this config group (default: the newest run's)",
    )
    runs_analyze.add_argument(
        "--limit", type=_int_at_least(1), default=obs_analyze.HISTORY_WINDOW,
        metavar="N",
        help="analyze at most the N most recent matching runs "
        f"(default {obs_analyze.HISTORY_WINDOW})",
    )
    runs_analyze.add_argument(
        "--slo", metavar="PATH",
        help="SLO budget file (default: ./repro-slo.toml, else "
        "[tool.repro.slo] in pyproject.toml)",
    )
    runs_analyze.add_argument(
        "--json", action="store_true",
        help="machine-readable report (deterministic, sort_keys)",
    )

    runs_report = runs_sub.add_parser(
        "report", help="write the self-contained HTML dashboard"
    )
    _add_runs_dir(runs_report)
    runs_report.add_argument(
        "-o", "--output", default="repro-runs.html",
        help="output HTML path (default repro-runs.html)",
    )
    runs_report.add_argument(
        "--limit", type=_int_at_least(1), default=50,
        help="include at most N most recent runs (default 50)",
    )

    metrics = sub.add_parser(
        "metrics",
        help="OpenMetrics/Prometheus exposition of the metric registry "
        "and the run ledger",
    )
    metrics_sub = metrics.add_subparsers(dest="metrics_command", required=True)

    metrics_serve = metrics_sub.add_parser(
        "serve",
        help="HTTP /metrics endpoint: the live registry while a run is "
        "recording in this process, the newest ledger run when idle",
    )
    _add_runs_dir(metrics_serve)
    metrics_serve.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1)",
    )
    metrics_serve.add_argument(
        "--port", type=int, default=9102,
        help="bind port (default 9102; 0 picks an ephemeral port)",
    )

    metrics_export = metrics_sub.add_parser(
        "export",
        help="write one recorded run as an OpenMetrics textfile "
        "(node-exporter textfile-collector style)",
    )
    _add_runs_dir(metrics_export)
    metrics_export.add_argument(
        "run", nargs="?", default="last",
        help="run id prefix, or 'last' / 'prev' / 'last~N' (default last)",
    )
    metrics_export.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write atomically to PATH (default: stdout)",
    )

    watch = sub.add_parser(
        "watch",
        help="live progress view of an in-flight run (tails its --events "
        "stream), or replay a persisted event log",
    )
    watch.add_argument(
        "events", nargs="?",
        help="event log (JSONL) of an in-flight run to tail; may not exist "
        "yet (omit with --replay)",
    )
    watch.add_argument(
        "--replay", metavar="RUN_OR_PATH",
        help="replay a persisted event log: a file path, or a ledger run "
        "reference ('last', 'prev', 'last~N', id prefix) whose recorded "
        "stream is loaded from the ledger",
    )
    _add_runs_dir(watch)
    watch.add_argument(
        "--interval", type=float, default=0.5, metavar="SECONDS",
        help="refresh interval while tailing (default 0.5)",
    )
    watch.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="give up when no new events arrive for this long "
        "(default: wait forever)",
    )
    watch.add_argument(
        "--once", action="store_true",
        help="render one frame from the log's current contents and exit",
    )
    watch.add_argument(
        "--validate", action="store_true",
        help="check every event against the repro-event/1 schema and the "
        "strictly-increasing sequence invariant",
    )
    watch.add_argument(
        "--no-clear", action="store_true",
        help="append frames instead of clearing the screen (plain logs)",
    )

    inspect_cmd = sub.add_parser(
        "inspect",
        help="spatial hotspot inspection of one recorded run: worst EPE "
        "sites, per-tile convergence, SVG/HTML hotspot map",
    )
    inspect_cmd.add_argument(
        "run", nargs="?", default="last",
        help="run id prefix, or 'last' / 'prev' / 'last~N' (default last)",
    )
    _add_runs_dir(inspect_cmd)
    inspect_cmd.add_argument(
        "--top", type=int, default=10, metavar="K",
        help="worst sites to print (default 10)",
    )
    inspect_cmd.add_argument(
        "-o", "--output-prefix", default="repro-inspect", metavar="PREFIX",
        help="write PREFIX.svg and PREFIX.html (default repro-inspect)",
    )
    inspect_cmd.add_argument(
        "--no-artifacts", action="store_true",
        help="print to stdout only, write no SVG/HTML files",
    )
    return parser


def _add_runs_dir(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--dir", dest="runs_dir", default=None, metavar="DIR",
        help="run ledger directory (default: $REPRO_RUNS_DIR or .repro-runs)",
    )


def _add_parallel_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--workers", type=_int_at_least(1), default=1, metavar="N",
        help="correct tiles on N worker processes (1 = serial; the "
        "stitched result is byte-identical either way)",
    )
    sub_parser.add_argument(
        "--max-retries", type=_int_at_least(0), default=1, metavar="K",
        help="resubmit a failed/dead tile job up to K times",
    )
    sub_parser.add_argument(
        "--on-failure", choices=["serial", "raise"], default="serial",
        help="after retries: correct the tile in-process, or fail fast",
    )


def _litho_config() -> LithoConfig:
    """The CLI's standard litho model."""
    return LithoConfig(
        optics=krf_annular(), pixel_nm=8.0, ambit_nm=600,
    )


def _parallel_spec(args) -> Optional[ParallelSpec]:
    if getattr(args, "workers", 1) <= 1:
        return None
    return ParallelSpec(
        n_workers=args.workers,
        max_retries=args.max_retries,
        on_failure=args.on_failure,
    )


def _add_obs_flags(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--trace", metavar="PATH",
        help="record the run and write the trace document (JSON) to PATH",
    )
    sub_parser.add_argument(
        "--profile", action="store_true",
        help="record the run and print the span-tree/metrics profile",
    )
    _add_events_flag(sub_parser)


def _add_events_flag(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--events", metavar="PATH", dest="events_path",
        help="stream live repro-event/1 telemetry (JSONL) to PATH; tail it "
        "from another terminal with `repro watch PATH`",
    )


@contextmanager
def _events_sink(args):
    """Attach a JSONL event sink for the duration of a ``--events`` run.

    Attaching the sink is what turns the live bus on, so ``--events``
    works on its own -- no ``--profile``/``--trace`` needed.
    """
    path = getattr(args, "events_path", None)
    if not path:
        yield None
        return
    sink = obs.event_bus().attach(obs.JsonlSink(path))
    try:
        yield sink
    finally:
        obs.event_bus().detach(sink)
        sink.close()
        print(f"wrote events {path}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "generate":
            return _generate(args)
        if args.command == "stats":
            return _stats(args)
        if args.command == "drc":
            return _drc(args)
        if args.command == "correct":
            return _correct(args)
        if args.command == "check":
            return _check(args)
        if args.command == "mrc":
            return _mrc(args)
        if args.command == "profile":
            return _profile(args)
        if args.command == "report":
            return _report(args)
        if args.command == "runs":
            return _runs(args)
        if args.command == "metrics":
            return _metrics(args)
        if args.command == "watch":
            return _watch(args)
        if args.command == "inspect":
            return _inspect(args)
    except PostflightError as error:
        # A rejected mask is a gate verdict, not an operational failure:
        # exit 1 like `check`/`runs check`, so CI can tell them apart.
        print(f"postflight: {error}", file=sys.stderr)
        print(
            "nothing was exported; run `repro mrc` on the input for the "
            "full marker list, or pass --no-postflight to ship anyway",
            file=sys.stderr,
        )
        return 1
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        # An unreadable input or unwritable output path is bad input too.
        where = f"{error.filename}: " if error.filename is not None else ""
        print(f"error: {where}{error.strerror or error}", file=sys.stderr)
        return 2
    return 0  # pragma: no cover - argparse enforces the choices


def _dose_arg(text: str) -> float | str:
    """A ``--dose`` value: ``auto``, or a positive finite relative dose."""
    if text == "auto":
        return text
    try:
        dose = float(text)
    except ValueError:
        dose = math.nan
    if not 0.0 < dose < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a positive number or 'auto', got {text!r}"
        )
    return dose


def _int_at_least(minimum: int):
    """An argparse type: an integer no smaller than ``minimum``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = minimum - 1
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {minimum}, got {text!r}"
            )
        return value

    return parse


def _pick_cell(library: Library, name: Optional[str]):
    """The named cell, or the biggest top cell when no name is given.

    Generated libraries keep unplaced leaf cells around, so "the" top cell
    is ambiguous; the largest flat figure count picks the design root.
    """
    if name:
        return library[name]
    tops = library.top_cells()
    if not tops:
        raise ReproError(f"library {library.name!r} has no cells")
    if len(tops) == 1:
        return tops[0]
    return max(tops, key=lambda cell: layout_stats(cell).flat_figures)


def _load_layer(args, path: str):
    """Read GDS ``path``: its library, picked cell, ``--layer``/``--datatype`` and flat region.

    Raises :class:`ReproError` when ``--layer`` is missing or the cell has
    no geometry on the layer.
    """
    if args.layer is None:
        raise ReproError(f"{args.command} needs --layer with a GDS file")
    library = read_gds(path)
    cell = _pick_cell(library, args.cell)
    layer = Layer(args.layer, args.datatype)
    region = cell.flat_region(layer)
    if region.is_empty:
        raise ReproError(
            f"cell {cell.name!r} has no geometry on layer "
            f"{args.layer}/{args.datatype}"
        )
    return library, cell, layer, region


def _generate(args) -> int:
    rules = _NODES[args.node]()
    if args.kind == "block":
        library = random_logic_block(
            rules,
            BlockSpec(rows=args.rows, row_width=args.row_width, seed=args.seed),
        )
    elif args.kind == "sram":
        library = sram_array(rules, cols=8, rows=8)
    else:
        library = StdCellGenerator(rules).library()
    size = write_gds(library, args.output)
    print(f"wrote {args.output} ({size} bytes, {len(library)} cells)")
    return 0


def _stats(args) -> int:
    library = read_gds(args.gds)
    cell = _pick_cell(library, args.cell)
    stats = layout_stats(cell)
    rows = [
        ["cells", stats.cells],
        ["placements", stats.placements],
        ["hierarchical figures", stats.hierarchical_figures],
        ["hierarchical vertices", stats.hierarchical_vertices],
        ["flat figures", stats.flat_figures],
        ["flat vertices", stats.flat_vertices],
        ["hierarchy compression", stats.hierarchy_compression],
    ]
    print_table(["metric", "value"], rows, title=f"layout stats: {cell.name}")
    per_layer = [
        [str(layer), s.figures, s.vertices] for layer, s in sorted(stats.flat.items())
    ]
    print_table(["layer", "flat figures", "flat vertices"], per_layer)
    return 0


def _drc(args) -> int:
    library = read_gds(args.gds)
    cell = _pick_cell(library, args.cell)
    rules = _NODES[args.node]()
    result = run_drc(cell, drc_ruleset(rules))
    if result.is_clean:
        print(f"{cell.name}: DRC clean ({args.node} deck)")
        return 0
    rows = [[v.rule, v.count] for v in result.violations]
    print_table(["rule", "violations"], rows, title=f"DRC violations: {cell.name}")
    return 1


def _correct(args) -> int:
    if not (args.trace or args.profile):
        with _events_sink(args):
            return _run_correct(args)
    with _events_sink(args), obs.capture() as cap:
        code = _run_correct(args)
    if args.trace:
        obs.write_trace_json(args.trace, cap.roots)
        print(f"wrote trace {args.trace}")
    if args.profile:
        print()
        print(obs.trace_markdown(cap.roots))
    return code


def _run_correct(args) -> int:
    library, cell, drawn, target = _load_layer(args, args.gds)
    level = _LEVELS[args.level]
    rules = _NODES[args.node]()
    simulator = None
    if level in (CorrectionLevel.MODEL, CorrectionLevel.MODEL_SRAF) or args.dose == "auto":
        simulator = LithoSimulator(_litho_config())
    dose = _resolve_dose(args, rules, simulator)

    result = correct_region(
        target, level, simulator=simulator, dose=dose,
        dark_field=args.dark_field, parallel=_parallel_spec(args),
        preflight=not args.no_preflight,
        postflight=not args.no_postflight,
        smooth_tolerance_nm=args.smooth,
    )

    out = Library(f"{library.name}_opc")
    out_cell = out.new_cell(f"{cell.name}_opc")
    out_cell.set_region(drawn, target)
    out_cell.set_region(opc_layer(drawn), result.corrected)
    if not result.srafs.is_empty:
        out_cell.set_region(sraf_layer(drawn), result.srafs)
    with obs.span("export.gds", path=args.output) as export_span:
        size = write_gds(out, args.output)
        export_span.set(bytes=size)
    print(
        f"{level.value} correction: {result.data.figures} figures, "
        f"{result.data.vertices} vertices, {result.data.shots} shots "
        f"({result.runtime_s:.1f} s)"
    )
    if result.mrc_report is not None:
        mrc = result.mrc_report
        print(
            f"postflight: clean ({mrc.warning_count} warning(s)), "
            f"~{mrc.shot_count} VSB shots"
        )
    print(f"wrote {args.output} ({size} bytes)")
    return 0


def _check(args) -> int:
    """Static preflight lint: layout + recipe in, diagnostics out.

    Never touches the simulator; a full-block check completes in
    milliseconds.  Exit 0 when viable (warnings/info allowed), 1 on
    error-severity findings, 2 on operational errors.
    """
    from . import lint

    rules = _NODES[args.node]()
    cell = None
    artifact = None
    if args.gds:
        _library, cell, _drawn, target = _load_layer(args, args.gds)
        artifact = args.gds
    else:
        target = _quickstart_pattern(rules)
    litho = _litho_config()
    recipe = TapeoutRecipe(
        level=_LEVELS[args.level],
        dark_field=args.dark_field,
        parallel=_parallel_spec(args),
    )
    context = lint.LintContext.for_tapeout(
        recipe,
        litho=litho,
        layout=target,
        cell=cell,
        raw_loops=target.loops,
        mask_grid_nm=args.grid_nm,
    )
    report = lint.run_lint(context)
    if args.format == "json":
        rendered = lint.to_json(report)
    elif args.format == "sarif":
        rendered = lint.to_sarif(report, artifact=artifact)
    else:
        rendered = lint.to_text(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output}")
        summary = report.summary_dict()
        print(
            f"{summary['errors']} error(s), {summary['warnings']} "
            f"warning(s), {summary['info']} info"
        )
    else:
        print(rendered)
    return 1 if report.has_errors else 0


def _mrc(args) -> int:
    """Standalone postflight MRC: scan a mask GDS, or render a run's summary.

    A path on disk is scanned live with the edge-based engine; anything
    else resolves as a run-ledger reference whose persisted ``mrc``
    summary (schema ``repro-run/1.5``) is rendered without re-running
    anything.  Exit 0 when writable (warnings allowed), 1 on
    error-severity defects, 2 on operational errors.
    """
    from . import lint
    from .verify.mrc import MRCReport as MaskMRCReport, MRCRules, MRCViolation

    dropped = 0
    if os.path.exists(args.target):
        _library, cell, _layer, mask = _load_layer(args, args.target)
        rules = MRCRules(
            min_width_nm=args.min_width,
            min_space_nm=args.min_space,
            min_area_nm2=args.min_area,
            min_edge_nm=args.min_edge,
            notch_nm=args.notch,
            corner_nm=args.corner,
        )
        mrc = lint.postflight_mask(mask, rules, cell=cell)
        report, artifact = lint.mrc_lint_report(mrc), args.target
    else:
        ledger = obs_runs.ledger(args.runs_dir)
        record = ledger.load_entry(ledger.resolve(args.target))
        payload = record.mrc
        if payload is None:
            raise ReproError(
                f"run {record.run_id} has no MRC summary (schema "
                f"{record.schema} predates repro-run/1.5, or the run "
                "skipped the postflight)"
            )
        markers = payload.get("markers") or []
        mrc = MaskMRCReport(
            violations=[MRCViolation.from_dict(m) for m in markers],
            rules=MRCRules(**(payload.get("limits") or {})),
            shot_count=payload.get("shot_count", 0),
            vertex_count=payload.get("vertex_count", 0),
            figure_count=payload.get("figure_count", 0),
        )
        dropped = payload.get("violations", len(markers)) - len(markers)
        report = lint.mrc_lint_report(mrc, max_locations=None)
        artifact = None

    if args.format == "json":
        rendered = lint.to_json(report)
    elif args.format == "sarif":
        rendered = lint.to_sarif(report, artifact=artifact)
    else:
        rendered = lint.to_text(report)
    summary = (
        f"mask: {mrc.figure_count} figures, {mrc.vertex_count} vertices, "
        f"~{mrc.shot_count} VSB shots"
    )
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.output}")
        print(summary)
        print(
            f"{mrc.error_count} error(s), {mrc.warning_count} warning(s)"
        )
    else:
        print(rendered)
        if args.format == "text":
            print(summary)
    if dropped > 0:
        print(
            f"note: {dropped} violation(s) beyond the ledger's marker cap "
            "are counted above but not listed; re-run `repro mrc` on the "
            "mask GDS for the full set"
        )
    return 1 if report.has_errors else 0


def _resolve_dose(args, rules, simulator) -> float:
    if args.dose != "auto":
        return float(args.dose)
    anchor = line_space_array(rules.poly_width, rules.poly_space)
    dose = simulator.dose_to_size(
        binary_mask(anchor.region),
        anchor.window,
        anchor.site("center"),
        float(rules.poly_width),
    )
    print(f"auto dose-to-size: {dose:.3f}")
    return dose


def _quickstart_pattern(rules) -> Region:
    """The quickstart layout: three dense lines plus one isolated line."""
    width, space = rules.poly_width, rules.poly_space
    pitch = width + space
    rects = [Rect(x, -1500, x + width, 1500) for x in (-2 * pitch, -pitch, 0)]
    rects.append(Rect(width + 6 * space, -1500, 2 * width + 6 * space, 1500))
    return Region.from_rects(rects)


def _profile(args) -> int:
    rules = _NODES[args.node]()
    simulator = LithoSimulator(_litho_config())
    if args.gds:
        _library, cell, drawn, target = _load_layer(args, args.gds)
        name = f"{cell.name} layer {drawn}"
    else:
        target = _quickstart_pattern(rules)
        name = "quickstart pattern"
    dose = _resolve_dose(args, rules, simulator)
    model_recipe = ModelOPCRecipe()
    if args.max_iterations is not None:
        import dataclasses

        model_recipe = dataclasses.replace(
            model_recipe, max_iterations=args.max_iterations
        )
    tiling = TilingSpec() if args.tile_nm is None else TilingSpec(
        tile_nm=args.tile_nm
    )
    recipe = TapeoutRecipe(
        level=_LEVELS[args.level], model_recipe=model_recipe, tiling=tiling,
        parallel=_parallel_spec(args),
    )
    # --record appends one aggregate record itself; keep the flow from
    # auto-appending an inner "tapeout" record on top of it.  The outer
    # run_scope takes over run.start/run.end (and, with --record, the
    # full stream capture) from the tapeout's now-nested scope.
    guard = obs_runs.suppress_auto_record() if args.record else nullcontext()
    # --flame/--memory wrap the whole run in the sampling profiler; pool
    # workers inherit the rate and ship their profiles back for the
    # deterministic merge (repro.obs.prof).
    profiler = None
    if args.flame or args.memory:
        profiler = obs.SamplingProfiler(hz=args.hz, memory=args.memory)
        profiler.start()
    try:
        with _events_sink(args), obs.run_scope(
            f"profile:{name}", force=args.record
        ) as run_events, guard, obs.capture() as cap:
            result = tapeout_region(
                target, simulator, dose, recipe, verify=not args.no_verify,
                preflight=not args.no_preflight,
                postflight=not args.no_postflight,
            )
    finally:
        flame_profile = profiler.stop() if profiler is not None else None
    print(
        f"profiled tapeout of {name}: {result.data.figures} figures, "
        f"{result.data.vertices} vertices, "
        f"signoff {'ok' if result.signoff_ok else 'FAILED'}"
    )
    print()
    print(obs.trace_markdown(cap.roots))
    if args.trace:
        obs.write_trace_json(args.trace, cap.roots)
        print(f"\nwrote trace {args.trace}")
    if flame_profile is not None:
        print()
        if flame_profile.sample_count == 0 and not obs.prof_enabled():
            print("sampling disabled (REPRO_PROF=0); no profile collected")
        else:
            print(
                f"sampled {flame_profile.sample_count} stack(s) @ "
                f"{flame_profile.hz:g} Hz, "
                f"cpu {flame_profile.cpu_total_s:.3f} s, "
                f"peak rss {flame_profile.peak_rss_bytes // 2 ** 20} MiB"
            )
            for span_name in sorted(flame_profile.cpu_s):
                cpu_span_s = flame_profile.cpu_s[span_name]
                wall_span_s = flame_profile.wall_s.get(span_name, 0.0)
                print(
                    f"  {span_name}: cpu {cpu_span_s:.3f} s / "
                    f"wall {wall_span_s:.3f} s"
                )
        if args.flame:
            prefix = args.output_prefix
            title = f"repro profile: {name}"
            obs.write_collapsed(f"{prefix}.collapsed", flame_profile)
            obs.write_flame_svg(f"{prefix}.svg", flame_profile, title=title)
            obs.write_flame_html(f"{prefix}.html", flame_profile, title=title)
            print(
                f"wrote flame graph {prefix}.svg / {prefix}.html "
                f"(collapsed stacks: {prefix}.collapsed)"
            )
    if args.record:
        config = {
            "kind": "profile",
            "node": args.node,
            "level": args.level,
            "gds": os.path.basename(args.gds) if args.gds else None,
            "layer": args.layer,
            "datatype": args.datatype,
            "dose": dose,
            "verify": not args.no_verify,
            "recipe": recipe,
            "litho": simulator.config,
        }
        ledger = obs_runs.ledger(args.runs_dir)
        previous = ledger.entries(
            fingerprint=obs_runs.config_fingerprint(config)
        )
        spatial = tapeout_spatial(result, cap.roots)
        quality = tapeout_quality(result)
        if spatial is not None:
            quality.update(obs.spatial_quality(spatial))
        obs.publish_quality(quality)
        # The flow's own preflight verdict would land on the suppressed
        # inner record; re-lint the (already gated, so error-free) job
        # so the aggregate record carries the summary too.
        preflight_summary = None
        if not args.no_preflight:
            from . import lint

            preflight_summary = lint.run_lint(
                lint.LintContext.for_tapeout(
                    recipe, litho=simulator.config, layout=target
                )
            ).summary_dict()
        record = obs_runs.new_record(
            label=f"profile:{name}", config=config, roots=cap.roots,
            quality=quality, spatial=spatial, preflight=preflight_summary,
            mrc=(
                result.mrc_report.summary_dict()
                if result.mrc_report is not None else None
            ),
            profile=(
                obs.profile_summary(flame_profile)
                if flame_profile is not None and flame_profile.sample_count
                else None
            ),
        )
        if run_events.captured:
            obs_runs.persist_run_events(
                ledger.root, record, run_events.events,
                run_events.progress_summary(),
            )
        ledger.append(record)
        line = (
            f"recorded run {record.run_id} -> {ledger.root} "
            f"(wall {record.wall_s:.3f} s"
        )
        if previous:
            prev = previous[-1]
            if prev.wall_s > 0:
                delta = 100.0 * (record.wall_s - prev.wall_s) / prev.wall_s
                line += f", {delta:+.1f}% vs {prev.run_id}"
            else:
                line += f", prev {prev.run_id}"
        print(line + ")")
    return 0


def _runs(args) -> int:
    ledger = obs_runs.ledger(args.runs_dir)
    if args.runs_command == "list":
        entries = ledger.entries(
            label=args.label, fingerprint=args.fingerprint
        )
        if args.json:
            print(json.dumps(
                [e.to_dict() for e in entries[-args.limit:]],
                sort_keys=True,
            ))
            return 0
        if not entries:
            print(f"(no runs recorded in {ledger.root})")
            return 0
        rows = [
            [e.run_id, e.timestamp, e.label, e.fingerprint, f"{e.wall_s:.3f}"]
            for e in entries[-args.limit:]
        ]
        print_table(
            ["run", "when (UTC)", "label", "fingerprint", "wall (s)"],
            rows,
            title=f"run ledger: {ledger.root}",
        )
        return 0

    if args.runs_command == "show":
        record = ledger.load_entry(ledger.resolve(args.run))
        if args.json:
            print(json.dumps(record.to_dict(), sort_keys=True))
            return 0
        print(
            f"run {record.run_id}  {record.timestamp}  label={record.label}\n"
            f"fingerprint {record.fingerprint}  git {record.git_rev or '-'}  "
            f"wall {record.wall_s:.3f} s"
        )
        print(_spatial_summary_line(record))
        print(_preflight_summary_line(record))
        print(_mrc_summary_line(record))
        print(_profile_summary_line(record))
        if record.quality:
            rows = [[key, value] for key, value in sorted(record.quality.items())]
            print_table(["quality", "value"], rows)
        spans = sorted(
            record.span_times().items(),
            key=lambda kv: kv[1].total_s,
            reverse=True,
        )[:15]
        rows = [
            [path, timing.calls, f"{timing.total_s:.3f}"]
            for path, timing in spans
        ]
        print_table(["span path", "calls", "total (s)"], rows)
        return 0

    if args.runs_command == "diff":
        base = ledger.load_entry(ledger.resolve(args.base))
        cand = ledger.load_entry(ledger.resolve(args.cand))
        print(obs_runs.diff_markdown(obs_runs.diff_runs(base, cand)))
        return 0

    if args.runs_command == "check":
        slos = obs_analyze.load_slos(args.slo)
        policy = obs_runs.RegressionPolicy(
            rel_threshold=args.rel,
            abs_floor_s=args.abs_floor,
            quality_rel_threshold=args.quality_rel,
        )
        history = None
        if args.against:
            candidate = ledger.load_entry(ledger.resolve(args.run))
            baselines = [ledger.load_entry(ledger.resolve(args.against))]
        else:
            if not ledger.entries():
                return _insufficient_history(args, None, 0)
            candidate = ledger.load_entry(ledger.resolve(args.run))
            entries = ledger.entries(fingerprint=candidate.fingerprint)
            prior = [e for e in entries if e.run_id != candidate.run_id]
            if len(prior) < args.baseline:
                return _insufficient_history(args, candidate, len(prior))
            # The gate medians over the newest --baseline runs; adaptive
            # floors, flaky scores and SLO burn learn from the deeper
            # fingerprint history behind them.
            history = [
                ledger.load_entry(e)
                for e in prior[-obs_analyze.HISTORY_WINDOW:]
            ]
            baselines = history[-args.baseline:]
        verdict = obs_analyze.gate(
            candidate, baselines, history=history, policy=policy,
            adaptive=args.adaptive, slos=slos,
        )
        if args.json:
            print(json.dumps(verdict.to_dict(), sort_keys=True))
        else:
            print(verdict.summary())
        return 0 if verdict.ok else 1

    if args.runs_command == "analyze":
        entries = ledger.entries(
            label=args.label, fingerprint=args.fingerprint
        )
        if not entries:
            print(f"(no runs recorded in {ledger.root})")
            return 0
        records = list(ledger.records(entries[-args.limit:]))
        slos = obs_analyze.load_slos(args.slo)
        metrics = None
        if not args.all:
            metrics = list(args.metrics) or [
                name
                for name in sorted(obs_analyze.extract_series(records))
                if name == "run.wall_s" or name.startswith("quality.")
            ]
        report = obs_analyze.analyze_records(
            records, metrics=metrics, slos=slos
        )
        if args.json:
            print(json.dumps(report.to_dict(), sort_keys=True))
        else:
            print(obs_analyze.report_markdown(report))
        return 0

    if args.runs_command == "report":
        entries = ledger.entries()
        if not entries:
            print(f"(no runs recorded in {ledger.root})")
            return 0
        records = list(ledger.records(entries[-args.limit:]))
        obs_runs.write_dashboard_html(args.output, records)
        print(f"wrote dashboard {args.output} ({len(records)} runs)")
        return 0

    raise ReproError(f"unknown runs command {args.runs_command!r}")


def _insufficient_history(args, candidate, have: int) -> int:
    """``runs check`` with too few baselines: pass with a note.

    A fresh ledger (first CI run on a branch, wiped cache) should not
    fail the gate -- there is nothing meaningful to compare against.
    ``--strict`` restores the hard-failure behavior for pipelines that
    would rather block than silently skip the comparison.
    """
    note = f"insufficient history (have {have}, need {args.baseline})"
    if args.strict:
        raise ReproError(f"runs check --strict: {note}")
    report = obs_runs.RegressionReport(
        candidate_id=candidate.run_id if candidate is not None else "",
        baseline_ids=[],
        regressions=[],
        notes=[f"{note}; nothing to gate on"],
    )
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.summary())
    return 0


def _metrics(args) -> int:
    from .obs import expo as obs_expo

    if args.metrics_command == "serve":
        server = obs_expo.MetricsServer(
            host=args.host, port=args.port, runs_dir=args.runs_dir
        )
        print(f"serving OpenMetrics on {server.url} (ctrl-c to stop)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
        finally:
            server.stop()
        return 0

    if args.metrics_command == "export":
        ledger = obs_runs.ledger(args.runs_dir)
        record = ledger.load_entry(ledger.resolve(args.run))
        text = obs_expo.exposition(record=record)
        if args.output:
            obs_expo.write_textfile(args.output, text)
            print(f"wrote {args.output} ({len(text)} bytes)")
        else:
            sys.stdout.write(text)
        return 0

    raise ReproError(f"unknown metrics command {args.metrics_command!r}")


def _watch(args) -> int:
    """Tail a live ``--events`` stream, or replay a persisted one."""
    from .obs import watch as obs_watch

    if args.replay:
        path = args.replay
        record = None
        if not os.path.exists(path):
            # Not a file on disk: treat it as a ledger run reference and
            # load the stream record_run persisted next to the record.
            ledger = obs_runs.ledger(args.runs_dir)
            record = ledger.load_entry(ledger.resolve(args.replay))
            if not record.events_path:
                raise ReproError(
                    f"run {record.run_id} has no recorded event stream "
                    "(pre-repro-run/1.3, or captured without the ledger)"
                )
            path = os.path.join(str(ledger.root), record.events_path)
        tracker = obs_watch.replay(path, validate=True)
        print(obs_watch.render_frame(tracker))
        if record is not None and record.progress is not None:
            if tracker.summary() == record.progress:
                print("replay matches the recorded progress summary")
            else:
                print(
                    "replay DIVERGES from the recorded progress summary:\n"
                    f"  recorded: {json.dumps(record.progress, sort_keys=True)}\n"
                    f"  replayed: {json.dumps(tracker.summary(), sort_keys=True)}"
                )
                return 1
        return 0
    if not args.events:
        raise ReproError("watch needs an event log path or --replay RUN_OR_PATH")
    if args.once:
        tracker = obs_watch.replay(args.events, validate=args.validate)
        print(obs_watch.render_frame(tracker))
        return 0
    obs_watch.watch_live(
        args.events,
        interval_s=args.interval,
        timeout_s=args.timeout,
        validate=args.validate,
        clear=not args.no_clear,
    )
    return 0


def _spatial_summary_line(record) -> str:
    """One-line convergence/quality summary of a record's spatial data.

    Pre-spatial (schema ``repro-run/1``) records get a pointer instead of
    an error -- old ledgers stay readable under the new schema.
    """
    payload = record.spatial
    if not payload:
        return (
            f"spatial: none recorded (schema {record.schema}; re-run with "
            "verification to collect hotspot data)"
        )
    line = (
        f"spatial: {payload.get('site_count', 0)} EPE sites "
        f"({payload.get('missing_sites', 0)} missing)"
    )
    tiles = payload.get("tiles") or []
    if tiles:
        line += (
            f", {payload.get('tiles_converged', 0)}/{len(tiles)} "
            "tile(s) converged"
        )
    return line + f" -- `repro inspect {record.run_id}` for the map"


def _preflight_summary_line(record) -> str:
    """One-line static-lint verdict of a record (schema ``repro-run/1.2``).

    Pre-1.2 records (and runs that skipped the gate) get a note instead
    of an error -- old ledgers stay readable.
    """
    payload = record.preflight
    if not payload:
        return (
            f"preflight: none recorded (schema {record.schema}; the gate "
            "was skipped or predates repro-run/1.2)"
        )
    verdict = "ok" if payload.get("ok") else "FAILED"
    line = (
        f"preflight: {verdict} ({payload.get('errors', 0)} error(s), "
        f"{payload.get('warnings', 0)} warning(s), "
        f"{payload.get('info', 0)} info)"
    )
    codes = payload.get("codes") or []
    if codes:
        line += f" rules: {', '.join(codes)}"
    return line


def _mrc_summary_line(record) -> str:
    """One-line postflight verdict of a record (schema ``repro-run/1.5``).

    Pre-1.5 records (and runs that skipped the postflight) get a note
    instead of an error -- old ledgers stay readable.
    """
    payload = record.mrc
    if not payload:
        return (
            f"mrc: none recorded (schema {record.schema}; the postflight "
            "was skipped or predates repro-run/1.5)"
        )
    verdict = "ok" if payload.get("ok") else "FAILED"
    line = (
        f"mrc: {verdict} ({payload.get('errors', 0)} error(s), "
        f"{payload.get('warnings', 0)} warning(s)), "
        f"~{payload.get('shot_count', 0)} VSB shots"
    )
    by_rule = payload.get("by_rule") or {}
    if by_rule:
        line += " rules: " + ", ".join(
            f"{code}:{count}" for code, count in sorted(by_rule.items())
        )
        line += f" -- `repro mrc {record.run_id}` for the markers"
    return line


def _profile_summary_line(record) -> str:
    """One-line sampled-profile digest of a record (schema ``repro-run/1.4``).

    Pre-1.4 records (and runs sampled with ``REPRO_PROF=0``) get a note
    instead of an error -- old ledgers stay readable.
    """
    payload = record.profile
    if not payload:
        return (
            f"profile: none recorded (schema {record.schema}; re-run with "
            "`repro profile --flame --record` to sample)"
        )
    line = (
        f"profile: {payload.get('sample_count', 0)} sample(s) @ "
        f"{payload.get('hz', 0):g} Hz, cpu {payload.get('cpu_total_s', 0):.3f} s, "
        f"peak rss {int(payload.get('peak_rss_bytes', 0)) // 2 ** 20} MiB"
    )
    top = payload.get("top_frames") or []
    if top:
        frame, count = top[0]
        line += f" -- hottest frame {frame} ({count})"
    return line


def _inspect(args) -> int:
    from .obs import spatial as obs_spatial

    ledger = obs_runs.ledger(args.runs_dir)
    record = ledger.load_entry(ledger.resolve(args.run))
    print(
        f"run {record.run_id}  {record.timestamp}  label={record.label}  "
        f"schema {record.schema}"
    )
    print(_mrc_summary_line(record))
    payload = record.spatial
    if not payload:
        print(
            "no spatial data: the record predates schema repro-run/1.1 or "
            "was captured without verification sites or tiled correction"
        )
        return 0
    print()
    print(hotspot_markdown(payload, top=args.top))
    if not args.no_artifacts:
        svg_path = f"{args.output_prefix}.svg"
        html_path = f"{args.output_prefix}.html"
        obs_spatial.write_hotspot_svg(svg_path, payload)
        obs_spatial.write_inspect_html(html_path, record)
        print(f"\nwrote {svg_path} and {html_path}")
    return 0


def _report(args) -> int:
    from .flow import flow_report_markdown

    _library, cell, drawn, target = _load_layer(args, args.gds)
    try:
        levels = [_LEVELS[name.strip()] for name in args.levels.split(",")]
    except KeyError as bad:
        raise ReproError(f"unknown correction level {bad}") from None
    rules = _NODES[args.node]()
    simulator = LithoSimulator(_litho_config())
    dose = _resolve_dose(args, rules, simulator)
    results = {
        level: correct_region(target, level, simulator=simulator, dose=dose)
        for level in levels
    }
    print(flow_report_markdown(results, title=f"{cell.name} layer {drawn}"))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
