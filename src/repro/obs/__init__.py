"""Observability: hierarchical tracing and metrics for the OPC pipeline.

The paper's adoption story is a cost story -- runtime, data volume,
hierarchy breakage -- and this package is how the library measures those
costs live instead of via scattered ``perf_counter`` deltas.  Three
pieces:

* :mod:`~repro.obs.trace` -- nested wall-clock spans with attributes
  (``span("tapeout")``), thread-local span stacks.
* :mod:`~repro.obs.metrics` -- a process-wide registry of counters,
  gauges and fixed-bucket histograms (``sim.aerial_calls``,
  ``tile.runtime_s``, ...).
* :mod:`~repro.obs.export` -- JSON (span tree + Chrome-trace events +
  metric snapshot) and markdown exporters.
* :mod:`~repro.obs.runs` -- the persistent run ledger (records, diffs,
  regression gates, HTML dashboard).
* :mod:`~repro.obs.spatial` -- spatial hotspot diagnostics: binned EPE
  grids, worst-site ranking, per-tile convergence curves mined from the
  trace, and SVG/HTML hotspot maps.
* :mod:`~repro.obs.events` -- the live ``repro-event/1`` event bus:
  typed run/phase/tile/iteration/resource/progress events streamed to
  pluggable sinks (JSONL, ring buffer, callback) across the process
  boundary while a run executes.
* :mod:`~repro.obs.watch` -- tail/replay/render consumers of the event
  stream behind the ``repro watch`` CLI.
* :mod:`~repro.obs.prof` -- span-attributed sampling profiler with
  memory telemetry: collapsed stacks tagged with the open span path,
  per-span CPU-vs-wall seconds, tracemalloc per phase, deterministic
  cross-process profile merging and stdlib-only flame-graph SVG/HTML.

A process pool's workers send everything they recorded back in one
:class:`WorkerTelemetry` envelope per job (:func:`init_worker`,
:func:`record_worker`, :func:`absorb_workers`).

Everything is off by default and costs one boolean test per guarded
call; wrap a run in :func:`capture` (or call :func:`enable`) to record::

    from repro import obs

    with obs.capture() as cap:
        tapeout_region(drawn, simulator, dose)
    print(obs.trace_markdown(cap.roots))
    obs.write_trace_json("trace.json", cap.roots)
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence

from .analyze import (
    SLO,
    AdaptiveFloors,
    AnalyzeReport,
    ChangePoint,
    MetricSeries,
    RobustStats,
    SLOStatus,
    analyze_records,
    cusum_changepoints,
    extract_series,
    flakiness,
    learn_floors,
    load_slos,
    robust_stats,
)
from .analyze import gate as gate_run
from .analyze import report_markdown as analyze_markdown
from .events import (
    EVENT_SCHEMA,
    EVENT_TYPES,
    CallbackSink,
    EventBus,
    JsonlSink,
    PoolProgress,
    ProgressTracker,
    RingBufferSink,
    RunEvents,
    run_scope,
    validate_event,
    validate_events,
)
from .events import bus as event_bus
from .events import emit as emit_event
from .events import install_worker_forwarding as _forward_worker_events
from .expo import (
    CONTENT_TYPE,
    MetricsServer,
    exposition,
    ledger_source,
    openmetrics_name,
    write_textfile,
)
from .export import (
    chrome_trace_events,
    metrics_markdown,
    span_from_dict,
    span_to_dict,
    span_tree_markdown,
    trace_document,
    trace_markdown,
    write_trace_json,
)
from .metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    count,
    gauge_set,
    merge_snapshot,
    observe,
    publish_quality,
    registry,
)
from .metrics import reset as reset_metrics
from .prof import (
    PROF_SCHEMA,
    Profile,
    SamplingProfiler,
    active_hz,
    active_profiler,
    collapsed_text,
    flame_html,
    flame_svg,
    merge_profiles,
    prof_enabled,
    profile_from_dict,
    profile_summary,
    profile_to_dict,
    write_collapsed,
    write_flame_html,
    write_flame_svg,
)
from .runs import (
    RUN_SCHEMA,
    SUPPORTED_SCHEMAS,
    Comparison,
    Regression,
    RegressionPolicy,
    RegressionReport,
    RunDiff,
    RunLedger,
    RunRecord,
    config_fingerprint,
    dashboard_html,
    diff_markdown,
    diff_runs,
    new_record,
    persist_run_events,
    record_run,
    write_dashboard_html,
)
from .spatial import (
    attribute_sites,
    canonical_spatial,
    epe_grid,
    hotspot_svg,
    inspect_html,
    spatial_quality,
    spatial_summary,
    tile_convergence,
    write_hotspot_svg,
    write_inspect_html,
)
from .state import disable, enable, enabled, enabled_scope
from .trace import Span, current_span, merge_spans, span, take_finished
from .trace import reset_worker_state as _reset_worker_state
from .watch import read_events, render_frame, replay, tail_events, watch_live

__all__ = [
    "AdaptiveFloors",
    "AnalyzeReport",
    "CONTENT_TYPE",
    "CallbackSink",
    "Capture",
    "ChangePoint",
    "Comparison",
    "Counter",
    "DEFAULT_BUCKETS",
    "EVENT_SCHEMA",
    "EVENT_TYPES",
    "EventBus",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MetricSeries",
    "MetricsRegistry",
    "MetricsServer",
    "PROF_SCHEMA",
    "PoolProgress",
    "Profile",
    "ProgressTracker",
    "RUN_SCHEMA",
    "RingBufferSink",
    "RunEvents",
    "Regression",
    "RegressionPolicy",
    "RegressionReport",
    "RobustStats",
    "RunDiff",
    "RunLedger",
    "RunRecord",
    "SLO",
    "SLOStatus",
    "SUPPORTED_SCHEMAS",
    "SamplingProfiler",
    "Span",
    "WorkerTelemetry",
    "absorb_workers",
    "analyze_markdown",
    "analyze_records",
    "active_hz",
    "active_profiler",
    "attribute_sites",
    "canonical_spatial",
    "capture",
    "chrome_trace_events",
    "collapsed_text",
    "config_fingerprint",
    "count",
    "cusum_changepoints",
    "exposition",
    "extract_series",
    "flakiness",
    "flame_html",
    "flame_svg",
    "gate_run",
    "learn_floors",
    "ledger_source",
    "load_slos",
    "merge_profiles",
    "openmetrics_name",
    "prof_enabled",
    "profile_from_dict",
    "profile_summary",
    "profile_to_dict",
    "write_collapsed",
    "write_flame_html",
    "write_flame_svg",
    "epe_grid",
    "hotspot_svg",
    "inspect_html",
    "spatial_quality",
    "spatial_summary",
    "tile_convergence",
    "write_hotspot_svg",
    "write_inspect_html",
    "current_span",
    "dashboard_html",
    "diff_markdown",
    "diff_runs",
    "disable",
    "emit_event",
    "enable",
    "enabled",
    "enabled_scope",
    "event_bus",
    "gauge_set",
    "init_worker",
    "merge_snapshot",
    "merge_spans",
    "metrics_markdown",
    "new_record",
    "observe",
    "persist_run_events",
    "publish_quality",
    "read_events",
    "record_run",
    "record_worker",
    "registry",
    "render_frame",
    "replay",
    "reset_metrics",
    "robust_stats",
    "run_scope",
    "span",
    "write_dashboard_html",
    "span_from_dict",
    "span_to_dict",
    "span_tree_markdown",
    "tail_events",
    "take_finished",
    "trace_document",
    "trace_markdown",
    "validate_event",
    "validate_events",
    "watch_live",
    "write_textfile",
    "write_trace_json",
]


class Capture:
    """Finished root spans collected by one :func:`capture` block."""

    def __init__(self) -> None:
        self.roots: List[Span] = []

    @property
    def root(self) -> Optional[Span]:
        """The first captured root span (usually the only one)."""
        return self.roots[0] if self.roots else None

    def find(self, name: str) -> Optional[Span]:
        """First span named ``name`` across every captured root."""
        for root in self.roots:
            found = root.find(name)
            if found is not None:
                return found
        return None


@contextmanager
def capture(fresh_metrics: bool = True) -> Iterator[Capture]:
    """Record spans and metrics for the ``with`` body.

    Enables observability, collects this thread's finished root spans
    into the yielded :class:`Capture`, and restores the prior on/off
    state on exit.  ``fresh_metrics`` resets the global registry first so
    the captured snapshot belongs to this run alone.
    """
    capture_result = Capture()
    take_finished()  # drop stale roots from earlier enabled runs
    if fresh_metrics:
        reset_metrics()
    with enabled_scope(True):
        try:
            yield capture_result
        finally:
            capture_result.roots = take_finished()


@dataclass
class WorkerTelemetry:
    """What one pool job recorded in its worker, as picklable plain data.

    Filled by :func:`record_worker`, folded in by :func:`absorb_workers`;
    a part the parent did not ask for stays empty.
    """

    #: The job's root span trees, as :func:`span_to_dict` documents.
    spans: List[Dict[str, Any]] = field(default_factory=list)
    #: The job's metric snapshot (:meth:`MetricsRegistry.snapshot` format).
    metrics: Optional[Dict[str, Any]] = None
    #: The job's sampled profile, as a :func:`profile_to_dict` document.
    profile: Optional[Dict[str, Any]] = None


def init_worker(events_queue: Optional[Any] = None) -> None:
    """Reset the telemetry a ``fork``-ed pool worker inherited.

    Drops the parent's finished spans and span stack, turns recording
    off (:func:`record_worker` turns it on per job), and sends the
    worker's events over ``events_queue`` only, never into the parent's
    sinks (``None``: live telemetry is off).
    """
    take_finished()
    _reset_worker_state()
    disable()
    _forward_worker_events(events_queue)


@contextmanager
def record_worker(observe: bool, profile_hz: float) -> Iterator[WorkerTelemetry]:
    """Record one pool job's ``with`` body the way the parent records.

    ``observe`` captures spans and metrics, else recording is forced off;
    ``profile_hz > 0`` samples the body at that rate.  The yielded
    envelope is filled only when the body returns, so a failed attempt
    ships nothing and a retried job never counts twice.
    """
    telemetry = WorkerTelemetry()
    with ExitStack() as stack:
        profiler = SamplingProfiler(hz=profile_hz) if profile_hz > 0 else None
        if profiler is not None:
            stack.enter_context(profiler)
        cap = stack.enter_context(capture() if observe else enabled_scope(False))
        yield telemetry
    if cap is not None:
        telemetry.spans = [span_to_dict(root) for root in cap.roots]
        telemetry.metrics = registry().snapshot()
    if profiler is not None:
        telemetry.profile = profile_to_dict(profiler.profile)


def absorb_workers(
    parent_span: Span, envelopes: Sequence[Optional[WorkerTelemetry]]
) -> None:
    """Fold pool workers' envelopes into this process, in job order.

    Spans graft under ``parent_span``, metric snapshots merge into the
    registry, and the profiles fold into the active profiler (if any)
    under ``parent_span``'s name in one :func:`merge_profiles` call.
    ``None`` entries, jobs that ran in this process, are skipped.
    """
    profiles: List[Profile] = []
    for telemetry in envelopes:
        if telemetry is None:
            continue
        if telemetry.spans:
            merge_spans(parent_span, [span_from_dict(doc) for doc in telemetry.spans])
        if telemetry.metrics:
            merge_snapshot(telemetry.metrics)
        if telemetry.profile is not None:
            profiles.append(profile_from_dict(telemetry.profile))
    profiler = active_profiler()
    if profiler is not None and profiles:
        with profiler._lock:  # the sampler thread may be mid-tick
            merge_profiles(profiler.profile, profiles, prefix=parent_span.name)
