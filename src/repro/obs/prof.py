"""Span-attributed sampling profiler with memory telemetry.

Spans say *that* ``tapeout.correct`` took 40 s; this module says *why*:
a background thread samples every Python stack at a configurable rate
(``sys._current_frames``, stdlib only) and tags each sample with the
span path that was open on the sampled thread
(:func:`repro.obs.trace.open_span_paths`), so collapsed stacks read ::

    tapeout/tapeout.correct/...;model_opc.py:step;simulator.py:aerial_image  172

Alongside the stacks the sampler keeps three cheap aggregates:

* ``cpu_s`` / ``wall_s`` per top-level span -- rusage CPU-time deltas
  and wall deltas attributed to the open root span at each tick, the
  CPU-vs-wait split a wall-clock span tree cannot show.
* the process RSS high-water mark, polled with the same
  ``resource``/``/proc`` reader the events bus uses for its
  ``worker.resource`` samples.
* optional per-phase ``tracemalloc`` top-N allocation sites, collected
  by a :class:`~repro.obs.events.CallbackSink` listening for the bus's
  ``phase.end`` events.

Profiles cross the process boundary like span trees do: each pool
worker in :mod:`repro.opc.parallel` records its own :class:`Profile`
into its :class:`~repro.obs.WorkerTelemetry` envelope
(:func:`repro.obs.record_worker`), and the parent folds them in with the
deterministic :func:`merge_profiles` (:func:`repro.obs.absorb_workers`)
-- the same contract as :func:`~repro.obs.trace.merge_spans`.  Exports
are stdlib-only: Brendan-Gregg collapsed-stack text plus a
self-contained flame-graph SVG/HTML (``repro profile --flame``).

``REPRO_PROF=0`` is the kill switch (the profiler goes fully inert);
``REPRO_PROF_HZ`` overrides the default sampling rate.
"""

from __future__ import annotations

import json
import math
import os
import sys
import threading
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Union

from . import trace as _trace
from .events import CallbackSink, _cpu_seconds_and_rss, bus as _event_bus

#: Version stamp of the serialized-profile schema.
PROF_SCHEMA = "repro-prof/1"

#: Kill switch: set to ``0`` to make every profiler inert.
PROF_ENV = "REPRO_PROF"

#: Override of the default sampling rate (samples per second).
PROF_HZ_ENV = "REPRO_PROF_HZ"

#: Default sampling rate.  A prime-ish rate avoids phase-locking with
#: periodic work (tile cadence, event-sink flush intervals), and the
#: value is low enough that each wake's GIL handoff stays under the 5%
#: wall-time budget even on a single-core CI runner
#: (``bench_obs_overhead.py`` holds the line).
DEFAULT_HZ = 47.0

#: Span tag of samples taken while no span was open on the thread.
NO_SPAN = "(no span)"

#: Frames kept per sample, root-first; deeper stacks are truncated.
MAX_STACK_DEPTH = 64


def prof_enabled() -> bool:
    """Whether sampling profilers may run (``REPRO_PROF=0`` disables)."""
    return os.environ.get(PROF_ENV, "1").strip().lower() not in ("0", "false", "off")


def default_hz() -> float:
    """The configured sampling rate (``REPRO_PROF_HZ`` or the default)."""
    try:
        hz = float(os.environ.get(PROF_HZ_ENV, ""))
    except ValueError:
        return DEFAULT_HZ
    return hz if hz > 0 else DEFAULT_HZ


class Profile:
    """One process's (or one tile's) sampled profile.

    ``samples`` maps a collapsed stack -- ``;``-joined frames whose first
    segment is the span path open at sample time -- to its sample count.
    ``cpu_s`` / ``wall_s`` map each top-level span name to the CPU and
    wall seconds attributed to it.  ``memory`` holds the per-phase
    tracemalloc digests, when memory telemetry ran.
    """

    __slots__ = (
        "hz", "samples", "cpu_s", "wall_s", "sample_count",
        "peak_rss_bytes", "memory",
    )

    def __init__(self, hz: float = DEFAULT_HZ):
        self.hz = float(hz)
        self.samples: Dict[str, int] = {}
        self.cpu_s: Dict[str, float] = {}
        self.wall_s: Dict[str, float] = {}
        self.sample_count = 0
        self.peak_rss_bytes = 0
        self.memory: List[Dict[str, Any]] = []

    @property
    def cpu_total_s(self) -> float:
        """CPU seconds across every top-level span (order-independent)."""
        return math.fsum(self.cpu_s.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Profile({self.sample_count} samples @ {self.hz:g} Hz, "
            f"cpu {self.cpu_total_s:.3f} s)"
        )


def profile_to_dict(profile: Profile) -> Dict[str, Any]:
    """``profile`` as plain JSON-ready data (sorted, deterministic)."""
    return {
        "schema": PROF_SCHEMA,
        "hz": profile.hz,
        "sample_count": profile.sample_count,
        "peak_rss_bytes": profile.peak_rss_bytes,
        "samples": {key: profile.samples[key] for key in sorted(profile.samples)},
        "cpu_s": {key: round(profile.cpu_s[key], 6) for key in sorted(profile.cpu_s)},
        "wall_s": {key: round(profile.wall_s[key], 6) for key in sorted(profile.wall_s)},
        "memory": list(profile.memory),
    }


def profile_from_dict(data: Dict[str, Any]) -> Profile:
    """Rebuild a :class:`Profile` from :func:`profile_to_dict` output."""
    if data.get("schema") != PROF_SCHEMA:
        from ..errors import ReproError

        raise ReproError(
            f"unsupported profile schema {data.get('schema')!r} "
            f"(expected {PROF_SCHEMA})"
        )
    profile = Profile(float(data.get("hz", DEFAULT_HZ)))
    profile.sample_count = int(data.get("sample_count", 0))
    profile.peak_rss_bytes = int(data.get("peak_rss_bytes", 0))
    profile.samples = {str(k): int(v) for k, v in (data.get("samples") or {}).items()}
    profile.cpu_s = {str(k): float(v) for k, v in (data.get("cpu_s") or {}).items()}
    profile.wall_s = {str(k): float(v) for k, v in (data.get("wall_s") or {}).items()}
    profile.memory = list(data.get("memory") or [])
    return profile


def merge_profiles(
    parent: Profile,
    profiles: Sequence[Profile],
    prefix: Optional[str] = None,
) -> Profile:
    """Fold worker profiles into ``parent`` in place; returns ``parent``.

    The same contract as :func:`~repro.obs.trace.merge_spans`: one call
    folds every child at once, and the result is a deterministic function
    of the *set* of profiles -- independent of drain order.  Sample
    counts are integer sums; CPU/wall seconds are folded per key with
    ``math.fsum`` (correctly rounded, hence order-independent); the RSS
    high-water is a max; memory digests are concatenated in sorted
    serialized order.

    ``prefix`` grafts the children under a parent span path, mirroring
    how worker span trees land under ``opc.parallel``: each child
    sample's span tag gains the prefix, and the children's per-root
    ``cpu_s``/``wall_s`` fold into the single ``prefix`` key (all worker
    CPU happened inside that parent span).
    """
    def tag(stack_key: str) -> str:
        if prefix is None:
            return stack_key
        span_tag, sep, frames = stack_key.partition(";")
        span_tag = prefix if span_tag == NO_SPAN else f"{prefix}/{span_tag}"
        return span_tag + sep + frames

    counts: Dict[str, List[int]] = {}
    cpu: Dict[str, List[float]] = {}
    wall: Dict[str, List[float]] = {}
    for key, value in parent.samples.items():
        counts.setdefault(key, []).append(value)
    for key, value in parent.cpu_s.items():
        cpu.setdefault(key, []).append(value)
    for key, value in parent.wall_s.items():
        wall.setdefault(key, []).append(value)
    extra_memory: List[Dict[str, Any]] = []
    for child in profiles:
        for key, value in child.samples.items():
            counts.setdefault(tag(key), []).append(value)
        for key, value in child.cpu_s.items():
            cpu.setdefault(prefix if prefix is not None else key, []).append(value)
        for key, value in child.wall_s.items():
            wall.setdefault(prefix if prefix is not None else key, []).append(value)
        parent.sample_count += child.sample_count
        parent.peak_rss_bytes = max(parent.peak_rss_bytes, child.peak_rss_bytes)
        extra_memory.extend(child.memory)
    parent.samples = {key: sum(values) for key, values in counts.items()}
    parent.cpu_s = {key: math.fsum(values) for key, values in cpu.items()}
    parent.wall_s = {key: math.fsum(values) for key, values in wall.items()}
    parent.memory.extend(
        sorted(extra_memory, key=lambda entry: json.dumps(entry, sort_keys=True))
    )
    return parent


# -- the sampler ---------------------------------------------------------------

class SamplingProfiler:
    """Low-overhead background stack sampler for this process.

    Use as a context manager (or ``start()``/``stop()``) around the work
    to profile::

        with SamplingProfiler(hz=97) as profiler:
            tapeout_region(...)
        print(collapsed_text(profiler.profile))

    The sampler thread wakes ``hz`` times a second, reads every thread's
    current frame stack, tags each with the thread's open span path, and
    attributes the tick's CPU/wall deltas to the open top-level spans.
    When ``REPRO_PROF=0`` (or ``hz <= 0``) the profiler is fully inert:
    no thread starts and the profile stays empty.

    ``memory=True`` additionally starts ``tracemalloc`` and records the
    top-``top_n`` allocation sites of every pipeline phase (via the
    event bus's ``phase.end`` events) plus the tracemalloc peak, at
    tracemalloc's usual 2-4x slowdown -- a diagnosis mode, not an
    always-on one.
    """

    def __init__(
        self,
        hz: Optional[float] = None,
        memory: bool = False,
        top_n: int = 5,
    ):
        self.hz = float(hz) if hz is not None and hz > 0 else default_hz()
        self.memory = memory
        self.top_n = top_n
        self.profile = Profile(self.hz)
        self.running = False
        self._lock = threading.Lock()
        self._stop_event = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._memory_sink: Optional[CallbackSink] = None
        self._last_wall: Optional[float] = None
        self._last_cpu: Optional[float] = None

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Start sampling (a no-op when ``REPRO_PROF=0`` disables it)."""
        global _active_profiler
        if self.running or not prof_enabled():
            return self
        self.running = True
        _active_profiler = self
        self._stop_event.clear()
        cpu_s, rss = _cpu_seconds_and_rss()
        self._last_cpu = cpu_s
        self._last_wall = perf_counter()
        self.profile.peak_rss_bytes = max(self.profile.peak_rss_bytes, rss)
        if self.memory:
            self._start_memory()
        self._thread = threading.Thread(
            target=self._loop, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> Profile:
        """Stop sampling and return the (still mutable) profile."""
        global _active_profiler
        if not self.running:
            return self.profile
        self._stop_event.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._memory_sink is not None:
            self._stop_memory()
        self.running = False
        if _active_profiler is self:
            _active_profiler = None
        return self.profile

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    # -- sampling -------------------------------------------------------------

    def _loop(self) -> None:
        interval = 1.0 / self.hz
        ident = threading.get_ident()
        while not self._stop_event.wait(interval):
            self._tick(ident)
        self._tick(ident)  # final partial tick so short runs register

    def _tick(self, sampler_ident: int) -> None:
        now = perf_counter()
        cpu_s, rss = _cpu_seconds_and_rss()
        frames = sys._current_frames()
        span_paths = _trace.open_span_paths()
        with self._lock:
            profile = self.profile
            profile.peak_rss_bytes = max(profile.peak_rss_bytes, rss)
            roots: List[str] = []
            for ident, frame in frames.items():
                if ident == sampler_ident:
                    continue
                path = span_paths.get(ident, NO_SPAN)
                stack = [path] + _format_stack(frame)
                key = ";".join(stack)
                profile.samples[key] = profile.samples.get(key, 0) + 1
                profile.sample_count += 1
                root = path.split("/", 1)[0]
                if root not in roots:
                    roots.append(root)
            if roots and self._last_wall is not None:
                wall_delta = max(now - self._last_wall, 0.0)
                cpu_delta = max(cpu_s - (self._last_cpu or 0.0), 0.0)
                share = 1.0 / len(roots)
                for root in roots:
                    profile.wall_s[root] = (
                        profile.wall_s.get(root, 0.0) + wall_delta * share
                    )
                    profile.cpu_s[root] = (
                        profile.cpu_s.get(root, 0.0) + cpu_delta * share
                    )
            self._last_wall = now
            self._last_cpu = cpu_s

    # -- memory telemetry -----------------------------------------------------

    def _start_memory(self) -> None:
        import tracemalloc

        tracemalloc.start()
        self._memory_sink = _event_bus().attach(CallbackSink(self._on_event))

    def _stop_memory(self) -> None:
        import tracemalloc

        _event_bus().detach(self._memory_sink)
        self._memory_sink = None
        if tracemalloc.is_tracing():
            with self._lock:
                self.profile.memory.append(self._memory_entry("(run)"))
            tracemalloc.stop()

    def _on_event(self, event: Dict[str, Any]) -> None:
        if event.get("type") != "phase.end":
            return
        import tracemalloc

        if not tracemalloc.is_tracing():
            return
        phase = (event.get("data") or {}).get("name") or "(phase)"
        with self._lock:
            self.profile.memory.append(self._memory_entry(phase))
        tracemalloc.reset_peak()

    def _memory_entry(self, phase: str) -> Dict[str, Any]:
        import tracemalloc

        current, peak = tracemalloc.get_traced_memory()
        top = tracemalloc.take_snapshot().statistics("lineno")[: self.top_n]
        return {
            "phase": phase,
            "current_bytes": int(current),
            "peak_bytes": int(peak),
            "top_sites": [
                {
                    "site": f"{os.path.basename(stat.traceback[0].filename)}"
                    f":{stat.traceback[0].lineno}",
                    "bytes": int(stat.size),
                    "count": int(stat.count),
                }
                for stat in top
            ],
        }

    # -- snapshots ------------------------------------------------------------

    def snapshot(self) -> Dict[str, Any]:
        """A consistent :func:`profile_to_dict` view, safe while running."""
        with self._lock:
            return profile_to_dict(self.profile)


def _format_stack(frame: Any) -> List[str]:
    """Root-first ``file.py:function`` frames of one thread's stack."""
    frames: List[str] = []
    while frame is not None and len(frames) < MAX_STACK_DEPTH:
        code = frame.f_code
        frames.append(f"{os.path.basename(code.co_filename)}:{code.co_name}")
        frame = frame.f_back
    frames.reverse()
    return frames


# -- the active profiler (pool propagation hook) -------------------------------

_active_profiler: Optional[SamplingProfiler] = None


def active_profiler() -> Optional[SamplingProfiler]:
    """The profiler currently sampling this process, if any."""
    return _active_profiler


def active_hz() -> float:
    """Sampling rate workers should inherit (0.0 = profiling is off)."""
    profiler = _active_profiler
    return profiler.hz if profiler is not None and profiler.running else 0.0


def active_summary(top: int = 10) -> Optional[Dict[str, Any]]:
    """The :func:`profile_summary` of the active profiler, or ``None``.

    Safe to call while sampling is still running (the flows use this to
    stamp auto-recorded ledger runs); the summary reflects everything
    sampled so far.
    """
    profiler = _active_profiler
    if profiler is None:
        return None
    return profile_summary(profile_from_dict(profiler.snapshot()), top=top)


# -- summaries & exports -------------------------------------------------------

def profile_summary(profile: Profile, top: int = 10) -> Dict[str, Any]:
    """The compact ledger payload: top frames, per-span CPU/wall, peak RSS.

    This is what a ``repro-run/1.4`` record stores under ``profile`` --
    small enough to live on every ledger line while still letting
    ``repro runs diff``/``check`` gate on CPU time and peak memory.
    """
    leaf_counts: Dict[str, int] = {}
    for stack_key, count in profile.samples.items():
        leaf = stack_key.rsplit(";", 1)[-1]
        leaf_counts[leaf] = leaf_counts.get(leaf, 0) + count
    top_frames = sorted(leaf_counts.items(), key=lambda kv: (-kv[1], kv[0]))[:top]
    return {
        "schema": PROF_SCHEMA,
        "hz": profile.hz,
        "sample_count": profile.sample_count,
        "peak_rss_bytes": profile.peak_rss_bytes,
        "cpu_s": {key: round(profile.cpu_s[key], 6) for key in sorted(profile.cpu_s)},
        "wall_s": {key: round(profile.wall_s[key], 6) for key in sorted(profile.wall_s)},
        "cpu_total_s": round(profile.cpu_total_s, 6),
        "top_frames": [[frame, count] for frame, count in top_frames],
        "memory": list(profile.memory),
    }


def collapsed_text(profile: Profile) -> str:
    """Brendan-Gregg collapsed-stack text: ``frame;frame;leaf count``.

    One line per distinct stack, lexicographically sorted (deterministic
    for a given profile), first frame is the span path the sample was
    attributed to.  Feed it to any flame-graph tool, or to
    :func:`flame_svg`.
    """
    return "\n".join(
        f"{stack} {profile.samples[stack]}" for stack in sorted(profile.samples)
    )


def write_collapsed(path: Union[str, os.PathLike], profile: Profile) -> None:
    """Write :func:`collapsed_text` (with a trailing newline) to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        text = collapsed_text(profile)
        handle.write(text + "\n" if text else "")


# -- flame graph (stdlib-only SVG/HTML) ----------------------------------------

_FRAME_HEIGHT = 17
_FLAME_WIDTH = 1100
_MIN_FRAME_PX = 1.2


class _FlameNode:
    __slots__ = ("name", "value", "children")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.children: Dict[str, "_FlameNode"] = {}


def _flame_tree(profile: Profile) -> _FlameNode:
    root = _FlameNode("all")
    for stack_key in sorted(profile.samples):
        count = profile.samples[stack_key]
        root.value += count
        node = root
        for frame in stack_key.split(";"):
            child = node.children.get(frame)
            if child is None:
                child = node.children[frame] = _FlameNode(frame)
            child.value += count
            node = child
    return root


def _frame_color(name: str) -> str:
    """A deterministic warm palette color for one frame name."""
    import hashlib

    digest = hashlib.sha256(name.encode("utf-8")).digest()
    red = 205 + digest[0] % 50
    green = 80 + digest[1] % 110
    blue = digest[2] % 55
    return f"rgb({red},{green},{blue})"


def flame_svg(profile: Profile, title: str = "repro flame graph") -> str:
    """A self-contained flame-graph SVG of the profile's collapsed stacks.

    Stdlib only, no scripts, no external assets: rect width is the
    sample share, depth is stack depth, siblings are laid out in sorted
    name order so the same profile always renders byte-identically.
    Hover titles carry the full frame name, sample count and share.
    """
    import html as _html

    root = _flame_tree(profile)
    total = root.value
    rows: List[str] = []
    max_depth = 0

    def layout(node: _FlameNode, x: float, width: float, depth: int) -> None:
        nonlocal max_depth
        max_depth = max(max_depth, depth)
        if width >= _MIN_FRAME_PX and depth >= 0:
            share = 100.0 * node.value / total if total else 0.0
            label = _html.escape(node.name)
            text = ""
            if width > 60:
                shown = node.name
                limit = max(int(width / 6.5), 1)
                if len(shown) > limit:
                    shown = shown[: max(limit - 2, 1)] + ".."
                text = (
                    f'<text x="{x + 2:.1f}" y="{depth * _FRAME_HEIGHT + 12}" '
                    f'font-size="11" font-family="monospace">'
                    f"{_html.escape(shown)}</text>"
                )
            rows.append(
                f'<g><rect x="{x:.1f}" y="{depth * _FRAME_HEIGHT + 1}" '
                f'width="{max(width - 0.5, 0.5):.1f}" height="{_FRAME_HEIGHT - 2}" '
                f'fill="{_frame_color(node.name)}" rx="1">'
                f"<title>{label}: {node.value} sample(s), {share:.1f}%</title>"
                f"</rect>{text}</g>"
            )
        child_x = x
        for name in sorted(node.children):
            child = node.children[name]
            child_width = width * child.value / node.value if node.value else 0.0
            layout(child, child_x, child_width, depth + 1)
            child_x += child_width

    if total:
        layout(root, 0.0, float(_FLAME_WIDTH), 0)
    height = (max_depth + 1) * _FRAME_HEIGHT + 30
    header = (
        f'<text x="4" y="{height - 10}" font-size="12" '
        f'font-family="sans-serif">{__import__("html").escape(title)}: '
        f"{total} sample(s) @ {profile.hz:g} Hz, "
        f"cpu {profile.cpu_total_s:.3f} s, "
        f"peak rss {profile.peak_rss_bytes // (1024 * 1024)} MiB</text>"
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_FLAME_WIDTH}" '
        f'height="{height}" viewBox="0 0 {_FLAME_WIDTH} {height}">'
        f'<rect width="100%" height="100%" fill="#fafaf8"/>'
        + "".join(rows) + header + "</svg>"
    )


def flame_html(profile: Profile, title: str = "repro flame graph") -> str:
    """A self-contained HTML page: flame SVG plus CPU/wall and memory tables.

    Opens offline like ``repro inspect``'s output -- no scripts, no
    external assets.
    """
    import html as _html

    parts = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_html.escape(title)}</title>",
        "<style>body{font-family:ui-sans-serif,system-ui,sans-serif;"
        "margin:2rem;color:#1a1a2e;background:#fafaf8}"
        "table{border-collapse:collapse;font-size:0.85rem}"
        "td,th{padding:0.25rem 0.7rem;border-bottom:1px solid #e0e0dc;"
        "text-align:left}.mono{font-family:ui-monospace,monospace;"
        "font-size:0.8rem}</style></head><body>",
        f"<h1>{_html.escape(title)}</h1>",
        flame_svg(profile, title=title),
        "<h2>CPU vs wall per top-level span</h2><table>",
        "<tr><th>span</th><th>cpu (s)</th><th>wall (s)</th>"
        "<th>cpu/wall</th></tr>",
    ]
    for root in sorted(set(profile.cpu_s) | set(profile.wall_s)):
        cpu = profile.cpu_s.get(root, 0.0)
        wall = profile.wall_s.get(root, 0.0)
        ratio = f"{cpu / wall:.2f}" if wall > 0 else "-"
        parts.append(
            f"<tr><td class='mono'>{_html.escape(root)}</td>"
            f"<td>{cpu:.3f}</td><td>{wall:.3f}</td><td>{ratio}</td></tr>"
        )
    parts.append("</table>")
    if profile.memory:
        parts.append("<h2>Memory per phase (tracemalloc)</h2><table>")
        parts.append(
            "<tr><th>phase</th><th>peak</th><th>top allocation sites</th></tr>"
        )
        for entry in profile.memory:
            sites = ", ".join(
                f"{site['site']} ({site['bytes'] // 1024} KiB)"
                for site in entry.get("top_sites", [])
            )
            parts.append(
                f"<tr><td class='mono'>{_html.escape(str(entry.get('phase')))}"
                f"</td><td>{int(entry.get('peak_bytes', 0)) // 1024} KiB</td>"
                f"<td class='mono'>{_html.escape(sites)}</td></tr>"
            )
        parts.append("</table>")
    parts.append(
        f"<p class='mono'>peak rss "
        f"{profile.peak_rss_bytes // (1024 * 1024)} MiB; "
        f"{profile.sample_count} sample(s) @ {profile.hz:g} Hz</p>"
    )
    parts.append("</body></html>")
    return "\n".join(parts)


def write_flame_svg(path: Union[str, os.PathLike], profile: Profile,
                    title: str = "repro flame graph") -> None:
    """Write :func:`flame_svg` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(flame_svg(profile, title=title) + "\n")


def write_flame_html(path: Union[str, os.PathLike], profile: Profile,
                     title: str = "repro flame graph") -> None:
    """Write :func:`flame_html` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(flame_html(profile, title=title) + "\n")
