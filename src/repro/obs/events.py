"""Live telemetry: the schema-versioned ``repro-event/1`` event bus.

Spans (:mod:`repro.obs.trace`) and the run ledger (:mod:`repro.obs.runs`)
are post-hoc: nothing is visible until a run finishes.  This module is
the *live* side -- a process-wide bus of typed, timestamped events that
pluggable sinks consume while the run is still going:

* ``run.start`` / ``run.end`` -- one outermost flow invocation.
* ``phase.start`` / ``phase.end`` -- pipeline stages, emitted by the
  span open/close hooks in :mod:`repro.obs.trace` for the span names in
  :data:`PHASE_SPANS`.
* ``tile.scheduled`` / ``tile.start`` / ``tile.retry`` / ``tile.done``
  / ``tile.failed`` -- the life of one OPC tile job.
* ``opc.iteration`` -- per-iteration EPE statistics from the model-OPC
  loop.
* ``worker.resource`` -- CPU%% and RSS sampled per process (stdlib
  ``resource`` + ``/proc``; see :class:`ResourceSampler`).
* ``progress`` -- tiles done/total and an ETA from a per-tile runtime
  EWMA (:class:`PoolProgress`).

Events cross the process boundary live: pool workers attach a
:class:`QueueSink` that forwards onto a bounded ``multiprocessing.Queue``
with ``put_nowait`` -- a full queue increments a drop counter instead of
ever blocking the worker, so telemetry can never stall the pool.  The
parent drains the queue between future completions
(:func:`result_draining`) and re-stamps each forwarded event with its
own strictly increasing sequence number, so any persisted stream
validates with :func:`validate_event`.

Everything here is wall-clock territory, which is exactly why it lives
in ``repro.obs`` and not ``repro.opc``: the repo lint (R001) bans clock
calls in the deterministic correction packages, so the pool calls the
clock-free facade objects this module provides (:class:`PoolProgress`,
:func:`result_draining`, :func:`drain_queue`).

The disabled state costs one module attribute read per emit point
(:data:`_active`), same contract as :mod:`repro.obs.state`.
"""

from __future__ import annotations

import json
import os
import queue as _queue_mod
import threading
from collections import deque
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter, sleep, time as _wall_clock
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from ..errors import ReproError

#: Version stamp of the event schema.
EVENT_SCHEMA = "repro-event/1"

#: Every event type the schema admits.
EVENT_TYPES = frozenset(
    {
        "run.start",
        "run.end",
        "phase.start",
        "phase.end",
        "tile.scheduled",
        "tile.start",
        "tile.retry",
        "tile.done",
        "tile.failed",
        "opc.iteration",
        "worker.resource",
        "progress",
    }
)

#: Span names the trace hooks (:func:`repro.obs.trace.span`) report as
#: pipeline phases (``phase.start`` / ``phase.end`` events).
PHASE_SPANS = frozenset(
    {
        "tapeout.preflight",
        "tapeout.retarget",
        "tapeout.correct",
        "tapeout.orc",
        "correct.preflight",
        "correct.sraf",
        "correct.smooth",
        "correct.repair",
        "opc.parallel",
    }
)

#: Bound of the worker->parent forwarding queue; a full queue drops
#: events (counted) rather than blocking the worker.
QUEUE_MAX_ENV = "REPRO_EVENTS_QUEUE_MAX"
DEFAULT_QUEUE_MAX = 1024

#: Minimum seconds between ``worker.resource`` samples (0 = every emit).
RESOURCE_INTERVAL_ENV = "REPRO_EVENTS_RESOURCE_INTERVAL"
DEFAULT_RESOURCE_INTERVAL_S = 0.5

_TOP_LEVEL_KEYS = frozenset({"schema", "seq", "ts", "type", "pid", "data", "drops"})


# -- sinks --------------------------------------------------------------------

class JsonlSink:
    """Append events to a JSONL file, one ``sort_keys`` line per event.

    Lines are flushed as written so ``repro watch`` can tail the file of
    an in-flight run.
    """

    def __init__(self, path: Union[str, Path]):
        self.path = str(path)
        self._handle = open(self.path, "w", encoding="utf-8")

    def emit(self, event: Dict[str, Any]) -> None:
        self._handle.write(json.dumps(event, sort_keys=True) + "\n")
        self._handle.flush()

    def close(self) -> None:
        if not self._handle.closed:
            self._handle.close()


class RingBufferSink:
    """Keep the newest ``capacity`` events in memory."""

    def __init__(self, capacity: int = 65536):
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)

    def emit(self, event: Dict[str, Any]) -> None:
        self._events.append(event)

    @property
    def events(self) -> List[Dict[str, Any]]:
        return list(self._events)

    def close(self) -> None:
        pass


class CallbackSink:
    """Hand every event to a callable (the job server's WebSocket hook)."""

    def __init__(self, fn: Callable[[Dict[str, Any]], Any]):
        self.fn = fn

    def emit(self, event: Dict[str, Any]) -> None:
        self.fn(event)

    def close(self) -> None:
        pass


class QueueSink:
    """Worker-side sink: forward events over a bounded ``mp.Queue``.

    Never blocks: a full queue increments :attr:`dropped` and the loss is
    reported to the parent as a ``drops`` count attached to the next
    event that does get through, so the drained stream accounts for
    every lost message.
    """

    def __init__(self, events_queue: Any):
        self.queue = events_queue
        self.dropped = 0
        self._pending_drops = 0

    def emit(self, event: Dict[str, Any]) -> None:
        message = {
            "type": event["type"],
            "ts": event["ts"],
            "pid": event["pid"],
            "data": event["data"],
        }
        if self._pending_drops:
            message["drops"] = self._pending_drops
        try:
            self.queue.put_nowait(message)
        except _queue_mod.Full:
            self.dropped += 1
            self._pending_drops += 1
        except (ValueError, OSError):  # queue closed mid-shutdown
            self.dropped += 1
            self._pending_drops += 1
        else:
            self._pending_drops = 0

    def close(self) -> None:
        pass


# -- resource sampling --------------------------------------------------------

def _cpu_seconds_and_rss() -> tuple:
    """(cumulative CPU seconds, resident set bytes) of this process.

    Stdlib only: ``resource.getrusage`` for CPU time, ``/proc/self/statm``
    for current RSS with the rusage high-water mark as the fallback on
    platforms without procfs.
    """
    cpu_s = 0.0
    max_rss = 0
    try:
        import resource as _resource

        usage = _resource.getrusage(_resource.RUSAGE_SELF)
        cpu_s = usage.ru_utime + usage.ru_stime
        # Linux reports ru_maxrss in KiB.
        max_rss = int(usage.ru_maxrss) * 1024
    except Exception:  # pragma: no cover - non-POSIX fallback
        pass
    rss = 0
    try:
        with open("/proc/self/statm", encoding="ascii") as handle:
            rss = int(handle.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
    except Exception:  # pragma: no cover - no procfs
        rss = max_rss
    return cpu_s, rss


class ResourceSampler:
    """Rate-limited ``worker.resource`` emitter piggybacking on the bus.

    CPU%% is derived from deltas of cumulative CPU seconds between
    samples; the first sample of a process therefore reports ``None``.
    """

    def __init__(self, interval_s: float = DEFAULT_RESOURCE_INTERVAL_S):
        self.interval_s = interval_s
        self._last_emit: Optional[float] = None
        self._last_cpu_s: Optional[float] = None
        self._last_wall: Optional[float] = None

    def sample(self) -> Dict[str, Any]:
        cpu_s, rss = _cpu_seconds_and_rss()
        now = perf_counter()
        cpu_percent: Optional[float] = None
        if self._last_wall is not None and now > self._last_wall:
            cpu_percent = round(
                100.0 * (cpu_s - self._last_cpu_s) / (now - self._last_wall), 1
            )
        self._last_cpu_s, self._last_wall = cpu_s, now
        return {"cpu_percent": cpu_percent, "rss_bytes": rss}

    def maybe_emit(self, bus_obj: "EventBus") -> None:
        now = perf_counter()
        if self._last_emit is not None and now - self._last_emit < self.interval_s:
            return
        self._last_emit = now
        bus_obj.emit("worker.resource", self.sample())


def resource_interval_s() -> float:
    """The configured minimum seconds between resource samples."""
    try:
        return max(0.0, float(os.environ.get(RESOURCE_INTERVAL_ENV, "")))
    except ValueError:
        return DEFAULT_RESOURCE_INTERVAL_S


# -- the bus ------------------------------------------------------------------

class EventBus:
    """Process-wide fan-out of schema-versioned events to attached sinks.

    Sequence numbers are assigned under a lock at emit time, so any
    single bus's stream is strictly increasing; forwarded worker events
    are re-stamped by the parent bus (:meth:`forward`), keeping the
    property across the process boundary.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._sinks: List[Any] = []
        self._seq = 0
        self.emitted = 0
        self.dropped = 0
        #: Optional :class:`ResourceSampler` piggybacking on emissions.
        self.sampler: Optional[ResourceSampler] = None

    @property
    def active(self) -> bool:
        return bool(self._sinks)

    def attach(self, sink: Any) -> Any:
        """Register ``sink`` and return it (for later :meth:`detach`)."""
        with self._lock:
            self._sinks.append(sink)
        _refresh_active()
        return sink

    def detach(self, sink: Any) -> None:
        with self._lock:
            if sink in self._sinks:
                self._sinks.remove(sink)
        _refresh_active()

    def clear(self) -> None:
        """Drop every sink and the sampler (fork-inheritance hygiene)."""
        with self._lock:
            self._sinks = []
        self.sampler = None
        _refresh_active()

    def emit(
        self,
        type_: str,
        data: Optional[Dict[str, Any]] = None,
        ts: Optional[float] = None,
        pid: Optional[int] = None,
        drops: int = 0,
    ) -> Dict[str, Any]:
        """Stamp and fan one event out to every sink; returns the event."""
        event: Dict[str, Any] = {
            "schema": EVENT_SCHEMA,
            "type": type_,
            "ts": ts if ts is not None else _wall_clock(),
            "pid": pid if pid is not None else os.getpid(),
            "data": data if data is not None else {},
        }
        if drops:
            event["drops"] = drops
        with self._lock:
            event["seq"] = self._seq
            self._seq += 1
            self.emitted += 1
            if drops:
                self.dropped += drops
            sinks = list(self._sinks)
        for sink in sinks:
            sink.emit(event)
        sampler = self.sampler
        if sampler is not None and type_ != "worker.resource":
            sampler.maybe_emit(self)
        return event

    def forward(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Re-stamp a worker-queued message into this bus's stream.

        The worker's timestamp and pid survive; the sequence number is
        the parent's, so the merged stream stays strictly increasing.
        """
        return self.emit(
            message["type"],
            message.get("data") or {},
            ts=message.get("ts"),
            pid=message.get("pid"),
            drops=int(message.get("drops", 0) or 0),
        )


_bus = EventBus()

#: Fast-path guard mirrored from ``_bus.active``: every emit point reads
#: this one module attribute, keeping the no-sinks cost to ~one boolean.
_active = False

#: The worker-side :class:`QueueSink`, when forwarding is installed.
_worker_sink: Optional[QueueSink] = None


def _refresh_active() -> None:
    global _active
    _active = _bus.active


def bus() -> EventBus:
    """The process-wide event bus."""
    return _bus


def active() -> bool:
    """Whether any sink is attached (i.e. whether emitting does work)."""
    return _active


def emit(type_: str, **data: Any) -> None:
    """Emit one event on the global bus; a no-op with no sinks attached."""
    if _active:
        _bus.emit(type_, data)


def worker_drop_count() -> int:
    """Events this worker process dropped on a full forwarding queue."""
    sink = _worker_sink
    return sink.dropped if sink is not None else 0


def install_worker_forwarding(events_queue: Optional[Any]) -> None:
    """Reset this process's bus and forward its events over ``events_queue``.

    Called from the pool initializer in every worker: forked children
    inherit the parent's attached sinks (a JSONL sink's file handle,
    a ring buffer...), which must never see worker-side emissions
    directly -- so the bus is cleared first, then, when a queue is given,
    a :class:`QueueSink` plus a :class:`ResourceSampler` are installed.
    """
    global _worker_sink
    _bus.clear()
    _worker_sink = None
    if events_queue is not None:
        _worker_sink = _bus.attach(QueueSink(events_queue))
        _bus.sampler = ResourceSampler(resource_interval_s())


# -- parent-side pool helpers (keep repro.opc clock-free) ---------------------

def queue_max() -> int:
    """Bound of the worker->parent event queue (env-overridable)."""
    try:
        return max(1, int(os.environ.get(QUEUE_MAX_ENV, "")))
    except ValueError:
        return DEFAULT_QUEUE_MAX


def drain_queue(events_queue: Any, bus_obj: Optional[EventBus] = None) -> int:
    """Forward every queued worker message onto the bus; returns the count.

    Defensive against torn-down pools: a queue broken by a killed worker
    ends the drain instead of raising into the retry machinery.
    """
    target = bus_obj if bus_obj is not None else _bus
    drained = 0
    while True:
        try:
            message = events_queue.get_nowait()
        except _queue_mod.Empty:
            return drained
        except Exception:  # broken pipe after a worker kill
            return drained
        target.forward(message)
        drained += 1


def result_draining(
    future: Any,
    timeout_s: Optional[float],
    events_queue: Optional[Any],
    poll_s: float = 0.05,
) -> Any:
    """``future.result(timeout_s)`` that drains worker events while waiting.

    With no queue this is exactly ``future.result``; with one, the wait
    is chopped into ``poll_s`` laps with a queue drain between laps, so
    events stream to the parent's sinks *during* tile execution instead
    of arriving in one burst at completion.  Honors the overall
    ``timeout_s`` deadline and re-raises the future's own exceptions
    (including ``concurrent.futures.TimeoutError``) unchanged.
    """
    from concurrent.futures import TimeoutError as _FutureTimeout

    if events_queue is None:
        return future.result(timeout=timeout_s)
    deadline = None if timeout_s is None else perf_counter() + timeout_s
    while True:
        drain_queue(events_queue)
        if deadline is None:
            wait_s = poll_s
        else:
            wait_s = min(poll_s, deadline - perf_counter())
            if wait_s <= 0:
                # Deadline passed: one final non-blocking check, then the
                # timeout propagates like a plain future.result would.
                result = future.result(timeout=0)
                drain_queue(events_queue)
                return result
        try:
            result = future.result(timeout=wait_s)
        except _FutureTimeout:
            continue
        drain_queue(events_queue)
        return result


class PoolProgress:
    """Parent-side progress/ETA telemetry over one tiled correction.

    Owns every clock read the pool needs (keeping ``repro.opc``
    deterministic under lint rule R001) and every ``tile.scheduled`` /
    ``tile.retry`` / ``tile.failed`` / ``progress`` emission.  The ETA
    is ``remaining * EWMA(per-tile wall time) / n_workers``, with the
    per-tile time estimated from completion intervals scaled by worker
    count.  All methods are cheap no-ops while the bus has no sinks.
    """

    def __init__(self, total: int, n_workers: int = 1, alpha: float = 0.3):
        self.total = total
        self.n_workers = max(1, n_workers)
        self.alpha = alpha
        self.done = 0
        self.retries = 0
        self.failures = 0
        self.fallbacks = 0
        self.ewma_tile_s: Optional[float] = None
        self._last_done_at = perf_counter()

    def scheduled(self, index: int, tile: Any = None) -> None:
        if not _active:
            return
        data: Dict[str, Any] = {"index": index}
        if tile is not None:
            data.update(x1=tile.x1, y1=tile.y1, x2=tile.x2, y2=tile.y2)
        _bus.emit("tile.scheduled", data)

    def retry(self, index: int, attempt: int, reason: str = "") -> None:
        if not _active:
            return
        self.retries += 1
        _bus.emit(
            "tile.retry",
            {"index": index, "attempt": attempt, "reason": reason[:200]},
        )

    def failed(self, index: int, reason: str = "", fallback: bool = False) -> None:
        if not _active:
            return
        self.failures += 1
        if fallback:
            self.fallbacks += 1
        _bus.emit(
            "tile.failed",
            {
                "index": index,
                "final": True,
                "fallback": fallback,
                "reason": reason[:200],
            },
        )

    def tile_done(self, index: int) -> None:
        if not _active:
            return
        self.done += 1
        now = perf_counter()
        per_tile_s = (now - self._last_done_at) * self.n_workers
        self._last_done_at = now
        if self.ewma_tile_s is None:
            self.ewma_tile_s = per_tile_s
        else:
            self.ewma_tile_s = (
                self.alpha * per_tile_s + (1.0 - self.alpha) * self.ewma_tile_s
            )
        remaining = max(self.total - self.done, 0)
        eta_s = (
            remaining * self.ewma_tile_s / self.n_workers
            if self.ewma_tile_s is not None
            else None
        )
        _bus.emit(
            "progress",
            {
                "done": self.done,
                "total": self.total,
                "pct": round(100.0 * self.done / self.total, 1)
                if self.total
                else 100.0,
                "eta_s": round(eta_s, 3) if eta_s is not None else None,
                "ewma_tile_s": round(self.ewma_tile_s, 4)
                if self.ewma_tile_s is not None
                else None,
                "retries": self.retries,
                "failures": self.failures,
                "fallbacks": self.fallbacks,
            },
        )


# -- run scoping --------------------------------------------------------------

class RunEvents:
    """Handle yielded by :func:`run_scope`: the run's captured events."""

    def __init__(self, label: str):
        self.label = label
        self.wall_s = 0.0
        self._ring: Optional[RingBufferSink] = None

    @property
    def captured(self) -> bool:
        """Whether this scope recorded the run's event stream."""
        return self._ring is not None

    @property
    def events(self) -> List[Dict[str, Any]]:
        return self._ring.events if self._ring is not None else []

    def progress_summary(self) -> Optional[Dict[str, Any]]:
        """The deterministic final-progress digest of the captured stream.

        Exactly what a ``repro watch --replay`` of the persisted log
        reproduces; ``None`` when nothing was captured.
        """
        if self._ring is None:
            return None
        tracker = ProgressTracker()
        tracker.consume_all(self._ring.events)
        return tracker.summary()


_run_depth = 0


def _ledger_capture_enabled() -> bool:
    # Lazy sibling import: runs.py does not import this module, so the
    # dependency edge stays one-way at import time.
    from .runs import auto_enabled

    return auto_enabled()


@contextmanager
def run_scope(
    label: str,
    capture: bool = True,
    force: bool = False,
    capacity: int = 200_000,
) -> Iterator[RunEvents]:
    """Bracket one flow invocation with ``run.start`` / ``run.end``.

    Only the outermost scope emits (a ``correct`` nested inside a
    ``tapeout`` adds nothing), and only when events are flowing: a sink
    is already attached, the run ledger is auto-recording (so the stream
    can be persisted for replay), or ``force`` is set by a caller that
    will persist the capture itself.  The yielded :class:`RunEvents`
    exposes the captured stream and its progress digest for
    :func:`repro.obs.runs.record_run`.
    """
    global _run_depth
    handle = RunEvents(label)
    outermost = _run_depth == 0
    emitting = outermost and (_active or force or _ledger_capture_enabled())
    if emitting and capture:
        handle._ring = _bus.attach(RingBufferSink(capacity))
    _run_depth += 1
    started = perf_counter()
    if emitting:
        _bus.emit("run.start", {"label": label})
    try:
        yield handle
    finally:
        _run_depth -= 1
        handle.wall_s = perf_counter() - started
        if emitting:
            _bus.emit("run.end", {"label": label, "wall_s": round(handle.wall_s, 6)})
            if handle._ring is not None:
                _bus.detach(handle._ring)


# -- validation ---------------------------------------------------------------

def validate_event(
    event: Any, prev_seq: Optional[int] = None
) -> int:
    """Check one event against ``repro-event/1``; returns its ``seq``.

    Raises :class:`~repro.errors.ReproError` naming the first violation.
    ``prev_seq`` additionally enforces strictly increasing sequence
    numbers across a stream.
    """
    if not isinstance(event, dict):
        raise ReproError(f"event is not an object: {type(event).__name__}")
    unknown = set(event) - _TOP_LEVEL_KEYS
    if unknown:
        raise ReproError(f"unknown event key(s): {sorted(unknown)}")
    if event.get("schema") != EVENT_SCHEMA:
        raise ReproError(
            f"unsupported event schema {event.get('schema')!r} "
            f"(expected {EVENT_SCHEMA})"
        )
    type_ = event.get("type")
    if type_ not in EVENT_TYPES:
        raise ReproError(f"unknown event type {type_!r}")
    seq = event.get("seq")
    if not isinstance(seq, int) or isinstance(seq, bool) or seq < 0:
        raise ReproError(f"event seq must be a non-negative integer, got {seq!r}")
    if prev_seq is not None and seq <= prev_seq:
        raise ReproError(
            f"sequence numbers must be strictly increasing: {seq} after {prev_seq}"
        )
    ts = event.get("ts")
    if not isinstance(ts, (int, float)) or isinstance(ts, bool):
        raise ReproError(f"event ts must be a number, got {ts!r}")
    pid = event.get("pid")
    if not isinstance(pid, int) or isinstance(pid, bool) or pid < 0:
        raise ReproError(f"event pid must be a non-negative integer, got {pid!r}")
    if not isinstance(event.get("data"), dict):
        raise ReproError("event data must be an object")
    drops = event.get("drops", 0)
    if not isinstance(drops, int) or isinstance(drops, bool) or drops < 0:
        raise ReproError(f"event drops must be a non-negative integer, got {drops!r}")
    return seq


def validate_events(events: Sequence[Dict[str, Any]]) -> int:
    """Validate a whole stream (schema + monotone seq); returns the count."""
    prev: Optional[int] = None
    count = 0
    for event in events:
        prev = validate_event(event, prev)
        count += 1
    return count


# -- progress folding ---------------------------------------------------------

class ProgressTracker:
    """Fold a ``repro-event/1`` stream into the live progress state.

    Purely a function of the consumed events (no clock reads), so the
    :meth:`summary` of a replayed persisted log is byte-identical to the
    one captured live -- the property ``repro watch --replay`` asserts.
    """

    def __init__(self) -> None:
        self.run_label: Optional[str] = None
        self.run_wall_s: Optional[float] = None
        self.run_ended = False
        self.phase: Optional[str] = None
        self.phases: List[str] = []
        self.tiles_done = 0
        self.retries = 0
        self.failures = 0
        self.fallbacks = 0
        self.eta_s: Optional[float] = None
        self.ewma_tile_s: Optional[float] = None
        self.iterations = 0
        self.worst_max_epe_nm: Optional[float] = None
        self.last_rms_epe_nm: Optional[float] = None
        self.workers: Dict[int, Dict[str, Any]] = {}
        self.events_seen = 0
        self.dropped = 0
        self.last_seq: Optional[int] = None
        self.seq_monotonic = True
        self._scheduled: set = set()
        self._progress_total = 0
        self._tile_done_events = 0

    @property
    def tiles_total(self) -> int:
        return max(self._progress_total, len(self._scheduled))

    def consume(self, event: Dict[str, Any]) -> None:
        seq = event.get("seq")
        if isinstance(seq, int):
            if self.last_seq is not None and seq <= self.last_seq:
                self.seq_monotonic = False
            self.last_seq = seq
        self.events_seen += 1
        self.dropped += int(event.get("drops", 0) or 0)
        type_ = event.get("type")
        data = event.get("data") or {}
        if type_ == "run.start":
            self.run_label = data.get("label")
        elif type_ == "run.end":
            self.run_ended = True
            self.run_wall_s = data.get("wall_s")
        elif type_ == "phase.start":
            self.phase = data.get("name")
        elif type_ == "phase.end":
            name = data.get("name")
            if name:
                self.phases.append(name)
            if self.phase == name:
                self.phase = None
        elif type_ == "tile.scheduled":
            self._scheduled.add(data.get("index"))
        elif type_ == "tile.done":
            self._tile_done_events += 1
            self.tiles_done = max(self.tiles_done, self._tile_done_events)
        elif type_ == "tile.retry":
            self.retries += 1
        elif type_ == "tile.failed":
            if data.get("final"):
                self.failures += 1
                if data.get("fallback"):
                    self.fallbacks += 1
        elif type_ == "progress":
            self.tiles_done = max(self.tiles_done, int(data.get("done") or 0))
            self._progress_total = max(
                self._progress_total, int(data.get("total") or 0)
            )
            self.eta_s = data.get("eta_s")
            self.ewma_tile_s = data.get("ewma_tile_s")
            # The pool's counters and the per-event tallies describe the
            # same facts; "max" keeps them from double counting.
            self.retries = max(self.retries, int(data.get("retries") or 0))
            self.failures = max(self.failures, int(data.get("failures") or 0))
            self.fallbacks = max(self.fallbacks, int(data.get("fallbacks") or 0))
        elif type_ == "opc.iteration":
            self.iterations += 1
            rms = data.get("rms_epe_nm")
            if rms is not None:
                self.last_rms_epe_nm = rms
            worst = data.get("max_epe_nm")
            if worst is not None and (
                self.worst_max_epe_nm is None or worst > self.worst_max_epe_nm
            ):
                self.worst_max_epe_nm = worst
        elif type_ == "worker.resource":
            self.workers[int(event.get("pid") or 0)] = {
                "cpu_percent": data.get("cpu_percent"),
                "rss_bytes": data.get("rss_bytes"),
            }

    def consume_all(self, events: Sequence[Dict[str, Any]]) -> None:
        for event in events:
            self.consume(event)

    def summary(self) -> Dict[str, Any]:
        """Deterministic digest of everything consumed so far.

        Stored as a :class:`~repro.obs.runs.RunRecord`'s ``progress``
        field (schema ``repro-run/1.3``) and reproduced exactly by a
        replay of the persisted event log.
        """
        return {
            "complete": self.run_ended,
            "dropped": self.dropped,
            "events": self.events_seen,
            "failures": self.failures,
            "fallbacks": self.fallbacks,
            "iterations": self.iterations,
            "last_rms_epe_nm": self.last_rms_epe_nm,
            "phases": list(self.phases),
            "retries": self.retries,
            "run_label": self.run_label,
            "run_wall_s": self.run_wall_s,
            "seq_monotonic": self.seq_monotonic,
            "tiles_done": self.tiles_done,
            "tiles_total": self.tiles_total,
            "workers": len(self.workers),
            "worst_max_epe_nm": self.worst_max_epe_nm,
        }


# Re-exported so watch.py can sleep without importing time directly.
_sleep = sleep
