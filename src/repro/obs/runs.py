"""Persistent run ledger: record, diff and regression-gate instrumented runs.

The paper's argument is about *trajectories* -- OPC adoption multiplies
runtime, mask data volume and figure counts node over node -- and a
single process's trace (:mod:`repro.obs.trace`) cannot show a trajectory.
This module persists every instrumented run so the next one has a
baseline:

* :class:`RunRecord` -- one run: id, UTC timestamp, git revision, a
  stable *config fingerprint* (node, recipes, litho config, CLI args),
  the span tree and metric snapshot from :mod:`repro.obs`, and
  first-class quality metrics (EPE RMS/max, mask figure count and data
  volume, MRC/ORC verdicts, tile retry/fallback counters, ...).
* :class:`RunLedger` -- an append-only store of schema-versioned JSONL
  (``repro-run/1``) under ``.repro-runs/`` (or ``$REPRO_RUNS_DIR``) with
  a sidecar index for cheap listing.
* :func:`diff_runs` / :func:`diff_markdown` -- per-span-path wall-time
  deltas plus per-metric and per-quality deltas between two records.
* :class:`RegressionPolicy` / :class:`RegressionReport` -- the
  thresholds and the verdict of the one regression gate,
  :func:`repro.obs.analyze.gate`; ``repro runs check`` exits non-zero on
  failure so CI can gate on it.
* :func:`dashboard_html` -- a self-contained HTML dashboard with
  per-stage bars for the latest run and run-history sparklines.

Quality metric conventions: any counter or gauge named ``quality.<key>``
in the metric snapshot is lifted into the record's quality dict under
``<key>`` -- benchmarks use this to publish derived numbers such as
``quality.lineend_pullback_nm`` or ``quality.pw_area`` without this
module knowing about them.  Keys in :data:`HIGHER_IS_BETTER` regress
when they *drop*; everything else regresses when it grows.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import uuid
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
)

from ..errors import ReproError
from .export import span_to_dict
from .metrics import registry as _global_registry
from .spatial import canonical_spatial, hotspot_svg
from .trace import Span

#: Version stamp of the run-record schema.  ``1.1`` added the optional
#: ``spatial`` payload (hotspot grids, worst sites, per-tile convergence);
#: ``1.2`` added the optional ``preflight`` summary (static lint verdict
#: recorded by the flow gates); ``1.3`` added the optional ``events_path``
#: (persisted ``repro-event/1`` stream, relative to the ledger root) and
#: ``progress`` (final live-progress digest) so any ledgered run can be
#: replayed with ``repro watch --replay``; ``1.4`` added the optional
#: ``profile`` summary (:func:`repro.obs.prof.profile_summary`: top
#: sampled frames, per-span ``cpu_s``/``wall_s``, peak RSS) plus its
#: lifted quality gauges so ``runs diff``/``check`` gate on CPU time and
#: peak memory, not just wall clock; ``1.5`` added the optional ``mrc``
#: summary (postflight mask-rule verdict: violation counts by rule,
#: capped localized markers, and the VSB shot/vertex/figure estimate,
#: see :meth:`repro.verify.mrc.MRCReport.summary_dict`) whose
#: ``mrc_violations`` / ``mask_shot_count`` gauges land in quality so
#: ``runs check`` gates mask manufacturability.  All changes are purely
#: additive, so older records still load.
RUN_SCHEMA = "repro-run/1.5"

#: Every schema revision :meth:`RunRecord.from_dict` accepts.
SUPPORTED_SCHEMAS = (
    "repro-run/1", "repro-run/1.1", "repro-run/1.2", "repro-run/1.3",
    "repro-run/1.4", "repro-run/1.5",
)

#: Environment variable naming the store directory (also the auto-record
#: switch for :func:`auto_enabled`).
RUNS_DIR_ENV = "REPRO_RUNS_DIR"

#: Store directory used when the environment names none.
DEFAULT_STORE_DIR = ".repro-runs"

#: Quality keys where a *drop* (not growth) is the regression.
HIGHER_IS_BETTER = frozenset(
    {
        "mrc_clean",
        "orc_clean",
        "opc_converged",
        "pw_area",
        "process_window_area",
        "tiles_converged",
    }
)

#: Parallel-OPC counters lifted into every record's quality dict.
_TILE_COUNTERS = {
    "opc.tile_retries": "tile_retries",
    "opc.tile_failures": "tile_failures",
    "opc.tile_fallbacks": "tile_fallbacks",
}

_RUNS_FILE = "runs.jsonl"
_INDEX_FILE = "index.jsonl"


# -- config fingerprinting ----------------------------------------------------

def canonical_config(value: Any) -> Any:
    """``value`` reduced to plain, deterministic JSON-ready data.

    Dataclasses become field dicts, enums their values, numpy arrays and
    scalars plain lists/numbers, mappings get sorted string keys; anything
    else falls back to ``str``.  Two equal configs canonicalise to equal
    data in any process, which is what makes fingerprints stable across
    restarts.
    """
    if is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: canonical_config(getattr(value, f.name))
            for f in fields(value)
        }
    if isinstance(value, Enum):
        return canonical_config(value.value)
    if isinstance(value, dict):
        return {
            str(key): canonical_config(value[key])
            for key in sorted(value, key=str)
        }
    if isinstance(value, (list, tuple, set, frozenset)):
        items = sorted(value, key=str) if isinstance(value, (set, frozenset)) else value
        return [canonical_config(item) for item in items]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if hasattr(value, "tolist"):  # numpy arrays and scalars
        return canonical_config(value.tolist())
    return str(value)


def config_fingerprint(config: Any) -> str:
    """A short stable hash identifying one run configuration."""
    blob = json.dumps(
        canonical_config(config), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


_git_rev_cache: Union[str, None, bool] = False  # False = not probed yet


def git_revision() -> Optional[str]:
    """The repo's short HEAD revision, or ``None`` outside a checkout."""
    global _git_rev_cache
    if _git_rev_cache is False:
        try:
            probe = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=5, check=True,
            )
            _git_rev_cache = probe.stdout.strip() or None
        except Exception:
            _git_rev_cache = None
    return _git_rev_cache


# -- span-path timing ---------------------------------------------------------

@dataclass(frozen=True)
class SpanTiming:
    """Aggregated wall time of every span sharing one tree path."""

    calls: int
    total_s: float


def span_path_times(spans: Sequence[Dict[str, Any]]) -> Dict[str, SpanTiming]:
    """``{"tapeout/tapeout.correct/...": SpanTiming}`` over span dicts.

    Same-path spans (tiles, iterations) aggregate into one entry, the
    same rollup the markdown span table uses; insertion order is the
    pre-order walk, so it is deterministic for a deterministic pipeline.
    """
    acc: Dict[str, List[float]] = {}

    def visit(node: Dict[str, Any], prefix: str) -> None:
        path = f"{prefix}/{node['name']}" if prefix else node["name"]
        entry = acc.setdefault(path, [0, 0.0])
        entry[0] += 1
        entry[1] += float(node["duration_s"])
        for child in node.get("children", []):
            visit(child, path)

    for root in spans:
        visit(root, "")
    return {
        path: SpanTiming(int(calls), total) for path, (calls, total) in acc.items()
    }


def flatten_metrics(snapshot: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Deterministic scalars from a metric snapshot.

    Counters and gauges flatten to their value; histograms contribute
    only their observation *count* (``name.count``) -- histogram sums of
    runtimes are wall-clock noise and belong with the span deltas, while
    counts (tiles corrected, images simulated) are exactly reproducible.
    """
    out: Dict[str, Any] = {}
    for name in sorted(snapshot):
        record = snapshot[name]
        kind = record.get("kind")
        if kind in ("counter", "gauge"):
            out[name] = record["value"]
        elif kind == "histogram":
            out[f"{name}.count"] = record["count"]
    return out


def quality_from_metrics(snapshot: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """Quality keys published through the registry (``quality.*`` metrics)."""
    out: Dict[str, Any] = {}
    for name in sorted(snapshot):
        record = snapshot[name]
        if record.get("kind") not in ("counter", "gauge"):
            continue
        if record["value"] is None:
            continue
        if name.startswith("quality."):
            out[name[len("quality."):]] = record["value"]
        elif name in _TILE_COUNTERS:
            out[_TILE_COUNTERS[name]] = record["value"]
    return out


# -- run records --------------------------------------------------------------

@dataclass
class RunRecord:
    """One persisted instrumented run."""

    run_id: str
    timestamp: str
    git_rev: Optional[str]
    label: str
    fingerprint: str
    config: Dict[str, Any]
    wall_s: float
    spans: List[Dict[str, Any]]
    metrics: Dict[str, Dict[str, Any]]
    quality: Dict[str, Any]
    spatial: Optional[Dict[str, Any]] = None
    #: Summary of the static preflight (``repro.lint``) that gated this
    #: run: ``{"ok", "errors", "warnings", "info", "codes"}`` (schema 1.2).
    preflight: Optional[Dict[str, Any]] = None
    #: Ledger-root-relative path of the run's persisted ``repro-event/1``
    #: stream, when live telemetry was captured (schema 1.3).
    events_path: Optional[str] = None
    #: Final progress digest of the captured event stream
    #: (:meth:`repro.obs.events.ProgressTracker.summary`; schema 1.3).
    progress: Optional[Dict[str, Any]] = None
    #: Sampled-profile summary (:func:`repro.obs.prof.profile_summary`:
    #: top frames, per-span cpu_s/wall_s, peak RSS; schema 1.4).
    profile: Optional[Dict[str, Any]] = None
    #: Postflight MRC summary (:meth:`repro.verify.mrc.MRCReport
    #: .summary_dict`: counts by rule, capped localized markers, shot
    #: estimate; schema 1.5).
    mrc: Optional[Dict[str, Any]] = None
    schema: str = RUN_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        data = {
            "schema": self.schema,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "git_rev": self.git_rev,
            "label": self.label,
            "fingerprint": self.fingerprint,
            "config": self.config,
            "wall_s": self.wall_s,
            "spans": self.spans,
            "metrics": self.metrics,
            "quality": self.quality,
        }
        if self.spatial is not None:
            data["spatial"] = self.spatial
        if self.preflight is not None:
            data["preflight"] = self.preflight
        if self.events_path is not None:
            data["events_path"] = self.events_path
        if self.progress is not None:
            data["progress"] = self.progress
        if self.profile is not None:
            data["profile"] = self.profile
        if self.mrc is not None:
            data["mrc"] = self.mrc
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunRecord":
        schema = data.get("schema")
        if schema not in SUPPORTED_SCHEMAS:
            raise ReproError(
                f"unsupported run-record schema {schema!r} "
                f"(supported: {', '.join(SUPPORTED_SCHEMAS)})"
            )
        return cls(
            run_id=data["run_id"],
            timestamp=data["timestamp"],
            git_rev=data.get("git_rev"),
            label=data.get("label", ""),
            fingerprint=data["fingerprint"],
            config=data.get("config", {}),
            wall_s=float(data.get("wall_s", 0.0)),
            spans=data.get("spans", []),
            metrics=data.get("metrics", {}),
            quality=data.get("quality", {}),
            spatial=data.get("spatial"),
            preflight=data.get("preflight"),
            events_path=data.get("events_path"),
            progress=data.get("progress"),
            profile=data.get("profile"),
            mrc=data.get("mrc"),
            schema=schema,
        )

    def span_times(self) -> Dict[str, SpanTiming]:
        """Aggregated per-path wall times of this record's span trees."""
        return span_path_times(self.spans)

    def canonical_dict(self) -> Dict[str, Any]:
        """The record with every volatile field stripped.

        Drops run id, timestamp, git revision and all wall-clock values
        (span timings, ``*_s`` quality keys, histogram sums); what is
        left must be byte-identical between two runs of the same config,
        which is what the determinism tests assert.
        """
        def strip_span(node: Dict[str, Any]) -> Dict[str, Any]:
            return {
                "name": node["name"],
                "attrs": node.get("attrs", {}),
                "children": [strip_span(c) for c in node.get("children", [])],
            }

        canonical = {
            "schema": self.schema,
            "label": self.label,
            "fingerprint": self.fingerprint,
            "config": self.config,
            "spans": [strip_span(root) for root in self.spans],
            "metrics": flatten_metrics(self.metrics),
            # Drop wall/CPU seconds (``*_s``) and the RSS high-water:
            # both vary run to run even at identical configs.
            "quality": {
                key: value
                for key, value in sorted(self.quality.items())
                if not key.endswith("_s") and key != "peak_rss_bytes"
            },
        }
        if self.spatial is not None:
            canonical["spatial"] = canonical_spatial(self.spatial)
        if self.preflight is not None:
            canonical["preflight"] = self.preflight
        if self.mrc is not None:
            canonical["mrc"] = self.mrc
        return canonical

    def canonical_json(self) -> str:
        """Deterministic JSON of :meth:`canonical_dict`."""
        return json.dumps(self.canonical_dict(), sort_keys=True, indent=1)


def new_record(
    label: str,
    config: Any,
    roots: Sequence[Union[Span, Dict[str, Any]]],
    metrics: Optional[Dict[str, Dict[str, Any]]] = None,
    quality: Optional[Dict[str, Any]] = None,
    spatial: Optional[Dict[str, Any]] = None,
    preflight: Optional[Dict[str, Any]] = None,
    profile: Optional[Dict[str, Any]] = None,
    mrc: Optional[Dict[str, Any]] = None,
    run_id: Optional[str] = None,
    timestamp: Optional[str] = None,
    git_rev: Union[str, None, bool] = True,
) -> RunRecord:
    """Build a :class:`RunRecord` from captured spans and metrics.

    ``metrics`` defaults to the global registry's snapshot (which still
    holds a run's metrics right after :func:`repro.obs.capture` exits).
    ``spatial`` is the hotspot payload from
    :func:`repro.obs.spatial.spatial_summary`, when the caller built one.
    ``profile`` is a sampled-profile summary
    (:func:`repro.obs.prof.profile_summary`); its CPU totals, per-span
    CPU seconds and peak RSS are lifted into the quality dict as
    ``cpu_total_s`` / ``cpu.<span>_s`` / ``peak_rss_bytes`` gauges so
    ``runs check`` can gate on them.
    ``mrc`` is the postflight summary
    (:meth:`repro.verify.mrc.MRCReport.summary_dict`); its violation
    count and fracture shot estimate are lifted into quality as
    ``mrc_violations`` / ``mask_shot_count`` so ``runs check`` gates
    mask manufacturability too.
    ``git_rev=True`` probes the repository; pass ``None`` to skip.
    """
    span_dicts = [
        span_to_dict(root) if isinstance(root, Span) else root for root in roots
    ]
    snapshot = metrics if metrics is not None else _global_registry().snapshot()
    merged_quality = dict(quality or {})
    merged_quality.update(quality_from_metrics(snapshot))
    if profile is not None:
        if "cpu_total_s" in profile:
            merged_quality["cpu_total_s"] = profile["cpu_total_s"]
        for span_name, cpu_s in (profile.get("cpu_s") or {}).items():
            merged_quality[f"cpu.{span_name}_s"] = cpu_s
        if profile.get("peak_rss_bytes"):
            merged_quality["peak_rss_bytes"] = profile["peak_rss_bytes"]
    if mrc is not None:
        merged_quality.setdefault("mrc_violations", mrc.get("violations", 0))
        if mrc.get("shot_count") is not None:
            merged_quality.setdefault("mask_shot_count", mrc["shot_count"])
    return RunRecord(
        run_id=run_id or uuid.uuid4().hex[:12],
        timestamp=timestamp
        or datetime.now(timezone.utc).isoformat(timespec="seconds"),
        git_rev=git_revision() if git_rev is True else git_rev,
        label=label,
        fingerprint=config_fingerprint(config),
        config=canonical_config(config),
        wall_s=sum(float(d["duration_s"]) for d in span_dicts),
        spans=span_dicts,
        metrics=snapshot,
        quality=merged_quality,
        spatial=spatial,
        preflight=preflight,
        profile=profile,
        mrc=mrc,
    )


# -- the ledger ---------------------------------------------------------------

@dataclass(frozen=True)
class RunIndexEntry:
    """One cheap-to-list row of the ledger index."""

    run_id: str
    timestamp: str
    label: str
    fingerprint: str
    wall_s: float
    offset: int

    def to_dict(self) -> Dict[str, Any]:
        return {
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "label": self.label,
            "fingerprint": self.fingerprint,
            "wall_s": self.wall_s,
            "offset": self.offset,
        }


class RunLedger:
    """Append-only JSONL store of run records plus a listing index.

    ``<root>/runs.jsonl`` holds one full record per line; the sidecar
    ``<root>/index.jsonl`` mirrors it with one summary line (including
    the byte offset of the full record) so ``list`` never parses span
    trees.  A missing or stale index is rebuilt from the runs file.
    """

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root)

    @property
    def runs_path(self) -> Path:
        return self.root / _RUNS_FILE

    @property
    def index_path(self) -> Path:
        return self.root / _INDEX_FILE

    def __len__(self) -> int:
        return len(self.entries())

    def append(self, record: RunRecord) -> RunIndexEntry:
        """Persist ``record`` and return its index entry."""
        self.root.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), sort_keys=True)
        # Binary append: index offsets are byte offsets, never text cookies.
        with open(self.runs_path, "ab") as handle:
            offset = handle.tell()
            handle.write(line.encode("utf-8") + b"\n")
        entry = RunIndexEntry(
            run_id=record.run_id,
            timestamp=record.timestamp,
            label=record.label,
            fingerprint=record.fingerprint,
            wall_s=record.wall_s,
            offset=offset,
        )
        with open(self.index_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry.to_dict(), sort_keys=True) + "\n")
        return entry

    def entries(
        self,
        label: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> List[RunIndexEntry]:
        """Every index entry in append order, optionally filtered."""
        if not self.runs_path.exists():
            return []
        if not self.index_path.exists():
            self._rebuild_index()
        out: List[RunIndexEntry] = []
        with open(self.index_path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    data = json.loads(line)
                except json.JSONDecodeError:
                    # A corrupt index is recoverable: rebuild it from the
                    # runs file and start the listing over.  (The rebuild
                    # raises if runs.jsonl itself is corrupt, and writes
                    # only valid JSON otherwise, so this terminates.)
                    self._rebuild_index()
                    return self.entries(label=label, fingerprint=fingerprint)
                entry = RunIndexEntry(
                    run_id=data["run_id"],
                    timestamp=data["timestamp"],
                    label=data.get("label", ""),
                    fingerprint=data["fingerprint"],
                    wall_s=float(data.get("wall_s", 0.0)),
                    offset=int(data["offset"]),
                )
                if label is not None and entry.label != label:
                    continue
                if fingerprint is not None and entry.fingerprint != fingerprint:
                    continue
                out.append(entry)
        return out

    def _rebuild_index(self) -> None:
        with open(self.runs_path, "rb") as runs, open(
            self.index_path, "w", encoding="utf-8"
        ) as index:
            offset = 0
            for lineno, line in enumerate(runs, start=1):
                stripped = line.strip()
                if stripped:
                    try:
                        data = json.loads(stripped.decode("utf-8"))
                    except (json.JSONDecodeError, UnicodeDecodeError) as error:
                        raise ReproError(
                            f"run ledger {self.root} is corrupt: "
                            f"runs.jsonl line {lineno} is not valid JSON "
                            f"({error})"
                        ) from None
                    entry = {
                        "run_id": data["run_id"],
                        "timestamp": data["timestamp"],
                        "label": data.get("label", ""),
                        "fingerprint": data["fingerprint"],
                        "wall_s": float(data.get("wall_s", 0.0)),
                        "offset": offset,
                    }
                    index.write(json.dumps(entry, sort_keys=True) + "\n")
                offset += len(line)

    def load_entry(self, entry: RunIndexEntry) -> RunRecord:
        """The full record behind one index entry (seeks, parses one line)."""
        with open(self.runs_path, "rb") as handle:
            handle.seek(entry.offset)
            raw = handle.readline()
        try:
            record = RunRecord.from_dict(json.loads(raw.decode("utf-8")))
        except (json.JSONDecodeError, UnicodeDecodeError):
            # A stale offset landing mid-line looks like corruption;
            # rebuild (which raises if the runs file really is corrupt)
            # and retry through the fresh index.
            self._rebuild_index()
            return self.load(entry.run_id)
        if record.run_id != entry.run_id:
            # The index went stale (hand-edited store); rebuild and retry.
            self._rebuild_index()
            return self.load(entry.run_id)
        return record

    def load(self, run_id: str) -> RunRecord:
        """The full record with exactly ``run_id``."""
        for entry in self.entries():
            if entry.run_id == run_id:
                return self.load_entry(entry)
        raise ReproError(f"run {run_id!r} not found in {self.root}")

    def records(self, entries: Optional[Sequence[RunIndexEntry]] = None) -> Iterator[RunRecord]:
        """Full records for ``entries`` (default: every run, append order)."""
        for entry in entries if entries is not None else self.entries():
            yield self.load_entry(entry)

    def resolve(
        self,
        ref: str,
        label: Optional[str] = None,
        fingerprint: Optional[str] = None,
    ) -> RunIndexEntry:
        """An index entry for a run reference.

        ``last`` (or ``latest``) is the newest matching run, ``prev`` the
        one before it, ``last~N`` counts N back from the newest; anything
        else must be a unique run-id prefix.
        """
        entries = self.entries(label=label, fingerprint=fingerprint)
        if not entries:
            raise ReproError(f"run ledger {self.root} has no matching runs")
        ref = ref.strip()
        back: Optional[int] = None
        if ref in ("last", "latest"):
            back = 0
        elif ref == "prev":
            back = 1
        elif ref.startswith("last~"):
            try:
                back = int(ref[len("last~"):])
            except ValueError:
                raise ReproError(f"bad run reference {ref!r}") from None
        if back is not None:
            if back >= len(entries):
                raise ReproError(
                    f"run reference {ref!r} reaches past the "
                    f"{len(entries)} recorded run(s)"
                )
            return entries[-1 - back]
        matches = [e for e in entries if e.run_id.startswith(ref)]
        if len(matches) == 1:
            return matches[0]
        if not matches:
            raise ReproError(f"no run matches {ref!r} in {self.root}")
        raise ReproError(
            f"run reference {ref!r} is ambiguous "
            f"({', '.join(e.run_id for e in matches)})"
        )


def store_dir() -> str:
    """The active store directory (``$REPRO_RUNS_DIR`` or the default)."""
    return os.environ.get(RUNS_DIR_ENV) or DEFAULT_STORE_DIR


def ledger(root: Optional[Union[str, Path]] = None) -> RunLedger:
    """A ledger over ``root`` (default: :func:`store_dir`)."""
    return RunLedger(root if root is not None else store_dir())


# -- auto-recording -----------------------------------------------------------

_suppressed = False


@contextmanager
def suppress_auto_record() -> Iterator[None]:
    """Disable flow-level auto-recording for the ``with`` body.

    Used by callers that record one aggregate run themselves (the CLI's
    ``profile --record``, the benchmark fixture) so a tapeout inside the
    block does not append a second, inner record.
    """
    global _suppressed
    prior = _suppressed
    _suppressed = True
    try:
        yield
    finally:
        _suppressed = prior


def auto_enabled() -> bool:
    """Whether flows should append records on their own.

    True only when the environment names a store (``REPRO_RUNS_DIR``)
    and no caller is currently recording an enclosing run.
    """
    return bool(os.environ.get(RUNS_DIR_ENV)) and not _suppressed


def persist_run_events(
    root: Union[str, Path],
    record: RunRecord,
    events: Sequence[Dict[str, Any]],
    progress: Optional[Dict[str, Any]] = None,
) -> Path:
    """Write a run's event stream next to the ledger and stamp the record.

    The stream lands in ``<root>/events/<run_id>.jsonl`` (one
    ``sort_keys`` JSON line per event, the same bytes a live
    :class:`~repro.obs.events.JsonlSink` writes), and the record gets its
    schema-1.3 ``events_path`` / ``progress`` fields -- so call this
    *before* appending the record.  Returns the written path.
    """
    root = Path(root)
    events_dir = root / "events"
    events_dir.mkdir(parents=True, exist_ok=True)
    path = events_dir / f"{record.run_id}.jsonl"
    with open(path, "w", encoding="utf-8") as handle:
        for event in events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    record.events_path = f"events/{record.run_id}.jsonl"
    record.progress = progress
    return path


def record_run(
    label: str,
    config: Any,
    roots: Sequence[Union[Span, Dict[str, Any]]],
    quality: Optional[Dict[str, Any]] = None,
    metrics: Optional[Dict[str, Dict[str, Any]]] = None,
    spatial: Optional[Dict[str, Any]] = None,
    preflight: Optional[Dict[str, Any]] = None,
    profile: Optional[Dict[str, Any]] = None,
    events: Optional[Any] = None,
    root_dir: Optional[Union[str, Path]] = None,
    mrc: Optional[Dict[str, Any]] = None,
) -> RunRecord:
    """Build a record and append it to the active store in one call.

    ``events`` is the :class:`~repro.obs.events.RunEvents` handle of the
    run's event scope, when one captured the live stream; it is persisted
    via :func:`persist_run_events` so the run can be replayed later.
    ``profile`` is the sampled-profile summary, when a profiler ran.
    ``mrc`` is the postflight mask-rule summary, when the gate ran.
    """
    record = new_record(
        label, config, roots, metrics=metrics, quality=quality,
        spatial=spatial, preflight=preflight, profile=profile, mrc=mrc,
    )
    led = ledger(root_dir)
    if events is not None and getattr(events, "captured", False):
        persist_run_events(
            led.root, record, events.events, events.progress_summary()
        )
    led.append(record)
    return record


# -- diffing ------------------------------------------------------------------

@dataclass(frozen=True)
class Delta:
    """One compared value between a baseline and a candidate run."""

    key: str
    base: Optional[float]
    cand: Optional[float]
    base_calls: Optional[int] = None
    cand_calls: Optional[int] = None

    @property
    def delta(self) -> Optional[float]:
        if self.base is None or self.cand is None:
            return None
        return self.cand - self.base

    @property
    def pct(self) -> Optional[float]:
        if self.base is None or self.cand is None or self.base == 0:
            return None
        return 100.0 * (self.cand - self.base) / self.base

    @property
    def changed(self) -> bool:
        return self.base != self.cand


@dataclass
class RunDiff:
    """Everything :func:`diff_runs` compares between two records."""

    base: RunRecord
    cand: RunRecord
    span_deltas: List[Delta]
    metric_deltas: List[Delta]
    quality_deltas: List[Delta]
    #: Distribution deltas (``<name>.mean`` / ``<name>.p95``) of every
    #: histogram either record carries; counts live in metric_deltas.
    histogram_deltas: List[Delta] = field(default_factory=list)

    @property
    def changed_metrics(self) -> List[Delta]:
        return [d for d in self.metric_deltas if d.changed]

    @property
    def changed_quality(self) -> List[Delta]:
        return [d for d in self.quality_deltas if d.changed]


def histogram_stats(record: Dict[str, Any]) -> Optional[Dict[str, float]]:
    """``{"mean", "p95"}`` of one snapshot histogram record, or ``None``.

    The p95 is bucket-resolution, mirroring
    :meth:`repro.obs.metrics.Histogram.quantile`: the upper bound of the
    bucket the rank falls in, the observed max for the overflow bucket.
    """
    if record.get("kind") != "histogram" or not record.get("count"):
        return None
    count = record["count"]
    rank = 0.95 * count
    seen = 0
    p95 = float(record["max"])
    for entry in record["buckets"]:
        seen += entry["count"]
        if seen >= rank and entry["count"]:
            if entry["le"] != "inf":
                p95 = float(entry["le"])
            break
    return {"mean": record["sum"] / count, "p95": p95}


def _histogram_deltas(base: RunRecord, cand: RunRecord) -> List[Delta]:
    names = sorted(
        {
            name
            for record in (base, cand)
            for name, entry in record.metrics.items()
            if entry.get("kind") == "histogram"
        }
    )
    out: List[Delta] = []
    for name in names:
        base_stats = histogram_stats(base.metrics.get(name, {}))
        cand_stats = histogram_stats(cand.metrics.get(name, {}))
        for stat in ("mean", "p95"):
            out.append(
                Delta(
                    key=f"{name}.{stat}",
                    base=base_stats[stat] if base_stats else None,
                    cand=cand_stats[stat] if cand_stats else None,
                )
            )
    return out


def diff_runs(base: RunRecord, cand: RunRecord) -> RunDiff:
    """Per-span-path wall-time deltas plus metric and quality deltas."""
    base_times, cand_times = base.span_times(), cand.span_times()
    paths = list(cand_times) + [p for p in base_times if p not in cand_times]
    span_deltas = [
        Delta(
            key=path,
            base=base_times[path].total_s if path in base_times else None,
            cand=cand_times[path].total_s if path in cand_times else None,
            base_calls=base_times[path].calls if path in base_times else None,
            cand_calls=cand_times[path].calls if path in cand_times else None,
        )
        for path in paths
    ]
    base_metrics = flatten_metrics(base.metrics)
    cand_metrics = flatten_metrics(cand.metrics)
    metric_deltas = [
        Delta(key, base_metrics.get(key), cand_metrics.get(key))
        for key in sorted(set(base_metrics) | set(cand_metrics))
    ]
    quality_deltas = [
        Delta(key, _num(base.quality.get(key)), _num(cand.quality.get(key)))
        for key in sorted(set(base.quality) | set(cand.quality))
    ]
    return RunDiff(
        base, cand, span_deltas, metric_deltas, quality_deltas,
        _histogram_deltas(base, cand),
    )


def _num(value: Any) -> Optional[float]:
    return float(value) if isinstance(value, (int, float)) else None


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return f"{value:.3f}"
    return str(int(value))


def diff_markdown(diff: RunDiff) -> str:
    """The ``repro runs diff`` comparison tables."""
    lines = [
        f"## run diff: {diff.base.run_id} ({diff.base.label}) -> "
        f"{diff.cand.run_id} ({diff.cand.label})",
        "",
        "### span wall time",
        "",
        "| span path | calls | base (s) | cand (s) | delta (s) | delta % |",
        "|---|---|---|---|---|---|",
    ]
    for d in diff.span_deltas:
        calls = (
            str(d.cand_calls)
            if d.base_calls == d.cand_calls
            else f"{_fmt(d.base_calls)} -> {_fmt(d.cand_calls)}"
        )
        pct = f"{d.pct:+.1f}%" if d.pct is not None else "-"
        delta = f"{d.delta:+.3f}" if d.delta is not None else "-"
        lines.append(
            f"| {d.key} | {calls} | {_fmt(d.base)} | {_fmt(d.cand)} "
            f"| {delta} | {pct} |"
        )
    lines += ["", "### metrics", ""]
    changed = diff.changed_metrics
    if not changed:
        lines.append("(no metric deltas)")
    else:
        lines += ["| metric | base | cand | delta |", "|---|---|---|---|"]
        for d in changed:
            delta = f"{d.delta:+g}" if d.delta is not None else "-"
            lines.append(
                f"| {d.key} | {_fmt(d.base)} | {_fmt(d.cand)} | {delta} |"
            )
    histograms = [
        d for d in diff.histogram_deltas
        if d.base is not None or d.cand is not None
    ]
    if histograms:
        lines += ["", "### histograms (distribution deltas)", "",
                  "| histogram stat | base | cand | delta | delta % |",
                  "|---|---|---|---|---|"]
        for d in histograms:
            delta = f"{d.delta:+.4g}" if d.delta is not None else "-"
            pct = f"{d.pct:+.1f}%" if d.pct is not None else "-"
            lines.append(
                f"| {d.key} | {_fmt(d.base)} | {_fmt(d.cand)} "
                f"| {delta} | {pct} |"
            )
    if diff.quality_deltas:
        lines += ["", "### quality", "",
                  "| quality | base | cand | delta |", "|---|---|---|---|"]
        for d in diff.quality_deltas:
            delta = f"{d.delta:+g}" if d.delta is not None else "-"
            lines.append(
                f"| {d.key} | {_fmt(d.base)} | {_fmt(d.cand)} | {delta} |"
            )
    return "\n".join(lines)


# -- regression gating --------------------------------------------------------

@dataclass(frozen=True)
class RegressionPolicy:
    """Fixed thresholds of :func:`repro.obs.analyze.gate`.

    A span regresses only when it clears *both* gates: slower than the
    baseline median by more than ``rel_threshold`` (fractional) *and* by
    more than ``abs_floor_s`` seconds -- the absolute floor is the noise
    floor that keeps microsecond spans from tripping the relative gate.
    Quality values use ``quality_rel_threshold`` (and flip direction for
    :data:`HIGHER_IS_BETTER` keys).  Each must be finite and >= 0: a
    negative threshold flags unchanged runs, a NaN one passes any run.
    """

    rel_threshold: float = 0.25
    abs_floor_s: float = 0.05
    quality_rel_threshold: float = 0.10

    def __post_init__(self) -> None:
        for name in ("rel_threshold", "abs_floor_s", "quality_rel_threshold"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # false for NaN too
                raise ReproError(
                    f"regression policy {name} must be a finite number >= 0, got {value!r}"
                )


@dataclass(frozen=True)
class Regression:
    """One gate finding (``severity="warn"`` demotes FAIL to WARN)."""

    kind: str  # "span", "quality" or "slo"
    key: str
    baseline: float
    candidate: float
    detail: str
    severity: str = "fail"

    def __str__(self) -> str:
        label = "REGRESSION" if self.severity == "fail" else "WARN"
        return (
            f"{label} [{self.kind}] {self.key}: "
            f"{self.baseline:.6g} -> {self.candidate:.6g} ({self.detail})"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "key": self.key,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "detail": self.detail,
            "severity": self.severity,
        }


@dataclass(frozen=True)
class Comparison:
    """One checked gate item, pass or fail -- the full comparison table.

    ``margin`` is the absolute allowance around the baseline median:
    for spans ``max(floor, baseline * rel_threshold)``, for quality the
    (possibly adaptive) +/- band.  A comparison fails exactly when the
    candidate deviates in the regressing direction by more than the
    margin, so the table is a faithful record of the verdict.
    """

    kind: str  # "span" or "quality"
    key: str
    baseline: float
    candidate: float
    margin: float
    verdict: str  # "ok", "fail" or "warn"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "key": self.key,
            "baseline": self.baseline,
            "candidate": self.candidate,
            "margin": self.margin,
            "verdict": self.verdict,
        }


@dataclass
class RegressionReport:
    """Verdict of one candidate-vs-baselines check."""

    candidate_id: str
    baseline_ids: List[str]
    regressions: List[Regression]
    checked_spans: int = 0
    checked_quality: int = 0
    checked_slos: int = 0
    #: Every checked item, pass or fail (``repro runs check --json``).
    comparisons: List[Comparison] = field(default_factory=list)
    #: Demoted findings (flaky metrics, SLO near-misses): reported, but
    #: they do not flip :attr:`ok`.
    warnings: List[Regression] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.regressions

    def summary(self) -> str:
        verdict = "OK" if self.ok else f"FAIL ({len(self.regressions)} regressions)"
        lines = [
            f"runs check: {verdict} -- candidate {self.candidate_id} vs "
            f"median of {len(self.baseline_ids)} baseline run(s) "
            f"[{', '.join(self.baseline_ids)}]; "
            f"{self.checked_spans} span paths, "
            f"{self.checked_quality} quality keys checked"
        ]
        lines += [f"note: {note}" for note in self.notes]
        lines += [str(w) for w in self.warnings]
        lines += [str(r) for r in self.regressions]
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        """Deterministic plain data for ``repro runs check --json``."""
        return {
            "ok": self.ok,
            "candidate": self.candidate_id,
            "baselines": list(self.baseline_ids),
            "checked": {
                "spans": self.checked_spans,
                "quality": self.checked_quality,
                "slos": self.checked_slos,
            },
            "comparisons": [c.to_dict() for c in self.comparisons],
            "regressions": [r.to_dict() for r in self.regressions],
            "warnings": [w.to_dict() for w in self.warnings],
            "notes": list(self.notes),
        }


# -- HTML dashboard -----------------------------------------------------------

_DASH_CSS = """
body { font-family: ui-sans-serif, system-ui, sans-serif; margin: 2rem;
       color: #1a1a2e; background: #fafaf8; }
h1 { font-size: 1.3rem; } h2 { font-size: 1.05rem; margin-top: 2rem; }
table { border-collapse: collapse; font-size: 0.85rem; }
td, th { padding: 0.25rem 0.7rem; border-bottom: 1px solid #e0e0dc;
         text-align: left; }
.bar { background: #4a7aa7; height: 0.8rem; border-radius: 2px; }
.bar-row td { border-bottom: none; padding: 0.12rem 0.7rem; }
.mono { font-family: ui-monospace, monospace; font-size: 0.8rem; }
.spark { vertical-align: middle; }
.muted { color: #8a8a86; }
"""


def _sparkline(
    values: Sequence[float],
    width: int = 140,
    height: int = 30,
    marks: Sequence[int] = (),
) -> str:
    """A tiny inline-SVG polyline of one run-history series.

    ``marks`` are value indices to highlight with a dot -- the dashboard
    uses them for CUSUM change points (the first run of a new regime).
    """
    if not values:
        return ""
    low, high = min(values), max(values)
    spread = (high - low) or 1.0
    step = width / max(len(values) - 1, 1)

    def xy(i: int, v: float) -> tuple:
        return i * step, height - 3 - (height - 6) * (v - low) / spread

    points = " ".join(f"{x:.1f},{y:.1f}" for x, y in
                      (xy(i, v) for i, v in enumerate(values)))
    dots = "".join(
        f'<circle cx="{xy(i, values[i])[0]:.1f}" '
        f'cy="{xy(i, values[i])[1]:.1f}" r="2.5" fill="#c0392b"/>'
        for i in marks
        if 0 <= i < len(values)
    )
    return (
        f'<svg class="spark" width="{width}" height="{height}">'
        f'<polyline points="{points}" fill="none" stroke="#4a7aa7" '
        f'stroke-width="1.5"/>{dots}</svg>'
    )


def _series_marks(values: Sequence[float]) -> Sequence[int]:
    """CUSUM change-point indices of one history series.

    Imported lazily: :mod:`repro.obs.analyze` imports this module, so a
    top-level import would be circular.
    """
    from .analyze import cusum_changepoints

    return [cp.index for cp in cusum_changepoints(values)]


def dashboard_html(
    records: Sequence[RunRecord], title: str = "repro run ledger"
) -> str:
    """A self-contained HTML dashboard over ``records`` (append order).

    Per-stage bars for the latest run, sparklines of wall time and every
    shared quality metric across the history, and a recent-run table.
    No external assets -- the file opens offline.
    """
    import html as _html

    if not records:
        return (
            "<!doctype html><html><head><meta charset='utf-8'>"
            f"<title>{_html.escape(title)}</title></head>"
            "<body><p>(empty run ledger)</p></body></html>"
        )
    latest = records[-1]
    parts = [
        "<!doctype html>", "<html><head><meta charset='utf-8'>",
        f"<title>{_html.escape(title)}</title>",
        f"<style>{_DASH_CSS}</style></head><body>",
        f"<h1>{_html.escape(title)}</h1>",
        f"<p class='muted'>{len(records)} run(s); latest "
        f"<span class='mono'>{latest.run_id}</span> "
        f"({_html.escape(latest.label)}, {latest.timestamp}, "
        f"wall {latest.wall_s:.3f} s)</p>",
    ]

    if latest.spatial:
        parts.append(f"<h2>EPE hotspot map (run {latest.run_id})</h2>")
        parts.append(hotspot_svg(latest.spatial))

    parts.append(f"<h2>Per-stage wall time (run {latest.run_id})</h2>")
    stages = sorted(
        latest.span_times().items(), key=lambda kv: kv[1].total_s, reverse=True
    )[:14]
    top = max((t.total_s for _, t in stages), default=0.0) or 1.0
    parts.append("<table>")
    for path, timing in stages:
        width = 100.0 * timing.total_s / top
        parts.append(
            f"<tr class='bar-row'><td class='mono'>{_html.escape(path)}</td>"
            f"<td>{timing.total_s:.3f} s &times;{timing.calls}</td>"
            f"<td style='width:22rem'><div class='bar' "
            f"style='width:{width:.1f}%'></div></td></tr>"
        )
    parts.append("</table>")

    parts.append("<h2>Run history</h2>")
    parts.append(
        "<p class='muted'>dots mark CUSUM change points "
        "(first run of a new regime)</p>"
    )
    parts.append("<table>")
    parts.append(
        "<tr><th>series</th><th>latest</th><th>trend (oldest &rarr; newest)"
        "</th></tr>"
    )
    series: List[tuple] = [("wall_s", [r.wall_s for r in records])]
    shared_keys = [
        key
        for key in sorted(latest.quality)
        if sum(1 for r in records if _num(r.quality.get(key)) is not None) >= 2
    ][:8]
    for key in shared_keys:
        series.append(
            (key, [v for v in (_num(r.quality.get(key)) for r in records)
                   if v is not None])
        )
    for name, values in series:
        parts.append(
            f"<tr><td class='mono'>{_html.escape(name)}</td>"
            f"<td>{values[-1]:.6g}</td>"
            f"<td>{_sparkline(values, marks=_series_marks(values))}</td></tr>"
        )
    parts.append("</table>")

    parts.append("<h2>Recent runs</h2><table>")
    parts.append(
        "<tr><th>run</th><th>when (UTC)</th><th>label</th>"
        "<th>fingerprint</th><th>wall (s)</th></tr>"
    )
    for record in records[-20:][::-1]:
        parts.append(
            f"<tr><td class='mono'>{record.run_id}</td>"
            f"<td>{record.timestamp}</td><td>{_html.escape(record.label)}</td>"
            f"<td class='mono'>{record.fingerprint}</td>"
            f"<td>{record.wall_s:.3f}</td></tr>"
        )
    parts.append("</table></body></html>")
    return "\n".join(parts)


def write_dashboard_html(
    path: Union[str, Path],
    records: Sequence[RunRecord],
    title: str = "repro run ledger",
) -> None:
    """Write :func:`dashboard_html` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dashboard_html(records, title=title))
        handle.write("\n")
