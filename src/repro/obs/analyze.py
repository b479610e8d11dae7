"""Statistical regression intelligence over the run ledger.

A fixed relative threshold cannot tell drift from noise, flags flaky
metrics, and never says *which* run broke the trend.  This module is the
read-side analysis layer that fixes that, all learned from the ledger's
own same-fingerprint history:

* :func:`robust_stats` -- median / MAD statistics (``sigma = 1.4826 *
  MAD``, population-stdev fallback when the MAD degenerates to zero).
* :func:`cusum_changepoints` -- standardized CUSUM with binary
  segmentation; localizes the first run of each new regime.
* :func:`flakiness` -- robust coefficient of variation; metrics above
  the threshold demote from FAIL to WARN in the gate.
* :func:`learn_floors` -- per-span noise floors and per-quality margins
  (``k * sigma``) replacing the fixed ``abs_floor_s``.
* :func:`load_slos` -- declared per-metric SLO budgets from
  ``repro-slo.toml`` or ``pyproject.toml [tool.repro.slo]``.
* :func:`analyze_records` / :func:`report_markdown` -- the trend report
  behind ``repro runs analyze`` (sparklines, change points, SLO burn).
* :func:`gate` -- the one regression gate, behind ``repro runs check``:
  a candidate against the median of baseline runs, with the fixed
  :class:`~repro.obs.runs.RegressionPolicy` thresholds or adaptive
  ones, plus SLO verdicts, one
  :class:`~repro.obs.runs.RegressionReport` out.

Everything here is deterministic: same ledger bytes in, same report
out.  No clocks, no randomness -- analysis must be replayable in CI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from statistics import median, pstdev
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from ..errors import ReproError
from .runs import (
    HIGHER_IS_BETTER,
    Comparison,
    Regression,
    RegressionPolicy,
    RegressionReport,
    RunRecord,
    _num,
    flatten_metrics,
)

#: Consistency constant turning a median absolute deviation into a
#: normal-equivalent standard deviation.
MAD_SIGMA = 1.4826

#: Minimum detectable effect, in noise sigmas: mean shifts smaller than
#: ``k * sigma`` are ignored even when statistically loud, so the
#: detector never reports sub-noise wiggle as a regime change.
DEFAULT_CUSUM_K = 0.5

#: Decision threshold on the standardized CUSUM statistic
#: (``|sum of deviations| / (sigma * sqrt(t (n-t) / n))``).  For pure
#: noise this statistic is a normalized Brownian bridge whose supremum
#: rarely exceeds ~3; 8 keeps the false-alarm rate negligible for
#: ledger-sized series while a 15% step on 1% noise scores in the
#: tens of sigmas.
DEFAULT_CUSUM_H = 8.0

#: Shortest series the change-point detector will look at.
MIN_SERIES_LEN = 4

#: Robust coefficient of variation (``sigma / |median|``) above which a
#: quality metric counts as flaky and demotes FAIL -> WARN in the gate.
DEFAULT_FLAKY_THRESHOLD = 0.10

#: Adaptive floor width: a candidate regresses when it deviates more
#: than ``k`` robust sigmas of the history from the baseline median.
DEFAULT_FLOOR_K = 4.0

#: Minimum span-time floor, seconds.  With only two history samples the
#: MAD can collapse to microseconds; this keeps scheduler jitter on
#: sub-millisecond spans from tripping the adaptive gate.
MIN_SPAN_FLOOR_S = 1e-3

#: Fingerprint history depth the CLI feeds to adaptive learning and SLO
#: burn windows.
HISTORY_WINDOW = 20

#: Standalone SLO budget file searched in the working directory.
SLO_FILE = "repro-slo.toml"

#: Keys an SLO table may declare.
_SLO_KEYS = frozenset({"objective", "direction", "window", "budget"})


# -- robust statistics --------------------------------------------------------

@dataclass(frozen=True)
class RobustStats:
    """Median/MAD summary of one metric series."""

    n: int
    median: float
    mad: float
    #: ``1.4826 * mad``; falls back to the population stdev when the MAD
    #: is exactly zero (over half the samples identical) so step
    #: detection still has a scale to work with.
    sigma: float
    minimum: float
    maximum: float


def robust_stats(values: Sequence[float]) -> RobustStats:
    """Median, MAD and a robust sigma of ``values``."""
    if not values:
        raise ReproError("robust stats need at least one value")
    data = [float(v) for v in values]
    med = median(data)
    mad = median(abs(v - med) for v in data)
    sigma = MAD_SIGMA * mad
    if sigma == 0.0 and len(data) > 1:
        sigma = pstdev(data)
    return RobustStats(
        n=len(data), median=med, mad=mad, sigma=sigma,
        minimum=min(data), maximum=max(data),
    )


def flakiness(values: Sequence[float]) -> float:
    """Robust coefficient of variation: ``sigma / |median|``.

    Zero for constant series; infinite when the series varies around a
    zero median (no scale to normalize by).
    """
    if len(values) < 2:
        return 0.0
    stats = robust_stats(values)
    if stats.sigma == 0.0:
        return 0.0
    if stats.median == 0.0:
        return math.inf
    return stats.sigma / abs(stats.median)


# -- change-point detection ---------------------------------------------------

@dataclass(frozen=True)
class ChangePoint:
    """One detected regime shift in a metric series."""

    #: 0-based index of the first run in the new regime.
    index: int
    direction: str  # "up" or "down"
    #: Medians of the old and new regimes (within the detected segment).
    before: float
    after: float
    #: Standardized CUSUM statistic at the split, in noise sigmas.
    score: float

    @property
    def magnitude(self) -> float:
        return self.after - self.before

    @property
    def pct(self) -> Optional[float]:
        if self.before == 0.0:
            return None
        return 100.0 * (self.after - self.before) / abs(self.before)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "index": self.index,
            "direction": self.direction,
            "before": self.before,
            "after": self.after,
            "score": self.score,
        }


def _diff_sigma(values: Sequence[float]) -> float:
    """Noise sigma estimated from successive differences.

    Robust to the very steps the detector hunts: a level shift
    contributes exactly one outlying difference, which the MAD ignores,
    while a median/MAD over the raw values would be contaminated
    whenever the new regime covers close to half the series.  The
    ``sqrt(2)`` undoes the variance doubling of differencing.
    """
    diffs = [b - a for a, b in zip(values, values[1:])]
    if not diffs:
        return 0.0
    med = median(diffs)
    mad = median(abs(d - med) for d in diffs)
    sigma = MAD_SIGMA * mad / math.sqrt(2.0)
    if sigma == 0.0 and len(set(diffs)) > 1:
        sigma = pstdev(diffs) / math.sqrt(2.0)
    return sigma


def _best_split(values: Sequence[float]) -> Optional[Tuple[int, str, float]]:
    """``(split, direction, score)`` of the strongest mean shift.

    ``split`` is the first sample of the new regime -- the ``t``
    maximizing the standardized CUSUM statistic ``|C_t| / (sigma *
    sqrt(t (n-t) / n))`` with ``C_t = sum_{i<t} (x_i - mean)``.  Returns
    ``None`` when the best split scores below :data:`DEFAULT_CUSUM_H` or
    shifts the median by less than :data:`DEFAULT_CUSUM_K` sigmas.
    """
    n = len(values)
    sigma = _diff_sigma(values)
    if sigma <= 0.0:
        return None  # flat series: nothing to detect against
    mean_all = math.fsum(values) / n
    cusum = 0.0
    best: Optional[Tuple[float, int]] = None
    for t in range(1, n):
        cusum += values[t - 1] - mean_all
        score = abs(cusum) / (sigma * math.sqrt(t * (n - t) / n))
        if best is None or score > best[0]:
            best = (score, t)
    assert best is not None  # n >= MIN_SERIES_LEN > 1
    score, split = best
    if score <= DEFAULT_CUSUM_H:
        return None
    before = median(values[:split])
    after = median(values[split:])
    if abs(after - before) < DEFAULT_CUSUM_K * sigma:
        return None
    return split, "up" if after > before else "down", score


def cusum_changepoints(values: Sequence[float]) -> List[ChangePoint]:
    """Regime shifts in ``values``, localized by standardized CUSUM.

    Binary segmentation: the strongest split divides the series and
    both halves are searched again, so a sustained step yields exactly
    one change point instead of re-alarming every few samples.  Series
    shorter than :data:`MIN_SERIES_LEN` return no change points.
    """
    found: List[ChangePoint] = []

    def segment(data: List[float], offset: int, depth: int) -> None:
        if len(data) < MIN_SERIES_LEN or depth > 12:
            return
        hit = _best_split(data)
        if hit is None:
            return
        split, direction, score = hit
        found.append(
            ChangePoint(
                index=offset + split,
                direction=direction,
                before=median(data[:split]),
                after=median(data[split:]),
                score=score,
            )
        )
        segment(data[:split], offset, depth + 1)
        segment(data[split:], offset + split, depth + 1)

    segment([float(v) for v in values], 0, 0)
    return sorted(found, key=lambda cp: (cp.index, cp.direction))


# -- series extraction --------------------------------------------------------

@dataclass(frozen=True)
class MetricSeries:
    """One metric's history across a same-fingerprint run group."""

    name: str
    run_ids: Tuple[str, ...]
    values: Tuple[float, ...]


def extract_series(
    records: Sequence[RunRecord],
    metrics: Optional[Sequence[str]] = None,
) -> Dict[str, MetricSeries]:
    """Per-metric time series over ``records`` (append order).

    Series names: ``run.wall_s``, ``quality.<key>`` for every numeric
    quality value, and each flattened metric name (counters, gauges,
    histogram ``.count``\\ s).  A run missing a metric is skipped in
    that series, not zero-filled.  ``metrics`` restricts the output to
    the named series.
    """
    rows: List[Tuple[str, Dict[str, float]]] = []
    for record in records:
        row: Dict[str, float] = {"run.wall_s": float(record.wall_s)}
        for key in sorted(record.quality):
            value = _num(record.quality[key])
            if value is not None:
                row[f"quality.{key}"] = value
        for name, value in flatten_metrics(record.metrics).items():
            number = _num(value)
            if number is not None:
                # quality.* gauges were already lifted from the quality
                # dict above; setdefault keeps the two from clashing.
                row.setdefault(name, number)
        rows.append((record.run_id, row))
    names: set = set()
    for _, row in rows:
        names.update(row)
    if metrics is not None:
        names &= set(metrics)
    out: Dict[str, MetricSeries] = {}
    for name in sorted(names):
        ids: List[str] = []
        values: List[float] = []
        for run_id, row in rows:
            if name in row:
                ids.append(run_id)
                values.append(row[name])
        out[name] = MetricSeries(name, tuple(ids), tuple(values))
    return out


# -- adaptive floors ----------------------------------------------------------

@dataclass(frozen=True)
class AdaptiveFloors:
    """Noise floors learned from a run group's history."""

    #: Per-span-path absolute slowdown floor, seconds.
    span_floor_s: Dict[str, float]
    #: Per-quality-key absolute margin (same units as the metric).
    quality_margin: Dict[str, float]
    k: float
    n_history: int


def learn_floors(history: Sequence[RunRecord]) -> AdaptiveFloors:
    """``k * sigma`` floors from ``history``, per span path and quality key.

    ``k`` is :data:`DEFAULT_FLOOR_K`.  A path or key needs at least two
    history samples to learn from; anything rarer keeps the caller's
    fixed policy.  Deterministic quality metrics (sigma exactly zero
    across the history) get a zero margin: under the repo's determinism
    contract any change to them is a real change, so the gate is
    exact-match.
    """
    records = list(history)
    span_samples: Dict[str, List[float]] = {}
    for record in records:
        for path, timing in record.span_times().items():
            span_samples.setdefault(path, []).append(timing.total_s)
    span_floor = {
        path: max(DEFAULT_FLOOR_K * robust_stats(samples).sigma, MIN_SPAN_FLOOR_S)
        for path, samples in sorted(span_samples.items())
        if len(samples) >= 2
    }
    quality_margin: Dict[str, float] = {}
    for name, series in extract_series(records).items():
        if not name.startswith("quality.") or len(series.values) < 2:
            continue
        key = name[len("quality."):]
        quality_margin[key] = DEFAULT_FLOOR_K * robust_stats(series.values).sigma
    return AdaptiveFloors(
        span_floor_s=span_floor,
        quality_margin=quality_margin,
        k=DEFAULT_FLOOR_K,
        n_history=len(records),
    )


# -- SLO budgets --------------------------------------------------------------

@dataclass(frozen=True)
class SLO:
    """One declared per-metric service-level objective."""

    #: Series name the objective applies to (``quality.epe_rms_nm``).
    metric: str
    objective: float
    #: ``"below"``: values must stay <= objective; ``"above"``: >=.
    direction: str = "below"
    #: Burn window: the most recent N runs of the group.
    window: int = 10
    #: Fraction of window runs allowed to violate before a breach.
    budget: float = 0.0

    def violated_by(self, value: float) -> bool:
        if self.direction == "below":
            return value > self.objective + 1e-12
        return value < self.objective - 1e-12

    def to_dict(self) -> Dict[str, Any]:
        return {
            "metric": self.metric,
            "objective": self.objective,
            "direction": self.direction,
            "window": self.window,
            "budget": self.budget,
        }


@dataclass(frozen=True)
class SLOStatus:
    """One SLO evaluated over a run group's burn window."""

    slo: SLO
    #: Runs examined -- ``min(window, series length)``; 0 = no data.
    checked: int
    violations: int
    latest_value: Optional[float]

    @property
    def burn(self) -> float:
        return self.violations / self.checked if self.checked else 0.0

    @property
    def latest_ok(self) -> Optional[bool]:
        if self.latest_value is None:
            return None
        return not self.slo.violated_by(self.latest_value)

    @property
    def breached(self) -> bool:
        return self.checked > 0 and self.burn > self.slo.budget + 1e-12

    def to_dict(self) -> Dict[str, Any]:
        return {
            "slo": self.slo.to_dict(),
            "checked": self.checked,
            "violations": self.violations,
            "burn": self.burn,
            "latest_value": self.latest_value,
            "latest_ok": self.latest_ok,
            "breached": self.breached,
        }


def evaluate_slo(slo: SLO, series: Optional[MetricSeries]) -> SLOStatus:
    """``slo`` applied to the last ``window`` values of ``series``."""
    if series is None or not series.values:
        return SLOStatus(slo=slo, checked=0, violations=0, latest_value=None)
    window = list(series.values[-slo.window:])
    violations = sum(1 for value in window if slo.violated_by(value))
    return SLOStatus(
        slo=slo,
        checked=len(window),
        violations=violations,
        latest_value=window[-1],
    )


def _parse_minimal_toml(text: str) -> Dict[str, Any]:
    """A TOML subset parser for SLO tables on pre-3.11 Pythons.

    Handles ``[dotted.or."quoted.key"]`` table headers and scalar
    ``key = value`` pairs (strings, booleans, ints, floats) -- exactly
    the shape an SLO file uses.  3.11+ goes through :mod:`tomllib`.
    """
    root: Dict[str, Any] = {}
    current = root
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            current = root
            for key in _split_dotted(line[1:-1]):
                nested = current.setdefault(key, {})
                if not isinstance(nested, dict):
                    raise ReproError(
                        f"TOML line {lineno}: table {key!r} collides with "
                        "a scalar value"
                    )
                current = nested
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ReproError(
                f"cannot parse TOML line {lineno}: {raw!r} (the built-in "
                "subset parser handles tables and scalar assignments only)"
            )
        current[_unquote(key.strip())] = _toml_scalar(value.strip(), lineno)
    return root


def _parse_slo_tables(text: str) -> Dict[str, Any]:
    """The ``[tool.repro.slo...]`` tables of a pyproject.toml, by the subset parser.

    The rest of a pyproject (multi-line arrays, inline tables) is beyond
    :func:`_parse_minimal_toml`, so every line outside those tables is
    blanked first; blank lines keep its error line numbers right.  Any
    line opening with ``[`` counts as a header here, so an SLO header the
    subset parser cannot read (one with a trailing comment, say) is kept
    and raises there instead of dropping its table.
    """
    kept: List[str] = []
    keep = False
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("["):
            keep = _split_dotted(line[1:-1])[:3] == ["tool", "repro", "slo"]
        kept.append(raw if keep else "")
    return _parse_minimal_toml("\n".join(kept))


def _split_dotted(header: str) -> List[str]:
    parts: List[str] = []
    buf: List[str] = []
    quote: Optional[str] = None
    for char in header:
        if quote is not None:
            if char == quote:
                quote = None
            else:
                buf.append(char)
        elif char in ("'", '"'):
            quote = char
        elif char == ".":
            parts.append("".join(buf).strip())
            buf = []
        else:
            buf.append(char)
    parts.append("".join(buf).strip())
    return parts


def _unquote(key: str) -> str:
    if len(key) >= 2 and key[0] == key[-1] and key[0] in ("'", '"'):
        return key[1:-1]
    return key


def _toml_scalar(text: str, lineno: int) -> Any:
    if text[:1] not in ("'", '"') and "#" in text:
        text = text.split("#", 1)[0].strip()
    if len(text) >= 2 and text[0] == text[-1] and text[0] in ("'", '"'):
        return text[1:-1]
    if text == "true":
        return True
    if text == "false":
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        raise ReproError(
            f"cannot parse TOML value on line {lineno}: {text!r}"
        ) from None


def _load_toml(path: Path) -> Dict[str, Any]:
    """The tables of TOML file ``path``; malformed files raise :class:`ReproError`.

    Invalid UTF-8 and TOML syntax errors (from :mod:`tomllib`, or from the
    subset parser before Python 3.11) become one error naming the file.
    The subset parser reads only the SLO tables of a ``pyproject.toml``.
    """
    malformed: Type[Exception]
    try:
        import tomllib
    except ModuleNotFoundError:  # Python < 3.11
        parse, malformed = _parse_minimal_toml, ReproError
        if path.name == "pyproject.toml":
            parse = _parse_slo_tables
    else:
        parse, malformed = tomllib.loads, tomllib.TOMLDecodeError
    try:
        return parse(path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, malformed) as error:
        raise ReproError(f"{path}: {error}") from None


def _slo_from_table(path: Path, metric: str, table: Any) -> SLO:
    """One SLO from its table in file ``path``; errors name the file."""
    if not isinstance(table, dict):
        raise ReproError(f"{path}: SLO {metric!r} must be a table, got {table!r}")
    unknown = set(table) - _SLO_KEYS
    if unknown:
        raise ReproError(
            f"{path}: SLO {metric!r} has unknown key(s): {', '.join(sorted(unknown))}"
        )
    objective = table.get("objective")
    if not isinstance(objective, (int, float)) or isinstance(objective, bool):
        raise ReproError(f"{path}: SLO {metric!r} needs a numeric 'objective'")
    direction = table.get("direction", "below")
    if direction not in ("below", "above"):
        raise ReproError(
            f"{path}: SLO {metric!r} direction must be 'below' or 'above', "
            f"got {direction!r}"
        )
    window = table.get("window", 10)
    if not isinstance(window, int) or isinstance(window, bool) or window < 1:
        raise ReproError(f"{path}: SLO {metric!r} window must be a positive integer")
    budget = table.get("budget", 0.0)
    if (
        not isinstance(budget, (int, float))
        or isinstance(budget, bool)
        or not 0.0 <= float(budget) < 1.0
    ):
        raise ReproError(f"{path}: SLO {metric!r} budget must be in [0, 1)")
    return SLO(
        metric=metric,
        objective=float(objective),
        direction=direction,
        window=window,
        budget=float(budget),
    )


def load_slos(path: Optional[Union[str, Path]] = None) -> Dict[str, SLO]:
    """Declared SLO budgets, keyed by metric series name.

    With an explicit ``path`` the file must exist.  Otherwise
    ``./repro-slo.toml`` is tried first, then ``pyproject.toml``'s
    ``[tool.repro.slo]`` table; no file and no table means no SLOs
    (empty dict), never an error.
    """
    if path is None:
        for candidate in (Path(SLO_FILE), Path("pyproject.toml")):
            if candidate.exists():
                slos = load_slos(candidate)
                if slos:
                    return slos
        return {}
    file_path = Path(path)
    if not file_path.exists():
        raise ReproError(f"SLO file {file_path} not found")
    data = _load_toml(file_path)
    table = data.get("tool", {}).get("repro", {}).get("slo")
    if table is None:
        if file_path.name == "pyproject.toml":
            return {}
        # Standalone file: every top-level table is one SLO.
        table = {k: v for k, v in data.items() if isinstance(v, dict)}
    return {
        metric: _slo_from_table(file_path, metric, table[metric])
        for metric in sorted(table)
    }


# -- trend analysis -----------------------------------------------------------

@dataclass(frozen=True)
class SeriesAnalysis:
    """Everything :func:`analyze_records` learned about one series."""

    series: MetricSeries
    stats: RobustStats
    flaky_score: float
    change_points: Tuple[ChangePoint, ...]

    @property
    def latest(self) -> float:
        return self.series.values[-1]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.series.name,
            "run_ids": list(self.series.run_ids),
            "values": list(self.series.values),
            "latest": self.latest,
            "median": self.stats.median,
            "sigma": self.stats.sigma,
            "flaky_score": (
                self.flaky_score if math.isfinite(self.flaky_score) else None
            ),
            "change_points": [cp.to_dict() for cp in self.change_points],
        }


@dataclass
class AnalyzeReport:
    """The full trend report over one same-fingerprint run group."""

    fingerprint: str
    run_ids: List[str]
    analyses: Dict[str, SeriesAnalysis]
    slo_statuses: List[SLOStatus]
    flaky_threshold: float
    notes: List[str]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "run_ids": list(self.run_ids),
            "flaky_threshold": self.flaky_threshold,
            "series": {
                name: analysis.to_dict()
                for name, analysis in sorted(self.analyses.items())
            },
            "slos": [status.to_dict() for status in self.slo_statuses],
            "notes": list(self.notes),
        }


def analyze_records(
    records: Sequence[RunRecord],
    metrics: Optional[Sequence[str]] = None,
    slos: Optional[Mapping[str, SLO]] = None,
) -> AnalyzeReport:
    """Robust stats, change points, flaky scores and SLO burn for a group.

    ``records`` is a run group in append order; runs whose fingerprint
    differs from the newest run's are dropped with a note, so mixed
    ledgers analyze without error.  ``metrics`` restricts the analyzed
    series (SLOs are always evaluated on the full extraction).
    """
    rows = list(records)
    if not rows:
        raise ReproError("runs analyze needs at least one recorded run")
    fingerprint = rows[-1].fingerprint
    group = [r for r in rows if r.fingerprint == fingerprint]
    notes: List[str] = []
    if len(group) != len(rows):
        notes.append(
            f"ignored {len(rows) - len(group)} run(s) with other "
            f"fingerprints; analyzing group {fingerprint}"
        )
    if len(group) < MIN_SERIES_LEN:
        notes.append(
            f"only {len(group)} run(s) in group {fingerprint}; change-point "
            f"detection needs at least {MIN_SERIES_LEN}"
        )
    all_series = extract_series(group)
    if metrics is not None:
        for name in sorted(set(metrics) - set(all_series)):
            notes.append(f"metric {name!r} not found in this run group")
    analyses: Dict[str, SeriesAnalysis] = {}
    for name in sorted(all_series):
        if metrics is not None and name not in metrics:
            continue
        series = all_series[name]
        analyses[name] = SeriesAnalysis(
            series=series,
            stats=robust_stats(series.values),
            flaky_score=flakiness(series.values),
            change_points=tuple(cusum_changepoints(series.values)),
        )
    slo_statuses = [
        evaluate_slo(slos[name], all_series.get(name))
        for name in sorted(slos or {})
    ]
    return AnalyzeReport(
        fingerprint=fingerprint,
        run_ids=[r.run_id for r in group],
        analyses=analyses,
        slo_statuses=slo_statuses,
        flaky_threshold=DEFAULT_FLAKY_THRESHOLD,
        notes=notes,
    )


_SPARK_BARS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """A unicode bar sparkline of ``values`` (one character per run)."""
    if not values:
        return ""
    low, high = min(values), max(values)
    spread = (high - low) or 1.0
    return "".join(
        _SPARK_BARS[
            min(int((v - low) / spread * len(_SPARK_BARS)), len(_SPARK_BARS) - 1)
        ]
        for v in values
    )


def _fmt_num(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and math.isinf(value):
        return "inf"
    return f"{value:.6g}"


def _fmt_changepoints(analysis: SeriesAnalysis) -> str:
    if not analysis.change_points:
        return "-"
    cells = []
    for cp in analysis.change_points:
        shift = (
            f"{cp.pct:+.1f}%" if cp.pct is not None
            else f"{cp.magnitude:+.6g}"
        )
        cells.append(f"#{cp.index + 1} {shift}")
    return "; ".join(cells)


def report_markdown(report: AnalyzeReport) -> str:
    """The ``repro runs analyze`` trend report (markdown + sparklines)."""
    lines = [
        f"## run trend: fingerprint {report.fingerprint} "
        f"({len(report.run_ids)} runs, oldest -> newest)",
        "",
        "| metric | latest | median | sigma | flaky | trend | change points |",
        "|---|---|---|---|---|---|---|",
    ]
    for name, analysis in sorted(report.analyses.items()):
        flaky = _fmt_num(analysis.flaky_score)
        if analysis.flaky_score >= report.flaky_threshold:
            flaky += " !"
        lines.append(
            f"| {name} | {_fmt_num(analysis.latest)} "
            f"| {_fmt_num(analysis.stats.median)} "
            f"| {_fmt_num(analysis.stats.sigma)} | {flaky} "
            f"| {sparkline(analysis.series.values)} "
            f"| {_fmt_changepoints(analysis)} |"
        )
    shifts = [
        (name, cp)
        for name, analysis in sorted(report.analyses.items())
        for cp in analysis.change_points
    ]
    if shifts:
        lines += ["", "### change points", ""]
        for name, cp in shifts:
            run_id = (
                report.run_ids[cp.index]
                if cp.index < len(report.run_ids) else "?"
            )
            shift = f", {cp.pct:+.1f}%" if cp.pct is not None else ""
            lines.append(
                f"- {name}: run #{cp.index + 1} ({run_id}) {cp.direction} "
                f"{_fmt_num(cp.before)} -> {_fmt_num(cp.after)}"
                f"{shift} (score {cp.score:.1f} sigma)"
            )
    if report.slo_statuses:
        lines += [
            "", "### SLO budgets", "",
            "| metric | objective | window | violations | burn | budget "
            "| verdict |",
            "|---|---|---|---|---|---|---|",
        ]
        for status in report.slo_statuses:
            slo = status.slo
            if status.checked == 0:
                verdict = "(no data)"
            elif status.breached:
                verdict = "BREACH"
            else:
                verdict = "ok"
            objective = (
                f"{'<=' if slo.direction == 'below' else '>='} "
                f"{_fmt_num(slo.objective)}"
            )
            lines.append(
                f"| {slo.metric} | {objective} | {slo.window} "
                f"| {status.violations}/{status.checked} "
                f"| {status.burn:.0%} | {slo.budget:.0%} | {verdict} |"
            )
    for note in report.notes:
        lines.append(f"\nnote: {note}")
    return "\n".join(lines)


# -- the gate -----------------------------------------------------------------

def gate(
    candidate: RunRecord,
    baselines: Sequence[RunRecord],
    history: Optional[Sequence[RunRecord]] = None,
    policy: RegressionPolicy = RegressionPolicy(),
    adaptive: bool = False,
    slos: Optional[Mapping[str, SLO]] = None,
) -> RegressionReport:
    """The one regression gate: ``candidate`` against the median of ``baselines``.

    Span paths and quality keys absent from every baseline are skipped
    (new stages are not regressions).  A span regresses when it is slower
    than the median by more than ``policy.rel_threshold`` *and* by more
    than its noise floor; a quality value when it moves past its margin
    the wrong way (down for :data:`~repro.obs.runs.HIGHER_IS_BETTER`
    keys).  Plain mode takes every floor and margin from ``policy``;
    ``adaptive`` replaces them with the ``k * sigma`` values
    :func:`learn_floors` learns from ``history`` (default: the
    baselines) wherever it learned one, and demotes quality keys flakier
    than :data:`DEFAULT_FLAKY_THRESHOLD` from FAIL to WARN.  SLO breaches
    (budget burned through inside the window, candidate included) append
    ``slo``-kind regressions.
    """
    if not baselines:
        raise ReproError("regression check needs at least one baseline run")
    past = list(history) if history is not None else list(baselines)
    span_floors: Mapping[str, float] = {}
    quality_margins: Mapping[str, float] = {}
    flaky: List[str] = []
    if adaptive and past:
        floors = learn_floors(past)
        span_floors = floors.span_floor_s
        quality_margins = floors.quality_margin
        flaky = sorted(
            name[len("quality."):]
            for name, series in extract_series(past).items()
            if name.startswith("quality.")
            and len(series.values) >= MIN_SERIES_LEN
            and flakiness(series.values) >= DEFAULT_FLAKY_THRESHOLD
        )
    report = RegressionReport(
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
        if path in span_floors:
            floor, floor_kind = span_floors[path], "adaptive floor"
        else:
            floor, floor_kind = policy.abs_floor_s, "floor"
        failed = (
            timing.total_s - base > floor
            and timing.total_s > base * (1.0 + policy.rel_threshold)
        )
        report.comparisons.append(
            Comparison(
                kind="span",
                key=path,
                baseline=base,
                candidate=timing.total_s,
                margin=max(floor, base * policy.rel_threshold),
                verdict="fail" if failed else "ok",
            )
        )
        if failed:
            growth = timing.total_s - base
            # A 0 s median has no relative growth: report seconds instead.
            over = f"+{100.0 * growth / base:.1f}%" if base > 0 else f"+{growth:g} s"
            report.regressions.append(
                Regression(
                    kind="span",
                    key=path,
                    baseline=base,
                    candidate=timing.total_s,
                    detail=(
                        f"{over} over baseline median, threshold "
                        f"+{100.0 * policy.rel_threshold:.0f}% "
                        f"and {floor_kind} {floor:g} s"
                    ),
                )
            )

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
        if key in quality_margins:
            margin = quality_margins[key]
            threshold_desc = f"adaptive margin +/-{margin:g}"
        else:
            margin = policy.quality_rel_threshold * abs(base)
            threshold_desc = (
                f"threshold +/-{100.0 * policy.quality_rel_threshold:.0f}%"
            )
        if key in HIGHER_IS_BETTER:
            failed = cand_value < base - margin - 1e-12
            direction = "dropped below"
        else:
            failed = cand_value > base + margin + 1e-12
            direction = "grew past"
        demoted = failed and key in flaky
        verdict = "ok" if not failed else ("warn" if demoted else "fail")
        report.comparisons.append(
            Comparison(
                kind="quality",
                key=key,
                baseline=base,
                candidate=cand_value,
                margin=margin,
                verdict=verdict,
            )
        )
        if failed:
            finding = Regression(
                kind="quality",
                key=key,
                baseline=base,
                candidate=cand_value,
                detail=(
                    f"{direction} baseline median, {threshold_desc}"
                    + ("; demoted to WARN (flaky metric)" if demoted else "")
                ),
                severity=verdict,
            )
            if demoted:
                report.warnings.append(finding)
            else:
                report.regressions.append(finding)

    if adaptive:
        report.notes.append(
            f"adaptive floors learned from {len(past)} run(s) "
            f"(k={DEFAULT_FLOOR_K:g} sigma)"
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
        status = evaluate_slo(slo, extract_series(rows).get(name))
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
        finding = Regression(
            kind="slo",
            key=name,
            baseline=slo.objective,
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
