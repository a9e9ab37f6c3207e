"""Decision support: threshold evaluation, warning ladder, notifications.

Every ingested batch triggers one evaluation producing exactly four
decisions -- current and AR-predicted values, each judged in uni-parameter
and multi-parameter mode. The multi-parameter ladder:

    GREEN   all monitored values below their thresholds
    YELLOW  rainfall threshold reached or exceeded
    ORANGE  pore pressure exceeded along with rainfall
    RED     displacement or inclination exceeded along with rainfall
            and pore pressure

The active level escalates immediately and de-escalates only after the
candidate level has stayed lower for a hold period.
"""

from __future__ import annotations

import bisect
import json
import logging
import urllib.request
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from slopewatch.domain import AlertLevel, SensorKind, level_max
from slopewatch.analytics import (
    InsufficientDataError,
    InvalidSeriesError,
    RainEvent,
    active_event,
    ar_fit,
    ar_forecast,
    exceeds_caine,
)

logger = logging.getLogger(__name__)


class ThresholdError(ValueError):
    pass


@dataclass(frozen=True)
class Thresholds:
    """Monitoring thresholds; a value reaching its threshold counts as exceeded.

    No defaults: threshold values are site-specific and must come from
    configuration.
    """

    mt_rain_mm_per_h: float
    mt_pore_kpa: float
    mt_displacement_mm: float
    mt_inclination_deg: float
    prediction_horizon: int
    hold_period_s: float

    def __post_init__(self) -> None:
        for name in ("mt_rain_mm_per_h", "mt_pore_kpa", "mt_displacement_mm", "mt_inclination_deg"):
            if getattr(self, name) <= 0:
                raise ThresholdError(f"{name} must be positive, got {getattr(self, name)}")
        if self.prediction_horizon < 1:
            raise ThresholdError("prediction_horizon must be >= 1")
        if self.hold_period_s < 0:
            raise ThresholdError("hold_period_s must be >= 0")


class Parameter(str, Enum):
    RAIN = "rain"
    PORE = "pore"
    DISPLACEMENT = "displacement"
    INCLINATION = "inclination"


class AlertMode(str, Enum):
    UNI = "uni"
    MULTI = "multi"


class ValueSource(str, Enum):
    CURRENT = "current"
    PREDICTED = "predicted"


@dataclass(frozen=True)
class ExceedanceSet:
    """Which monitored parameters are at or over their thresholds."""

    rain: bool = False
    pore: bool = False
    displacement: bool = False
    inclination: bool = False

    def as_dict(self) -> dict[str, bool]:
        return {
            "rain": self.rain,
            "pore": self.pore,
            "displacement": self.displacement,
            "inclination": self.inclination,
        }


@dataclass(frozen=True)
class ValueSnapshot:
    """Latest (or forecast) values per monitored parameter.

    Missing sensors stay None and are treated as not exceeding. The active
    rain event rides along so the intensity-duration curve can trigger the
    rain exceedance independently of the plain threshold.
    """

    rain_intensity_mm_per_h: float | None = None
    pore_kpa: float | None = None
    displacement_mm: float | None = None
    inclinometer_deg: float | None = None
    tiltmeter_deg: float | None = None
    active_event: RainEvent | None = None


@dataclass(frozen=True)
class AlertDecision:
    level: AlertLevel
    mode: AlertMode
    source: ValueSource
    exceedances: ExceedanceSet
    timestamp: float


def multi_level(e: ExceedanceSet) -> AlertLevel:
    """Warning ladder over one exceedance set.

    All non-green rungs require the rainfall exceedance; pore- or
    displacement-only situations stay green here and surface through
    uni-parameter alerts instead.
    """
    if e.rain and e.pore and (e.displacement or e.inclination):
        return AlertLevel.RED
    if e.rain and e.pore:
        return AlertLevel.ORANGE
    if e.rain:
        return AlertLevel.YELLOW
    return AlertLevel.GREEN


def uni_alerts(e: ExceedanceSet) -> set[Parameter]:
    """The parameters individually at or over threshold."""
    out = set()
    if e.rain:
        out.add(Parameter.RAIN)
    if e.pore:
        out.add(Parameter.PORE)
    if e.displacement:
        out.add(Parameter.DISPLACEMENT)
    if e.inclination:
        out.add(Parameter.INCLINATION)
    return out


def _exceedances(snapshot: ValueSnapshot, th: Thresholds, use_caine: bool) -> ExceedanceSet:
    def at_least(value: float | None, threshold: float) -> bool:
        return value is not None and value >= threshold

    rain = at_least(snapshot.rain_intensity_mm_per_h, th.mt_rain_mm_per_h)
    if use_caine and not rain and snapshot.active_event is not None:
        rain = exceeds_caine(snapshot.active_event) is True
    return ExceedanceSet(
        rain=rain,
        pore=at_least(snapshot.pore_kpa, th.mt_pore_kpa),
        displacement=at_least(snapshot.displacement_mm, th.mt_displacement_mm),
        inclination=(
            at_least(snapshot.inclinometer_deg, th.mt_inclination_deg)
            or at_least(snapshot.tiltmeter_deg, th.mt_inclination_deg)
        ),
    )


def evaluate(
    snapshot: ValueSnapshot,
    predicted: ValueSnapshot,
    th: Thresholds,
    now: float,
) -> list[AlertDecision]:
    """The four-way alarm matrix: (current|predicted) x (uni|multi).

    Uni-parameter decisions carry YELLOW when any parameter exceeds (a
    first-level warning) and GREEN otherwise; the graded ladder belongs to
    multi-parameter mode.
    """
    current_e = _exceedances(snapshot, th, use_caine=True)
    predicted_e = _exceedances(predicted, th, use_caine=False)
    decisions = []
    for source, exc in ((ValueSource.CURRENT, current_e), (ValueSource.PREDICTED, predicted_e)):
        uni_level = AlertLevel.YELLOW if uni_alerts(exc) else AlertLevel.GREEN
        decisions.append(AlertDecision(uni_level, AlertMode.UNI, source, exc, now))
        decisions.append(AlertDecision(multi_level(exc), AlertMode.MULTI, source, exc, now))
    return decisions


# ---------------------------------------------------------------------------
# Ladder state with hysteresis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AlertState:
    active_level: AlertLevel = AlertLevel.GREEN
    since: float = 0.0
    below_since: float | None = None


@dataclass(frozen=True)
class Notification:
    """One ladder transition to fan out to the sinks.

    ``key`` (level, since) identifies the transition: dispatching the same
    notification twice is suppressed.
    """

    ts: float
    level: AlertLevel
    mode: AlertMode
    source: ValueSource
    exceedances: ExceedanceSet
    message: str
    all_clear: bool = False

    @property
    def key(self) -> tuple[str, float]:
        return (self.level.name, self.ts)

    def as_record(self) -> dict:
        return {
            "ts": self.ts,
            "level": self.level.name,
            "mode": self.mode.value,
            "source": self.source.value,
            "exceedances": self.exceedances.as_dict(),
            "message": self.message,
        }


# Preference order when naming the decision that triggered an escalation.
_TRIGGER_PREFERENCE = (
    (ValueSource.CURRENT, AlertMode.MULTI),
    (ValueSource.PREDICTED, AlertMode.MULTI),
    (ValueSource.CURRENT, AlertMode.UNI),
    (ValueSource.PREDICTED, AlertMode.UNI),
)


def _trigger_of(decisions: list[AlertDecision], level: AlertLevel) -> AlertDecision:
    by_combo = {(d.source, d.mode): d for d in decisions}
    for combo in _TRIGGER_PREFERENCE:
        d = by_combo.get(combo)
        if d is not None and d.level == level:
            return d
    return decisions[0]


def _message(level: AlertLevel, d: AlertDecision, all_clear: bool) -> str:
    if all_clear:
        return f"{level.name}: conditions held below threshold through the hold period"
    exceeded = sorted(p.value for p in uni_alerts(d.exceedances))
    what = "+".join(exceeded) if exceeded else "none"
    return f"{level.name} warning ({d.mode.value}, {d.source.value} values): exceeded={what}"


def step_alert_state(
    state: AlertState,
    decisions: list[AlertDecision],
    now: float,
    hold_period_s: float,
) -> tuple[AlertState, list[Notification]]:
    """Fold the four decisions into the sticky ladder level.

    Escalation to the max decision level is immediate and notifies exactly
    once; de-escalation happens only after the candidate has stayed below
    the active level for ``hold_period_s`` without interruption.
    """
    candidate = AlertLevel.GREEN
    for d in decisions:
        candidate = level_max(candidate, d.level)

    if candidate > state.active_level:
        trigger = _trigger_of(decisions, candidate)
        new_state = AlertState(active_level=candidate, since=now, below_since=None)
        note = Notification(
            ts=now,
            level=candidate,
            mode=trigger.mode,
            source=trigger.source,
            exceedances=trigger.exceedances,
            message=_message(candidate, trigger, all_clear=False),
        )
        return new_state, [note]

    if candidate == state.active_level:
        if state.below_since is not None:
            return AlertState(state.active_level, state.since, None), []
        return state, []

    # candidate < active: start or continue the hold window
    below_since = state.below_since if state.below_since is not None else now
    if now - below_since >= hold_period_s:
        trigger = _trigger_of(decisions, candidate)
        new_state = AlertState(active_level=candidate, since=now, below_since=None)
        note = Notification(
            ts=now,
            level=candidate,
            mode=trigger.mode,
            source=trigger.source,
            exceedances=trigger.exceedances,
            message=_message(candidate, trigger, all_clear=True),
            all_clear=True,
        )
        return new_state, [note]
    return AlertState(state.active_level, state.since, below_since), []


# ---------------------------------------------------------------------------
# Notification sinks
# ---------------------------------------------------------------------------


class SinkError(RuntimeError):
    pass


class ConsoleSink:
    name = "console"

    def send(self, note: Notification) -> None:
        print(f"[ALERT] {note.message}")


class FileSink:
    """Appends one JSON object per notification to alerts.ndjson."""

    name = "file"

    def __init__(self, store_dir: str | Path):
        self.path = Path(store_dir) / "alerts.ndjson"

    def send(self, note: Notification) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps(note.as_record(), sort_keys=True) + "\n")


class WebhookSink:
    """POSTs the same JSON record to a configured URL."""

    name = "webhook"

    def __init__(self, url: str, timeout: float = 5.0):
        self.url = url
        self.timeout = timeout

    def send(self, note: Notification) -> None:
        body = json.dumps(note.as_record(), sort_keys=True).encode("utf-8")
        req = urllib.request.Request(
            self.url, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout):
                pass
        except Exception as exc:
            raise SinkError(f"webhook POST to {self.url} failed: {exc}") from exc


class SmsOutboxSink:
    """Simulated SMS gateway: one rendered message per line in sms_outbox.txt."""

    name = "sms"

    def __init__(self, store_dir: str | Path):
        self.path = Path(store_dir) / "sms_outbox.txt"

    def send(self, note: Notification) -> None:
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(note.message + "\n")


@dataclass(frozen=True)
class DispatchResult:
    sink: str
    ok: bool
    error: str | None = None
    suppressed: bool = False


class Dispatcher:
    """Fans a notification out to every sink; failures never block peers.

    Each sink send is retried once. A notification key already dispatched
    is suppressed entirely (exactly-once per ladder transition).
    """

    def __init__(self, sinks: list):
        if not sinks:
            raise ValueError("at least one sink (console) must be configured")
        self.sinks = sinks
        self._seen: set[tuple[str, float]] = set()

    def dispatch(self, note: Notification) -> list[DispatchResult]:
        if note.key in self._seen:
            return [DispatchResult(s.name, ok=False, suppressed=True) for s in self.sinks]
        self._seen.add(note.key)
        results = []
        for sink in self.sinks:
            err = self._try_send(sink, note)
            if err is not None:
                err = self._try_send(sink, note)  # one retry
            if err is None:
                results.append(DispatchResult(sink.name, ok=True))
            else:
                logger.error("sink %s failed twice: %s", sink.name, err)
                results.append(DispatchResult(sink.name, ok=False, error=err))
        return results

    @staticmethod
    def _try_send(sink, note: Notification) -> str | None:
        try:
            sink.send(note)
            return None
        except Exception as exc:
            return str(exc)


# ---------------------------------------------------------------------------
# Engine: repository-fed evaluation pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AnalysisConfig:
    """Windows and model settings for building snapshots from stored data."""

    dry_gap_h: float = 6.0
    antecedent_lookback_h: float = 72.0
    ar_order: int = 2
    max_window_samples: int = 512
    intensity_window_s: float = 3600.0  # "current intensity" = rain in the last hour

    def __post_init__(self) -> None:
        if self.ar_order < 1:
            raise ValueError(f"ar_order must be >= 1, got {self.ar_order}")
        for name in ("dry_gap_h", "antecedent_lookback_h", "intensity_window_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.max_window_samples < 1:
            raise ValueError(f"max_window_samples must be >= 1, got {self.max_window_samples}")


_KEY_BY_KIND = {
    SensorKind.RAIN_GAUGE: "rain",
    SensorKind.PIEZOMETER: "pore",
    SensorKind.EXTENSOMETER: "displacement",
    SensorKind.INCLINOMETER: "inclinometer",
    SensorKind.TILTMETER: "tiltmeter",
}


def _time(item: tuple[float, float]) -> float:
    return item[0]


def _hour(item: tuple[float, float]) -> int:
    return int(item[0] // 3600)


class AlertEngine:
    """Consumes ingested readings, evaluates, steps the ladder, dispatches.

    Evaluation time follows the data: ``now`` is the greatest reading
    timestamp seen so far, which keeps hysteresis well-defined when batches
    arrive late after retransmission.

    State kept between batches makes a batch cost what it changed: each
    series' forecast is refitted only after an insert into that series, and
    the hourly rain bins and the rain sampling interval are updated for the
    samples inserted or evicted. Every value is computed as a from-scratch
    pass over the window would compute it, so the decisions are identical.
    """

    def __init__(self, thresholds: Thresholds, analysis: AnalysisConfig, dispatcher: Dispatcher):
        self.thresholds = thresholds
        self.analysis = analysis
        self.dispatcher = dispatcher
        self.state = AlertState()
        self.now = 0.0
        self.timeline: list[tuple[float, AlertLevel]] = []  # ladder transitions
        self.dispatch_log: list[tuple[Notification, list[DispatchResult]]] = []
        # Windows of (ts, value), sorted by time and capped at max_window_samples.
        self._series: dict[str, list[tuple[float, float]]] = {key: [] for key in _KEY_BY_KIND.values()}
        self._rain = self._series["rain"]  # (ts, mm)
        self._forecast: dict[str, float | None] = dict.fromkeys(self._series)
        self._dirty = set(self._series)  # series whose forecast is out of date
        self._rain_bins: dict[int, float] = {}  # hour -> mm of the rain samples in it
        self._rain_gaps: list[float] = []  # sorted positive gaps between neighbouring rain samples

    def observe(self, records) -> None:
        """Feed newly stored calibrated readings (duplicates already removed)."""
        for rec in records:
            key = _KEY_BY_KIND[rec.sensor]
            self._insert(key, (float(rec.timestamp), rec.value))
            self._dirty.add(key)
            if rec.timestamp > self.now:
                self.now = float(rec.timestamp)

    def _insert(self, key: str, item: tuple[float, float]) -> None:
        series = self._series[key]
        # Retransmitted batches can arrive out of order; keep series sorted.
        if series and item[0] < series[-1][0]:
            i = bisect.bisect_right(series, item)
        else:
            i = len(series)
        series.insert(i, item)
        excess = max(0, len(series) - self.analysis.max_window_samples)
        hours = self._track_rain_gaps(i, excess) if key == "rain" else ()
        del series[:excess]
        for hour in hours:
            self._rebin(hour)

    def _track_rain_gaps(self, i: int, excess: int) -> set[int]:
        """Update the gap list for the sample just inserted at ``i`` and for
        evicting the first ``excess`` samples; return the hours to rebin."""
        rain = self._rain
        if 0 < i < len(rain) - 1:
            self._drop_gap(rain[i - 1], rain[i + 1])
        if i > 0:
            self._add_gap(rain[i - 1], rain[i])
        if i < len(rain) - 1:
            self._add_gap(rain[i], rain[i + 1])
        for earlier, later in zip(rain[:excess], rain[1 : excess + 1]):
            self._drop_gap(earlier, later)
        return {_hour(rain[i])} | {_hour(old) for old in rain[:excess]}

    def _add_gap(self, earlier: tuple[float, float], later: tuple[float, float]) -> None:
        gap = later[0] - earlier[0]
        if gap > 0:
            bisect.insort(self._rain_gaps, gap)

    def _drop_gap(self, earlier: tuple[float, float], later: tuple[float, float]) -> None:
        gap = later[0] - earlier[0]
        if gap > 0:
            del self._rain_gaps[bisect.bisect_left(self._rain_gaps, gap)]

    def _rebin(self, hour: int) -> None:
        # Re-sum in window order from 0.0, as a rebuild of every bin would.
        lo = bisect.bisect_left(self._rain, hour, key=_hour)
        hi = bisect.bisect_right(self._rain, hour, lo, key=_hour)
        if lo == hi:
            self._rain_bins.pop(hour, None)
            return
        total = 0.0
        for _, mm in self._rain[lo:hi]:
            total += mm
        self._rain_bins[hour] = total

    def _rain_interval(self) -> float:
        """Median positive gap between rain samples (statistics.median), else 1 h."""
        gaps = self._rain_gaps
        n = len(gaps)
        if n == 0:
            return 3600.0
        if n % 2 == 1:
            return gaps[n // 2]
        return (gaps[n // 2 - 1] + gaps[n // 2]) / 2

    # -- snapshot construction -----------------------------------------------

    def _current_snapshot(self) -> ValueSnapshot:
        intensity = event = None
        if self._rain:
            # Half-open window: hourly accumulation samples cover (t-1h, t],
            # so the sample sitting exactly on the lower edge belongs to the
            # previous hour. No sample lies after ``now``.
            window = self.analysis.intensity_window_s
            first = bisect.bisect_right(self._rain, self.now - window, key=_time)
            mm_last_window = sum(mm for _, mm in self._rain[first:])
            intensity = mm_last_window / (window / 3600.0)
            active = active_event(
                self._rain, self.now, self.analysis.dry_gap_h * 3600.0, self._rain_interval()
            )
            if active is not None:
                duration_h = active.duration_h
                event = RainEvent(
                    start=self.now - duration_h * 3600.0,
                    end=self.now,
                    total_mm=active.mean_intensity_mm_per_h * duration_h,
                )
        return ValueSnapshot(
            rain_intensity_mm_per_h=intensity,
            pore_kpa=self._latest("pore"),
            displacement_mm=self._latest("displacement"),
            inclinometer_deg=self._latest("inclinometer"),
            tiltmeter_deg=self._latest("tiltmeter"),
            active_event=event,
        )

    def _latest(self, key: str) -> float | None:
        series = self._series[key]
        return series[-1][1] if series else None

    def _predicted_snapshot(self) -> ValueSnapshot:
        for key, series in self._series.items():
            if key not in self._dirty:
                continue
            if not series:
                self._forecast[key] = None
            elif key == "rain":
                # Forecast on hourly accumulation bins, which are already mm/h.
                bins = self._rain_bins
                hours = range(_hour(series[0]), _hour(series[-1]) + 1)
                self._forecast[key] = self._forecast_max([bins.get(h, 0.0) for h in hours])
            else:
                self._forecast[key] = self._forecast_max([v for _, v in series])
        self._dirty.clear()
        forecast = self._forecast
        return ValueSnapshot(
            rain_intensity_mm_per_h=forecast["rain"],
            pore_kpa=forecast["pore"],
            displacement_mm=forecast["displacement"],
            inclinometer_deg=forecast["inclinometer"],
            tiltmeter_deg=forecast["tiltmeter"],
        )

    def _forecast_max(self, values: list[float]) -> float | None:
        order = self.analysis.ar_order
        try:
            model = ar_fit(values, order)
            steps = ar_forecast(model, values, self.thresholds.prediction_horizon)
        except (InsufficientDataError, InvalidSeriesError) as exc:
            logger.debug("forecast unavailable: %s", exc)
            return None
        return max(steps)

    # -- evaluation ------------------------------------------------------------

    def evaluate_batch(self, records) -> list[Notification]:
        """Ingest-side hook: observe new records, evaluate, step, dispatch."""
        self.observe(records)
        if not self._dirty:
            # No new data and ``now`` unchanged: the decisions would equal the
            # previous ones, and stepping the ladder again on them is a no-op.
            return []
        decisions = evaluate(
            self._current_snapshot(), self._predicted_snapshot(), self.thresholds, self.now
        )
        new_state, notes = step_alert_state(
            self.state, decisions, self.now, self.thresholds.hold_period_s
        )
        if new_state.active_level != self.state.active_level:
            self.timeline.append((self.now, new_state.active_level))
        self.state = new_state
        for note in notes:
            self.dispatch_log.append((note, self.dispatcher.dispatch(note)))
        return notes
