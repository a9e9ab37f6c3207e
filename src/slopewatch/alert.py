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
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from slopewatch.domain import AlertLevel, SensorKind
from slopewatch.analytics import (
    InvalidSeriesError,
    RainEvent,
    ar_forecast_max,
    exceeds_caine,
    last_event,
    median_of_sorted,
)

logger = logging.getLogger(__name__)

INTENSITY_WINDOW_S = 3600.0  # "current intensity" = rain in the last hour


class ThresholdError(ValueError):
    pass


def _check_finite(settings, error: type[ValueError]) -> None:
    """Raise ``error`` naming the first float field of ``settings`` that is nan or infinite.

    A nan passes every range check, as each comparison with it is False.
    """
    for name, value in vars(settings).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise error(f"{name} must be finite, got {value}")


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
        _check_finite(self, ThresholdError)
        for name in ("mt_rain_mm_per_h", "mt_pore_kpa", "mt_displacement_mm", "mt_inclination_deg"):
            if getattr(self, name) <= 0:
                raise ThresholdError(f"{name} must be positive, got {getattr(self, name)}")
        if self.prediction_horizon < 1:
            raise ThresholdError("prediction_horizon must be >= 1")
        if self.hold_period_s < 0:
            raise ThresholdError("hold_period_s must be >= 0")


class AlertMode(str, Enum):
    UNI = "uni"
    MULTI = "multi"


class ValueSource(str, Enum):
    CURRENT = "current"
    PREDICTED = "predicted"


@dataclass(slots=True)
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


@dataclass(slots=True)
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


@dataclass(slots=True)
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


def _exceedances(snapshot: ValueSnapshot, th: Thresholds, use_caine: bool) -> ExceedanceSet:
    # A missing value (None) never exceeds.
    v = snapshot.rain_intensity_mm_per_h
    rain = v is not None and v >= th.mt_rain_mm_per_h
    if use_caine and not rain and snapshot.active_event is not None:
        rain = exceeds_caine(snapshot.active_event) is True
    pore, disp = snapshot.pore_kpa, snapshot.displacement_mm
    incl, tilt, mt_incl = snapshot.inclinometer_deg, snapshot.tiltmeter_deg, th.mt_inclination_deg
    return ExceedanceSet(
        rain=rain,
        pore=pore is not None and pore >= th.mt_pore_kpa,
        displacement=disp is not None and disp >= th.mt_displacement_mm,
        inclination=(incl is not None and incl >= mt_incl) or (tilt is not None and tilt >= mt_incl),
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
        any_exceeded = exc.rain or exc.pore or exc.displacement or exc.inclination
        uni_level = AlertLevel.YELLOW if any_exceeded else AlertLevel.GREEN
        decisions.append(AlertDecision(uni_level, AlertMode.UNI, source, exc, now))
        decisions.append(AlertDecision(multi_level(exc), AlertMode.MULTI, source, exc, now))
    return decisions


# ---------------------------------------------------------------------------
# Ladder state with hysteresis
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class AlertState:
    active_level: AlertLevel = AlertLevel.GREEN
    since: float = 0.0
    below_since: float | None = None


@dataclass(slots=True)
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
    exceeded = sorted(name for name, hit in d.exceedances.as_dict().items() if hit)
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
    candidate = max((d.level for d in decisions), default=AlertLevel.GREEN)

    if candidate == state.active_level:
        if state.below_since is not None:
            return AlertState(state.active_level, state.since, None), []
        return state, []

    all_clear = candidate < state.active_level
    if all_clear:  # start or continue the hold window
        below_since = state.below_since if state.below_since is not None else now
        if now - below_since < hold_period_s:
            return AlertState(state.active_level, state.since, below_since), []
    trigger = _trigger_of(decisions, candidate)
    note = Notification(
        ts=now,
        level=candidate,
        mode=trigger.mode,
        source=trigger.source,
        exceedances=trigger.exceedances,
        message=_message(candidate, trigger, all_clear),
        all_clear=all_clear,
    )
    return AlertState(active_level=candidate, since=now, below_since=None), [note]


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
        import urllib.request  # here, not at module level: only this sink needs it

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


@dataclass(slots=True)
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

    def __post_init__(self) -> None:
        _check_finite(self, ValueError)
        if self.ar_order < 1:
            raise ValueError(f"ar_order must be >= 1, got {self.ar_order}")
        for name in ("dry_gap_h", "antecedent_lookback_h"):
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
# By wire code (an int): a dict lookup keyed by the enum member would run
# Enum.__hash__, a Python-level call, for every reading.
_KEY_BY_CODE = {kind._value_: key for kind, key in _KEY_BY_KIND.items()}


class _Columns:
    """Float64 rows whose live columns ``buf[:, lo:hi]`` have room to grow.

    Appending writes past ``hi`` and dropping from the front moves ``lo``,
    so the live columns are copied only when the free tail runs out: to the
    front of the buffer, or into one twice their size once they fill more
    than half of it.
    """

    __slots__ = ("buf", "lo", "hi")

    def __init__(self, rows: int):
        self.buf = np.empty((rows, 16))
        self.lo = self.hi = 0

    def __len__(self) -> int:
        return self.hi - self.lo

    @property
    def live(self) -> np.ndarray:
        return self.buf[:, self.lo : self.hi]

    def row(self, r: int) -> np.ndarray:
        return self.buf[r, self.lo : self.hi]

    def _make_room(self, k: int) -> None:
        n = self.hi - self.lo
        if 2 * (n + k) > self.buf.shape[1]:
            grown = np.empty((self.buf.shape[0], 2 * (n + k)))
            grown[:, :n] = self.live
            self.buf = grown
        else:
            self.buf[:, :n] = self.live  # numpy copies overlapping slices safely
        self.lo, self.hi = 0, n

    def insert(self, i: int, *column: float) -> None:
        """Insert ``column`` before live column ``i``."""
        if self.hi == self.buf.shape[1]:
            self._make_room(1)
        at = self.lo + i
        if at < self.hi:
            self.buf[:, at + 1 : self.hi + 1] = self.buf[:, at : self.hi]
        for r, x in enumerate(column):
            self.buf[r, at] = x
        self.hi += 1

    def extend(self, k: int) -> None:
        """Add ``k`` zero columns after the live ones."""
        if self.hi + k > self.buf.shape[1]:
            self._make_room(k)
        self.buf[:, self.hi : self.hi + k] = 0.0
        self.hi += k

    def drop_front(self, k: int) -> None:
        self.lo = min(self.lo + k, self.hi)


def _bisect_right_pairs(times: np.ndarray, values: np.ndarray, t: float, v: float) -> int:
    """``bisect.bisect_right`` over the (time, value) pairs, probe for probe.

    Appends keep an equal-time run in arrival order, which need not be
    sorted by value, so only the same probes find the same position.
    """
    lo, hi = 0, len(times)
    while lo < hi:
        mid = (lo + hi) // 2
        tm = times[mid]
        if t < tm or (t == tm and v < values[mid]):
            hi = mid
        else:
            lo = mid + 1
    return lo


class AlertEngine:
    """Consumes ingested readings, evaluates, steps the ladder, dispatches.

    Evaluation time follows the data: ``now`` is the greatest reading
    timestamp seen so far, which keeps hysteresis well-defined when batches
    arrive late after retransmission.

    State kept between batches makes a batch cost what it changed: each
    series' forecast is refitted only after an insert into that series.
    For rain the engine also keeps the hourly bins, the sorted gaps
    between neighbouring samples (their median is the sampling interval)
    and the window's last rain event as (first wet time, last wet time,
    total mm). An in-order rain sample advances all three from itself and
    the sample it evicts. A late one is inserted into the window, and the
    gaps and bins are then rebuilt from the window in one pass; after it,
    or after a change of the interval, the event is recomputed from the
    window when the next snapshot is built. Windows and bins are numpy
    buffers, so no in-order step rebuilds a window-sized Python list.
    Every value is computed as a from-scratch pass over the window would
    compute it, so the decisions are identical.
    """

    def __init__(self, thresholds: Thresholds, analysis: AnalysisConfig, dispatcher: Dispatcher):
        self.thresholds = thresholds
        self.analysis = analysis
        self.dispatcher = dispatcher
        self.state = AlertState()
        self.now = 0.0
        self.timeline: list[tuple[float, AlertLevel]] = []  # ladder transitions
        # Windows with rows (time, value), sorted by time and capped at max_window_samples.
        self._series = {key: _Columns(2) for key in _KEY_BY_KIND.values()}
        self._rain = self._series["rain"]  # (ts, mm)
        self._rain_end = 0.0  # time of the rain window's last sample, once it has one
        self._forecast: dict[str, float | None] = dict.fromkeys(self._series)
        self._dirty = set(self._series)  # series whose forecast is out of date
        # mm of the rain samples in each hour from the window's first to its last.
        self._bins = _Columns(1)
        self._first_hour = 0
        self._rain_gaps: list[float] = []  # sorted positive gaps between neighbouring rain samples
        self._dry_gap = analysis.dry_gap_h * 3600.0
        # The window's last rain event, (first wet t, last wet t, total mm) or
        # None, as segmented with sampling interval _event_interval. Stale
        # after a late rain sample or a change of the interval.
        self._event: tuple[float, float, float] | None = None
        self._event_interval = self._rain_interval()
        self._event_stale = False

    def observe(self, records) -> None:
        """Feed newly stored calibrated readings (duplicates already removed).

        A reading at or after its window's last time, the common case of
        in-order data, is appended at the window's tail: a non-rain one is
        written straight into the buffer, a rain one goes through
        ``_append_rain``. A late reading goes through ``_insert``; a late
        rain one then has the rain state rebuilt by ``_rebuild_rain``.
        """
        series, dirty, cap, now = self._series, self._dirty, self.analysis.max_window_samples, self.now
        rain = self._rain
        for rec in records:
            key = _KEY_BY_CODE[rec.sensor._value_]
            t = float(rec.timestamp)
            window = series[key]
            if window is rain:
                if t >= self._rain_end or rain.hi == rain.lo:
                    self._append_rain(t, rec.value)
                else:
                    self._insert(rain, t, rec.value)
                    self._rebuild_rain()
            else:
                buf, hi = window.buf, window.hi
                if hi == window.lo or t >= buf[0, hi - 1]:
                    if hi == buf.shape[1]:
                        window._make_room(1)
                        buf, hi = window.buf, window.hi
                    buf[0, hi] = t
                    buf[1, hi] = rec.value
                    window.hi = hi = hi + 1
                    if hi - window.lo > cap:
                        window.lo += 1
                else:
                    self._insert(window, t, rec.value)
            dirty.add(key)
            if t > now:
                now = t
        self.now = now

    def _append_rain(self, t: float, mm: float) -> None:
        """Append the rain sample (t, mm), no earlier than the window's last.

        The gap list gains the gap to the previous sample and loses the
        evicted sample's. The sample's hour bin is ``bin + mm``, or
        ``0.0 + mm`` for a new hour, the sum ``_rebin`` would compute; the
        oldest hour is re-summed only if the eviction left samples in it.
        The cached event is extended or restarted by a wet sample and, if
        the eviction took its first wet sample, re-summed over the window.
        """
        mm = float(mm)
        rain, bins = self._rain, self._bins
        if rain.hi == rain.buf.shape[1]:
            rain._make_room(1)
        buf, lo, hi = rain.buf, rain.lo, rain.hi
        buf[0, hi] = t
        buf[1, hi] = mm
        rain.hi = hi + 1
        hour = int(t // 3600)
        if hi == lo:  # the first rain sample: the bins start at its hour
            self._first_hour = hour
        else:
            self._add_gap(self._rain_end, t)
        self._rain_end = t
        new_hours = hour - (self._first_hour + bins.hi - bins.lo - 1)
        if new_hours:
            bins.extend(new_hours)
            bins.buf[0, bins.hi - 1] = 0.0 + mm
        else:
            bins.buf[0, bins.hi - 1] += mm

        evicted = hi + 1 - lo > self.analysis.max_window_samples
        if evicted:
            t0, mm0, t1 = buf.item(0, lo), buf.item(1, lo), buf.item(0, lo + 1)
            rain.lo = lo + 1
            self._drop_gap(t0, t1)
            first_hour = int(t1 // 3600)
            if first_hour > self._first_hour:
                bins.drop_front(first_hour - self._first_hour)
                self._first_hour = first_hour
            else:
                self._rebin(first_hour)

        if self._event_stale:
            return
        interval = self._rain_interval()
        if interval != self._event_interval:
            self._event_stale = True
            return
        event = self._event
        if mm > 0:
            if event is None or (t - event[1]) - interval >= self._dry_gap:
                event = self._event = (t, t, mm)
            else:
                event = self._event = (event[0], t, event[2] + mm)
        # Samples at one time always share an event, so a wet sample evicted
        # at the event's first time is its first wet sample. Every wet sample
        # left in the window then belongs to the event, and segmenting the
        # window again only re-sums it.
        if evicted and mm0 > 0 and t0 >= event[0]:
            self._event = last_event(rain.row(0), rain.row(1), self._dry_gap, interval)

    def _insert(self, window: _Columns, t: float, value: float) -> None:
        """Insert the late sample (t, value), earlier than the window's last,
        where a sorted list of (t, value) pairs would put it; then cap the window."""
        window.insert(_bisect_right_pairs(window.row(0), window.row(1), t, value), t, value)
        if len(window) > self.analysis.max_window_samples:
            window.drop_front(1)

    def _rebuild_rain(self) -> None:
        """Recompute the gaps, the window's ends and the bins from the rain
        window, as appending its samples to an empty engine would, and mark
        the event stale."""
        times, mms = self._rain.row(0).tolist(), self._rain.row(1).tolist()
        gaps = [b - a for a, b in zip(times, times[1:])]
        self._rain_gaps = sorted(gap for gap in gaps if gap > 0)
        self._first_hour = first_hour = int(times[0] // 3600)
        self._rain_end = times[-1]
        totals = [0.0] * (int(times[-1] // 3600) - first_hour + 1)
        for t, mm in zip(times, mms):
            totals[int(t // 3600) - first_hour] += mm
        bins = self._bins
        bins.drop_front(len(bins))
        bins.extend(len(totals))
        bins.row(0)[:] = totals
        self._event_stale = True

    def _add_gap(self, earlier: float, later: float) -> None:
        gap = later - earlier
        if gap > 0:
            bisect.insort(self._rain_gaps, gap)

    def _drop_gap(self, earlier: float, later: float) -> None:
        gap = later - earlier
        if gap > 0:
            del self._rain_gaps[bisect.bisect_left(self._rain_gaps, gap)]

    def _rebin(self, hour: int) -> None:
        # Re-sum in window order from 0.0, as a rebuild of every bin would.
        # The hour's samples are those with hour * 3600 <= t < (hour + 1) * 3600.
        times = self._rain.row(0)
        lo, hi = times.searchsorted(hour * 3600.0), times.searchsorted((hour + 1) * 3600.0)
        total = 0.0
        for mm in self._rain.row(1)[lo:hi].tolist():
            total += mm
        self._bins.buf[0, self._bins.lo + hour - self._first_hour] = total

    def _rain_interval(self) -> float:
        """Median positive gap between rain samples, else 1 h."""
        return median_of_sorted(self._rain_gaps) if self._rain_gaps else 3600.0

    # -- snapshot construction -----------------------------------------------

    def _current_snapshot(self) -> ValueSnapshot:
        intensity = event = None
        rain = self._rain
        if rain.hi > rain.lo:
            # Half-open window: hourly accumulation samples cover (t-1h, t],
            # so the sample sitting exactly on the lower edge belongs to the
            # previous hour. No sample lies after ``now``, so the window's
            # samples are found walking back from the tail. The sum is a plain
            # left-to-right float addition, as the recorded decisions were made.
            buf, lo, first = rain.buf, rain.lo, rain.hi
            edge = self.now - INTENSITY_WINDOW_S
            while first > lo and buf.item(0, first - 1) > edge:
                first -= 1
            mm_last_window = 0.0
            for mm in buf[1, first : rain.hi].tolist():
                mm_last_window += mm
            intensity = mm_last_window / (INTENSITY_WINDOW_S / 3600.0)
            if self._event_stale:
                interval = self._event_interval = self._rain_interval()
                self._event = last_event(rain.row(0), rain.row(1), self._dry_gap, interval)
                self._event_stale = False
            if self._event is not None:
                # Still active: less than dry_gap of dry time since its last
                # wet sample. It opened one interval before its first wet one.
                first_wet, end, total = self._event
                interval = self._event_interval
                if (self.now - end) - interval < self._dry_gap:
                    duration_h = (end - (first_wet - interval)) / 3600.0
                    event = RainEvent(
                        start=self.now - duration_h * 3600.0,
                        end=self.now,
                        total_mm=total / duration_h * duration_h,
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
        window = self._series[key]
        hi = window.hi
        return window.buf.item(1, hi - 1) if hi > window.lo else None

    def _predicted_snapshot(self) -> ValueSnapshot:
        for key, window in self._series.items():
            if key in self._dirty:
                # Rain is forecast on its hourly accumulation bins, which are already mm/h.
                values = self._bins.row(0) if key == "rain" else window.row(1)
                self._forecast[key] = self._forecast_max(values)
        self._dirty.clear()
        forecast = self._forecast
        return ValueSnapshot(
            rain_intensity_mm_per_h=forecast["rain"],
            pore_kpa=forecast["pore"],
            displacement_mm=forecast["displacement"],
            inclinometer_deg=forecast["inclinometer"],
            tiltmeter_deg=forecast["tiltmeter"],
        )

    def _forecast_max(self, values: np.ndarray) -> float | None:
        order = self.analysis.ar_order
        if len(values) < 2 * order + 2:
            return None  # too short for an AR(order) fit
        try:
            return ar_forecast_max(values, order, self.thresholds.prediction_horizon)
        except InvalidSeriesError as exc:
            logger.debug("forecast unavailable: %s", exc)
            return None

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
            self.dispatcher.dispatch(note)
        return notes
