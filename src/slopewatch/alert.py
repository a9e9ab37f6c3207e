"""Decision support: threshold evaluation, warning ladder, notifications.

Every ingested batch is judged four ways -- current and AR-predicted
values, each in uni-parameter and multi-parameter mode -- and the ladder
steps on the highest of the four levels. The multi-parameter ladder:

    GREEN   all monitored values below their thresholds
    YELLOW  rainfall threshold reached or exceeded
    ORANGE  pore pressure exceeded along with rainfall
    RED     displacement or inclination exceeded along with rainfall
            and pore pressure

The active level escalates immediately and de-escalates only after the
candidate level has stayed lower for a hold period.

``AlertEngine`` judges and steps; it returns the notifications of each
transition and sends none. The station sends them through a
``Dispatcher`` to the sinks once the batch that caused them is durable.
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
    RainEvent,
    ar_forecast_max_rows,
    exceeds_caine,
    flat_forecast_max,
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


def uni_level(e: ExceedanceSet) -> AlertLevel:
    """Uni-parameter mode: YELLOW (a first-level warning) when any parameter
    exceeds, GREEN otherwise; the graded ladder belongs to multi-parameter mode."""
    if e.rain or e.pore or e.displacement or e.inclination:
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


def exceedance_sets(
    snapshot: ValueSnapshot, predicted: ValueSnapshot, th: Thresholds
) -> tuple[ExceedanceSet, ExceedanceSet]:
    """The current values' exceedances, the rain one also by the Caine
    curve, and the predicted values' exceedances, by thresholds alone."""
    return _exceedances(snapshot, th, use_caine=True), _exceedances(predicted, th, use_caine=False)


def evaluate(
    snapshot: ValueSnapshot,
    predicted: ValueSnapshot,
    th: Thresholds,
    now: float,
) -> list[AlertDecision]:
    """The four-way alarm matrix: (current|predicted) x (uni|multi)."""
    current_e, predicted_e = exceedance_sets(snapshot, predicted, th)
    decisions = []
    for source, exc in ((ValueSource.CURRENT, current_e), (ValueSource.PREDICTED, predicted_e)):
        decisions.append(AlertDecision(uni_level(exc), AlertMode.UNI, source, exc, now))
        decisions.append(AlertDecision(multi_level(exc), AlertMode.MULTI, source, exc, now))
    return decisions


def _level(e: ExceedanceSet) -> AlertLevel:
    """The higher of the uni- and multi-parameter levels of one exceedance set."""
    return max(uni_level(e), multi_level(e))


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
    ar_order: int = 2
    max_window_samples: int = 512

    def __post_init__(self) -> None:
        _check_finite(self, ValueError)
        if self.ar_order < 1:
            raise ValueError(f"ar_order must be >= 1, got {self.ar_order}")
        if self.dry_gap_h <= 0:
            raise ValueError(f"dry_gap_h must be positive, got {self.dry_gap_h}")
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
# The ValueSnapshot field each series' value goes in.
_FIELD_BY_KEY = {
    "rain": "rain_intensity_mm_per_h",
    "pore": "pore_kpa",
    "displacement": "displacement_mm",
    "inclinometer": "inclinometer_deg",
    "tiltmeter": "tiltmeter_deg",
}


class _Columns:
    """Float64 rows whose live columns ``buf[:, lo:hi]`` have room to grow.

    Appending writes past ``hi`` and dropping from the front moves ``lo``,
    so the live columns are copied only when the free tail runs out: to the
    front of the buffer, or into one twice their size once they fill more
    than half of it. A window of (time, value) columns changes only through
    ``append`` and ``insert_sorted``, which both hold it to ``cap`` columns.
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

    def append(self, t: float, v: float, cap: int) -> bool:
        """Write the column (t, v) after the live ones and drop the front one
        if that leaves more than ``cap``; True if a column was dropped.

        Room is made before the write, so the dropped column stays readable
        at ``lo - 1`` until the next write.
        """
        hi = self.hi
        if hi == self.buf.shape[1]:
            self._make_room(1)
            hi = self.hi
        buf = self.buf
        buf[0, hi] = t
        buf[1, hi] = v
        self.hi = hi = hi + 1
        if hi - self.lo > cap:
            self.lo += 1
            return True
        return False

    def insert_sorted(self, t: float, v: float, cap: int) -> None:
        """Insert the column (t, v) where ``bisect.insort`` puts (t, v) in the
        list of live (time, value) pairs, then drop the front one past ``cap``.

        Appends keep an equal-time run in arrival order, which need not be
        sorted by value, so only the same probes find the same position.
        """
        buf, lo = self.buf, self.lo

        def pair(j: int) -> tuple[float, float]:
            return buf.item(0, lo + j), buf.item(1, lo + j)

        i = bisect.bisect_right(range(self.hi - lo), (t, v), key=pair)
        if self.hi == buf.shape[1]:
            self._make_room(1)  # moves the live columns, not their order
        buf, at, hi = self.buf, self.lo + i, self.hi
        buf[:, at + 1 : hi + 1] = buf[:, at:hi]
        buf[0, at] = t
        buf[1, at] = v
        self.hi = hi = hi + 1
        if hi - self.lo > cap:
            self.lo += 1

    def extend(self, k: int) -> None:
        """Add ``k`` zero columns after the live ones."""
        if self.hi + k > self.buf.shape[1]:
            self._make_room(k)
        self.buf[:, self.hi : self.hi + k] = 0.0
        self.hi += k

    def drop_front(self, k: int) -> None:
        self.lo = min(self.lo + k, self.hi)


class AlertEngine:
    """Consumes ingested readings, judges them and steps the ladder.

    ``evaluate_batch`` returns the notifications of a ladder transition and
    sends none: the caller sends them, after it has made their batch
    durable. Evaluation time follows the data: ``now`` is the greatest
    reading timestamp seen so far, which keeps hysteresis well-defined when
    batches arrive late after retransmission.

    Every batch with new data builds the current snapshot, and is judged on
    its level: the highest of the four decisions', from the current values'
    exceedances and each forecast's exceedance of its threshold. Most
    batches leave the ladder where it is, and those stop there; only a
    transition, or a batch inside a de-escalation hold, builds the
    predicted snapshot and the four ``AlertDecision``s and runs
    ``step_alert_state``.

    State kept between batches makes a batch cost what it changed: each
    series' forecast is refitted only after an insert into that series,
    and only when a decision or ``snapshots()`` needs it: above GREEN, a
    batch that no forecast could move off the active level refits nothing
    (``evaluate_batch``). A forecast depends only on its window, so a
    later refit gives the value an immediate one would have. A series is
    flat when it holds at least ``2·ar_order + 2`` values, all equal to a
    finite ``v``, and its sum over its length, as the solver computes the
    mean, is ``v`` exactly. Its forecast is then known without a fit: the
    centred series is all zeros, so LAPACK returns zero coefficients and
    every step of the recursion gives the mean, ``v + 0.0``
    (``flat_forecast_max``). A batch first gives each series it changed
    that is flat that forecast and takes it out of the dirty set, so a
    steady sensor never keeps the bounds apart. The series refitted
    together are solved with one stacked LAPACK call per distinct length,
    so a five-sensor batch over full windows makes one call, not five.
    For rain the engine also keeps the hourly bins, the sorted gaps
    between neighbouring samples (their median is the sampling interval)
    and the window's last rain event as (first wet time, last wet time,
    total mm). An in-order rain sample advances all three from itself and
    the sample it evicts. After a late one the gaps and bins are rebuilt
    from the window in one pass; after it, or after a change of the
    interval, the event is recomputed from the window when the next
    snapshot is built. Windows and bins are numpy buffers, so no in-order
    step rebuilds a window-sized Python list, and a window changes only
    through ``_Columns.append`` and ``_Columns.insert_sorted``, which
    apply the sample cap.
    Every value is computed as a from-scratch pass over the window would
    compute it, so the decisions are identical.
    """

    def __init__(self, thresholds: Thresholds, analysis: AnalysisConfig):
        self.thresholds = thresholds
        self.analysis = analysis
        self.state = AlertState()
        self.now = 0.0
        self.timeline: list[tuple[float, AlertLevel]] = []  # ladder transitions
        # Windows with rows (time, value), sorted by time and capped at max_window_samples.
        self._series = {key: _Columns(2) for key in _KEY_BY_KIND.values()}
        self._rain = self._series["rain"]  # (ts, mm)
        self._forecast: dict[str, float | None] = dict.fromkeys(self._series)
        self._dirty = set(self._series)  # series whose forecast is out of date
        self._changed: set[str] = set()  # dirty series changed since they were last tested for flatness
        # The threshold each series' forecast is judged against.
        self._limits = {
            "rain": thresholds.mt_rain_mm_per_h,
            "pore": thresholds.mt_pore_kpa,
            "displacement": thresholds.mt_displacement_mm,
            "inclinometer": thresholds.mt_inclination_deg,
            "tiltmeter": thresholds.mt_inclination_deg,
        }
        self._unjudged = True  # readings observed since the last evaluation, or none evaluated yet
        # mm of the rain samples in each hour from the window's first to its last.
        self._bins = _Columns(1)
        # The (columns, row) each series' forecast is fitted to. Rain is
        # forecast on its hourly accumulation bins, which are already mm/h.
        self._inputs = {
            key: (self._bins, 0) if key == "rain" else (window, 1) for key, window in self._series.items()
        }
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
        in-order data, is appended at the window's tail, and a rain one then
        advances the rain state in ``_rain_appended``. A late reading is
        inserted where a sorted list of (time, value) pairs would put it,
        and a rain one then has the rain state rebuilt by ``_rebuild_rain``.
        """
        series, changed, cap, now = self._series, self._changed, self.analysis.max_window_samples, self.now
        rain = self._rain
        rec = None
        for rec in records:
            key = _KEY_BY_CODE[rec.sensor._value_]
            t = float(rec.timestamp)
            window = series[key]
            hi = window.hi
            if hi == window.lo or t >= window.buf.item(0, hi - 1):
                evicted = window.append(t, rec.value, cap)
                if window is rain:
                    self._rain_appended(t, rec.value, evicted)
            else:
                window.insert_sorted(t, rec.value, cap)
                if window is rain:
                    self._rebuild_rain()
            changed.add(key)
            if t > now:
                now = t
        self._dirty |= changed
        if rec is not None:  # ``records`` may be any iterable, an empty generator too
            self._unjudged = True
        self.now = now

    def _rain_appended(self, t: float, mm: float, evicted: bool) -> None:
        """Advance the rain state past the sample (t, mm) just appended at the
        window's tail, and past the sample that append evicted, if any.

        The gap list gains the gap to the previous sample and loses the
        evicted sample's. The sample's hour bin is ``bin + mm``, or
        ``0.0 + mm`` for a new hour, the sum a rebuild would compute; the
        oldest hour is re-summed only if the eviction left samples in it.
        The cached event is extended or restarted by a wet sample and, if
        the eviction took its first wet sample, re-summed over the window.
        """
        mm = float(mm)
        rain, bins = self._rain, self._bins
        buf, lo, hi = rain.buf, rain.lo, rain.hi
        hour = int(t // 3600)
        if hi - lo == 1 and not evicted:  # the first rain sample: the bins start at its hour
            self._first_hour = hour
        else:
            self._add_gap(buf.item(0, hi - 2), t)
        new_hours = hour - (self._first_hour + bins.hi - bins.lo - 1)
        if new_hours:
            bins.extend(new_hours)
            bins.buf[0, bins.hi - 1] = 0.0 + mm
        else:
            bins.buf[0, bins.hi - 1] += mm

        if evicted:  # the evicted sample is still readable at lo - 1
            t0, mm0, t1 = buf.item(0, lo - 1), buf.item(1, lo - 1), buf.item(0, lo)
            self._drop_gap(t0, t1)
            first_hour = int(t1 // 3600)
            if first_hour > self._first_hour:
                bins.drop_front(first_hour - self._first_hour)
                self._first_hour = first_hour
            else:
                self._rebin_first_hour()

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

    def _rebuild_rain(self) -> None:
        """Recompute the gaps, the first hour and the bins from the rain
        window, as appending its samples to an empty engine would, and mark
        the event stale."""
        times, mms = self._rain.row(0).tolist(), self._rain.row(1).tolist()
        gaps = [b - a for a, b in zip(times, times[1:])]
        self._rain_gaps = sorted(gap for gap in gaps if gap > 0)
        self._first_hour = first_hour = int(times[0] // 3600)
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

    def _rebin_first_hour(self) -> None:
        # Re-sum the first hour's samples, those from the window's front up
        # to the next hour, in window order from 0.0, as a rebuild of every
        # bin would.
        rain = self._rain
        n = rain.row(0).searchsorted((self._first_hour + 1) * 3600.0)
        total = 0.0
        for mm in rain.row(1)[:n].tolist():
            total += mm
        self._bins.buf[0, self._bins.lo] = total

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

    def _settle_flat(self) -> None:
        """Test each series changed since its last test: a flat one gets its
        forecast without a solve and leaves the dirty set."""
        order = self.analysis.ar_order
        for key in self._changed:
            columns, r = self._inputs[key]
            buf, lo, hi = columns.buf, columns.lo, columns.hi
            # The newest value unequal to the one before it or to the oldest,
            # the usual case, rules flatness out without a view.
            if hi - lo < 2 * order + 2:
                continue
            v = buf.item(r, hi - 1)
            if buf.item(r, hi - 2) != v or buf.item(r, lo) != v:
                continue
            top = flat_forecast_max(buf[r, lo:hi], order)
            if top is not None:
                self._forecast[key] = top
                self._dirty.discard(key)
        self._changed.clear()

    def _refit(self) -> None:
        """Refit the forecast of every dirty series.

        A flat series (at least ``2·ar_order + 2`` values, all one finite
        ``v``, whose sum over its length is ``v`` exactly) is forecast in
        closed form, ``v + 0.0``, by ``flat_forecast_max``: its centred
        series is all zeros, so LAPACK's coefficients are zero and every
        step of the recursion gives the mean. That is the solver's value
        bit for bit. Only the series changed since their last test are
        tested; the others were found not flat. The other dirty series of
        one length are forecast together, in one stacked solve."""
        self._settle_flat()
        if not self._dirty:
            return
        order = self.analysis.ar_order
        by_length: dict[int, dict[str, np.ndarray]] = {}
        for key, (columns, r) in self._inputs.items():
            if key in self._dirty:
                values = columns.row(r)
                if len(values) < 2 * order + 2:
                    self._forecast[key] = None  # too short for an AR(order) fit
                else:
                    by_length.setdefault(len(values), {})[key] = values
        for group in by_length.values():
            tops = ar_forecast_max_rows(list(group.values()), order, self.thresholds.prediction_horizon)
            for key, top in zip(group, tops):
                if top is None:
                    logger.debug("forecast unavailable: series contains non-finite values")
                self._forecast[key] = top
        self._dirty.clear()

    def _predicted_snapshot(self) -> ValueSnapshot:
        """The forecast maxima, after refitting the dirty series."""
        self._refit()
        return ValueSnapshot(**{_FIELD_BY_KEY[key]: top for key, top in self._forecast.items()})

    def _forecast_exceedances(self, dirty: bool) -> ExceedanceSet:
        """The exceedances ``exceedance_sets`` finds on the predicted
        snapshot, read from the cached forecast maxima, with ``dirty`` as
        the flag of each series whose forecast is out of date."""
        stale, limits = self._dirty, self._limits
        over = {
            key: dirty if key in stale else top is not None and top >= limits[key]
            for key, top in self._forecast.items()
        }
        return ExceedanceSet(
            rain=over["rain"],
            pore=over["pore"],
            displacement=over["displacement"],
            inclination=over["inclinometer"] or over["tiltmeter"],
        )

    def snapshots(self) -> tuple[ValueSnapshot, ValueSnapshot]:
        """The current and the predicted values of what was observed: those
        an evaluation after the last ``observe`` judges."""
        return self._current_snapshot(), self._predicted_snapshot()

    # -- evaluation ------------------------------------------------------------

    def evaluate_batch(self, records) -> list[Notification]:
        """Observe new records, judge them and step the ladder; returns the
        notifications of a transition, for the caller to send.

        Each series this batch changed whose values are flat first gets
        its forecast in closed form and is no longer dirty (see
        ``_refit``). The current values' exceedances are computed once
        per batch. A batch whose level is the active one, with no
        de-escalation hold running, leaves the ladder where it is and
        notifies nobody, so it is judged on that level alone. Above GREEN,
        that level is first bounded without a refit: with every dirty
        series' forecast as never exceeding and as always exceeding. If
        both bounds are the active level, the batch is settled and the
        dirty series stay dirty, to be refitted from their windows by the
        next batch or ``snapshots()`` that needs them. At GREEN any dirty
        forecast could give a uni-parameter YELLOW, so the bounds could
        never agree there.
        """
        self.observe(records)
        if not self._unjudged:
            # No new data and ``now`` unchanged: the decisions would equal the
            # previous ones, and stepping the ladder again on them is a no-op.
            return []
        self._unjudged = False
        self._settle_flat()
        current, state, th = self._current_snapshot(), self.state, self.thresholds
        now_level = _level(_exceedances(current, th, use_caine=True))
        active, holding = state.active_level, state.below_since is not None
        if (
            not holding
            and active is not AlertLevel.GREEN
            and max(now_level, _level(self._forecast_exceedances(False))) == active
            and max(now_level, _level(self._forecast_exceedances(True))) == active
        ):
            return []  # no forecast can move the candidate off the active level
        self._refit()
        if not holding and max(now_level, _level(self._forecast_exceedances(False))) == active:
            return []  # step_alert_state would return ``state`` and no notification
        decisions = evaluate(current, self._predicted_snapshot(), th, self.now)
        new_state, notes = step_alert_state(state, decisions, self.now, th.hold_period_s)
        if new_state.active_level != state.active_level:
            self.timeline.append((self.now, new_state.active_level))
        self.state = new_state
        return notes
