"""Alert ladder, four-way evaluation, hysteresis and sink tests."""

import bisect
import collections
import dataclasses
import itertools
import json
import math
import random
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slopewatch import alert as alert_module
from slopewatch import analytics
from slopewatch.domain import AlertLevel, CalibratedReading, SensorKind
from slopewatch.analytics import (
    InsufficientDataError,
    InvalidSeriesError,
    RainEvent,
    _check_dry_gap,
    _check_ordered,
    _infer_interval,
    ar_fit,
    ar_forecast,
    last_event,
)
from slopewatch.alert import (
    AlertDecision,
    AlertEngine,
    AlertMode,
    AlertState,
    AnalysisConfig,
    ConsoleSink,
    Dispatcher,
    ExceedanceSet,
    FileSink,
    INTENSITY_WINDOW_S,
    Notification,
    SmsOutboxSink,
    Thresholds,
    ThresholdError,
    ValueSnapshot,
    ValueSource,
    WebhookSink,
    _Columns,
    evaluate,
    multi_level,
    step_alert_state,
)

TH = Thresholds(
    mt_rain_mm_per_h=5.0,
    mt_pore_kpa=50.0,
    mt_displacement_mm=5.0,
    mt_inclination_deg=5.0,
    prediction_horizon=6,
    hold_period_s=1800.0,
)

G, Y, O, R = AlertLevel.GREEN, AlertLevel.YELLOW, AlertLevel.ORANGE, AlertLevel.RED

# Hand-derived truth table for the ladder, one row per (rain, pore, disp, incl):
# every non-green rung requires rain; orange adds pore; red adds either
# displacement or inclination on top of both.
LADDER_TABLE = {
    (False, False, False, False): G,
    (False, False, False, True): G,
    (False, False, True, False): G,
    (False, False, True, True): G,
    (False, True, False, False): G,
    (False, True, False, True): G,
    (False, True, True, False): G,
    (False, True, True, True): G,
    (True, False, False, False): Y,
    (True, False, False, True): Y,
    (True, False, True, False): Y,
    (True, False, True, True): Y,
    (True, True, False, False): O,
    (True, True, False, True): R,
    (True, True, True, False): R,
    (True, True, True, True): R,
}


def exc(rain=False, pore=False, disp=False, incl=False) -> ExceedanceSet:
    return ExceedanceSet(rain=rain, pore=pore, displacement=disp, inclination=incl)


class TestMultiLevel:
    def test_matches_truth_table_on_all_16_inputs(self):
        for combo, expected in LADDER_TABLE.items():
            assert multi_level(exc(*combo)) is expected, combo

    def test_monotone_over_all_comparable_pairs(self):
        combos = list(itertools.product((False, True), repeat=4))
        for a, b in itertools.product(combos, repeat=2):
            if all(x <= y for x, y in zip(a, b)):  # pointwise implication
                assert multi_level(exc(*a)) <= multi_level(exc(*b))

    def test_examples(self):
        assert multi_level(exc()) is G
        assert multi_level(exc(rain=True, pore=True, incl=True)) is R
        # rain-gated: everything but rain stays green in multi mode
        assert multi_level(exc(pore=True, disp=True, incl=True)) is G


class TestThresholds:
    def test_rejects_non_positive_mt(self):
        with pytest.raises(ThresholdError):
            Thresholds(0.0, 1, 1, 1, 1, 0)

    def test_rejects_negative_hold(self):
        with pytest.raises(ThresholdError):
            Thresholds(1, 1, 1, 1, 1, -5.0)


class TestEvaluate:
    def test_emits_exactly_four_decisions(self):
        decisions = evaluate(ValueSnapshot(), ValueSnapshot(), TH, now=0.0)
        combos = [(d.source, d.mode) for d in decisions]
        assert sorted(combos, key=str) == sorted(
            itertools.product(ValueSource, AlertMode), key=str
        )

    def test_all_below_is_all_green(self):
        snap = ValueSnapshot(rain_intensity_mm_per_h=1.0, pore_kpa=10.0, displacement_mm=0.1,
                             inclinometer_deg=1.0, tiltmeter_deg=1.0)
        decisions = evaluate(snap, snap, TH, 0.0)
        assert all(d.level is G for d in decisions)
        assert not any(any(d.exceedances.as_dict().values()) for d in decisions)

    def test_predicted_rain_surfaces_only_in_predicted_mode(self):
        current = ValueSnapshot(rain_intensity_mm_per_h=2.0)
        predicted = ValueSnapshot(rain_intensity_mm_per_h=9.0)
        by_combo = {(d.source, d.mode): d for d in evaluate(current, predicted, TH, 0.0)}
        assert by_combo[(ValueSource.CURRENT, AlertMode.MULTI)].level is G
        assert by_combo[(ValueSource.PREDICTED, AlertMode.MULTI)].level is Y

    def test_caine_exceedance_triggers_rain_flag(self):
        event = RainEvent(start=0.0, end=3600.0, total_mm=14.82)  # exactly on the curve
        snap = ValueSnapshot(rain_intensity_mm_per_h=1.0, active_event=event)
        high_mt = Thresholds(99.0, 50.0, 5.0, 5.0, 6, 1800.0)
        by_combo = {(d.source, d.mode): d for d in evaluate(snap, ValueSnapshot(), high_mt, 0.0)}
        assert by_combo[(ValueSource.CURRENT, AlertMode.MULTI)].level is Y
        assert by_combo[(ValueSource.CURRENT, AlertMode.MULTI)].exceedances.rain

    def test_tiltmeter_or_inclinometer_raises_inclination(self):
        snap = ValueSnapshot(tiltmeter_deg=6.0)
        decisions = evaluate(snap, ValueSnapshot(), TH, 0.0)
        current_uni = decisions[0]
        assert current_uni.exceedances.inclination

    def test_missing_sensors_do_not_exceed(self):
        decisions = evaluate(ValueSnapshot(), ValueSnapshot(), TH, 0.0)
        assert all(d.level is G for d in decisions)


def decisions_at(level: AlertLevel, now=0.0) -> list[AlertDecision]:
    e = {
        G: exc(),
        Y: exc(rain=True),
        O: exc(rain=True, pore=True),
        R: exc(rain=True, pore=True, disp=True),
    }[level]
    out = []
    for source in ValueSource:
        out.append(AlertDecision(Y if any(e.as_dict().values()) else G, AlertMode.UNI, source, e, now))
        out.append(AlertDecision(multi_level(e), AlertMode.MULTI, source, e, now))
    return out


class TestStepAlertState:
    def test_escalation_is_immediate_and_notified_once(self):
        state = AlertState()
        state, notes = step_alert_state(state, decisions_at(Y), now=100.0, hold_period_s=1800.0)
        assert state.active_level is Y and state.since == 100.0
        assert len(notes) == 1
        assert notes[0].level is Y and not notes[0].all_clear

    def test_holding_level_does_not_renotify(self):
        state = AlertState(active_level=Y, since=100.0)
        state, notes = step_alert_state(state, decisions_at(Y), 200.0, 1800.0)
        assert notes == []
        assert state.since == 100.0

    def test_no_deescalation_before_hold_period(self):
        state = AlertState(active_level=R, since=100.0)
        state, notes = step_alert_state(state, decisions_at(G), 200.0, 1800.0)
        assert state.active_level is R and state.below_since == 200.0
        assert notes == []
        state, notes = step_alert_state(state, decisions_at(G), 200.0 + 1799.0, 1800.0)
        assert state.active_level is R
        assert notes == []

    def test_deescalation_after_hold_period(self):
        state = AlertState(active_level=R, since=100.0, below_since=200.0)
        state, notes = step_alert_state(state, decisions_at(G), 2000.0, 1800.0)
        assert state.active_level is G
        assert len(notes) == 1 and notes[0].all_clear

    def test_recovery_resets_hold_window(self):
        state = AlertState(active_level=R, since=100.0, below_since=200.0)
        state, _ = step_alert_state(state, decisions_at(R), 300.0, 1800.0)
        assert state.below_since is None
        state, notes = step_alert_state(state, decisions_at(G), 5000.0, 1800.0)
        assert state.active_level is R and notes == []  # window restarted

    def test_zero_hold_period_deescalates_immediately(self):
        state = AlertState(active_level=O, since=0.0)
        state, notes = step_alert_state(state, decisions_at(Y), 10.0, 0.0)
        assert state.active_level is Y
        assert notes[0].all_clear

    def test_escalation_can_skip_levels(self):
        state, notes = step_alert_state(AlertState(), decisions_at(R), 5.0, 1800.0)
        assert state.active_level is R
        assert notes[0].level is R


def note(level=Y, ts=100.0) -> Notification:
    return Notification(
        ts=ts, level=level, mode=AlertMode.MULTI, source=ValueSource.CURRENT,
        exceedances=exc(rain=True), message=f"{level.name} test",
    )


class FlakySink:
    name = "flaky"

    def __init__(self, failures: int):
        self.failures = failures
        self.delivered = 0

    def send(self, _):
        if self.failures > 0:
            self.failures -= 1
            raise RuntimeError("transient")
        self.delivered += 1


class TestDispatcher:
    def test_console_and_file_sinks(self, tmp_path, capsys):
        dispatcher = Dispatcher([ConsoleSink(), FileSink(tmp_path)])
        results = dispatcher.dispatch(note())
        assert [r.ok for r in results] == [True, True]
        assert "YELLOW" in capsys.readouterr().out
        lines = (tmp_path / "alerts.ndjson").read_text().splitlines()
        record = json.loads(lines[0])
        assert set(record) == {"ts", "level", "mode", "source", "exceedances", "message"}
        assert record["level"] == "YELLOW"
        assert record["exceedances"]["rain"] is True

    def test_duplicate_key_suppressed(self, tmp_path):
        dispatcher = Dispatcher([FileSink(tmp_path)])
        dispatcher.dispatch(note())
        results = dispatcher.dispatch(note())
        assert all(r.suppressed for r in results)
        assert len((tmp_path / "alerts.ndjson").read_text().splitlines()) == 1

    def test_distinct_transitions_not_suppressed(self, tmp_path):
        dispatcher = Dispatcher([FileSink(tmp_path)])
        dispatcher.dispatch(note(ts=100.0))
        results = dispatcher.dispatch(note(ts=200.0))
        assert results[0].ok

    def test_sink_failure_does_not_block_others(self, tmp_path):
        class BrokenSink:
            name = "broken"

            def send(self, _):
                raise OSError("down")

        dispatcher = Dispatcher([BrokenSink(), FileSink(tmp_path)])
        results = dispatcher.dispatch(note())
        assert [r.ok for r in results] == [False, True]
        assert results[0].error
        assert (tmp_path / "alerts.ndjson").exists()

    def test_single_retry_recovers_transient_failure(self):
        sink = FlakySink(failures=1)
        results = Dispatcher([sink]).dispatch(note())
        assert results[0].ok and sink.delivered == 1

    def test_two_failures_exhaust_retry(self):
        sink = FlakySink(failures=2)
        results = Dispatcher([sink]).dispatch(note())
        assert not results[0].ok

    def test_sms_outbox(self, tmp_path):
        Dispatcher([SmsOutboxSink(tmp_path)]).dispatch(note())
        assert (tmp_path / "sms_outbox.txt").read_text() == "YELLOW test\n"

    def test_requires_a_sink(self):
        with pytest.raises(ValueError):
            Dispatcher([])


class TestWebhookSink:
    def test_posts_json_record(self):
        received = []

        class Handler(BaseHTTPRequestHandler):
            def do_POST(self):
                length = int(self.headers["Content-Length"])
                received.append(json.loads(self.rfile.read(length)))
                self.send_response(200)
                self.end_headers()

            def log_message(self, *args):
                pass

        server = HTTPServer(("127.0.0.1", 0), Handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            url = f"http://127.0.0.1:{server.server_address[1]}/hook"
            results = Dispatcher([WebhookSink(url)]).dispatch(note())
            assert results[0].ok
            assert received[0]["level"] == "YELLOW"
        finally:
            server.shutdown()
            server.server_close()

    def test_unreachable_target_recorded_as_failure(self, tmp_path):
        dispatcher = Dispatcher([
            WebhookSink("http://127.0.0.1:1/unreachable", timeout=0.2),
            FileSink(tmp_path),
        ])
        results = dispatcher.dispatch(note())
        assert not results[0].ok
        assert results[1].ok


# ---------------------------------------------------------------------------
# AlertEngine: incremental state against a from-scratch evaluation
# ---------------------------------------------------------------------------

T0 = 1_270_166_400
RAIN, PIEZO, EXTENSO, INCLINO, TILT = (
    SensorKind.RAIN_GAUGE,
    SensorKind.PIEZOMETER,
    SensorKind.EXTENSOMETER,
    SensorKind.INCLINOMETER,
    SensorKind.TILTMETER,
)
FIVE_SENSORS = (RAIN, PIEZO, EXTENSO, INCLINO, TILT)  # in ValueSnapshot order


# -- the from-scratch rain oracle ------------------------------------------------
# The station's engine keeps its rain state incrementally; these are the
# whole-window functions it replaced, kept verbatim as ScratchReference's
# oracle. tests/test_analytics.py checks them against segment_events.

@dataclass(frozen=True)
class RainfallFeatures:
    total_mm: float
    event_duration_h: float | None  # None when no event is active
    event_intensity_mm_per_h: float | None


def active_event(
    rain: list[tuple[float, float]] | np.ndarray,
    now: float,
    dry_gap: float,
    interval: float,
) -> RainEvent | None:
    """The last rain event of a time-ordered series, if it is still active.

    An event is active when less than ``dry_gap`` of dry time has elapsed
    since its last wet sample. The event is ``segment_events(...)[-1]``,
    found by ``last_event`` over the (timestamp, mm) pairs, which may be a
    list or an (n, 2) array. The series is not checked for order.
    """
    _check_dry_gap(dry_gap)
    pairs = np.asarray(rain, dtype=float).reshape(-1, 2)
    found = last_event(pairs[:, 0], pairs[:, 1], dry_gap, interval)
    if found is None:
        return None
    first, end, total = found
    if (now - end) - interval >= dry_gap:
        return None
    return RainEvent(start=first - interval, end=end, total_mm=total)


def compute_rainfall_features(
    rain: list[tuple[float, float]],
    now: float,
    dry_gap: float,
    sample_interval: float | None = None,
) -> RainfallFeatures:
    """Window totals plus the active event's (duration, intensity), if any."""
    _check_ordered(rain)
    interval = sample_interval if sample_interval is not None else _infer_interval(rain)
    event = active_event(rain, now, dry_gap, interval)
    return RainfallFeatures(
        total_mm=sum(mm for _, mm in rain),
        event_duration_h=event.duration_h if event is not None else None,
        event_intensity_mm_per_h=event.mean_intensity_mm_per_h if event is not None else None,
    )


class ScratchReference:
    """Snapshots rebuilt from the whole window on every batch.

    Windows are kept as the engine keeps them (sorted, capped by count);
    everything derived from them is recomputed through the analytics
    functions and the rain oracle above, with no state carried between
    batches.
    """

    def __init__(self, analysis: AnalysisConfig, horizon: int):
        self.analysis = analysis
        self.horizon = horizon
        self.now = 0.0
        self.windows = {kind: [] for kind in SensorKind}

    def observe(self, records):
        cap = self.analysis.max_window_samples
        for rec in records:
            window = self.windows[rec.sensor]
            item = (float(rec.timestamp), rec.value)
            if window and item[0] < window[-1][0]:
                window.insert(bisect.bisect_right(window, item), item)
            else:
                window.append(item)
            del window[: max(0, len(window) - cap)]
            self.now = max(self.now, float(rec.timestamp))

    def latest(self, kind):
        window = self.windows[kind]
        return window[-1][1] if window else None

    def current(self) -> ValueSnapshot:
        rain, now = self.windows[RAIN], self.now
        intensity = event = None
        if rain:
            width = INTENSITY_WINDOW_S
            intensity = sum(mm for t, mm in rain if now - width < t <= now) / (width / 3600.0)
            feats = compute_rainfall_features(rain, now, self.analysis.dry_gap_h * 3600.0)
            if feats.event_duration_h is not None:
                d = feats.event_duration_h
                event = RainEvent(now - d * 3600.0, now, feats.event_intensity_mm_per_h * d)
        return ValueSnapshot(
            intensity, self.latest(PIEZO), self.latest(EXTENSO), self.latest(INCLINO),
            self.latest(TILT), event,
        )

    def forecast(self, values):
        try:
            model = ar_fit(values, self.analysis.ar_order)
            return max(ar_forecast(model, values, self.horizon))
        except (InsufficientDataError, InvalidSeriesError):
            return None

    def forecast_input(self, kind) -> list[float]:
        """The values ``kind``'s forecast is fitted to: hourly bins for rain, else the window."""
        window = self.windows[kind]
        if kind is not RAIN:
            return [v for _, v in window]
        bins = {}
        for t, mm in window:
            bins[int(t // 3600)] = bins.get(int(t // 3600), 0.0) + mm
        return [bins.get(h, 0.0) for h in range(min(bins), max(bins) + 1)] if bins else []

    def predicted(self) -> ValueSnapshot:
        return ValueSnapshot(*(self.forecast(self.forecast_input(kind)) for kind in FIVE_SENSORS))


def evaluate_spied(engine: AlertEngine, batch) -> list[tuple[ValueSnapshot, ValueSnapshot]]:
    """Run one batch; if it was judged, return the (current, predicted)
    snapshots that ``AlertEngine.snapshots`` gives after it.

    A batch is judged when it builds the current snapshot. It may settle
    before any refit, so its forecasts are read after it, as every later
    decision would compute them.
    """
    built = []
    current = engine._current_snapshot

    def spy():
        built.append(True)
        return current()

    with mock.patch.object(engine, "_current_snapshot", spy):
        engine.evaluate_batch(batch)
    return [engine.snapshots()] if built else []


# One stream step: (sensor, how time moves, seconds, value). "step" advances
# the clock by 600-5400 s, "gap" by several hours, "same" repeats the latest
# timestamp and "back" goes into the past without moving the clock. A value
# of None repeats the sensor's previous one, so that runs of one value make
# windows flat, and a later value makes them not flat again.
_STEPS = st.tuples(
    st.sampled_from([RAIN] * 5 + [PIEZO, EXTENSO, INCLINO, TILT]),
    st.sampled_from(["step"] * 6 + ["gap", "same", "back", "back"]),
    st.integers(600, 5400),
    st.one_of(
        st.sampled_from([0.0, 0.0, 0.2, 0.4, 1.0, 3.0, 8.6, 20.0, 42.0]),
        st.floats(-20.0, 120.0, allow_nan=False, allow_infinity=False),
        st.none(),
        st.none(),
        st.none(),
        st.none(),
    ),
)

# Streams long enough, and caps small enough, that most drawn examples
# evict, fit an AR forecast and go up the ladder: hypothesis keeps a list
# near twice its min_size, and a shorter stream seldom does any of these.
LONG_STREAMS = st.lists(_STEPS, min_size=16, max_size=96)
SMALL_CAPS = st.integers(4, 16)


def build_stream(steps) -> list[CalibratedReading]:
    clock, records, last = T0, [], {}
    for seq, (kind, move, seconds, value) in enumerate(steps):
        value = last[kind] = last.get(kind, 0.0) if value is None else value
        if move == "step":
            clock += seconds
        elif move == "gap":
            clock += seconds * 8
        ts = clock - seconds * 2 if move == "back" else clock
        if kind is RAIN:
            value = abs(value) % 12.0
        records.append(CalibratedReading(node_id=1, timestamp=ts, sensor=kind, value=value, seq=seq))
    return records


def batched(records, batch_sizes):
    """``records`` cut into consecutive batches of the sizes in ``batch_sizes``, cycled."""
    i = 0
    for size in itertools.cycle(batch_sizes):
        if i >= len(records):
            return
        yield records[i : i + size]
        i += size


def assert_matches_reference(records, analysis: AnalysisConfig, batch_sizes) -> None:
    """Every batch is judged, and after it ``snapshots()`` equals the from-scratch snapshots."""
    engine = AlertEngine(TH, analysis)
    reference = ScratchReference(analysis, TH.prediction_horizon)
    for batch in batched(records, batch_sizes):
        seen = evaluate_spied(engine, batch)
        reference.observe(batch)
        assert seen == [(reference.current(), reference.predicted())]


class TestIncrementalEngine:
    @settings(max_examples=150, deadline=None)
    @given(
        steps=LONG_STREAMS,
        batch_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
        cap=SMALL_CAPS,
        dry_gap_h=st.sampled_from([1.0, 6.0]),
        ar_order=st.sampled_from([1, 2]),
    )
    def test_snapshots_equal_a_from_scratch_evaluation(self, steps, batch_sizes, cap, dry_gap_h, ar_order):
        analysis = AnalysisConfig(dry_gap_h=dry_gap_h, ar_order=ar_order, max_window_samples=cap)
        assert_matches_reference(build_stream(steps), analysis, batch_sizes)

    @pytest.mark.parametrize("offsets", [(0, 1800), (0, 0, 2400), (3599, 3600)])
    def test_eviction_inside_an_hour_rebins_it(self, offsets):
        # Several samples per hour in a window that evicts one at a time: the
        # oldest hour keeps a partial bin, which the rain forecast reads.
        records = [
            CalibratedReading(1, T0 + 3600 * hour + off, RAIN, 0.5 + hour % 3 + 0.25 * j, 0)
            for hour in range(12) for j, off in enumerate(offsets)
        ]
        analysis = AnalysisConfig(ar_order=1, max_window_samples=8)
        assert_matches_reference(records, analysis, [1])

    def test_full_default_windows(self):
        # The default 512-sample windows on all five sensors, filled and then
        # evicting for a few hundred batches, with repeated and past timestamps.
        rng = random.Random(512)
        kinds = [RAIN, PIEZO, EXTENSO, INCLINO, TILT]
        values = [0.0, 0.0, 0.0, 0.2, 1.0, 3.0, 8.6, -4.5, 42.0, 77.25]
        steps = [
            (
                kinds[k % 5],
                rng.choice(["step"] * 6 + ["gap", "same", "same", "back", "back"]),
                rng.choice([600, 1200, 1800, 3600]),
                rng.choice(values),
            )
            for k in range(3600)
        ]
        records = build_stream(steps)
        per_sensor = collections.Counter(r.sensor for r in records)
        assert min(per_sensor.values()) > AnalysisConfig().max_window_samples + 150
        batch_sizes = [4, 6, 5, 3, 7]
        assert len(records) / (sum(batch_sizes) / len(batch_sizes)) >= 700
        assert_matches_reference(records, AnalysisConfig(), batch_sizes)

    @pytest.mark.parametrize("kind", [PIEZO, TILT])
    def test_in_order_appends_across_buffer_growth_and_the_cap(self, kind):
        # In-order samples are written straight into the buffer's tail. Run
        # one series past every buffer size (16, 34, 70, ... columns), past
        # the 512 cap and past a compaction, with repeated timestamps and one
        # late sample, which takes the sorted-insert path.
        rng = random.Random(7)
        ts, records = T0, []
        for seq in range(1200):
            ts += rng.choice([600, 600, 1200, 0])
            records.append(CalibratedReading(1, ts, kind, rng.uniform(-5.0, 80.0), seq))
        late = records[700]
        records.insert(760, CalibratedReading(1, late.timestamp - 300, kind, 12.5, 5000))
        assert_matches_reference(records, AnalysisConfig(), [1, 3, 2, 16])

    @settings(max_examples=300, deadline=None)
    @given(
        times=st.lists(st.integers(0, 6), max_size=40),
        values=st.lists(st.sampled_from([-1.0, 0.0, 0.5, 2.0]), min_size=40, max_size=40),
        item=st.tuples(st.integers(0, 7), st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0])),
        lo=st.integers(0, 5),
        full_tail=st.booleans(),
        at_cap=st.booleans(),
    )
    def test_out_of_order_insert_lands_where_a_pair_list_puts_it(self, times, values, item, lo, full_tail, at_cap):
        # Sorted by time only: appends leave an equal-time run in arrival
        # order, so runs need not be sorted by value. The live columns start
        # at ``lo`` and end at the buffer's last column or before free ones.
        pairs = sorted(zip((float(t) for t in times), values), key=lambda p: p[0])
        n = len(pairs)
        columns = _Columns(2)
        columns.buf = np.full((2, lo + n + (0 if full_tail else 3)), np.nan)
        columns.buf[:, lo : lo + n] = np.array(pairs).reshape(-1, 2).T
        columns.lo, columns.hi = lo, lo + n
        cap = max(n, 1) if at_cap else n + 1
        t, v = float(item[0]), item[1]
        columns.insert_sorted(t, v, cap)
        bisect.insort(pairs, (t, v))
        assert list(zip(columns.row(0).tolist(), columns.row(1).tolist())) == pairs[-cap:]

    @settings(max_examples=200, deadline=None)
    @given(cap=st.integers(1, 40), n=st.integers(1, 160))
    @example(cap=4, n=60)  # compacts to the buffer's front
    @example(cap=40, n=160)  # grows the buffer
    def test_append_reports_each_drop_and_keeps_it_readable(self, cap, n):
        columns = _Columns(2)
        for k in range(n):
            front = columns.live[:, 0].tolist() if len(columns) else None
            dropped = columns.append(float(k), -0.5 * k, cap)
            assert dropped == (k >= cap)
            assert columns.row(0).tolist() == [float(j) for j in range(max(0, k + 1 - cap), k + 1)]
            if dropped:
                assert columns.buf[:, columns.lo - 1].tolist() == front


def five_sensor_stream(ticks: int, seed: int) -> list[CalibratedReading]:
    """``ticks`` hours, each a reading of all five sensors at one timestamp.

    In the first 20 ticks the clock may also skip an hour, repeat the
    latest hour or give an hour three back, which splits the forecast
    inputs into groups of different lengths; after that it steps hourly,
    so once those ticks have left a window of ``cap`` samples, ``cap`` + 20
    ticks in, the rain bins and the four other windows have one length.
    """
    rng = random.Random(seed)
    clock, records = T0, []
    for tick in range(ticks):
        move = rng.choice(["step", "step", "gap", "same", "back"]) if tick < 20 else "step"
        clock += {"step": 3600, "gap": 7200}.get(move, 0)
        ts = clock - 3 * 3600 if move == "back" else clock
        for kind in FIVE_SENSORS:
            value = rng.choice([0.0, 0.2, 1.0, 3.0, 8.6]) if kind is RAIN else rng.uniform(-5.0, 80.0)
            records.append(CalibratedReading(1, ts, kind, value, len(records)))
    return records


def counting_gelsd(heights: list):
    """Patch ``analytics._gelsd`` to append the stack height of every LAPACK call to ``heights``."""
    gelsd = analytics._gelsd

    def counted(a, *args, **kwargs):
        heights.append(a.shape[0])
        return gelsd(a, *args, **kwargs)

    return mock.patch.object(analytics, "_gelsd", counted)


def is_flat(values: list[float], order: int) -> bool:
    """Whether an AR(order) fit of ``values`` has zero coefficients without
    a solve: at least ``2 * order + 2`` values, all one finite ``v``, whose
    sum as the solver takes it (``np.add.reduce`` over a stack), over their
    count, is ``v``."""
    n = len(values)
    return (
        n >= 2 * order + 2
        and math.isfinite(values[0])
        and all(v == values[0] for v in values)
        and float(np.add.reduce(np.array([values]), axis=1)[0]) / n == values[0]
    )


def assert_one_solve_per_length(records, analysis: AnalysisConfig, batch_sizes) -> list[int]:
    """Each batch and a ``snapshots()`` after it make one LAPACK call per
    distinct length of the forecast inputs the batch changed, skipping those
    too short to fit and the flat ones; returns the stack heights of the
    calls. A batch that settles on bounds leaves its refits to that
    ``snapshots()``."""
    engine = AlertEngine(TH, analysis)
    reference = ScratchReference(analysis, TH.prediction_horizon)
    heights = []
    changed = set(FIVE_SENSORS)  # the first batch refits every series
    with counting_gelsd(heights):
        for batch in batched(records, batch_sizes):
            reference.observe(batch)
            changed.update(r.sensor for r in batch)
            inputs = [reference.forecast_input(kind) for kind in changed]
            lengths = {len(values) for values in inputs if not is_flat(values, analysis.ar_order)}
            before = len(heights)
            engine.evaluate_batch(batch)
            engine.snapshots()
            assert len(heights) - before == len({n for n in lengths if n >= 2 * analysis.ar_order + 2})
            changed.clear()
    return heights


class TestStackedForecasts:
    """Dirty series of one length are forecast in one stacked solve."""

    @pytest.mark.parametrize("cap", [8, 16, 512])
    def test_five_sensors_per_batch_match_a_from_scratch_evaluation(self, cap):
        records = five_sensor_stream(cap + 60, seed=cap)
        heights = []
        forecast_rows = alert_module.ar_forecast_max_rows

        def spy(rows, *args):
            heights.append(len(rows))
            return forecast_rows(rows, *args)

        with mock.patch.object(alert_module, "ar_forecast_max_rows", spy):
            assert_matches_reference(records, AnalysisConfig(max_window_samples=cap), [5])
        assert heights[-40:] == [5] * 40  # once the windows are clean, all five in one solve
        assert {1, 4} <= set(heights)  # before that, rain apart from the other four

    @pytest.mark.parametrize("cap", [8, 16, 512])
    def test_one_solve_per_length_on_five_sensor_batches(self, cap):
        heights = assert_one_solve_per_length(
            five_sensor_stream(cap + 60, seed=cap), AnalysisConfig(max_window_samples=cap), [5]
        )
        assert heights[-40:] == [5] * 40

    @settings(max_examples=60, deadline=None)
    @given(
        steps=st.lists(_STEPS, min_size=1, max_size=120),
        batch_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
        cap=st.sampled_from([8, 16]),
        ar_order=st.sampled_from([1, 2]),
    )
    def test_one_solve_per_length_on_mixed_streams(self, steps, batch_sizes, cap, ar_order):
        analysis = AnalysisConfig(ar_order=ar_order, max_window_samples=cap)
        assert_one_solve_per_length(build_stream(steps), analysis, batch_sizes)


def rain_records(times, values):
    return [CalibratedReading(1, t, RAIN, mm, seq) for seq, (t, mm) in enumerate(zip(times, values))]


class TestRainAppendPath:
    """In-order rain samples advance the bins, the gaps and the cached event
    from the appended and the evicted sample; every snapshot still equals a
    from-scratch evaluation."""

    CAPS = [8, 16, 512]

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize(
        "pattern", [[0.4, 1.2, 0.2, 2.6], [0.4, 0.0, 1.2, 0.2, 0.0, 0.0, 3.0, 0.0]], ids=["wet", "showers"]
    )
    def test_storm_longer_than_the_window(self, cap, pattern):
        # Dry spans shorter than dry_gap: the event spans the window, so its
        # first wet sample is evicted again and again.
        n = 2 * cap + 40
        records = rain_records([T0 + 3600 * k for k in range(n)], itertools.islice(itertools.cycle(pattern), n))
        assert_matches_reference(records, AnalysisConfig(ar_order=1, max_window_samples=cap), [1, 3, 2])

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("delta", [-1, 0, 1])
    def test_dry_spell_around_dry_gap(self, cap, delta):
        # Wet hours, six dry hours, then a wet sample whose dry span from the
        # last wet one is dry_gap + delta seconds: one event below dry_gap,
        # two from dry_gap on. A pore reading first moves ``now`` to the same
        # edge without rain, where the old event stops being active.
        dry_gap = AnalysisConfig().dry_gap_h * 3600.0
        last_wet = T0 + 3600 * 9
        times = [T0 + 3600 * k for k in range(16)]
        values = [1.5] * 10 + [0.0] * 6
        edge = int(last_wet + 3600 + dry_gap + delta)
        records = rain_records(times, values)
        records.append(CalibratedReading(1, edge, PIEZO, 20.0, 100))
        records += rain_records([edge] + [edge + 3600 * k for k in range(1, 12)], [0.8, 0.0, 2.2] * 4)
        assert_matches_reference(records, AnalysisConfig(max_window_samples=cap), [1])

    @pytest.mark.parametrize("cap", CAPS)
    def test_several_samples_per_hour_and_equal_times(self, cap):
        offsets = [0, 0, 900, 1800, 1800, 3599]
        times = [T0 + 3600 * h + off for h in range(14) for off in offsets]
        values = [0.2 + 0.1 * (k % 7) for k in range(len(times))]
        assert_matches_reference(rain_records(times, values), AnalysisConfig(max_window_samples=cap), [1, 4, 2])

    @pytest.mark.parametrize("cap", CAPS)
    def test_zero_negative_zero_and_negative_mm(self, cap):
        values = [0.0, -0.0, -1.5, 2.0, -0.0, 0.0, 3.0, -0.25, 1.0]
        times = [T0 + 1800 * k for k in range(90)]
        records = rain_records(times, itertools.islice(itertools.cycle(values), len(times)))
        assert_matches_reference(records, AnalysisConfig(ar_order=1, max_window_samples=cap), [1, 2])

    def test_negative_zero_alone_bins_to_positive_zero(self):
        # A rebin sums from 0.0, and 0.0 + -0.0 is 0.0.
        engine = AlertEngine(TH, AnalysisConfig(max_window_samples=8))
        records = rain_records([T0 + 3600 * k for k in range(12)], [-0.0] * 12)
        engine.observe(records[:1])
        assert not np.signbit(engine._bins.row(0)).any()
        engine.observe(records[1:])
        bins = engine._bins.row(0)
        assert len(bins) == 8 and not np.signbit(bins).any()

    @pytest.mark.parametrize("cap", CAPS)
    def test_jittered_intervals_move_the_median(self, cap):
        rng = random.Random(cap)
        t, times = T0, []
        for _ in range(3 * cap // 2 + 60):
            t += rng.choice([1800, 3500, 3600, 3600, 3700, 5400, 7 * 3600, 0])
            times.append(t)
        values = [rng.choice([0.0, 0.0, 0.2, 0.4, 1.6, 6.0]) for _ in times]
        assert_matches_reference(rain_records(times, values), AnalysisConfig(max_window_samples=cap), [1, 3])

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("late_mm", [0.0, 2.5])
    def test_late_sample_after_a_run_of_appends(self, cap, late_mm):
        # Two events split by a long dry spell; the late sample lands in the
        # spell, dry or wet (which joins the two events).
        n = cap + 30
        values = [1.0 if k % 30 < 10 else 0.0 for k in range(n)]
        records = rain_records([T0 + 3600 * k for k in range(n)], values)
        spell = next(k for k in range(n - 10, 0, -1) if k % 30 == 15)
        late = CalibratedReading(1, T0 + 3600 * spell + 1200, RAIN, late_mm, 1000)
        records.insert(n - 4, late)
        assert_matches_reference(records, AnalysisConfig(max_window_samples=cap), [1])

    @pytest.mark.parametrize("late_offset", [600, 3000])
    def test_late_sample_evicts_inside_an_hour(self, late_offset):
        # Three samples an hour at the cap, the window's first at the start of
        # its hour: a late sample evicts it, and the two left in that hour are
        # re-summed. The window spans six hours, enough bins for a forecast.
        times = [T0 + 3600 * h + off for h in range(8) for off in (0, 1200, 2400)] + [T0 + 3600 * 8]
        records = rain_records(times, [0.3 + 0.1 * (k % 5) for k in range(len(times))])
        late = CalibratedReading(1, T0 + 3600 * 6 + late_offset, RAIN, 0.7, 1000)
        assert_matches_reference(records + [late], AnalysisConfig(ar_order=1, max_window_samples=16), [1])

    def counted_engine(self, cap):
        return AlertEngine(TH, AnalysisConfig(max_window_samples=cap))

    def test_steady_stream_recomputes_event_only_on_first_wet_eviction(self):
        # Hourly samples past the cap, steady interval: the snapshot never
        # recomputes the event from the window. In an all-wet storm every
        # append past the cap evicts the event's first wet sample, which is
        # all that recomputes it; dry hours in front of the event do not.
        cap, n = 16, 120
        engine = self.counted_engine(cap)
        with mock.patch.object(alert_module, "last_event", wraps=alert_module.last_event) as recompute:
            for k in range(n):
                engine.evaluate_batch(rain_records([T0 + 3600 * k], [0.6]))
            assert recompute.call_count == n - cap
            recompute.reset_mock()
            # Ten dry hours: each evicts the event's first wet sample. Then a
            # new event opens, and evicting the old one's samples or dry ones
            # leaves it as it is.
            for k in range(n, n + 10):
                engine.evaluate_batch(rain_records([T0 + 3600 * k], [0.0]))
            for k in range(n + 10, n + 10 + cap):
                engine.evaluate_batch(rain_records([T0 + 3600 * k], [0.0 if k % 2 else 1.0]))
            assert recompute.call_count == 10

    def test_late_sample_or_new_interval_segments_once(self):
        # The cap is above the 26 samples, so no eviction recomputes the event.
        engine = self.counted_engine(32)
        with mock.patch.object(alert_module, "last_event", wraps=alert_module.last_event) as segment:
            for k in range(12):
                engine.evaluate_batch(rain_records([T0 + 3600 * k], [0.6]))
            assert segment.call_count == 0
            engine.evaluate_batch(rain_records([T0 + 3600 * 8 + 600], [0.4]))  # late
            assert segment.call_count == 1
            engine.evaluate_batch(rain_records([T0 + 3600 * 12], [0.4]))
            assert segment.call_count == 1
            # Half-hour samples move the median gap, in one batch or more:
            # each batch that moves it segments once.
            moved = 0
            for k in range(12):
                before = engine._rain_interval()
                engine.evaluate_batch(rain_records([T0 + 3600 * 12 + 1800 * (k + 1)], [0.4]))
                moved += engine._rain_interval() != before
            assert moved >= 1
            assert segment.call_count == 1 + moved


class TestLateRainRebuild:
    """A late rain sample is inserted into the window, and the gaps, the
    bins and the window's ends are rebuilt from the window; every snapshot,
    including those of the in-order samples after it, still equals a
    from-scratch evaluation."""

    CAPS = TestRainAppendPath.CAPS

    @staticmethod
    def hourly(hours, offsets=(0,)):
        times = [T0 + 3600 * h + off for h in hours for off in offsets]
        return rain_records(times, [0.2 + 0.3 * (k % 5) for k in range(len(times))])

    def then_in_order(self, records, late, cap):
        """``records``, the ``late`` samples, then in-order hours past the cap again."""
        last_hour = int(records[-1].timestamp - T0) // 3600
        return records + late + self.hourly(range(last_hour + 1, last_hour + cap + 4))

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("fill", ["below the cap", "at the cap"])
    def test_older_than_every_sample_in_the_window(self, cap, fill):
        # Below the cap it becomes the window's first sample, hours before
        # its first bin; at the cap it is evicted again at once.
        n = cap // 2 if fill == "below the cap" else cap + 5
        records = self.hourly(range(n), offsets=(600,))
        late = rain_records([T0 - 3 * 3600 + 1200, T0 - 3600], [1.4, 0.0])
        records = self.then_in_order(records, late, cap)
        assert_matches_reference(records, AnalysisConfig(ar_order=1, max_window_samples=cap), [1, 2])

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("offsets", [(0,), (0, 1200, 2400)], ids=["one an hour", "three an hour"])
    def test_late_sample_that_evicts(self, cap, offsets):
        # At the cap the late sample evicts the window's first: its hour's
        # bin goes with it, or is re-summed over the samples left in it.
        records = self.hourly(range(cap // len(offsets) + 3), offsets)
        last = records[-1].timestamp
        late = rain_records([last - 5 * 3600 + 300, last - 7 * 3600 + 1500], [0.9, 2.1])
        records = self.then_in_order(records, late, cap)
        assert_matches_reference(records, AnalysisConfig(ar_order=1, max_window_samples=cap), [1])

    @pytest.mark.parametrize("cap", CAPS)
    def test_late_sample_into_an_hour_with_samples(self, cap):
        # Every fourth hour has no samples; cap is a multiple of 4. The late
        # samples go into the empty hour cap + 3, whose bin was 0.0, and
        # into hours cap + 1 and cap that have samples.
        records = self.hourly([h for h in range(cap + 6) if h % 4 != 3], offsets=(0, 1800))
        late = rain_records(
            [T0 + 3600 * (cap + 3) + 900, T0 + 3600 * (cap + 1) + 10, T0 + 3600 * cap + 2000], [0.7, 0.5, 1.3]
        )
        records = self.then_in_order(records, late, cap)
        assert_matches_reference(records, AnalysisConfig(max_window_samples=cap), [1, 3])

    @pytest.mark.parametrize("cap", CAPS)
    @pytest.mark.parametrize("late_mm", [0.1, 0.5, 0.9], ids=["below", "equal", "above"])
    def test_late_sample_at_an_equal_time(self, cap, late_mm):
        # The window's first and a middle sample share their time with the
        # late ones, which go before or after them by value, as a sorted
        # list of (time, value) pairs puts them.
        n = cap + 4
        first, middle = n - cap, n - cap // 2
        values = [0.5 if k in (first, middle) else 0.2 + 0.3 * (k % 5) for k in range(n)]
        records = rain_records([T0 + 3600 * k for k in range(n)], values)
        late = rain_records([T0 + 3600 * first, T0 + 3600 * middle], [late_mm, late_mm])
        records = self.then_in_order(records, late, cap)
        assert_matches_reference(records, AnalysisConfig(ar_order=1, max_window_samples=cap), [1])

    @pytest.mark.parametrize("cap", CAPS)
    def test_late_negative_zero(self, cap):
        # Into an hour with no samples, whose rebuilt bin is 0.0 + -0.0 = 0.0,
        # and into one with samples.
        records = self.hourly([h for h in range(cap + 4) if h != cap])
        late = rain_records([T0 + 3600 * cap + 100, T0 + 3600 * (cap - 2) + 100], [-0.0, -0.0])
        engine = AlertEngine(TH, AnalysisConfig(max_window_samples=cap))
        engine.observe(records + late[:1])
        assert not np.signbit(engine._bins.row(0)).any()
        records = self.then_in_order(records, late, cap)
        assert_matches_reference(records, AnalysisConfig(max_window_samples=cap), [1])

    @settings(max_examples=200, deadline=None)
    @given(
        times=st.lists(st.integers(0, 12 * 3600), min_size=1, max_size=30),
        values=st.lists(st.sampled_from([0.0, -0.0, 0.1, 0.2, 0.7, 3.0]), min_size=31, max_size=31),
        late=st.tuples(st.integers(-3 * 3600, 12 * 3600), st.sampled_from([0.0, -0.0, 0.1, 0.7])),
        cap=st.sampled_from([4, 8, 64]),
    )
    def test_rebuilt_state_equals_appending_the_window(self, times, values, late, cap):
        engine = AlertEngine(TH, AnalysisConfig(max_window_samples=cap))
        times = sorted(times)
        engine.observe(rain_records([T0 + t for t in times], values))
        engine.observe(rain_records([T0 + late[0]], [late[1]]))
        fresh = AlertEngine(TH, AnalysisConfig(max_window_samples=cap))
        window = engine._rain.row(0).tolist(), engine._rain.row(1).tolist()
        fresh.observe(rain_records(*window))
        assert engine._rain_gaps == fresh._rain_gaps
        assert engine._first_hour == fresh._first_hour
        assert engine._bins.row(0).tobytes() == fresh._bins.row(0).tobytes()

    def test_rebuild_runs_once_per_late_rain_sample(self):
        engine = AlertEngine(TH, AnalysisConfig(max_window_samples=16))
        original = AlertEngine._rebuild_rain
        with mock.patch.object(AlertEngine, "_rebuild_rain", autospec=True, side_effect=original) as rebuild:
            # In order past the cap, with equal times and late non-rain readings.
            for k in range(40):
                t = T0 + 1800 * (k - k % 3)
                engine.evaluate_batch(rain_records([t], [0.4 * (k % 2)]))
                engine.evaluate_batch([CalibratedReading(1, t - 7200 * (k % 2), PIEZO, 20.0 + k, k)])
            assert rebuild.call_count == 0
            # Two late rain samples in one batch, one more in the next.
            engine.evaluate_batch(rain_records([T0 + 1800 * 30 + 60, T0 + 1800 * 31 + 60], [0.2, 0.0]))
            assert rebuild.call_count == 2
            engine.evaluate_batch(rain_records([T0 + 1800 * 36 + 60], [0.3]))
            assert rebuild.call_count == 3
            for k in range(40, 60):
                engine.evaluate_batch(rain_records([T0 + 1800 * k], [0.6]))
            assert rebuild.call_count == 3


class TestBatchWithoutNewData:
    def storm_engine(self):
        engine = AlertEngine(TH, AnalysisConfig())
        batch = [CalibratedReading(1, T0 + 3600 * k, RAIN, 6.0, k) for k in range(1, 4)]
        notes = engine.evaluate_batch(batch)
        assert engine.state.active_level is Y and len(notes) == 1
        return engine

    def test_all_duplicate_batch_skips_analytics(self):
        engine = self.storm_engine()
        state, timeline = engine.state, list(engine.timeline)
        assert evaluate_spied(engine, []) == []
        assert engine.evaluate_batch([]) == []
        assert engine.state == state and engine.timeline == timeline

    def test_first_batch_is_evaluated_even_without_records(self):
        engine = AlertEngine(TH, AnalysisConfig())
        assert evaluate_spied(engine, []) == [(ValueSnapshot(), ValueSnapshot())]

    @pytest.mark.parametrize("hold", [0.0, 1800.0])
    def test_identical_decisions_twice_change_nothing(self, hold):
        """Why skipping is safe: the ladder is idempotent on repeated decisions at one ``now``."""
        for active, below_since, candidate in itertools.product(
            (G, Y, O, R), (None, 50.0, 900.0), (G, Y, O, R)
        ):
            start = AlertState(active_level=active, since=10.0, below_since=below_since)
            decisions = decisions_at(candidate, now=1000.0)
            once, _ = step_alert_state(start, decisions, 1000.0, hold)
            twice, notes = step_alert_state(once, decisions, 1000.0, hold)
            assert twice == once and notes == [], (active, below_since, candidate)


# ---------------------------------------------------------------------------
# Judging a batch on levels alone against stepping the ladder on every batch
# ---------------------------------------------------------------------------


class SteppingEngine(AlertEngine):
    """The reference for judging on levels: every batch with new data builds
    the four decisions and steps the ladder on them."""

    def evaluate_batch(self, records):
        self.observe(records)
        if not self._unjudged:
            return []
        self._unjudged = False
        decisions = evaluate(*self.snapshots(), self.thresholds, self.now)
        new_state, notes = step_alert_state(
            self.state, decisions, self.now, self.thresholds.hold_period_s
        )
        if new_state.active_level != self.state.active_level:
            self.timeline.append((self.now, new_state.active_level))
        self.state = new_state
        return notes


def assert_steps_as_the_stepping_engine(batches, th: Thresholds, analysis: AnalysisConfig):
    """Feed both engines the same batches; after each, their states,
    timelines and returned notes are equal, and the engine
    built the four decisions exactly when stepping could change its state:
    inside a hold, or when the step moved the ladder or started a hold.
    Returns the engine, whether each batch built the decisions, and each
    batch's number of stacked AR solves."""
    engine = AlertEngine(th, analysis)
    oracle = SteppingEngine(th, analysis)
    built, solves = [], []
    evaluated, solved = [], []
    forecast_rows = alert_module.ar_forecast_max_rows

    def spy(*args):
        evaluated.append(True)
        return evaluate(*args)

    def counted(*args):
        solved.append(True)
        return forecast_rows(*args)

    for batch in batches:
        before = oracle.state
        evaluated.clear()
        solved.clear()
        with mock.patch.object(alert_module, "evaluate", spy), \
                mock.patch.object(alert_module, "ar_forecast_max_rows", counted):
            notes = engine.evaluate_batch(batch)
        assert notes == oracle.evaluate_batch(batch)
        assert engine.state == oracle.state
        assert engine.timeline == oracle.timeline
        built.append(bool(evaluated))
        solves.append(len(solved))
        assert built[-1] == (before.below_since is not None or oracle.state != before)
    return engine, built, solves


class TestLevelOnlyJudgement:
    @settings(max_examples=150, deadline=None)
    @given(
        steps=LONG_STREAMS,
        batch_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
        hold=st.sampled_from([0.0, 1800.0, 21600.0]),
        cap=SMALL_CAPS,
    )
    def test_same_ladder_as_stepping_every_batch(self, steps, batch_sizes, hold, cap):
        th = dataclasses.replace(TH, hold_period_s=hold)
        analysis = AnalysisConfig(max_window_samples=cap)
        records = build_stream(steps)
        engine, _, _ = assert_steps_as_the_stepping_engine(batched(records, batch_sizes), th, analysis)
        # No snapshots() ran between the batches, so refits deferred over
        # several of them, through evictions and late inserts, are done only here.
        reference = ScratchReference(analysis, th.prediction_horizon)
        reference.observe(records)
        assert repr(engine.snapshots()) == repr((reference.current(), reference.predicted()))

    def test_dip_shorter_than_the_hold_then_the_full_hold(self):
        # A 4-sample window never holds the 6 an AR(2) fit needs, so only the
        # current rain intensity (mm in the last hour, threshold 5) moves the ladder.
        th = dataclasses.replace(TH, hold_period_s=7200.0)
        hours_mm = [(0, 0.0), (1, 6.0), (1.5, 1.0), (2, 0.0), (3, 0.0), (4, 6.0),
                    (5, 0.0), (6, 0.0), (7, 0.0), (8, 0.0)]
        records = [CalibratedReading(1, T0 + int(3600 * h), RAIN, mm, k) for k, (h, mm) in enumerate(hours_mm)]
        engine = AlertEngine(th, AnalysisConfig(max_window_samples=4))
        states, notes = [], []
        for rec in records:
            notes += engine.evaluate_batch([rec])
            states.append((engine.state.active_level, engine.state.below_since))
        below = [T0 + 3600 * h for h in (2, 5)]
        assert states == [
            (G, None), (Y, None), (Y, None),  # escalate, then stay
            (Y, below[0]), (Y, below[0]),  # dip for one hour of the two-hour hold
            (Y, None),  # return
            (Y, below[1]), (Y, below[1]), (G, None),  # dip for the full hold
            (G, None),
        ]
        assert [(n.level, n.all_clear, n.ts) for n in notes] == [
            (Y, False, T0 + 3600), (G, True, T0 + 7 * 3600)
        ]
        _, built, _ = assert_steps_as_the_stepping_engine(
            batched(records, [1]), th, AnalysisConfig(max_window_samples=4)
        )
        assert built == [False, True, False, True, True, True, True, True, True, False]


# ---------------------------------------------------------------------------
# Refits deferred while the ladder's level cannot move
# ---------------------------------------------------------------------------


def hourly_batches(phases, steady=()) -> list[list[CalibratedReading]]:
    """One batch an hour. Each phase is (hours, {sensor: value}); a batch
    holds a reading of each of the phase's sensors, its value moved by a
    few tenths from hour to hour, so that every window fits an AR model,
    but for the sensors in ``steady``, which read their value unmoved."""
    batches, hour = [], 0
    for hours, values in phases:
        for _ in range(hours):
            hour += 1
            moved = 0.1 * (hour % 4)
            batches.append([
                CalibratedReading(1, T0 + 3600 * hour, kind, value + (0.0 if kind in steady else moved), 100 * hour + k)
                for k, (kind, value) in enumerate(values.items())
            ])
    return batches


QUIET = {RAIN: 0.2, PIEZO: 20.0, EXTENSO: 1.0, INCLINO: 0.5, TILT: 0.8}
# Rain, pore pressure and displacement over their thresholds in TH (5 mm/h, 50 kPa, 5 mm).
STORM = {RAIN: 8.0, PIEZO: 70.0, EXTENSO: 8.0, INCLINO: 0.5, TILT: 0.8}


class TestDeferredRefits:
    """Above GREEN, a batch whose level no forecast could move refits
    nothing; its series are refitted, bit for bit, when a later decision or
    ``snapshots()`` needs them."""

    @staticmethod
    def run(batches, deferred: set[str], analysis=AnalysisConfig()):
        """The stepping engine's checks, then: the series whose refits the
        last batches deferred are ``deferred``, a batch with no new data is
        still not judged, and ``snapshots()`` refits the deferred series to
        the from-scratch forecasts."""
        engine, built, solves = assert_steps_as_the_stepping_engine(batches, TH, analysis)
        assert engine._dirty == deferred
        assert evaluate_spied(engine, []) == []
        reference = ScratchReference(analysis, TH.prediction_horizon)
        reference.observe([rec for batch in batches for rec in batch])
        assert repr(engine.snapshots()) == repr((reference.current(), reference.predicted()))
        return engine, built, solves

    @pytest.mark.parametrize("cap", [8, 512])
    def test_climb_to_red_and_stay(self, cap):
        # Rain, then pore pressure, then displacement go over: YELLOW, ORANGE,
        # RED. At RED the current values alone give RED, so every later batch
        # settles whatever its forecasts are.
        batches = hourly_batches([
            (12, QUIET),
            (3, {**QUIET, RAIN: 8.0}),
            (3, {**QUIET, RAIN: 8.0, PIEZO: 70.0}),
            (30, STORM),
        ])
        every = set(alert_module._KEY_BY_KIND.values())
        engine, built, solves = self.run(batches, every, AnalysisConfig(max_window_samples=cap))
        assert [level for _, level in engine.timeline] == [Y, O, R]
        red = next(k for k, batch in enumerate(batches) if batch[0].timestamp == engine.timeline[-1][0])
        assert solves[red] > 0
        assert solves[red + 1 :] == [0] * 29 and built[red + 1 :] == [False] * 29

    def test_hold_orange_while_only_rain_and_pore_report(self):
        # Displacement and inclination were last refitted below threshold, so
        # with rain and pore pressure over theirs no forecast of either can
        # move the level from ORANGE. A displacement reading dirties a series
        # whose forecast could give RED: that batch refits.
        storm = {RAIN: 8.0, PIEZO: 70.0}
        batches = hourly_batches([(12, QUIET), (10, storm), (1, {**storm, EXTENSO: 1.2}), (10, storm)])
        engine, built, solves = self.run(batches, {"rain", "pore"})
        assert engine.timeline == [(batches[12][0].timestamp, O)]
        assert solves[12] > 0
        assert solves[13:22] == [0] * 9
        assert solves[22] > 0
        assert solves[23:] == [0] * 10
        assert not any(built[13:])

    def test_green_never_defers(self):
        # At GREEN any dirty forecast could give a uni-parameter YELLOW.
        batches = hourly_batches([(30, QUIET)])
        engine, _, solves = self.run(batches, set())
        assert engine.state.active_level is G
        assert all(solves[k] > 0 for k in range(5, 30))  # once the windows hold 6 samples


# ---------------------------------------------------------------------------
# Flat windows forecast without a solve
# ---------------------------------------------------------------------------


# Values whose sum over any window length up to 512 is exact, so each
# steady window is flat once it holds the 2·ar_order + 2 values a fit needs.
STEADY = {RAIN: 0.0, PIEZO: 20.0, EXTENSO: 1.0, INCLINO: 0.5, TILT: 0.75}


# Runs of readings of one value from one sensor, (sensor, value, readings),
# an hour apart: a window turns flat during a long run and stops being flat
# when a run of another value reaches it. Over some lengths the sums of 0.4
# and 8.6 do not divide back to the value, and those windows are solved.
FLAT_RUNS = st.lists(
    st.tuples(st.sampled_from(FIVE_SENSORS), st.sampled_from([0.0, 0.4, 8.6, 20.0]), st.integers(1, 20)),
    min_size=1,
    max_size=12,
)


def run_stream(runs) -> list[CalibratedReading]:
    records, hour = [], 0
    for kind, value, readings in runs:
        for _ in range(readings):
            hour += 1
            records.append(CalibratedReading(1, T0 + 3600 * hour, kind, value, len(records)))
    return records


class TestFlatWindows:
    """A dirty series whose values are flat gets its forecast in closed
    form, bit for bit the solver's, and leaves the dirty set before the
    ladder is bounded."""

    @settings(max_examples=100, deadline=None)
    @given(
        runs=FLAT_RUNS,
        batch_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
        cap=st.sampled_from([8, 16, 512]),
        ar_order=st.sampled_from([1, 2]),
    )
    def test_runs_of_one_value(self, runs, batch_sizes, cap, ar_order):
        # The snapshots equal a from-scratch evaluation after every batch,
        # and only the changed series that are not flat are solved.
        analysis = AnalysisConfig(ar_order=ar_order, max_window_samples=cap)
        records = run_stream(runs)
        assert_matches_reference(records, analysis, batch_sizes)
        assert_one_solve_per_length(records, analysis, batch_sizes)

    def test_green_batches_of_flat_series_make_no_solve(self):
        analysis = AnalysisConfig()
        engine = AlertEngine(TH, analysis)
        reference = ScratchReference(analysis, TH.prediction_horizon)
        calls = []
        for batch in hourly_batches([(30, STEADY)], steady=STEADY):
            with counting_gelsd(calls):  # the reference's fits are not counted
                engine.evaluate_batch(batch)
                snapshots = engine.snapshots()
            reference.observe(batch)
            assert engine.state.active_level is G and not engine._dirty
            assert repr(snapshots) == repr((reference.current(), reference.predicted()))
        assert calls == []
        assert engine.snapshots()[1] == ValueSnapshot(0.0, 20.0, 1.0, 0.5, 0.75)

    def test_orange_with_a_flat_extensometer_settles(self):
        # The extensometer reads 1.0 mm throughout. At ORANGE the batches
        # dirty rain, pore pressure and the extensometer; its flat window is
        # forecast at 1.0 without a solve, so no forecast can give RED and
        # every batch after the escalation settles on the bounds.
        quiet = {**QUIET, EXTENSO: 1.0}
        storm = {RAIN: 8.0, PIEZO: 70.0, EXTENSO: 1.0}
        batches = hourly_batches([(12, quiet), (20, storm)], steady={EXTENSO})
        engine, built, solves = TestDeferredRefits.run(batches, {"rain", "pore"})
        assert engine.timeline == [(batches[12][0].timestamp, O)]
        assert solves[12] > 0
        assert solves[13:] == [0] * 19 and not any(built[13:])

    def test_flat_rain_bins_with_an_inexact_mean_still_solve(self):
        # 0.4 mm every hour gives bins of 0.4, but over 6, 7, 12, ... hours
        # their sum does not divide back to 0.4: those windows are solved.
        analysis = AnalysisConfig()
        engine = AlertEngine(TH, analysis)
        reference = ScratchReference(analysis, TH.prediction_horizon)
        calls, solved = [], []
        for hour in range(1, 41):
            batch = [CalibratedReading(1, T0 + 3600 * hour, RAIN, 0.4, hour)]
            with counting_gelsd(calls):
                engine.evaluate_batch(batch)
                snapshots = engine.snapshots()
            if calls:
                solved.append(hour)
                calls.clear()
            reference.observe(batch)
            assert repr(snapshots) == repr((reference.current(), reference.predicted()))
        assert solved == [n for n in range(6, 41) if float(np.add.reduce(np.full(n, 0.4))) / n != 0.4]
        assert solved[:4] == [6, 7, 12, 13]
