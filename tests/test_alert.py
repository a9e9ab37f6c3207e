"""Alert ladder, four-way evaluation, hysteresis and sink tests."""

import bisect
import collections
import itertools
import json
import random
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, HTTPServer
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopewatch import alert as alert_module
from slopewatch.domain import AlertLevel, CalibratedReading, SensorKind
from slopewatch.analytics import (
    InsufficientDataError,
    InvalidSeriesError,
    RainEvent,
    _check_dry_gap,
    _check_ordered,
    _infer_interval,
    antecedent_rainfall,
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


class ListSink:
    name = "list"

    def __init__(self):
        self.notes = []

    def send(self, note):
        self.notes.append(note)


# -- the from-scratch rain oracle ------------------------------------------------
# The station's engine keeps its rain state incrementally; these are the
# whole-window functions it replaced, kept verbatim as ScratchReference's
# oracle. tests/test_analytics.py checks them against segment_events.

@dataclass(frozen=True)
class RainfallFeatures:
    total_mm: float
    antecedent_mm: float
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
    lookback: float,
    dry_gap: float,
    sample_interval: float | None = None,
) -> RainfallFeatures:
    """Window totals plus the active event's (duration, intensity), if any."""
    _check_ordered(rain)
    interval = sample_interval if sample_interval is not None else _infer_interval(rain)
    event = active_event(rain, now, dry_gap, interval)
    return RainfallFeatures(
        total_mm=sum(mm for _, mm in rain),
        antecedent_mm=antecedent_rainfall(rain, now, lookback),
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
            feats = compute_rainfall_features(
                rain, now, self.analysis.antecedent_lookback_h * 3600.0,
                self.analysis.dry_gap_h * 3600.0,
            )
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

    def forecast_window(self, kind):
        window = self.windows[kind]
        return self.forecast([v for _, v in window]) if window else None

    def predicted(self) -> ValueSnapshot:
        rain_forecast = None
        if self.windows[RAIN]:
            bins = {}
            for t, mm in self.windows[RAIN]:
                bins[int(t // 3600)] = bins.get(int(t // 3600), 0.0) + mm
            rain_forecast = self.forecast([bins.get(h, 0.0) for h in range(min(bins), max(bins) + 1)])
        return ValueSnapshot(
            rain_forecast, self.forecast_window(PIEZO), self.forecast_window(EXTENSO),
            self.forecast_window(INCLINO), self.forecast_window(TILT),
        )


def evaluate_spied(engine: AlertEngine, batch) -> list[tuple[ValueSnapshot, ValueSnapshot]]:
    """Run one batch, returning the (current, predicted) snapshots it evaluated."""
    seen = []

    def spy(snapshot, predicted, th, now):
        seen.append((snapshot, predicted))
        return evaluate(snapshot, predicted, th, now)

    with mock.patch.object(alert_module, "evaluate", spy):
        engine.evaluate_batch(batch)
    return seen


# One stream step: (sensor, how time moves, seconds, value). "step" advances
# the clock by 600-5400 s, "gap" by several hours, "same" repeats the latest
# timestamp and "back" goes into the past without moving the clock.
_STEPS = st.tuples(
    st.sampled_from([RAIN] * 5 + [PIEZO, EXTENSO, INCLINO, TILT]),
    st.sampled_from(["step"] * 6 + ["gap", "same", "back", "back"]),
    st.integers(600, 5400),
    st.one_of(
        st.sampled_from([0.0, 0.0, 0.2, 0.4, 1.0, 3.0, 8.6, 42.0]),
        st.floats(-20.0, 120.0, allow_nan=False, allow_infinity=False),
    ),
)


def build_stream(steps) -> list[CalibratedReading]:
    clock, records = T0, []
    for seq, (kind, move, seconds, value) in enumerate(steps):
        if move == "step":
            clock += seconds
        elif move == "gap":
            clock += seconds * 8
        ts = clock - seconds * 2 if move == "back" else clock
        if kind is RAIN:
            value = abs(value) % 12.0
        records.append(CalibratedReading(node_id=1, timestamp=ts, sensor=kind, value=value, seq=seq))
    return records


def assert_matches_reference(records, analysis: AnalysisConfig, batch_sizes) -> None:
    """After every batch, the engine evaluated exactly the from-scratch snapshots."""
    engine = AlertEngine(TH, analysis, Dispatcher([ListSink()]))
    reference = ScratchReference(analysis, TH.prediction_horizon)
    i = 0
    for size in itertools.cycle(batch_sizes):
        if i >= len(records):
            break
        batch = records[i : i + size]
        i += size
        seen = evaluate_spied(engine, batch)
        reference.observe(batch)
        assert seen == [(reference.current(), reference.predicted())]


class TestIncrementalEngine:
    @settings(max_examples=150, deadline=None)
    @given(
        steps=st.lists(_STEPS, min_size=1, max_size=160),
        batch_sizes=st.lists(st.integers(1, 6), min_size=1, max_size=8),
        cap=st.sampled_from([8, 16, 512]),
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
    )
    def test_out_of_order_insert_lands_where_a_pair_list_puts_it(self, times, values, item):
        # Sorted by time only: appends leave an equal-time run in arrival
        # order, so runs need not be sorted by value.
        pairs = sorted(zip((float(t) for t in times), values), key=lambda p: p[0])
        columns = np.array(pairs).reshape(-1, 2).T
        t, v = float(item[0]), item[1]
        expected = bisect.bisect_right(pairs, (t, v))
        assert alert_module._bisect_right_pairs(columns[0], columns[1], t, v) == expected


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
        engine = AlertEngine(TH, AnalysisConfig(max_window_samples=8), Dispatcher([ListSink()]))
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
        return AlertEngine(TH, AnalysisConfig(max_window_samples=cap), Dispatcher([ListSink()]))

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
        engine = AlertEngine(TH, AnalysisConfig(max_window_samples=cap), Dispatcher([ListSink()]))
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
        engine = AlertEngine(TH, AnalysisConfig(max_window_samples=cap), Dispatcher([ListSink()]))
        times = sorted(times)
        engine.observe(rain_records([T0 + t for t in times], values))
        engine.observe(rain_records([T0 + late[0]], [late[1]]))
        fresh = AlertEngine(TH, AnalysisConfig(max_window_samples=cap), Dispatcher([ListSink()]))
        window = engine._rain.row(0).tolist(), engine._rain.row(1).tolist()
        fresh.observe(rain_records(*window))
        assert engine._rain_gaps == fresh._rain_gaps
        assert (engine._first_hour, engine._rain_end) == (fresh._first_hour, fresh._rain_end)
        assert engine._bins.row(0).tobytes() == fresh._bins.row(0).tobytes()

    def test_rebuild_runs_once_per_late_rain_sample(self):
        engine = AlertEngine(TH, AnalysisConfig(max_window_samples=16), Dispatcher([ListSink()]))
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
        sink = ListSink()
        engine = AlertEngine(TH, AnalysisConfig(), Dispatcher([sink]))
        batch = [CalibratedReading(1, T0 + 3600 * k, RAIN, 6.0, k) for k in range(1, 4)]
        engine.evaluate_batch(batch)
        assert engine.state.active_level is Y and len(sink.notes) == 1
        return engine, sink

    def test_all_duplicate_batch_skips_analytics(self):
        engine, sink = self.storm_engine()
        state, timeline = engine.state, list(engine.timeline)
        assert evaluate_spied(engine, []) == []
        assert engine.evaluate_batch([]) == []
        assert engine.state == state and engine.timeline == timeline
        assert len(sink.notes) == 1

    def test_first_batch_is_evaluated_even_without_records(self):
        engine = AlertEngine(TH, AnalysisConfig(), Dispatcher([ListSink()]))
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
