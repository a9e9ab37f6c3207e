"""Scenario loading and replay cursor tests."""

import importlib.resources
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopewatch.nodesim import (
    Scenario,
    ScenarioError,
    ScenarioPlayer,
    ScenarioStep,
    load_scenario,
    resolve_scenario,
)
from slopewatch.domain import SensorKind
from slopewatch.session import PendingBatch
from slopewatch.wire import MAX_READINGS_PER_FRAME

RAIN = SensorKind.RAIN_GAUGE.code


def bundled_scenarios() -> list[str]:
    """Names of the scenario fixtures shipped in the package."""
    bundled = importlib.resources.files("slopewatch").joinpath("scenarios")
    return sorted(p.name[: -len(".csv")] for p in bundled.iterdir() if p.name.endswith(".csv"))


def write_scenario(tmp_path, body, name="s.csv"):
    path = tmp_path / name
    path.write_text(body)
    return path


class TestLoadScenario:
    def test_header_only_file_is_empty_scenario(self, tmp_path):
        s = load_scenario(write_scenario(tmp_path, "t_offset_s,sensor,raw\n"))
        assert s.steps == ()
        assert s.duration == 0.0

    def test_rows_parsed_and_sorted(self, tmp_path):
        body = "t_offset_s,sensor,raw\n120,piezometer,2000\n60,rain_gauge,3\n"
        s = load_scenario(write_scenario(tmp_path, body))
        assert [st.t_offset for st in s.steps] == [60.0, 120.0]
        assert s.steps[0].sensor is SensorKind.RAIN_GAUGE

    def test_unknown_sensor_names_line(self, tmp_path):
        body = "t_offset_s,sensor,raw\n60,rain_gauge,3\n120,Foo,1\n"
        with pytest.raises(ScenarioError, match="line 3"):
            load_scenario(write_scenario(tmp_path, body))

    def test_negative_offset_rejected(self, tmp_path):
        body = "t_offset_s,sensor,raw\n-5,rain_gauge,3\n"
        with pytest.raises(ScenarioError, match="negative"):
            load_scenario(write_scenario(tmp_path, body))

    @pytest.mark.parametrize("offset", ["inf", "nan"])
    def test_offset_that_is_not_finite_rejected(self, tmp_path, offset):
        # Loaded, it would make the duration inf or nan, and a replay's tick loop endless.
        body = f"# sample_interval_s: 60\nt_offset_s,sensor,raw\n60,rain_gauge,1\n{offset},rain_gauge,2\n"
        with pytest.raises(ScenarioError, match="line 4: t_offset_s .* is not finite"):
            load_scenario(write_scenario(tmp_path, body))

    def test_bad_raw_and_bad_header(self, tmp_path):
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(write_scenario(tmp_path, "t_offset_s,sensor,raw\n5,rain_gauge,xx\n"))
        with pytest.raises(ScenarioError, match="header"):
            load_scenario(write_scenario(tmp_path, "time,sensor,value\n"))

    def test_raw_outside_int32_rejected(self, tmp_path):
        body = f"t_offset_s,sensor,raw\n5,rain_gauge,{2**31}\n"
        with pytest.raises(ScenarioError, match="32-bit"):
            load_scenario(write_scenario(tmp_path, body))

    def test_sample_interval_directive(self, tmp_path):
        body = "# sample_interval_s: 900\nt_offset_s,sensor,raw\n60,rain_gauge,1\n"
        assert load_scenario(write_scenario(tmp_path, body)).sample_interval == 900.0

    @pytest.mark.parametrize("token", [".", "1.2.3", "-5", "nan", "inf", "0", ""])
    def test_sample_interval_directive_must_be_positive_and_finite(self, tmp_path, token):
        body = f"# sample_interval_s: {token}\nt_offset_s,sensor,raw\n60,rain_gauge,1\n"
        with pytest.raises(ScenarioError, match="line 1"):
            load_scenario(write_scenario(tmp_path, body))

    @pytest.mark.parametrize("interval", [0.0, -1.0, float("nan"), float("inf")])
    def test_scenario_rejects_an_interval_that_is_not_positive_and_finite(self, interval):
        with pytest.raises(ScenarioError, match="sample interval"):
            Scenario(name="built", steps=(), sample_interval=interval)

    def test_sample_interval_inferred(self, tmp_path):
        body = "t_offset_s,sensor,raw\n60,rain_gauge,1\n90,rain_gauge,1\n150,rain_gauge,1\n"
        assert load_scenario(write_scenario(tmp_path, body)).sample_interval == 30.0

    def test_bundled_fixtures_resolve_and_load(self):
        names = bundled_scenarios()
        assert "seven_day_rain" in names and "three_day_rain" in names
        s = load_scenario(resolve_scenario("seven_day_rain"))
        assert len(s.steps) == 322
        assert s.sample_interval == 3600.0
        assert s.duration == 168 * 3600

    def test_missing_scenario_errors(self):
        with pytest.raises(ScenarioError, match="no_such"):
            resolve_scenario("no_such_storm")


class TestScenarioPlayer:
    def scenario(self):
        steps = tuple(
            ScenarioStep(t, SensorKind.RAIN_GAUGE, i + 1) for i, t in enumerate((10.0, 20.0, 30.0))
        )
        return Scenario(name="t", steps=steps, sample_interval=10.0)

    def test_nothing_due_before_first_step(self):
        player = ScenarioPlayer(self.scenario(), start_ts=1000)
        assert player.emit_readings(up_to=1009.0) == []

    def test_all_steps_emitted_with_gapless_seq(self):
        player = ScenarioPlayer(self.scenario(), start_ts=1000)
        batches = player.emit_readings(up_to=1030.0)
        assert batches == [PendingBatch(1, 1010, ((RAIN, 1),)), PendingBatch(2, 1020, ((RAIN, 2),)),
                           PendingBatch(3, 1030, ((RAIN, 3),))]
        assert player.exhausted

    def test_emit_is_idempotent(self):
        player = ScenarioPlayer(self.scenario(), start_ts=1000)
        first = player.emit_readings(up_to=1020.0)
        assert [b.seq for b in first] == [1, 2]
        assert player.emit_readings(up_to=1020.0) == []
        rest = player.emit_readings(up_to=2000.0)
        assert [b.seq for b in rest] == [3]

    def test_seq_continues_across_calls(self):
        player = ScenarioPlayer(self.scenario(), start_ts=0)
        seqs = []
        for t in (10.0, 20.0, 30.0):
            seqs.extend(b.seq for b in player.emit_readings(t))
        assert seqs == [1, 2, 3]
        assert player.emitted == 3

    def test_one_second_is_split_into_full_frames(self):
        steps = tuple(ScenarioStep(5.0 + k / 1000, SensorKind.PIEZOMETER, k) for k in range(600))
        player = ScenarioPlayer(Scenario(name="burst", steps=steps, sample_interval=1.0), start_ts=0)
        batches = player.emit_readings(6.0)
        assert [(b.seq, b.timestamp, len(b.readings)) for b in batches] == [(1, 5, 255), (256, 5, 255),
                                                                              (511, 5, 90)]
        assert [raw for b in batches for _, raw in b.readings] == list(range(600))

    @pytest.mark.parametrize("interval, start", [(10.0, 1000), (0.1, 1270166400)])
    def test_next_tick_of_an_on_grid_step_is_its_due_time(self, interval, start):
        # A quotient rounded up past an integer must not make a tick one
        # interval late: at the second start, 0.2 / 0.1 comes out above 2.
        steps = tuple(ScenarioStep(k * interval, SensorKind.RAIN_GAUGE, k) for k in range(1, 51))
        player = ScenarioPlayer(Scenario(name="grid", steps=steps, sample_interval=interval), start_ts=start)
        ticks = []
        while (tick := player.next_tick) is not None:
            ticks.append(tick)
            player.emit_readings(tick)
        assert ticks == [start + k * interval for k in range(1, 51)]

    def test_next_tick_rounds_an_off_grid_step_up_and_stops_at_the_end(self):
        start = 1270166400
        offsets = (0.05, 0.15, 0.3, 1.234, 7.77, 33.333, 100.07)
        steps = tuple(ScenarioStep(t, SensorKind.RAIN_GAUGE, 1) for t in offsets)
        player = ScenarioPlayer(Scenario(name="fine", steps=steps, sample_interval=0.1), start_ts=start)
        ticks = []
        while (tick := player.next_tick) is not None:
            ticks.append(tick)
            assert len(player.emit_readings(tick)) == 1  # one step per tick, none left behind
        # The last step's grid time, start + 100.1, lies past the scenario's end.
        assert ticks == [start + k * 0.1 for k in (1, 2, 3, 13, 78, 334)] + [start + 100.07]

    def test_next_tick_is_none_once_exhausted(self):
        player = ScenarioPlayer(self.scenario(), start_ts=1000)
        player.emit_readings(1030.0)
        assert player.next_tick is None
        assert ScenarioPlayer(Scenario(name="e", steps=(), sample_interval=1.0), start_ts=0).next_tick is None


# The player and batch splitter as they were when the node built one value
# per reading, kept as the oracle of test_batches_match_the_per_reading_player.


@dataclass(slots=True)
class RawReading:
    node_id: int
    seq: int
    timestamp: int  # unix seconds
    sensor: SensorKind
    raw: int


@dataclass
class PerReadingPlayer:
    scenario: Scenario
    node_id: int
    start_ts: int
    _cursor: int = 0
    _next_seq: int = 1
    emitted: int = field(default=0)

    def emit_readings(self, up_to: float) -> list[RawReading]:
        """All not-yet-emitted steps due at or before ``up_to`` (absolute time)."""
        out: list[RawReading] = []
        steps = self.scenario.steps
        while self._cursor < len(steps) and self.start_ts + steps[self._cursor].t_offset <= up_to:
            step = steps[self._cursor]
            out.append(
                RawReading(
                    node_id=self.node_id,
                    seq=self._next_seq,
                    timestamp=int(self.start_ts + step.t_offset),
                    sensor=step.sensor,
                    raw=step.raw,
                )
            )
            self._cursor += 1
            self._next_seq += 1
        self.emitted += len(out)
        return out

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.scenario.steps)


def group_batches(readings) -> list[tuple]:
    """Split a reading list into wire batches: equal timestamp, <=255 each.

    Readings arrive in seq order, so each batch holds consecutive seqs and
    the batch seq (first reading's) identifies every reading in it.
    """
    batches: list[tuple] = []
    current: list = []
    for r in readings:
        if current and (r.timestamp != current[0].timestamp or len(current) >= MAX_READINGS_PER_FRAME):
            batches.append(tuple(current))
            current = []
        current.append(r)
    if current:
        batches.append(tuple(current))
    return batches


# Offsets within a second: several floor to the same whole second.
_FRACTIONS = (0.0, 0.25, 0.5, 0.75)


@st.composite
def _scenario_and_cuts(draw):
    """A scenario whose seconds each hold runs at up to four fractional offsets
    (some run past one frame), and an increasing list of ``up_to`` times,
    some of which split a second."""
    steps = []
    for second in draw(st.lists(st.integers(0, 40), max_size=6, unique=True).map(sorted)):
        for fraction in _FRACTIONS:
            count = draw(st.sampled_from((0, 0, 1, 2, 7, MAX_READINGS_PER_FRAME, 300)))
            sensor = draw(st.sampled_from(list(SensorKind)))
            raw = draw(st.integers(-(2**31), 2**31 - 1))
            steps += [ScenarioStep(second + fraction, sensor, raw + k if raw < 0 else raw - k)
                      for k in range(count)]
    scenario = Scenario(name="drawn", steps=tuple(steps), sample_interval=60.0)
    start_ts = draw(st.integers(0, 2**31))
    cuts = draw(st.lists(st.integers(-1, 42) | st.sampled_from((0.1, 0.3, 0.6, 0.9)).flatmap(
        lambda frac: st.integers(0, 41).map(lambda s: s + frac)), max_size=8).map(sorted))
    return scenario, start_ts, [start_ts + cut for cut in cuts] + [start_ts + 42]


@settings(max_examples=150, deadline=None)
@given(_scenario_and_cuts())
def test_batches_match_the_per_reading_player(drawn):
    scenario, start_ts, cuts = drawn
    player = ScenarioPlayer(scenario, start_ts=start_ts)
    oracle = PerReadingPlayer(scenario, node_id=1, start_ts=start_ts)
    for up_to in cuts:
        got = [(b.seq, b.timestamp, b.readings) for b in player.emit_readings(up_to)]
        want = [(b[0].seq, b[0].timestamp, tuple((r.sensor.code, r.raw) for r in b))
                for b in group_batches(oracle.emit_readings(up_to))]
        assert got == want, up_to
        assert (player.emitted, player.exhausted) == (oracle.emitted, oracle.exhausted)
    assert player.exhausted
