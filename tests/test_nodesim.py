"""Scenario loading and replay cursor tests."""

import importlib.resources

import pytest

from slopewatch.nodesim import (
    Scenario,
    ScenarioError,
    ScenarioPlayer,
    ScenarioStep,
    load_scenario,
    resolve_scenario,
)
from slopewatch.domain import SensorKind


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
        player = ScenarioPlayer(self.scenario(), node_id=1, start_ts=1000)
        assert player.emit_readings(up_to=1009.0) == []

    def test_all_steps_emitted_with_gapless_seq(self):
        player = ScenarioPlayer(self.scenario(), node_id=1, start_ts=1000)
        readings = player.emit_readings(up_to=1030.0)
        assert [r.seq for r in readings] == [1, 2, 3]
        assert [r.timestamp for r in readings] == [1010, 1020, 1030]
        assert player.exhausted

    def test_emit_is_idempotent(self):
        player = ScenarioPlayer(self.scenario(), node_id=1, start_ts=1000)
        first = player.emit_readings(up_to=1020.0)
        assert [r.seq for r in first] == [1, 2]
        assert player.emit_readings(up_to=1020.0) == []
        rest = player.emit_readings(up_to=2000.0)
        assert [r.seq for r in rest] == [3]

    def test_seq_continues_across_calls(self):
        player = ScenarioPlayer(self.scenario(), node_id=1, start_ts=0)
        seqs = []
        for t in (10.0, 20.0, 30.0):
            seqs.extend(r.seq for r in player.emit_readings(t))
        assert seqs == [1, 2, 3]
        assert player.emitted == 3
