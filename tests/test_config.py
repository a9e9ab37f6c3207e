"""Configuration parsing and validation tests."""

from pathlib import Path

import pytest

from slopewatch.alert import AnalysisConfig, ThresholdError, Thresholds
from slopewatch.config import ConfigError, build_sinks, load_config, resolve_config_path
from slopewatch.domain import SensorKind

DEMO = Path(__file__).resolve().parent.parent / "config" / "demo.ini"


def write_config(tmp_path, body) -> Path:
    path = tmp_path / "c.ini"
    path.write_text(body)
    return path


MINIMAL = """\
[thresholds]
mt_rain_mm_per_h = 5.0
mt_pore_kpa = 50.0
mt_displacement_mm = 5.0
mt_inclination_deg = 5.0
hold_period_s = 1800
prediction_horizon = 6
ar_order = 2
dry_gap_h = 6.0
"""


class TestLoadConfig:
    def test_demo_config_loads(self):
        cfg = load_config(DEMO)
        assert cfg.thresholds.mt_rain_mm_per_h == 5.0
        assert cfg.analysis.dry_gap_h == 6.0
        assert set(cfg.calibration) == set(SensorKind)
        assert cfg.link.bandwidth_bps == 115200
        assert cfg.sinks == ("console", "file", "sms")

    def test_a_key_no_longer_read_is_ignored(self, tmp_path):
        # The demo config's text before antecedent_lookback_h was dropped still loads.
        text = DEMO.read_text()
        old = text.replace("dry_gap_h = 6.0\n", "dry_gap_h = 6.0\nantecedent_lookback_h = 72.0\n")
        assert old != text
        assert load_config(write_config(tmp_path, old)) == load_config(DEMO)

    def test_minimal_config_gets_defaults(self, tmp_path):
        cfg = load_config(write_config(tmp_path, MINIMAL))
        assert cfg.calibration == {}
        assert cfg.link.drop_probability == 0.0
        assert cfg.sinks == ("console",)

    def test_missing_keys_enumerated_in_one_message(self, tmp_path):
        body = MINIMAL.replace("mt_pore_kpa = 50.0\n", "").replace("ar_order = 2\n", "")
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, body))
        message = str(exc.value)
        assert "mt_pore_kpa" in message and "ar_order" in message

    def test_missing_thresholds_section(self, tmp_path):
        with pytest.raises(ConfigError, match=r"\[thresholds\]"):
            load_config(write_config(tmp_path, "[link]\ndrop_probability = 0\n"))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_non_numeric_value_reported(self, tmp_path):
        body = MINIMAL.replace("mt_pore_kpa = 50.0", "mt_pore_kpa = lots")
        with pytest.raises(ConfigError, match="mt_pore_kpa"):
            load_config(write_config(tmp_path, body))

    def test_unknown_sink_rejected(self, tmp_path):
        body = MINIMAL + "[server]\nsinks = console,pigeon\n"
        with pytest.raises(ConfigError, match="pigeon"):
            load_config(write_config(tmp_path, body))

    def test_webhook_sink_requires_url(self, tmp_path):
        body = MINIMAL + "[server]\nsinks = webhook\n"
        with pytest.raises(ConfigError, match="webhook_url"):
            load_config(write_config(tmp_path, body))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key, message", [
        ("rain_gauge_gain", "gain must be finite"),
        ("rain_gauge_offset", "offset must be finite"),
        ("latency_ms", "latency_ms must be finite"),
    ])
    def test_non_finite_calibration_or_link_value_is_config_error(self, tmp_path, key, message, value):
        # Accepted, a nan gain stores nan for every rain reading, and a nan
        # latency lets no reading through the link.
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in DEMO.read_text().splitlines()]
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, "\n".join(lines) + "\n"))

    def test_zero_gain_calibration_rejected(self, tmp_path):
        body = MINIMAL + "[calibration]\nrain_gauge_gain = 0\nrain_gauge_offset = 0\n"
        with pytest.raises(ConfigError, match="gain"):
            load_config(write_config(tmp_path, body))


class TestAnalysisSettings:
    @pytest.mark.parametrize(
        "key, value",
        [("ar_order", "0"), ("ar_order", "-1"), ("dry_gap_h", "0"), ("dry_gap_h", "-6")],
    )
    def test_ini_value_out_of_range_is_config_error(self, tmp_path, key, value):
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in MINIMAL.splitlines()]
        with pytest.raises(ConfigError, match=key):
            load_config(write_config(tmp_path, "\n".join(lines) + "\n"))

    @pytest.mark.parametrize(
        "field, value",
        [("ar_order", 0), ("dry_gap_h", 0.0), ("max_window_samples", 0)],
    )
    def test_field_out_of_range_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            AnalysisConfig(**{field: value})

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "key",
        ["mt_rain_mm_per_h", "mt_pore_kpa", "mt_displacement_mm", "mt_inclination_deg",
         "hold_period_s", "dry_gap_h"],
    )
    def test_non_finite_ini_value_is_config_error(self, tmp_path, key, value):
        # nan <= 0 is False, so a range check alone lets a nan through.
        lines = [f"{key} = {value}" if line.startswith(f"{key} =") else line
                 for line in MINIMAL.splitlines()]
        with pytest.raises(ConfigError, match=key):
            load_config(write_config(tmp_path, "\n".join(lines) + "\n"))

    def test_non_finite_values_in_both_sections_reported_together(self, tmp_path):
        body = MINIMAL.replace("mt_rain_mm_per_h = 5.0", "mt_rain_mm_per_h = nan")
        body = body.replace("dry_gap_h = 6.0", "dry_gap_h = inf")
        with pytest.raises(ConfigError) as exc:
            load_config(write_config(tmp_path, body))
        assert "mt_rain_mm_per_h" in str(exc.value) and "dry_gap_h" in str(exc.value)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("field", ["dry_gap_h"])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            AnalysisConfig(**{field: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "field",
        ["mt_rain_mm_per_h", "mt_pore_kpa", "mt_displacement_mm", "mt_inclination_deg", "hold_period_s"],
    )
    def test_non_finite_threshold_rejected(self, field, value):
        fields = dict(mt_rain_mm_per_h=5.0, mt_pore_kpa=50.0, mt_displacement_mm=5.0,
                      mt_inclination_deg=5.0, prediction_horizon=6, hold_period_s=1800.0)
        fields[field] = value
        with pytest.raises(ThresholdError, match=f"{field} must be finite"):
            Thresholds(**fields)

    def test_smallest_valid_values_accepted(self):
        AnalysisConfig(dry_gap_h=1e-9, ar_order=1, max_window_samples=1)


class TestResolveConfigPath:
    def test_cli_value_wins(self, monkeypatch):
        monkeypatch.setenv("EWS_CONFIG", "/from/env.ini")
        assert resolve_config_path("/from/cli.ini") == "/from/cli.ini"

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("EWS_CONFIG", "/from/env.ini")
        assert resolve_config_path(None) == "/from/env.ini"

    def test_neither_is_config_error(self, monkeypatch):
        monkeypatch.delenv("EWS_CONFIG", raising=False)
        with pytest.raises(ConfigError):
            resolve_config_path(None)


class TestBuildSinks:
    def test_builds_configured_sinks(self, tmp_path):
        cfg = load_config(DEMO)
        sinks = build_sinks(cfg, tmp_path)
        assert [s.name for s in sinks] == ["console", "file", "sms"]
