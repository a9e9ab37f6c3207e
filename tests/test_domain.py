"""Vocabulary type tests: sensor codes, units, the alert level order."""

import itertools

import pytest

from slopewatch.domain import (
    AlertLevel,
    CalibrationConstants,
    CalibrationError,
    SensorKind,
    level_max,
)


class TestSensorKind:
    def test_exactly_five_kinds_with_stable_codes(self):
        assert len(SensorKind) == 5
        assert [k.code for k in SensorKind] == [0x01, 0x02, 0x03, 0x04, 0x05]

    def test_code_round_trips(self):
        for kind in SensorKind:
            assert SensorKind.from_code(kind.code) is kind

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="0x2a"):
            SensorKind.from_code(0x2A)

    @pytest.mark.parametrize("name", ["rain_gauge", "RainGauge", "RAIN_GAUGE", "raingauge"])
    def test_from_name_tolerant(self, name):
        assert SensorKind.from_name(name) is SensorKind.RAIN_GAUGE

    def test_from_name_unknown(self):
        with pytest.raises(ValueError, match="Foo"):
            SensorKind.from_name("Foo")


class TestAlertLevel:
    def test_total_order(self):
        assert AlertLevel.GREEN < AlertLevel.YELLOW < AlertLevel.ORANGE < AlertLevel.RED

    def test_order_properties_exhaustive(self):
        levels = list(AlertLevel)
        for a, b in itertools.product(levels, repeat=2):
            assert (a <= b) or (b <= a)  # total
            if a <= b and b <= a:
                assert a == b  # antisymmetric
        for a, b, c in itertools.product(levels, repeat=3):
            if a <= b and b <= c:
                assert a <= c  # transitive

    @pytest.mark.parametrize(
        "a,b,expected",
        [
            (AlertLevel.GREEN, AlertLevel.GREEN, AlertLevel.GREEN),
            (AlertLevel.YELLOW, AlertLevel.RED, AlertLevel.RED),
            (AlertLevel.ORANGE, AlertLevel.YELLOW, AlertLevel.ORANGE),
        ],
    )
    def test_level_max(self, a, b, expected):
        assert level_max(a, b) is expected

    def test_level_max_commutes(self):
        for a, b in itertools.product(AlertLevel, repeat=2):
            assert level_max(a, b) is level_max(b, a)


class TestConversions:
    def test_calibration_constants_reject_zero_gain(self):
        with pytest.raises(CalibrationError):
            CalibrationConstants(SensorKind.PIEZOMETER, gain=0.0, offset=1.0)
