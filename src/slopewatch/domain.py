"""Shared vocabulary types for the slopewatch telemetry stack.

It imports no other slopewatch module, so every module can import it.
Values are never changed after construction; step functions return new
states. They are slotted, not frozen: a frozen init costs 3-4x as much.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum, IntEnum


class CalibrationError(ValueError):
    """Raised for invalid calibration constants or sensor mismatches."""


# ---------------------------------------------------------------------------
# Sensors
# ---------------------------------------------------------------------------


class SensorKind(Enum):
    """The five instrument kinds installed at a monitored slope.

    The enum value is the 1-byte wire code. The crack meter is carried as
    EXTENSOMETER (both measure displacement of the soil/rock mass).
    """

    RAIN_GAUGE = 0x01
    PIEZOMETER = 0x02
    EXTENSOMETER = 0x03
    INCLINOMETER = 0x04
    TILTMETER = 0x05

    @property
    def code(self) -> int:
        """1-byte wire code for this sensor kind."""
        return self.value

    @classmethod
    def from_code(cls, code: int) -> "SensorKind":
        try:
            return cls(code)
        except ValueError:
            raise ValueError(f"unknown sensor code 0x{code:02x}") from None

    @classmethod
    def from_name(cls, name: str) -> "SensorKind":
        """Parse a sensor name, tolerant of case and underscores.

        Accepts ``rain_gauge``, ``RainGauge``, ``RAIN_GAUGE`` etc.
        """
        key = name.strip().lower().replace("_", "").replace("-", "").replace(" ", "")
        try:
            return _BY_NAME[key]
        except KeyError:
            raise ValueError(f"unknown sensor name {name!r}") from None


_BY_NAME = {k.name.lower().replace("_", ""): k for k in SensorKind}


# ---------------------------------------------------------------------------
# Readings
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CalibratedReading:
    """An engineering-unit sample, produced at the base station."""

    node_id: int
    timestamp: int
    sensor: SensorKind
    value: float
    seq: int


@dataclass(frozen=True)
class CalibrationConstants:
    """Linear correction for one sensor: value = gain * raw + offset."""

    sensor: SensorKind
    gain: float   # engineering units per count
    offset: float  # engineering units

    def __post_init__(self) -> None:
        # A nan gain or offset would store nan for every reading of the sensor.
        for name, value in (("gain", self.gain), ("offset", self.offset)):
            if not math.isfinite(value):
                raise CalibrationError(f"{name} must be finite for {self.sensor.name}, got {value}")
        if self.gain == 0:
            raise CalibrationError(f"gain must be nonzero for {self.sensor.name}")


# ---------------------------------------------------------------------------
# Alert levels
# ---------------------------------------------------------------------------


class AlertLevel(IntEnum):
    """Four-step warning ladder, totally ordered."""

    GREEN = 0
    YELLOW = 1
    ORANGE = 2
    RED = 3

