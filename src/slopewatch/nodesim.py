"""Scenario-driven synthetic sensor node.

A scenario is a CSV timeline of raw sensor counts (header
``t_offset_s,sensor,raw``); the player turns due steps into the node's
``PendingBatch``es, each ready for one SEND_DATA frame, with gapless
per-node sequence numbers. Bundled storm fixtures live in
``slopewatch/scenarios`` and can be referenced by bare name.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

from slopewatch.domain import SensorKind
from slopewatch.session import PendingBatch
from slopewatch.wire import MAX_READINGS_PER_FRAME

INT32_MIN, INT32_MAX = -(2**31), 2**31 - 1

_DIRECTIVE = re.compile(r"#\s*sample_interval_s\s*[:=]\s*([^\s,]*)")


class ScenarioError(ValueError):
    """Raised for unparseable or inconsistent scenario files."""


def _check_interval(interval: float, where: str) -> None:
    if not 0 < interval < math.inf:
        raise ScenarioError(f"{where}: sample interval {interval} s is not positive and finite")


@dataclass(frozen=True)
class ScenarioStep:
    t_offset: float  # seconds from scenario start
    sensor: SensorKind
    raw: int


@dataclass(frozen=True)
class Scenario:
    name: str
    steps: tuple[ScenarioStep, ...]
    sample_interval: float  # seconds between node sampling ticks

    def __post_init__(self) -> None:
        _check_interval(self.sample_interval, self.name)

    @property
    def duration(self) -> float:
        return self.steps[-1].t_offset if self.steps else 0.0


def load_scenario(path: str | Path) -> Scenario:
    """Parse a scenario CSV; steps are stably sorted by time offset.

    A comment line ``# sample_interval_s: N`` sets the sampling tick;
    otherwise it is inferred from the smallest positive gap between steps
    (default 60 s).
    """
    path = Path(path)
    steps: list[ScenarioStep] = []
    sample_interval: float | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            rows = list(csv.reader(fh))
        except UnicodeDecodeError as exc:
            raise ScenarioError(f"{path.name}: not UTF-8 text ({exc})") from None
        header: list[str] | None = None
        for lineno, row in enumerate(rows, start=1):
            if not row or not row[0].strip():
                continue
            if row[0].lstrip().startswith("#"):
                m = _DIRECTIVE.search(",".join(row))
                if m:
                    try:
                        sample_interval = float(m.group(1))
                    except ValueError:
                        raise ScenarioError(f"{path.name} line {lineno}: bad sample_interval_s {m.group(1)!r}") from None
                    _check_interval(sample_interval, f"{path.name} line {lineno}")
                continue
            if header is None:
                header = [c.strip() for c in row]
                if header != ["t_offset_s", "sensor", "raw"]:
                    raise ScenarioError(
                        f"{path.name} line {lineno}: expected header 't_offset_s,sensor,raw', got {','.join(header)}"
                    )
                continue
            if len(row) != 3:
                raise ScenarioError(f"{path.name} line {lineno}: expected 3 fields, got {len(row)}")
            try:
                t_offset = float(row[0])
            except ValueError:
                raise ScenarioError(f"{path.name} line {lineno}: bad t_offset_s {row[0]!r}") from None
            if not math.isfinite(t_offset):
                raise ScenarioError(f"{path.name} line {lineno}: t_offset_s {t_offset} is not finite")
            if t_offset < 0:
                raise ScenarioError(f"{path.name} line {lineno}: negative t_offset_s {t_offset}")
            try:
                sensor = SensorKind.from_name(row[1])
            except ValueError as exc:
                raise ScenarioError(f"{path.name} line {lineno}: {exc}") from None
            try:
                raw = int(row[2])
            except ValueError:
                raise ScenarioError(f"{path.name} line {lineno}: bad raw count {row[2]!r}") from None
            if not INT32_MIN <= raw <= INT32_MAX:
                raise ScenarioError(f"{path.name} line {lineno}: raw {raw} outside signed 32-bit range")
            steps.append(ScenarioStep(t_offset, sensor, raw))
    ordered = tuple(sorted(steps, key=lambda s: s.t_offset))
    if sample_interval is None:
        gaps = [b.t_offset - a.t_offset for a, b in zip(ordered, ordered[1:]) if b.t_offset > a.t_offset]
        sample_interval = min(gaps) if gaps else 60.0
    return Scenario(name=path.stem, steps=ordered, sample_interval=sample_interval)


def resolve_scenario(name_or_path: str) -> Path:
    """Resolve a CLI scenario argument: a file path, or a bundled fixture name."""
    p = Path(name_or_path)
    if p.exists():
        return p
    bundled = importlib.resources.files("slopewatch").joinpath("scenarios")
    for candidate in (f"{name_or_path}", f"{name_or_path}.csv"):
        res = bundled.joinpath(candidate)
        if res.is_file():
            return Path(str(res))
    raise ScenarioError(f"scenario not found: {name_or_path!r} (no such file or bundled fixture)")


@dataclass
class ScenarioPlayer:
    """Stateful cursor over a scenario; emits each step exactly once.

    A step is due at ``start_ts + t_offset``; its reading carries that time
    floored to whole seconds for the wire. Reading seqs start at 1 and have
    no gaps.
    """

    scenario: Scenario
    start_ts: int
    _cursor: int = 0
    emitted: int = field(default=0)

    def emit_readings(self, up_to: float) -> list[PendingBatch]:
        """All not-yet-emitted steps due at or before ``up_to`` (absolute time),
        as batches: each a run of steps with one whole-second timestamp, of at
        most ``MAX_READINGS_PER_FRAME`` readings. A batch's seq is its first
        reading's."""
        steps, runs = self.scenario.steps, []
        while self._cursor < len(steps) and self.start_ts + steps[self._cursor].t_offset <= up_to:
            step = steps[self._cursor]
            ts = int(self.start_ts + step.t_offset)
            if not runs or runs[-1][0] != ts or len(runs[-1][1]) == MAX_READINGS_PER_FRAME:
                runs.append((ts, []))
            runs[-1][1].append((step.sensor.code, step.raw))
            self._cursor += 1
        batches: list[PendingBatch] = []
        for ts, readings in runs:
            batches.append(PendingBatch(self.emitted + 1, ts, tuple(readings)))
            self.emitted += len(readings)
        return batches

    @property
    def exhausted(self) -> bool:
        return self._cursor >= len(self.scenario.steps)

    @property
    def next_tick(self) -> float | None:
        """The sampling tick that emits the next step: the first grid time
        ``start_ts + k * sample_interval`` at or after the step is due, capped
        at the scenario's end; None once exhausted."""
        if self.exhausted:
            return None
        due = self.start_ts + self.scenario.steps[self._cursor].t_offset
        interval = self.scenario.sample_interval
        # The rounded quotient may be one off either way; start below and step up.
        k = max(math.ceil((due - self.start_ts) / interval) - 1, 0)
        while self.start_ts + k * interval < due:
            k += 1
        return min(self.start_ts + k * interval, self.start_ts + self.scenario.duration)
