"""Acceptance suite: one test per release criterion, each with a time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the pass lines.
"""

import itertools
import json
import os
import random
import time
from contextlib import contextmanager

import mpmath as mp
import numpy as np
import pytest

from slopewatch.alert import (
    AlertMode,
    AnalysisConfig,
    Dispatcher,
    Thresholds,
    ValueSnapshot,
    ValueSource,
    evaluate,
    multi_level,
)
from slopewatch.analytics import CaineDomainError, ar_fit, ar_forecast, caine_threshold
from slopewatch.config import Config, load_config
from slopewatch.domain import AlertLevel, CalibrationConstants, SensorKind
from slopewatch.ingest import Repository
from slopewatch.nodesim import Scenario, ScenarioStep, load_scenario, resolve_scenario
from slopewatch.replay import SimReplay
from slopewatch.session import LinkConfig
from slopewatch.wire import Frame, FrameError, MessageType, decode_frame, encode_frame, crc16

from test_replay import records_at_restart
from test_wire import crc16_oracle


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    yield
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"PASS  {name}  ({elapsed:.2f}s < {budget_s:.0f}s)")


def query_range(repo, ts_from, ts_to):
    """Stored records with ts_from <= timestamp <= ts_to, in the store's (ts, node, seq) order."""
    return [r for r in repo.all_records() if ts_from <= r.timestamp <= ts_to]


def make_config(link: LinkConfig, hold_period_s: float = 1800.0) -> Config:
    calibration = {kind: CalibrationConstants(kind, 0.01, 0.0) for kind in SensorKind}
    calibration[SensorKind.RAIN_GAUGE] = CalibrationConstants(SensorKind.RAIN_GAUGE, 0.2, 0.0)
    return Config(
        thresholds=Thresholds(5.0, 50.0, 5.0, 5.0, 6, hold_period_s),
        analysis=AnalysisConfig(),
        calibration=calibration,
        link=link,
        sinks=("console",),
    )


def test_c1_caine_curve_fidelity():
    with criterion("1. Caine curve fidelity", budget_s=1.0):
        assert caine_threshold(1.0) == 14.82
        mp.mp.dps = 50
        coeff, expo = mp.mpf("14.82"), mp.mpf("-0.39")
        for d in np.linspace(0.2, 499.0, 1000):
            oracle = float(coeff * mp.power(mp.mpf(repr(float(d))), expo))
            assert abs(caine_threshold(float(d)) - oracle) / oracle < 1e-9
        for bad in (0.167, 0.1, 500.0, 900.0):
            with pytest.raises(CaineDomainError):
                caine_threshold(bad)


def test_c2_alert_ladder_conformance():
    from test_alert import LADDER_TABLE, exc

    with criterion("2. Alert ladder conformance", budget_s=1.0):
        for combo, expected in LADDER_TABLE.items():
            assert multi_level(exc(*combo)) is expected
        combos = list(itertools.product((False, True), repeat=4))
        for a, b in itertools.product(combos, repeat=2):
            if all(x <= y for x, y in zip(a, b)):
                assert multi_level(exc(*a)) <= multi_level(exc(*b))


def test_c3_four_way_alarm_matrix():
    th = Thresholds(5.0, 50.0, 5.0, 5.0, 6, 1800.0)
    rng = random.Random(303)

    def random_snapshot():
        def maybe(scale):
            return None if rng.random() < 0.2 else rng.uniform(0, scale)

        return ValueSnapshot(
            rain_intensity_mm_per_h=maybe(12.0),
            pore_kpa=maybe(100.0),
            displacement_mm=maybe(12.0),
            inclinometer_deg=maybe(10.0),
            tiltmeter_deg=maybe(10.0),
        )

    expected_combos = set(itertools.product(ValueSource, AlertMode))
    with criterion("3. Four-way alarm matrix", budget_s=5.0):
        for i in range(1000):
            decisions = evaluate(random_snapshot(), random_snapshot(), th, now=float(i))
            assert len(decisions) == 4
            assert {(d.source, d.mode) for d in decisions} == expected_combos


def _big_scenario(ticks: int) -> Scenario:
    steps = []
    for k in range(1, ticks + 1):
        t = 3600.0 * k
        steps.append(ScenarioStep(t, SensorKind.RAIN_GAUGE, 1))
        steps.append(ScenarioStep(t, SensorKind.PIEZOMETER, 2000))
        steps.append(ScenarioStep(t, SensorKind.EXTENSOMETER, 50))
        steps.append(ScenarioStep(t, SensorKind.INCLINOMETER, 200))
        steps.append(ScenarioStep(t, SensorKind.TILTMETER, 150))
    return Scenario(name="load", steps=tuple(steps), sample_interval=3600.0)


def test_c4_protocol_exactly_once(tmp_path):
    scenario = _big_scenario(2000)  # 10,000 readings
    assert len(scenario.steps) == 10_000
    link = LinkConfig(drop_probability=0.2, latency_ms=80)
    cfg = make_config(link)
    with criterion("4. Protocol end-to-end exactly-once", budget_s=60.0):
        sim = SimReplay(
            scenario,
            cfg,
            str(tmp_path / "store"),
            seed=44,
            force_disconnect_at=(scenario.duration / 3, 2 * scenario.duration / 3),
        )
        summary = sim.run()
        assert summary.readings_generated == 10_000
        assert summary.records_stored == 10_000
        assert summary.duplicates_skipped > 0  # losses really happened and were absorbed
        assert summary.severs >= 2
        assert summary.recoveries >= 1
        reloaded = Repository(tmp_path / "store", read_only=True)
        assert len(reloaded) == 10_000  # no loss, no duplicates on disk either


def test_c5_codec_robustness():
    with criterion("5. Codec robustness", budget_s=10.0):
        assert crc16(b"123456789") == crc16_oracle(b"123456789") == 0x29B1
        rng = random.Random(55)
        types = list(MessageType)
        for _ in range(10_000):
            frame = Frame(rng.choice(types), rng.randbytes(rng.randrange(0, 40)))
            assert decode_frame(encode_frame(frame)) == frame
        reference = encode_frame(Frame(MessageType.SEND_DATA, b"\x10\x20\x30\x40"))
        for bit in range(len(reference) * 8):
            corrupted = bytearray(reference)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(FrameError):
                decode_frame(bytes(corrupted))


def test_c6_ar_predictor_recovery():
    from test_analytics import generate_ar2

    with criterion("6. AR predictor recovery", budget_s=5.0):
        series = generate_ar2(n=200)
        model = ar_fit(series, 2)
        assert abs(model.coefficients[0] - 0.6) < 1e-6
        assert abs(model.coefficients[1] - (-0.2)) < 1e-6
        assert abs(model.intercept - 1.0) < 1e-6
        forecast = ar_forecast(model, series, 5)
        continued = generate_ar2(n=205)[200:]
        assert all(abs(a - b) < 1e-6 for a, b in zip(forecast, continued))
        const_model = ar_fit([5.0] * 60, 1)
        assert ar_forecast(const_model, [5.0] * 5, 5) == [5.0] * 5


def test_c7_storm_escalation(tmp_path, monkeypatch):
    demo = os.path.join(os.path.dirname(__file__), "..", "config", "demo.ini")
    cfg = load_config(demo)
    scenario = load_scenario(resolve_scenario("seven_day_rain"))
    dispatched = []  # (dispatcher, notification, results), in dispatch order
    real_dispatch = Dispatcher.dispatch

    def spy(self, note):
        results = real_dispatch(self, note)
        dispatched.append((self, note, results))
        return results

    monkeypatch.setattr(Dispatcher, "dispatch", spy)
    with criterion("7. Storm escalation reproduction", budget_s=30.0):
        sim = SimReplay(scenario, cfg, str(tmp_path / "store"), seed=7)
        summary = sim.run()
        levels = [level for _, level in summary.alert_timeline]
        assert levels == ["GREEN", "YELLOW", "ORANGE", "RED"]
        # escalations never reverse, so de-escalation before hold_period is impossible
        numeric = [AlertLevel[name] for name in levels]
        assert numeric == sorted(numeric)
        # one notification per escalation per sink
        assert len(dispatched) == 3  # YELLOW, ORANGE, RED
        for dispatcher, note, results in dispatched:
            assert dispatcher is sim.server.dispatcher
            assert [r.sink for r in results] == ["console", "file", "sms"]
            assert all(r.ok for r in results)
        ndjson = (tmp_path / "store" / "alerts.ndjson").read_text().splitlines()
        assert [json.loads(line)["level"] for line in ndjson] == ["YELLOW", "ORANGE", "RED"]
        sms = (tmp_path / "store" / "sms_outbox.txt").read_text().splitlines()
        assert len(sms) == 3


def test_c8_durability_across_restart(tmp_path, monkeypatch):
    snapshots = records_at_restart(monkeypatch)
    scenario = _big_scenario(300)  # 1,500 readings
    link = LinkConfig(drop_probability=0.1, latency_ms=50)
    cfg = make_config(link)
    with criterion("8. Durability across kill-and-restart", budget_s=60.0):
        sim = SimReplay(
            scenario,
            cfg,
            str(tmp_path / "store"),
            seed=88,
            server_restart_at=scenario.duration / 2,
        )
        summary = sim.run()
        assert len(snapshots) == 1 and snapshots[0], "restart must happen mid-ingest"
        reloaded = Repository(tmp_path / "store", read_only=True)
        final = reloaded.all_records()
        final_keys = {(r.node_id, r.seq) for r in final}
        pre_keys = {(r.node_id, r.seq) for r in snapshots[0]}
        # no acked batch lost: everything stored before the kill is still there
        assert pre_keys <= final_keys
        # post-restart store = pre-kill records plus post-restart ingest, nothing else
        post_keys = final_keys - pre_keys
        assert len(pre_keys) + len(post_keys) == summary.readings_generated == 1500
        span = query_range(reloaded, 0, 2**62)
        merged = sorted(final, key=lambda r: (r.timestamp, r.node_id, r.seq))
        assert span == merged
