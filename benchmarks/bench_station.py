#!/usr/bin/env python3
"""Benchmark one SEND_DATA frame through the station engine at steady state.

Usage: python benchmarks/bench_station.py [--frames 300] [--rounds 5]

A station engine with the demo calibration and thresholds, a store with
``durable=False`` (no fsync) and the default 512-sample windows is first
filled with 600 five-sensor batches, so every window is full. Then
``--frames`` more batches are timed through ``ServerEngine.handle_data_frame``.
Prints µs per frame, and its split into ``decode_senddata``,
``ingest_batch`` and ``evaluate_batch``, with the share of the last spent
in ``ar_forecast_max``. Each figure is the best of ``--rounds`` rounds,
each on a freshly filled station.
"""

import argparse
import random
import sys
import tempfile
import time
from pathlib import Path

from slopewatch import alert as alert_module
from slopewatch import wire
from slopewatch.alert import AlertEngine, Dispatcher
from slopewatch.config import load_config
from slopewatch.domain import SensorKind
from slopewatch.ingest import Repository
from slopewatch.station import ServerEngine
from slopewatch.wire import Frame, MessageType, SendDataPayload

DEMO_INI = Path(__file__).resolve().parent.parent / "config" / "demo.ini"
FILL = 600  # batches before timing; more than the 512-sample window cap
NODE = 1
T0 = 1_700_000_000
INTERVAL = 600  # seconds between batches


class NullSink:
    name = "null"

    def send(self, note) -> None:
        pass


def batch_frames(session_id: int, first: int, n: int) -> list[Frame]:
    """SEND_DATA frames for batches ``first`` .. ``first + n - 1``: one reading per sensor."""
    rng = random.Random(first)
    frames = []
    for k in range(first, first + n):
        readings = (
            (SensorKind.RAIN_GAUGE.value, rng.choice((0, 0, 0, 1, 2, 5))),
            (SensorKind.PIEZOMETER.value, 2000 + rng.randrange(-300, 300)),
            (SensorKind.EXTENSOMETER.value, 50 + rng.randrange(-20, 20)),
            (SensorKind.INCLINOMETER.value, 200 + rng.randrange(-50, 50)),
            (SensorKind.TILTMETER.value, 150 + rng.randrange(-50, 50)),
        )
        payload = SendDataPayload(session_id, 5 * k, T0 + INTERVAL * k, readings)
        frames.append(Frame(MessageType.SEND_DATA, wire.encode_senddata(payload)))
    return frames


def filled_station(store_dir: str) -> tuple[ServerEngine, int]:
    """A connected station whose windows are full; returns it and the session id."""
    cfg = load_config(DEMO_INI)
    repo = Repository(store_dir, durable=False)
    engine = ServerEngine(repo, cfg.calibration, AlertEngine(cfg.thresholds, cfg.analysis, Dispatcher([NullSink()])))
    engine.handle_control_frame(Frame(MessageType.SEND_IP, wire.encode_sendip(NODE, "10.77.0.1")), 0.0)
    (ack,) = engine.handle_data_frame(Frame(MessageType.REQ_CONN, wire.encode_reqconn(NODE, 7)), 0.0)
    session_id, _ = wire.decode_connack(ack.frame.payload)
    for frame in batch_frames(session_id, 0, FILL):
        engine.handle_data_frame(frame, 0.0)
    return engine, session_id


def round_times(frames: int) -> dict[str, float]:
    """Seconds per frame of one round, per stage."""
    out = {}
    with tempfile.TemporaryDirectory() as whole_dir, tempfile.TemporaryDirectory() as split_dir:
        engine, sid = filled_station(whole_dir)
        timed = batch_frames(sid, FILL, frames)
        start = time.perf_counter()
        for frame in timed:
            engine.handle_data_frame(frame, 0.0)
        out["handle_data_frame"] = time.perf_counter() - start
        engine.repo.close()

        # The same frames again, stage by stage, on a second station.
        engine, sid = filled_station(split_dir)
        timed = batch_frames(sid, FILL, frames)
        start = time.perf_counter()
        payloads = [wire.decode_senddata(frame.payload) for frame in timed]
        out["decode_senddata"] = time.perf_counter() - start
        repo, calibration = engine.repo, engine.calibration
        start = time.perf_counter()
        stored = [repo.ingest_batch(p, NODE, calibration) for p in payloads]
        out["ingest_batch"] = time.perf_counter() - start
        ar_s = [0.0]
        forecast_max = alert_module.ar_forecast_max

        def timed_forecast_max(*args):
            t0 = time.perf_counter()
            try:
                return forecast_max(*args)
            finally:
                ar_s[0] += time.perf_counter() - t0

        alert_module.ar_forecast_max = timed_forecast_max
        try:
            start = time.perf_counter()
            for records in stored:
                engine.alert_engine.evaluate_batch(records)
            out["evaluate_batch"] = time.perf_counter() - start
        finally:
            alert_module.ar_forecast_max = forecast_max
        out["  of which AR"] = ar_s[0]
        repo.close()
    return {stage: s / frames for stage, s in out.items()}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=300, help="timed frames per round")
    parser.add_argument("--rounds", type=int, default=5, help="rounds; each figure is the best")
    args = parser.parse_args()
    best: dict[str, float] = {}
    for _ in range(args.rounds):
        for stage, s in round_times(args.frames).items():
            best[stage] = min(best.get(stage, s), s)
    print(f"five sensors, {FILL}-batch fill, 512-sample windows, durable=False, "
          f"best of {args.rounds} x {args.frames} frames; Python {sys.version.split()[0]}")
    for stage, s in best.items():
        print(f"{stage:<20} {s * 1e6:8.1f} µs/frame")


if __name__ == "__main__":
    main()
