#!/usr/bin/env python3
"""Benchmark one SEND_DATA frame through the station engine at steady state.

Usage: python benchmarks/bench_station.py [--frames 300] [--rounds 5]

A station engine with the demo calibration and thresholds, a store with
``durable=False`` (no fsync) and the default 512-sample windows is first
filled with 600 five-sensor batches, so every window is full. Then
``--frames`` more batches are timed through ``ServerEngine.handle_data_frame``.
Prints µs per frame, and its split into ``decode_senddata``,
``ingest_batch``, ``flush`` and ``evaluate_batch``, with the share of the last spent
in ``ar_forecast_max_rows``, the engine's stacked AR solve (one LAPACK
call for each length among the series a batch changed), and that call's
count per frame. The AR share is split into "LAPACK", the time inside
``analytics._gelsd``, and "bookkeeping", the rest: stacking, centring,
building the designs and the recursion. "non-AR" is a whole frame less
the time spent in ``ar_forecast_max_rows``, both timed in one more pass.
A last pass sleeps 10 ms before each frame, as perfbench's
``tcp_station`` node does at its 100/s rung, and times the whole frame
and its AR share, split the same way, in thread CPU time: after an idle
gap, caches are cold and a frame costs more than back to back. A
durable idle pass does the same on a ``durable=True`` store (filled
without fsyncs, then reopened durable), with the thread CPU time spent
inside ``os.fsync`` left out of the frame: what remains is the judgement
and the rest of the frame, which the station runs before its one fsync.
Each figure is the best of ``--rounds`` rounds, each pass on a freshly
filled station.

Three streams of batches, one reading per sensor each, alternated round by round:

* ``600s``: a batch every 600 s, rain raw mostly 0 (0, 0, 0, 1, 2 or 5);
* ``hourly``: a batch every hour with raws drawn uniformly from the ranges
  of perfbench's ``tcp_station`` node (``perfbench/loadgen.py``), rain
  raw 0-2, so two batches in three carry rain and the rain event often
  spans the whole window;
* ``storm``: a batch every hour with rain (6-12 mm/h), pore pressure
  (55-70 kPa), displacement and inclination (6-9) over their ``demo.ini``
  thresholds, so the ladder is at RED from the first batch on. A frame
  there is a settled one: no forecast can move the level, so it refits
  nothing, and its AR solves per frame are 0.
"""

import argparse
import random
import sys
import tempfile
import time
from pathlib import Path

from slopewatch import alert as alert_module
from slopewatch import analytics, wire
from slopewatch import ingest as ingest_module
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
IDLE_S = 0.010  # the gap before each frame of the idle pass: 100 frames/s
# Per stream: seconds between batches, and a function of the stream's rng
# giving each sensor's raw reading.
STREAMS = {
    "600s": (600, {
        SensorKind.RAIN_GAUGE: lambda rng: rng.choice((0, 0, 0, 1, 2, 5)),
        SensorKind.PIEZOMETER: lambda rng: 2000 + rng.randrange(-300, 300),
        SensorKind.EXTENSOMETER: lambda rng: 50 + rng.randrange(-20, 20),
        SensorKind.INCLINOMETER: lambda rng: 200 + rng.randrange(-50, 50),
        SensorKind.TILTMETER: lambda rng: 150 + rng.randrange(-50, 50),
    }),
    # The raw ranges of perfbench/loadgen.py's RAW_RANGE, inclusive.
    "hourly": (3600, {
        SensorKind.RAIN_GAUGE: lambda rng: rng.randint(0, 2),
        SensorKind.PIEZOMETER: lambda rng: rng.randint(1900, 2100),
        SensorKind.EXTENSOMETER: lambda rng: rng.randint(40, 60),
        SensorKind.INCLINOMETER: lambda rng: rng.randint(180, 220),
        SensorKind.TILTMETER: lambda rng: rng.randint(140, 160),
    }),
    # demo.ini's gains are 0.2 mm per rain raw and 0.01 per other raw.
    "storm": (3600, {
        SensorKind.RAIN_GAUGE: lambda rng: rng.randint(30, 60),
        SensorKind.PIEZOMETER: lambda rng: rng.randint(5500, 7000),
        SensorKind.EXTENSOMETER: lambda rng: rng.randint(600, 900),
        SensorKind.INCLINOMETER: lambda rng: rng.randint(600, 900),
        SensorKind.TILTMETER: lambda rng: rng.randint(140, 160),
    }),
}


class NullSink:
    name = "null"

    def send(self, note) -> None:
        pass


def batch_frames(stream: str, session_id: int, first: int, n: int) -> list[Frame]:
    """SEND_DATA frames for batches ``first`` .. ``first + n - 1``: one reading per sensor."""
    interval, raws = STREAMS[stream]
    rng = random.Random(first)
    frames = []
    for k in range(first, first + n):
        readings = tuple((sensor.value, raw(rng)) for sensor, raw in raws.items())
        payload = SendDataPayload(session_id, 5 * k, T0 + interval * k, readings)
        frames.append(Frame(MessageType.SEND_DATA, wire.encode_senddata(payload)))
    return frames


def filled_station(stream: str, store_dir: str, durable: bool = False) -> tuple[ServerEngine, int]:
    """A connected station whose windows are full; returns it and the session id.

    The fill makes no fsync: a durable station's store is reopened durable after it.
    """
    cfg = load_config(DEMO_INI)
    repo = Repository(store_dir, durable=False)
    engine = ServerEngine(repo, cfg.calibration, AlertEngine(cfg.thresholds, cfg.analysis), Dispatcher([NullSink()]))
    engine.handle_control_frame(Frame(MessageType.SEND_IP, wire.encode_sendip(NODE, "10.77.0.1")))
    (ack,) = engine.handle_data_frame(Frame(MessageType.REQ_CONN, wire.encode_reqconn(NODE, 7)))
    session_id, _ = wire.decode_connack(ack.payload)
    for frame in batch_frames(stream, session_id, 0, FILL):
        engine.handle_data_frame(frame)
    if durable:
        repo.close()
        engine.repo = Repository(store_dir)
    return engine, session_id


class ArTimer:
    """Adds the time spent in ``alert.ar_forecast_max_rows``, the engine's stacked
    AR solve, read on ``clock``, to ``seconds``, and counts its calls, while
    active; ``lapack_seconds`` is the part of it inside ``analytics._gelsd``."""

    def __init__(self, clock=time.perf_counter):
        self.seconds = 0.0
        self.lapack_seconds = 0.0
        self.calls = 0
        self.clock = clock
        self._forecast_max_rows = alert_module.ar_forecast_max_rows
        self._gelsd = analytics._gelsd

    def _timed(self, *args):
        t0 = self.clock()
        try:
            return self._forecast_max_rows(*args)
        finally:
            self.seconds += self.clock() - t0
            self.calls += 1

    def _timed_gelsd(self, *args, **kwargs):
        t0 = self.clock()
        try:
            return self._gelsd(*args, **kwargs)
        finally:
            self.lapack_seconds += self.clock() - t0

    def __enter__(self):
        alert_module.ar_forecast_max_rows = self._timed
        analytics._gelsd = self._timed_gelsd
        return self

    def __exit__(self, *exc) -> None:
        alert_module.ar_forecast_max_rows = self._forecast_max_rows
        analytics._gelsd = self._gelsd


class FsyncTimer:
    """Adds the thread CPU time spent inside ``os.fsync``, as the store calls
    it, to ``seconds``, and counts its calls, while active."""

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0
        self._fsync = ingest_module.os.fsync

    def _timed(self, fd):
        t0 = time.thread_time()
        try:
            return self._fsync(fd)
        finally:
            self.seconds += time.thread_time() - t0
            self.calls += 1

    def __enter__(self):
        ingest_module.os.fsync = self._timed
        return self

    def __exit__(self, *exc) -> None:
        ingest_module.os.fsync = self._fsync


def idle_frames(engine: ServerEngine, frames: list[Frame]) -> float:
    """Thread CPU seconds of ``frames``, each sent after an idle gap."""
    whole = 0.0
    for frame in frames:
        time.sleep(IDLE_S)
        start = time.thread_time()
        engine.handle_data_frame(frame)
        whole += time.thread_time() - start
    return whole


def time_frames(engine: ServerEngine, frames: list[Frame]) -> float:
    start = time.perf_counter()
    for frame in frames:
        engine.handle_data_frame(frame)
    return time.perf_counter() - start


def round_times(stream: str, frames: int) -> tuple[dict[str, float], float]:
    """Seconds per frame of one round, per stage, and stacked AR solves per
    frame; each pass runs on its own filled station."""
    out = {}
    with tempfile.TemporaryDirectory() as whole_dir, tempfile.TemporaryDirectory() as split_dir, \
            tempfile.TemporaryDirectory() as ar_dir, tempfile.TemporaryDirectory() as idle_dir, \
            tempfile.TemporaryDirectory() as durable_dir:
        engine, sid = filled_station(stream, whole_dir)
        out["handle_data_frame"] = time_frames(engine, batch_frames(stream, sid, FILL, frames))
        engine.repo.close()

        # The same frames again, stage by stage.
        engine, sid = filled_station(stream, split_dir)
        timed = batch_frames(stream, sid, FILL, frames)
        start = time.perf_counter()
        payloads = [wire.decode_senddata(frame.payload) for frame in timed]
        out["decode_senddata"] = time.perf_counter() - start
        repo, calibration = engine.repo, engine.calibration
        stored, out["ingest_batch"], out["flush"] = [], 0.0, 0.0
        for p in payloads:
            t0 = time.perf_counter()
            stored.append(repo.ingest_batch(p, NODE, calibration))
            t1 = time.perf_counter()
            repo.flush()
            out["ingest_batch"] += t1 - t0
            out["flush"] += time.perf_counter() - t1
        with ArTimer() as ar:
            start = time.perf_counter()
            for records in stored:
                engine.alert_engine.evaluate_batch(records)
            out["evaluate_batch"] = time.perf_counter() - start
        out["  of which AR"] = ar.seconds
        out["    LAPACK"] = ar.lapack_seconds
        out["    bookkeeping"] = ar.seconds - ar.lapack_seconds
        solves = ar.calls
        repo.close()

        # And whole once more, less the AR share timed in the same pass.
        engine, sid = filled_station(stream, ar_dir)
        with ArTimer() as ar:
            whole = time_frames(engine, batch_frames(stream, sid, FILL, frames))
        out["non-AR"] = whole - ar.seconds
        engine.repo.close()

        # Whole again, each frame after an idle gap, in thread CPU time.
        engine, sid = filled_station(stream, idle_dir)
        with ArTimer(time.thread_time) as ar:
            whole = idle_frames(engine, batch_frames(stream, sid, FILL, frames))
        out["idle: frame"] = whole
        out["idle:   of which AR"] = ar.seconds
        out["idle:     LAPACK"] = ar.lapack_seconds
        out["idle:     bookkeeping"] = ar.seconds - ar.lapack_seconds
        out["idle: non-AR"] = whole - ar.seconds
        engine.repo.close()

        # And on a durable store, less the thread CPU time inside its fsyncs.
        engine, sid = filled_station(stream, durable_dir, durable=True)
        with FsyncTimer() as disk:
            whole = idle_frames(engine, batch_frames(stream, sid, FILL, frames))
        if disk.calls != frames:
            raise SystemExit(f"{stream}: {disk.calls} fsyncs for {frames} stored batches")
        out["durable idle: frame"] = whole - disk.seconds
        out["durable idle: fsync"] = disk.seconds
        engine.repo.close()
    return {stage: s / frames for stage, s in out.items()}, solves / frames


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--frames", type=int, default=300, help="timed frames per round")
    parser.add_argument("--rounds", type=int, default=5, help="rounds; each figure is the best")
    args = parser.parse_args()
    best = {stream: {} for stream in STREAMS}
    solves = {}  # the same frames every round, so the same count
    for _ in range(args.rounds):
        for stream in STREAMS:  # alternated, so host drift hits both alike
            times, solves[stream] = round_times(stream, args.frames)
            for stage, s in times.items():
                best[stream][stage] = min(best[stream].get(stage, s), s)
    print(f"five sensors, {FILL}-batch fill, 512-sample windows, durable=False but for durable idle, "
          f"best of {args.rounds} x {args.frames} frames; Python {sys.version.split()[0]}")
    print(f"idle: each frame after a {IDLE_S * 1e3:.0f} ms sleep, in thread CPU time; "
          "durable idle: the same on a durable=True store, frame less fsync")
    for stream in STREAMS:
        print(f"\n{stream} stream (a batch every {STREAMS[stream][0]} s)")
        for stage, s in best[stream].items():
            print(f"{stage:<20} {s * 1e6:8.1f} µs/frame")
        print(f"{'AR solves':<20} {solves[stream]:8.2f} LAPACK calls/frame")


if __name__ == "__main__":
    main()
