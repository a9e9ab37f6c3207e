"""The workloads: inputs made from the seed, one measured phase, output checks.

Three are ``SimReplay`` runs (node, lossy link and station on one simulated
clock); ``tcp_station`` runs the station as a child process through the CLI
and plays the node over a real socket. README.md says why each exists.
"""

from __future__ import annotations

import json
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

from slopewatch.alert import AnalysisConfig
from slopewatch.config import load_config
from slopewatch.domain import SensorKind
from slopewatch.ingest import READINGS_FILE, Repository
from slopewatch.nodesim import Scenario, ScenarioStep, load_scenario, resolve_scenario
from slopewatch.replay import SimReplay
from slopewatch.session import LinkConfig

import hostspeed
from loadgen import NodeLink, run_rate

perf = time.perf_counter
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEMO_INI = ROOT / "config" / "demo.ini"

# The README timeline of the seven-day storm: (hour, level).
STORM_TIMELINE = [(0, "GREEN"), (73, "YELLOW"), (84, "ORANGE"), (132, "RED")]
STORM_ALERTS = ["YELLOW", "ORANGE", "RED"]

# tcp_station: offered rates (batches/s, open loop), the share of the
# measured seconds each rung gets, the rate whose latency is the headline
# ack_ms_*, and the latency limit on the p99.
LADDER = (25, 50, 100, 200, 400)
RUNG_SHARE = {25: 0.1, 50: 0.15, 100: 0.4, 200: 0.15, 400: 0.15}
REFERENCE_RATE = 100
LIMIT_MS = 100.0


def link_seed(seed: int, i: int) -> int:
    """Link rng seed of the i-th replay of a run with workload seed ``seed``."""
    return seed * 1000 + i


def _storm7():
    return load_config(DEMO_INI), load_scenario(resolve_scenario("seven_day_rain")), False


def _batches10k():
    cfg = load_config(DEMO_INI)
    steps = tuple(ScenarioStep(3600.0 * k, SensorKind.RAIN_GAUGE, 1) for k in range(1, 10_001))
    cfg = replace(cfg, analysis=replace(cfg.analysis, max_window_samples=8),
                  link=LinkConfig(drop_probability=0.2, latency_ms=50), sinks=("console",))
    return cfg, Scenario(name="batches10k", steps=steps, sample_interval=3600.0), False


def _sensors5_w512():
    raws = ((SensorKind.RAIN_GAUGE, 1), (SensorKind.PIEZOMETER, 2000), (SensorKind.EXTENSOMETER, 50),
            (SensorKind.INCLINOMETER, 200), (SensorKind.TILTMETER, 150))
    steps = tuple(ScenarioStep(3600.0 * k, kind, raw) for k in range(1, 2001) for kind, raw in raws)
    cfg = replace(load_config(DEMO_INI), analysis=AnalysisConfig(),
                  link=LinkConfig(drop_probability=0.2, latency_ms=80), sinks=("console",))
    return cfg, Scenario(name="sensors5_w512", steps=steps, sample_interval=3600.0), True


REPLAYS = {"storm7": _storm7, "batches10k": _batches10k, "sensors5_w512": _sensors5_w512}


def _disk_failures(store: Path, expected: set[tuple[int, int]]) -> int:
    """Expected readings not on disk exactly once, after reloading readings.csv."""
    disk = Repository(store, read_only=True)
    found = {(r.node_id, r.seq) for r in disk.all_records()}
    duplicate_rows = disk.rows_seen - len(disk)
    return len(expected - found) + len(found - expected) + duplicate_rows


def _new_result() -> dict:
    return {"readings": 0, "stored_once": 0, "wall_s": 0.0, "run_s": 0.0, "units": 0,
            "attempted": 0, "failed": 0, "problems": [], "trace_records": 0,
            "frames_dropped": 0, "severs": 0, "csv_bytes": 0, "records": 0}


class ReplayWorkload:
    """Whole replays back to back, each with its own link seed and fresh store."""

    kind = "replay"

    def __init__(self, name: str, seed: int, work_dir: Path):
        self.name, self.seed, self.work_dir = name, seed, work_dir
        self.cfg, self.scenario, disconnects = REPLAYS[name]()
        d = self.scenario.duration
        self.disconnects = (d / 3, 2 * d / 3) if disconnects else ()
        self._count = 0
        self._ready = None
        self._stores: list[Path] = []

    def _make(self):
        i = self._count
        self._count += 1
        store = self.work_dir / f"replay{i}"
        sim = SimReplay(self.scenario, self.cfg, str(store), seed=link_seed(self.seed, i),
                        force_disconnect_at=self.disconnects)
        return sim, store

    def prepare(self) -> None:
        """Set-up ends with the first replay constructed, ready to offer readings."""
        self._ready = self._make()

    def measure(self, seconds: float, probe=None) -> dict:
        """Run whole replays while the next one is expected to end within ``seconds``.

        After each replay the host's speed is measured (``hostspeed``). With a
        ``ServiceProbe`` that has a ``DiskProbe``, each replay also notes its
        fsyncs and where its frames end in the probe's samples.
        """
        res = _new_result()
        res["replays"] = []
        start = perf()
        while True:
            sync_cpu_s, sync_calls = (probe.disk.cpu_s, probe.disk.calls) if probe else (0.0, 0)
            t0, c0 = perf(), time.thread_time()
            sim, store = self._ready or self._make()
            self._ready = None
            t1 = perf()
            summary = sim.run()
            t2, c2 = perf(), time.thread_time()
            replay = {"wall_s": t2 - t0, "cpu_s": c2 - c0, "reference_s": hostspeed.reference_s(),
                      "sync_cpu_s": 0.0, "sync_calls": 0, "frames_end": 0}
            if probe:
                replay.update(sync_cpu_s=probe.disk.cpu_s - sync_cpu_s, sync_calls=probe.disk.calls - sync_calls,
                              frames_end=len(probe.samples_s))
            res["wall_s"] += t2 - t0
            res["run_s"] += t2 - t1
            res["units"] += 1
            replay["stored_once"] = self._check(sim, summary, store, res)
            res["replays"].append(replay)
            elapsed = perf() - start
            if elapsed * (res["units"] + 1) / res["units"] > seconds:
                return res

    def _check(self, sim, summary, store: Path, res: dict) -> int:
        """Check one replay's outputs into ``res``; returns its readings stored exactly once."""
        n = summary.readings_generated
        node = sim.node.node_id
        failed = min(n, _disk_failures(store, {(node, s) for s in range(1, n + 1)}))
        problems = []
        if summary.records_stored != n:
            problems.append(f"stored {summary.records_stored} of {n}")
        if sim.node.pending:
            problems.append(f"{len(sim.node.pending)} batches never acked")
        if self.name == "storm7":
            timeline = [(round(ts / 3600), level) for ts, level in summary.alert_timeline]
            alerts_file = store / "alerts.ndjson"
            alerts = ([json.loads(line)["level"] for line in alerts_file.read_text().splitlines()]
                      if alerts_file.exists() else [])
            if timeline != STORM_TIMELINE:
                problems.append(f"timeline {timeline}")
            if alerts != STORM_ALERTS:
                problems.append(f"alerts.ndjson levels {alerts}")
        if failed:
            problems.append(f"{failed} readings not on disk exactly once")
        res["readings"] += n
        res["stored_once"] += n - failed
        res["attempted"] += n + 1  # each reading, and the replay's output check
        res["failed"] += failed + (1 if problems else 0)
        res["problems"] += [f"replay seed {sim.seed}: {p}" for p in problems]
        res["trace_records"] += len(sim.trace.records)
        res["frames_dropped"] += summary.frames_dropped
        res["severs"] += summary.severs
        res["csv_bytes"] += (store / READINGS_FILE).stat().st_size
        res["records"] += summary.records_stored
        self._stores.append(store)
        return n - failed

    def close(self) -> None:
        """Delete the stores only now, so their removal does not load the disk mid-run."""
        for store in self._stores:
            shutil.rmtree(store, ignore_errors=True)
        self._stores.clear()


def ladder_metrics(rungs: list[dict]) -> dict:
    """Ack latency at the reference rate, and the highest rate up to which every rung met the limit."""
    ref = next(r for r in rungs if r["rate"] == REFERENCE_RATE)
    passed = []
    for r in rungs:
        if not r["passed"]:
            break
        passed.append(r)
    return {
        "loadgen.ack_ms_p50": ref["ack_ms_p50"],
        "loadgen.ack_ms_p99": ref["ack_ms_p99"],
        "loadgen.max_rate_bps": passed[-1]["achieved_bps"] if passed else 0.0,
        "loadgen.late_ms_max": max(r["late_ms_max"] for r in rungs),
    }


class TcpWorkload:
    """The station as a CLI child process; this process is its node."""

    kind = "tcp"

    def __init__(self, seed: int, work_dir: Path, trace: bool = False, spans_path: Path | None = None):
        self.seed, self.trace = seed, trace
        tag = "traced" if trace else "plain"
        self.store = work_dir / f"station-{tag}"
        self.stats_path = work_dir / f"station-{tag}.json"
        self.log_path = work_dir / f"station-{tag}.log"
        self.spans_path = spans_path
        self.rng = random.Random(seed)
        self.proc: subprocess.Popen | None = None
        self.addr: tuple[str, int] | None = None
        self.link: NodeLink | None = None
        self.peak_rss_mb = 0.0

    def prepare(self) -> None:
        """Set-up ends with the station listening and the first node connected."""
        cmd = [sys.executable, str(HERE / "station_child.py"), str(self.stats_path),
               str(self.spans_path or "-"), "1" if self.trace else "0", "--",
               "server", "--config", str(DEMO_INI), "--store", str(self.store),
               "--listen", "127.0.0.1:0"]
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT)
        deadline = perf() + 60.0
        while self.addr is None:
            m = re.search(r"listening on ([\d.]+):(\d+)", self.log_path.read_text())
            if m:
                self.addr = (m.group(1), int(m.group(2)))
            elif self.proc.poll() is not None or perf() > deadline:
                raise RuntimeError(f"station did not start; see {self.log_path}")
            else:
                time.sleep(0.002)
        self.link = self._connect(1)

    def _connect(self, node_id: int) -> NodeLink:
        link = NodeLink(self.addr, node_id)
        link.handshake()
        return link

    def measure(self, seconds: float) -> dict:
        """Climb the whole rate ladder, one node per rung."""
        res = _new_result()
        res["rungs"] = []
        hour = 0
        t0 = perf()
        expected: set[tuple[int, int]] = set()
        for i, rate in enumerate(LADDER):
            link = self.link or self._connect(i + 1)
            self.link = None
            n = max(1, int(rate * seconds * RUNG_SHARE[rate]))
            batches = link.encode_batches(n, self.rng, hour)
            hour += n
            rung = run_rate(link, batches, rate, LIMIT_MS)
            link.close()
            rung["node_id"] = link.node_id
            expected |= {(link.node_id, s + j) for s in rung.pop("sent_seqs") for j in range(5)}
            res["rungs"].append(rung)
            res["units"] += 1
        res["wall_s"] = res["run_s"] = perf() - t0
        res["loadgen"] = ladder_metrics(res["rungs"])
        res["station"] = self._stop()
        batches = sum(r["batches"] for r in res["rungs"])
        unacked = sum(r["batches"] - r["acked"] for r in res["rungs"])
        failed = min(len(expected), _disk_failures(self.store, expected))
        res["readings"] = 5 * batches
        res["stored_once"] = res["records"] = len(expected) - failed
        res["csv_bytes"] = (self.store / READINGS_FILE).stat().st_size
        res["attempted"] = res["readings"] + batches + 1
        if unacked or res["stored_once"] != res["readings"]:
            res["problems"].append(f"{unacked} batches unacked, {res['readings'] - res['stored_once']} "
                                   "readings not on disk exactly once")
        if not res["station"]:
            res["problems"].append(f"station wrote no probe data; see {self.log_path}")
        res["failed"] = failed + unacked + (1 if res["problems"] else 0)
        return res

    def _stop(self) -> dict:
        """Stop the station as Ctrl-C would, wait for it, read its probes."""
        if self.link is not None:
            self.link.close()
            self.link = None
        proc, self.proc = self.proc, None
        if proc is None:
            return {}
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        return json.loads(self.stats_path.read_text()) if self.stats_path.exists() else {}

    def close(self) -> None:
        self._stop()


def make(name: str, seed: int, work_dir: Path, trace: bool = False, spans_path: Path | None = None):
    if name == "tcp_station":
        return TcpWorkload(seed, work_dir, trace, spans_path)
    return ReplayWorkload(name, seed, work_dir)
