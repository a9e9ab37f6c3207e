"""One workload in a fresh process: set up, signal ready, measure, check, write results.

Started by run.py. Its own stdout and stderr (the console sink, log lines)
go to a log file; it writes "ready" on the original stdout when set-up is
done, so run.py can time set-up from process start.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from hostspeed import NOMINAL_S, SETUP_REFERENCE, DiskProbe, nominal_s, reference_s  # noqa: E402
from tracer import Patches, ServiceProbe, Tracer, layer_metrics, percentile  # noqa: E402

perf = time.perf_counter


def measure_untraced(wl, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics; the boundaries timed are the station's SEND_DATA service and fsync."""
    patches, disk = Patches(), DiskProbe()
    service = ServiceProbe(disk)
    try:
        if wl.kind == "replay":
            disk.install(patches)
            service.install(patches)
            res = wl.measure(seconds, service)
        else:
            res = wl.measure(seconds)
    finally:
        patches.restore()
    res["missing"] = patches.missing
    if wl.kind == "tcp":
        station = res["station"]
        res["missing"] = station.get("missing", [])
        durable = station.get("durable")
        rss = wl.peak_rss_mb
        readings_per_s = res["stored_once"] / res["wall_s"]
        # The station samples the host's speed between frames (station_child.py);
        # each frame is scaled by the samples of the second it started in.
        by_second = defaultdict(list)
        for t, ref_s in station.get("speed", []):
            by_second[int(t)].append(ref_s)
        ref = {sec: statistics.median(v) for sec, v in by_second.items()}
        whole_run = statistics.median(ref.values()) if ref else NOMINAL_S
        raw = station.get("service_s", [])
        sync_calls = station.get("sync_calls", [])
        service_s = [nominal_s(dc, sync, calls, ref.get(int(t), whole_run)) for t, dc, sync, calls in
                     zip(station.get("start_s", []), station.get("cpu_s", []), station.get("sync_cpu_s", []),
                         sync_calls)]
        raw = sorted(raw)
        res["unscaled"] = {
            "readings_per_s": readings_per_s,
            "service_ms_p50": percentile(raw, 50) * 1e3,
            "service_ms_p99": percentile(raw, 99) * 1e3,
            "host_speed": NOMINAL_S / whole_run,
            "sync_ms_mean": station.get("sync_s", 0.0) / max(sum(sync_calls), 1) * 1e3,
        }
    else:
        durable = service.durable
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # Each replay and each of its frames at nominal host speed (hostspeed.py).
        rates, raw_rates, service_s, start = [], [], [], 0
        for r in res["replays"]:
            ref, end = r["reference_s"], r["frames_end"]
            raw_rates.append(r["stored_once"] / r["wall_s"])
            rates.append(r["stored_once"] / nominal_s(r["cpu_s"], r["sync_cpu_s"], r["sync_calls"], ref))
            service_s += [nominal_s(dc, sync, calls, ref) for dc, sync, calls in
                          zip(service.cpu_s[start:end], service.sync_cpu_s[start:end],
                              service.sync_calls[start:end])]
            start = end
        raw = sorted(service.samples_s)
        res["unscaled"] = {
            "readings_per_s": statistics.median(raw_rates),
            "service_ms_p50": percentile(raw, 50) * 1e3,
            "service_ms_p99": percentile(raw, 99) * 1e3,
            "host_speed": statistics.median(NOMINAL_S / r["reference_s"] for r in res["replays"]),
            "sync_ms_mean": disk.time_s / max(disk.calls, 1) * 1e3,
        }
        # The median replay, so that a stall inside one replay does not move the run.
        readings_per_s = statistics.median(rates)
    s = sorted(service_s)
    e2e = {
        "readings_per_s": readings_per_s,
        "service_ms_p50": percentile(s, 50) * 1e3,
        "peak_rss_mb": rss,
    }
    res["service_ms"] = {"p50": percentile(s, 50) * 1e3, "p99": percentile(s, 99) * 1e3, "samples": len(s)}
    res["durable"] = durable
    return e2e, res


def decode_rate(seed: int, seconds: float = 0.5) -> float:
    """Frame decodes per second through public ``wire.decode_frame``."""
    from slopewatch import wire

    rng = random.Random(seed)
    frames = [wire.encode_frame(wire.Frame(wire.MessageType.SEND_DATA, rng.randbytes(rng.randrange(10, 60))))
              for _ in range(256)]
    n = 0
    t0 = perf()
    while perf() - t0 < seconds:
        for raw in frames:
            wire.decode_frame(raw)
        n += len(frames)
    return n / (perf() - t0)


def measure_traced(wl, args, work_dir: Path) -> tuple[dict, dict]:
    """Per-layer metrics: an untraced half, then a traced half of the same work."""
    import workloads

    half = args.seconds / 2.0
    plain_e2e, plain = measure_untraced(wl, half)
    spans_path = HERE / "out" / f"spans-{args.workload}.csv"
    if wl.kind == "tcp":
        wl.close()
        wl = workloads.make(args.workload, args.seed, work_dir, trace=True, spans_path=spans_path)
        try:
            wl.prepare()
            res = wl.measure(half)
        finally:
            wl.close()
        station = res["station"]
        totals = station.get("totals") or {"calls": {}, "incl": {}, "self": {}, "counters": {},
                                           "useful_frames": 0}
        missing = station.get("missing", [])
        durable = station.get("durable")
    else:
        tracer, patches = Tracer(), Patches()
        tracer.install(patches)
        try:
            res = wl.measure(half)
        finally:
            patches.restore()
        totals, missing, durable = tracer.totals(), patches.missing, tracer.durable
        tracer.write_csv(spans_path)
    for key in ("calls", "incl", "self", "counters"):
        totals[key] = _zero_default(totals[key])
    layers = layer_metrics(totals)
    traced_rps = res["stored_once"] / res["run_s"]
    plain_rps = plain["stored_once"] / plain["run_s"]
    layers.update({
        "session.trace_records": res["trace_records"],
        "session.frames_dropped": res["frames_dropped"],
        "session.severs": res["severs"],
        "ingest.bytes_per_record": res["csv_bytes"] / max(res["records"], 1),
        "wire.decode_per_s": decode_rate(args.seed),
        "trace.overhead_ratio": plain_rps / traced_rps - 1.0,
        "trace.coverage_ratio": layers["trace.self_sum_s"] / res["wall_s"],
        "nettransport.frames_in": 0,
        "nettransport.engine_s": 0.0,
        "nettransport.overhead_ms_p50": 0.0,
        "loadgen.ack_ms_p50": 0.0,
        "loadgen.ack_ms_p99": 0.0,
        "loadgen.max_rate_bps": 0.0,
        "loadgen.late_ms_max": 0.0,
    })
    if wl.kind == "tcp":
        calls, incl = totals["calls"], totals["incl"]
        engine = station.get("frame_engine_s", {})
        overhead = [rtt - engine[key] * 1e3 for r in res["rungs"]
                    for key, rtt in r["rtt_ms"].items() if key in engine]
        layers.update({
            "nettransport.frames_in": calls["station.data_frame"] + calls["station.control_frame"],
            "nettransport.engine_s": incl["station.data_frame"] + incl["station.control_frame"],
            "nettransport.overhead_ms_p50": statistics.median(overhead) if overhead else 0.0,
            **plain["loadgen"],
        })
    res.update(missing=missing, durable=durable, plain_e2e=plain_e2e,
               attempted=res["attempted"] + plain["attempted"], failed=res["failed"] + plain["failed"],
               problems=plain["problems"] + res["problems"], spans=str(spans_path.relative_to(ROOT)))
    return layers, res


def _zero_default(d: dict) -> dict:
    out = defaultdict(float)
    out.update(d)
    return out


def environment(args, store_dir: Path, durable) -> dict:
    import numpy
    from slopewatch import wire

    def fs_type(path: Path) -> str:
        best, fstype = "", "unknown"
        with open("/proc/self/mounts") as fh:
            for line in fh:
                parts = line.split()
                mount = parts[1]
                if str(path).startswith(mount.rstrip("/") + "/") or str(path) == mount:
                    if len(mount) >= len(best):
                        best, fstype = mount, parts[2]
        return fstype

    commit = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = out.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "crc_backend": getattr(wire, "CRC_BACKEND", "missing"),
        "nproc": len(os.sched_getaffinity(0)),
        "store_fs": fs_type(store_dir.resolve()),
        "durable": durable,
        "git_commit": commit,
        "workload": args.workload,
        "seed": args.seed,
        "link_seeds": "seed * 1000 + replay index",
    }


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--work-dir", type=Path, required=True)
    p.add_argument("--out", type=Path)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    ready = os.fdopen(os.dup(1), "w")
    args.work_dir.mkdir(parents=True, exist_ok=True)
    log = open(args.work_dir / "worker.log", "a")
    os.dup2(log.fileno(), 1)
    os.dup2(log.fileno(), 2)

    import workloads

    wl = workloads.make(args.workload, args.seed, args.work_dir)
    try:
        wl.prepare()
        ready.write("ready\n")
        ready.flush()
        # The host's speed right after set-up, so run.py can scale set-up time. Not
        # for tcp_station: its set-up is mostly the station's process, on its own CPU.
        if wl.kind == "replay":
            reference_s()  # the first call in a fresh process runs cold, about twice as long
            reference = statistics.median(reference_s() for _ in range(3))
            (args.work_dir / SETUP_REFERENCE).write_text(f"{reference!r}\n")
        if args.setup_only:
            return 0
        if args.trace:
            metrics, res = measure_traced(wl, args, args.work_dir)
        else:
            metrics, res = measure_untraced(wl, args.seconds)
    finally:
        wl.close()
    res.pop("station", None)
    for rung in res.get("rungs", []):
        rung.pop("rtt_ms", None)
    res["env"] = environment(args, args.work_dir, res.pop("durable"))
    res["metrics"] = metrics
    args.out.write_text(json.dumps(res, indent=1, default=str))
    return 0


if __name__ == "__main__":
    sys.exit(main())
