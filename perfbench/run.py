#!/usr/bin/env python3
"""slopewatch station benchmark: one seeded workload, checked outputs, one JSON line.

Usage (from the repository root):
    python3 perfbench/run.py --workload storm7 --seed 1 --seconds 30 --trace 0

Workloads: storm7 and tcp_station are the ones BENCHMARK.json gates; batches10k and
sensors5_w512 run the same way but are not gated (see perfbench/README.md).
--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of a
traced run; the metric names and units are the ones declared in BENCHMARK.json.
The last line of stdout is {"correct", "attempted", "failed", "metrics"}; the
lines before it are the human-readable report and the recorded environment.
Exit code 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from hostspeed import NOMINAL_S, SETUP_REFERENCE  # noqa: E402

WORKLOADS = ("storm7", "tcp_station", "batches10k", "sensors5_w512")
SETUP_PROBES = 4  # extra fresh processes that only set up; set-up time is their median
TIME_LIMIT_S = 170.0

perf = time.perf_counter


class WorkerError(RuntimeError):
    pass


def start_worker(argv: list[str], deadline: float) -> tuple[subprocess.Popen, float]:
    """Start a worker in its own process group; seconds until it reports ready."""
    t0 = perf()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv], stdout=subprocess.PIPE,
                            cwd=ROOT, start_new_session=True)
    line = b""
    while not line.endswith(b"\n"):
        readable, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - perf()))
        chunk = os.read(proc.stdout.fileno(), 64) if readable else b""
        if not chunk:
            stop(proc)
            raise WorkerError("worker exited or timed out before set-up finished")
        line += chunk
    setup_s = perf() - t0
    if line.strip() != b"ready":
        stop(proc)
        raise WorkerError(f"unexpected worker output {line!r}")
    return proc, setup_s


def stop(proc: subprocess.Popen, timeout: float = 0.0) -> int:
    """Wait up to ``timeout`` for the worker, then kill its whole process group."""
    try:
        return proc.wait(timeout=timeout) if timeout > 0 else proc.wait(timeout=0.001)
    except subprocess.TimeoutExpired:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        return proc.wait()
    finally:
        proc.stdout.close()


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the measured phase")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    for needed in (ROOT / "src" / "slopewatch", ROOT / "config" / "demo.ini", ROOT / "BENCHMARK.json"):
        if not needed.exists():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a slopewatch checkout",
                  file=sys.stderr)
            return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    table = declared["per_layer" if args.trace else "end_to_end"]

    deadline = perf() + TIME_LIMIT_S
    work = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace)]
    setup, setup_raw = [], []

    def add_setup(seconds: float, work_dir: Path) -> None:
        """Set-up time at nominal host speed, if the worker took a reference right after it."""
        setup_raw.append(seconds)
        reference = work_dir / SETUP_REFERENCE
        setup.append(seconds * NOMINAL_S / float(reference.read_text()) if reference.exists() else seconds)

    try:
        for i in range(0 if args.trace else SETUP_PROBES):
            probe_dir = work / f"probe{i}"
            proc, s = start_worker([*common, "--work-dir", str(probe_dir), "--setup-only"], deadline)
            if stop(proc, timeout=60.0) != 0:
                raise WorkerError(f"set-up probe failed; see {probe_dir}")
            add_setup(s, probe_dir)
        result_path = work / "result.json"
        proc, s = start_worker([*common, "--work-dir", str(work), "--out", str(result_path)], deadline)
        if stop(proc, timeout=max(1.0, deadline - perf())) != 0 or not result_path.exists():
            raise WorkerError(f"workload failed; see {work / 'worker.log'}")
        add_setup(s, work)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for store in work.glob("**/station-*"):
            if store.is_dir():
                shutil.rmtree(store, ignore_errors=True)

    res = json.loads(result_path.read_text())
    values = dict(res["metrics"], setup_s=statistics.median(setup))
    absent = [m["name"] for m in table if m["name"] not in values]
    if absent:
        print(f"error: workload reported no {', '.join(absent)}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"measured {res['wall_s']:.2f} s over {res['units']} "
          f"{'rungs' if 'rungs' in res else 'replays'}  set-up samples {len(setup)}")
    print("env " + json.dumps(res["env"], sort_keys=True))
    if "service_ms" in res:
        svc = res["service_ms"]
        print(f"station service per SEND_DATA frame: p50 {svc['p50']:.3f} ms  p99 {svc['p99']:.3f} ms"
              f"  ({svc['samples']} frames)")
    if "unscaled" in res:
        raw = res["unscaled"]
        print(f"unscaled (host speed {raw['host_speed']:.3f} of nominal, fsync mean "
              f"{raw['sync_ms_mean']:.3f} ms): readings_per_s {raw['readings_per_s']:.6g}"
              f"  service p50 {raw['service_ms_p50']:.3f} ms  p99 {raw['service_ms_p99']:.3f} ms"
              f"  setup_s {statistics.median(setup_raw):.4f} s")
    for name, value in res.get("loadgen", {}).items():
        print(f"  {name:<32} {value:>14.6g}")
    for rung in res.get("rungs", []):
        print(f"  rate {rung['rate']:>4}/s  batches {rung['batches']:>5}  ack p50 {rung['ack_ms_p50']:8.2f} ms"
              f"  p99 {rung['ack_ms_p99']:8.2f} ms  late max {rung['late_ms_max']:7.2f} ms"
              f"  {'pass' if rung['passed'] else 'FAIL'}")
    for m in table:
        print(f"  {m['name']:<32} {values[m['name']]:>14.6g} {m['unit']}")
    if res["missing"]:
        print("missing boundaries (reported as 0): " + ", ".join(res["missing"]))
    for problem in res["problems"]:
        print("CHECK FAILED: " + problem)
    correct = not res["problems"] and res["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in table},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
