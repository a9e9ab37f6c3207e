#!/usr/bin/env python3
"""Benchmark the reading store: open, full read and batch ingest on an N-row store.

Usage: python benchmarks/bench_store.py [--rows 300000] [--batches 2000] [--durable-batches 200]

Writes a ``readings.csv`` of ``--rows`` rows (three nodes, five-reading
batches, in-order seqs) to a temporary directory, then times:

* ``Repository(...)`` opening it (best of ``--repeat``);
* ``all_records()`` on it (best of ``--repeat``);
* ``ingest_batch`` of ``--batches`` new five-reading batches, each
  followed by ``flush()`` as the station does, with ``durable=False``,
  then ``--durable-batches`` with ``durable=True`` (one fsync per batch).

Each line gives rows/s and the MiB that tracemalloc shows as held by the
open repository. Memory is measured in a separate pass from the timings,
since tracing allocations slows Python down.
"""

from __future__ import annotations

import argparse
import gc
import shutil
import tempfile
import time
import tracemalloc
from pathlib import Path

from slopewatch.domain import CalibrationConstants, SensorKind
from slopewatch.ingest import READINGS_FILE, Repository
from slopewatch.wire import SendDataPayload

NODES = 3
SENSORS = tuple(SensorKind)
CONSTANTS = {k: CalibrationConstants(k, 0.01, 0.0) for k in SENSORS}
START_TS = 1270166400
STEP_S = 600

perf = time.perf_counter


def write_store(path: Path, rows: int) -> int:
    """Write ``rows`` rows in the store's CSV format; returns the batches written."""
    batch = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("ts_unix,node_id,sensor,seq,value\n")
        written = 0
        while written < rows:
            node = batch % NODES + 1
            seq0 = (batch // NODES) * len(SENSORS) + 1
            ts = START_TS + batch * STEP_S
            for i, kind in enumerate(SENSORS[: rows - written]):
                fh.write(f"{ts},{node},{kind.name.lower()},{seq0 + i},{(batch % 997) * 0.01 + i!r}\n")
                written += 1
            batch += 1
    return batch


def payloads(first_batch: int, count: int) -> list[tuple[int, SendDataPayload]]:
    """(node_id, payload) for ``count`` batches continuing after ``first_batch``."""
    out = []
    for batch in range(first_batch, first_batch + count):
        seq0 = (batch // NODES) * len(SENSORS) + 1
        readings = tuple((kind.code, 100 + batch % 50) for kind in SENSORS)
        out.append((batch % NODES + 1,
                    SendDataPayload(session_id=1, seq=seq0, timestamp=START_TS + batch * STEP_S,
                                    readings=readings)))
    return out


def held_mib(make) -> tuple[float, object]:
    """MiB tracemalloc shows as held by what ``make()`` returns, and that object."""
    gc.collect()
    tracemalloc.start()
    before = tracemalloc.get_traced_memory()[0]
    obj = make()
    gc.collect()
    held = (tracemalloc.get_traced_memory()[0] - before) / 2**20
    tracemalloc.stop()
    return held, obj


def best_of(repeat: int, fn) -> tuple[float, object]:
    best, result = float("inf"), None
    for _ in range(repeat):
        result = None
        gc.collect()
        t0 = perf()
        result = fn()
        best = min(best, perf() - t0)
    return best, result


def ingest(store: Path, batches, durable: bool) -> float:
    repo = Repository(store, durable=durable)
    t0 = perf()
    for node_id, payload in batches:
        repo.ingest_batch(payload, node_id, CONSTANTS)
        repo.flush()
    elapsed = perf() - t0
    repo.close()
    return elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rows", type=int, default=300_000, help="rows in the generated store")
    parser.add_argument("--batches", type=int, default=2000, help="batches ingested with durable=False")
    parser.add_argument("--durable-batches", type=int, default=200, help="batches ingested with durable=True")
    parser.add_argument("--repeat", type=int, default=3, help="timed passes for open and all_records")
    parser.add_argument("--dir", help="parent directory for the generated store (default: system temp)")
    args = parser.parse_args()

    work = Path(tempfile.mkdtemp(prefix="bench_store-", dir=args.dir))
    try:
        store = work / "store"
        store.mkdir()
        batches_written = write_store(store / READINGS_FILE, args.rows)
        size_mib = (store / READINGS_FILE).stat().st_size / 2**20
        print(f"store: {args.rows:,} rows, {NODES} nodes, {size_mib:.1f} MiB on disk")
        print(f"{'operation':<28} {'seconds':>9} {'rows/s':>12} {'held MiB':>9}")

        def report(name: str, seconds: float, rows: int, held: float | None = None) -> None:
            held_s = f"{held:>9.2f}" if held is not None else f"{'':>9}"
            print(f"{name:<28} {seconds:>9.3f} {rows / seconds:>12,.0f} {held_s}")

        open_s, repo = best_of(args.repeat, lambda: Repository(store, read_only=True))
        held, repo = held_mib(lambda: Repository(store, read_only=True))
        report("open", open_s, args.rows, held)
        read_s, records = best_of(args.repeat, repo.all_records)
        report("all_records()", read_s, len(records))
        del records, repo

        todo = payloads(batches_written, args.batches + args.durable_batches)
        fast, slow = todo[: args.batches], todo[args.batches:]
        if fast:
            report("ingest_batch durable=False", ingest(store, fast, durable=False),
                   len(fast) * len(SENSORS))
        if slow:
            report("ingest_batch durable=True", ingest(store, slow, durable=True),
                   len(slow) * len(SENSORS))
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
