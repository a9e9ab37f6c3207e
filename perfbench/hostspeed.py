"""The time a replay would take on a host of nominal speed with a quiet disk.

On a shared VM the CPU's speed drifts with the other tenants' load, by up to
±30% within a minute, and the disk's fsync latency swings several-fold with
their I/O. A replay's wall time follows both. So a replay is timed by the
CPU time of its thread (``time.thread_time``), with two corrections:

- CPU: a fixed reference computation is timed, also in thread CPU time,
  right after each replay, so the two see the same host. The replay's CPU
  time outside fsync is multiplied by ``NOMINAL_S`` / the reference's time.
- Disk: each call into ``os.fsync`` or ``os.fdatasync`` is counted and
  charged ``NOMINAL_SYNC_S``. A reference fsync does not follow the replay's
  own fsync latency (it moved 2x where the replay's moved 7x), so the disk
  is charged per call instead.

Thread CPU time leaves out the time the thread waits: for the disk outside
fsync, and for a CPU the host gave to another tenant. The reference does
not use slopewatch, so no change to the program can make it faster or
slower. Garbage collection is off while it runs, so the heap the program
left behind does not enter its time.
"""

from __future__ import annotations

import gc
import random
import time

import numpy as np

cpu = time.thread_time
perf = time.perf_counter

# Median time of ``reference_s``, and mean wall time of one fsync of a replay
# while the disk was quiet, on the 2-vCPU ext4 VM the bounds in BENCHMARK.json
# were set on. Scaled times read as that host's times.
NOMINAL_S = 0.0135
NOMINAL_SYNC_S = 0.00015
# File in a worker's directory holding the reference time taken right after set-up.
SETUP_REFERENCE = "setup_reference_s.txt"


def _interpreter(n: int) -> float:
    """Dict, float, string and list work, like the station's Python code."""
    rng = random.Random(5)
    bins: dict[int, float] = {}
    acc = 0.0
    rows = []
    for i in range(n):
        k = i % 997
        bins[k] = bins.get(k, 0.0) + rng.random()
        acc += bins[k] * 1.0001
        text = f"{k}:{acc:.3f}"
        rows.append((k, text))
        acc += len(text)
    return acc


def _small_numpy(n: int) -> float:
    """Least-squares fits of an AR(2) design on short series, like ``ar_fit``."""
    rng = np.random.default_rng(5)
    acc = 0.0
    for _ in range(n):
        x = rng.random(130)
        design = np.ones((128, 3))
        design[:, 1] = x[1:129]
        design[:, 2] = x[0:128]
        beta = np.linalg.lstsq(design, x[2:], rcond=None)[0]
        acc += float(np.sqrt(np.mean((design @ beta - x[2:]) ** 2)))
    return acc


def reference_s(share: int = 1) -> float:
    """Thread CPU seconds the reference computation, or 1/``share`` of it, takes now."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = cpu()
        _interpreter(5000 // share)
        _small_numpy(100 // share)
        return cpu() - t0
    finally:
        if was_enabled:
            gc.enable()


def nominal_s(cpu_s: float, sync_cpu_s: float, sync_calls: int, reference_s: float) -> float:
    """Seconds at nominal host speed of work that took ``cpu_s`` of thread CPU
    time, ``sync_cpu_s`` of it inside ``sync_calls`` fsyncs."""
    return (cpu_s - sync_cpu_s) * NOMINAL_S / reference_s + sync_calls * NOMINAL_SYNC_S


class DiskProbe:
    """Counts the calls into ``os.fsync`` and ``os.fdatasync``, with their wall and thread CPU time."""

    def __init__(self) -> None:
        self.calls = 0
        self.time_s = 0.0
        self.cpu_s = 0.0

    def install(self, patches) -> None:
        def make(original):
            def sync(fd):
                t0, c0 = perf(), cpu()
                try:
                    return original(fd)
                finally:
                    self.cpu_s += cpu() - c0
                    self.time_s += perf() - t0
                    self.calls += 1
            return sync

        patches.wrap("os", "fsync", make)
        patches.wrap("os", "fdatasync", make)
