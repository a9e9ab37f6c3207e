"""Spans and probes around slopewatch's public boundaries, installed from outside.

Nothing here edits the program: each boundary is a module attribute or a
class method that the benchmark replaces with a timing wrapper and puts
back afterwards. A boundary that no longer exists is reported as missing.
"""

from __future__ import annotations

import importlib
import math
import threading
import time
from array import array
from collections import Counter, defaultdict

perf = time.perf_counter

# (module, attribute path, span name). The module is where the caller
# looks the name up, so a function imported by name is wrapped in the
# namespace of the module that calls it.
BOUNDARIES = (
    ("slopewatch.replay", "SimReplay.run", "replay.run"),
    ("slopewatch.wire", "encode_frame", "wire.encode"),
    ("slopewatch.wire", "decode_frame", "wire.decode"),
    ("slopewatch.replay", "node_step", "session.node_step"),
    ("slopewatch.station", "server_step", "session.server_step"),
    ("slopewatch.session", "LossyLink.deliver", "session.link_deliver"),
    ("slopewatch.session", "TraceLog.record", "session.trace_record"),
    ("slopewatch.station", "ServerEngine.handle_data_frame", "station.data_frame"),
    ("slopewatch.station", "ServerEngine.handle_control_frame", "station.control_frame"),
    ("slopewatch.ingest", "Repository.ingest_batch", "ingest.batch"),
    ("slopewatch.ingest", "Repository.flush", "ingest.flush"),
    ("slopewatch.alert", "AlertEngine.evaluate_batch", "alert.evaluate"),
    ("slopewatch.alert", "Dispatcher.dispatch", "alert.dispatch"),
    ("slopewatch.alert", "ar_fit", "analytics.ar_fit"),
    ("slopewatch.alert", "ar_forecast", "analytics.ar_forecast"),
    ("slopewatch.alert", "compute_rainfall_features", "analytics.rain_features"),
    ("slopewatch.nodesim", "ScenarioPlayer.emit_readings", "nodesim.emit"),
)


class Patches:
    """Replaced attributes, restored in reverse order by ``restore``."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    def wrap(self, module: str, path: str, make_wrapper) -> bool:
        try:
            owner = importlib.import_module(module)
            *parents, attr = path.split(".")
            for name in parents:
                owner = getattr(owner, name)
            original = getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{path}")
            return False
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make_wrapper(original))
        return True

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _is_send_data(frame) -> bool:
    return getattr(getattr(frame, "msg_type", None), "name", "") == "SEND_DATA"


class ServiceProbe:
    """Times ``ServerEngine.handle_data_frame`` for every SEND_DATA frame.

    The only boundary timed when tracing is off; it also reads the flush
    policy (``repo.durable``) of the engine it serves.
    """

    def __init__(self, disk=None) -> None:
        # Flat arrays, so that holding a run's samples adds little to peak RSS.
        self.samples_s = array("d")  # wall time
        self.cpu_s = array("d")  # thread CPU time
        self.start_s = array("d")  # perf_counter at each sample's start
        self.durable: bool | None = None
        # With a hostspeed.DiskProbe: the fsync calls, and their thread CPU time, inside each sample.
        self.disk = disk
        self.sync_cpu_s = array("d")
        self.sync_calls = array("q")

    def install(self, patches: Patches) -> None:
        samples, disk = self.samples_s, self.disk

        def make(original):
            def handle_data_frame(engine, frame, *args, **kwargs):
                if disk is not None:
                    s0, n0 = disk.cpu_s, disk.calls
                t0, c0 = perf(), time.thread_time()
                out = original(engine, frame, *args, **kwargs)
                dc, dt = time.thread_time() - c0, perf() - t0
                if _is_send_data(frame):
                    samples.append(dt)
                    self.cpu_s.append(dc)
                    self.start_s.append(t0)
                    if disk is not None:
                        self.sync_cpu_s.append(disk.cpu_s - s0)
                        self.sync_calls.append(disk.calls - n0)
                    if self.durable is None:
                        self.durable = getattr(getattr(engine, "repo", None), "durable", None)
                return out
            return handle_data_frame

        patches.wrap("slopewatch.station", "ServerEngine.handle_data_frame", make)


class _CountingHeapq:
    """The replay's event queue module, counting events popped."""

    def __init__(self, heapq, counters: Counter):
        self._heapq, self._counters = heapq, counters

    def heappop(self, queue):
        self._counters["replay.events"] += 1
        return self._heapq.heappop(queue)

    def __getattr__(self, name):
        return getattr(self._heapq, name)


class Tracer:
    """Spans kept in memory as flat lists (name, start, end, parent); written at the end."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        # One entry per span, in start order; a parent always precedes its children.
        self.name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.frame_ids: dict[int, tuple[int, int]] = {}  # data-frame span -> (node_id, seq)
        self.useful_frames: set[int] = set()
        self.counters: Counter = Counter()
        self.durable: bool | None = None  # flush policy of the repository seen
        self._local = threading.local()
        self._lock = threading.Lock()  # the station's handler threads share one tracer

    def intern(self, name: str) -> int:
        if name not in self._index:
            self._index[name] = len(self.names)
            self.names.append(name)
        return self._index[name]

    def enclosing(self, i: int, name: str) -> int:
        """Index of the nearest ancestor span named ``name``, or -1."""
        target = self._index.get(name)
        p = self.parent[i]
        while p >= 0 and self.name[p] != target:
            p = self.parent[p]
        return p

    # -- installation ---------------------------------------------------------

    def _timed(self, name: str, after=None):
        ix = self.intern(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        local, lock = self._local, self._lock

        def make(original):
            def wrapper(*args, **kwargs):
                stack = getattr(local, "stack", None)
                if stack is None:
                    stack = local.stack = []
                with lock:
                    i = len(starts)
                    names.append(ix)
                    parents.append(stack[-1] if stack else -1)
                    ends.append(0.0)
                    starts.append(perf())
                stack.append(i)
                try:
                    result = original(*args, **kwargs)
                finally:
                    ends[i] = perf()
                    stack.pop()
                if after is not None:
                    after(i, args, result)
                return result
            return wrapper
        return make

    def install(self, patches: Patches) -> None:
        counters = self.counters

        def encoded(i, args, out):
            counters["wire.bytes"] += len(out)

        def decoded(i, args, out):
            counters["wire.bytes"] += len(args[0])

        hooks = {
            "wire.encode": encoded,
            "wire.decode": decoded,
            "station.data_frame": self._after_data_frame,
            "ingest.batch": self._after_ingest,
        }
        for module, path, name in BOUNDARIES:
            patches.wrap(module, path, self._timed(name, hooks.get(name)))

        patches.wrap("slopewatch.replay", "heapq", lambda heapq: _CountingHeapq(heapq, counters))

    def _after_data_frame(self, i, args, out) -> None:
        if _is_send_data(args[1]):
            self.counters["station.data_frames"] += 1

    def _after_ingest(self, i, args, stored) -> None:
        repo, payload, node_id = args[0], args[1], args[2]
        self.durable = getattr(repo, "durable", None)
        self.counters["ingest.dup_records"] += len(payload.readings) - len(stored)
        frame = self.enclosing(i, "station.data_frame")
        if frame >= 0:
            self.frame_ids[frame] = (node_id, payload.seq)
            if stored:
                self.useful_frames.add(frame)

    # -- results --------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        calls: Counter = Counter()
        incl: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        names, name, start, end, parent = self.names, self.name, self.start, self.end, self.parent
        for i in range(len(start)):
            nm = names[name[i]]
            d = end[i] - start[i]
            calls[nm] += 1
            incl[nm] += d
            self_s[nm] += d
            p = parent[i]
            if p >= 0:
                self_s[names[name[p]]] -= d
        return {"calls": calls, "incl": incl, "self": self_s, "counters": self.counters,
                "useful_frames": len(self.useful_frames)}

    def frame_engine_s(self) -> dict[str, float]:
        """Engine time of each SEND_DATA frame, keyed "node_id:seq"."""
        return {f"{nid}:{seq}": self.end[i] - self.start[i]
                for i, (nid, seq) in self.frame_ids.items()}

    def write_csv(self, path) -> None:
        """One row per span; spans under one data frame share (node_id, seq)."""
        fid = [None] * len(self.start)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span,name,start_s,end_s,parent,node_id,seq\n")
            t0 = self.start[0] if self.start else 0.0
            for i in range(len(self.start)):
                p = self.parent[i]
                fid[i] = self.frame_ids.get(i) or (fid[p] if p >= 0 else None)
                nid, seq = fid[i] or ("", "")
                fh.write(f"{i},{self.names[self.name[i]]},{self.start[i] - t0:.7f},"
                         f"{self.end[i] - t0:.7f},{p},{nid},{seq}\n")


def layer_metrics(t: dict) -> dict[str, float]:
    """Per-layer metrics from ``Tracer.totals`` (counts, seconds)."""
    calls, incl, self_s, ctr = t["calls"], t["incl"], t["self"], t["counters"]
    frames = ctr["station.data_frames"]
    return {
        "ingest.flush_calls": calls["ingest.flush"],
        "ingest.flush_s": incl["ingest.flush"],
        "ingest.busy_s": incl["ingest.batch"],
        "ingest.batches": calls["ingest.batch"],
        "ingest.dup_records": ctr["ingest.dup_records"],
        "session.trace_s": incl["session.trace_record"],
        "wire.encode_calls": calls["wire.encode"],
        "wire.decode_calls": calls["wire.decode"],
        "wire.bytes": ctr["wire.bytes"],
        "wire.busy_s": incl["wire.encode"] + incl["wire.decode"],
        "session.node_step_calls": calls["session.node_step"],
        "session.node_step_s": incl["session.node_step"],
        "session.server_step_calls": calls["session.server_step"],
        "session.server_step_s": incl["session.server_step"],
        "session.link_deliver_calls": calls["session.link_deliver"],
        "alert.evaluate_calls": calls["alert.evaluate"],
        "alert.evaluate_s": incl["alert.evaluate"],
        "alert.self_s": self_s["alert.evaluate"],
        "analytics.ar_fit_calls": calls["analytics.ar_fit"],
        "analytics.ar_fit_s": incl["analytics.ar_fit"],
        "analytics.ar_forecast_s": incl["analytics.ar_forecast"],
        "analytics.rain_features_calls": calls["analytics.rain_features"],
        "analytics.rain_features_s": incl["analytics.rain_features"],
        "alert.notifications": calls["alert.dispatch"],
        "alert.dispatch_s": incl["alert.dispatch"],
        "station.data_frames": frames,
        "station.useful_frame_ratio": t["useful_frames"] / frames if frames else 0.0,
        "station.self_s": self_s["station.data_frame"] + self_s["station.control_frame"],
        "replay.events": ctr["replay.events"],
        "replay.self_s": self_s["replay.run"],
        "nodesim.emit_calls": calls["nodesim.emit"],
        "nodesim.emit_s": incl["nodesim.emit"],
        "trace.spans": sum(calls.values()),
        "trace.self_sum_s": sum(self_s.values()),
    }


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 when empty)."""
    if not sorted_values:
        return 0.0
    k = math.ceil(q / 100.0 * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, k))]

