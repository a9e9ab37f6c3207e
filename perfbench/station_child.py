"""Station process for tcp_station: installs the benchmark's probes, then runs the CLI.

Usage: python3 perfbench/station_child.py STATS_JSON SPANS_CSV|- TRACE(0|1) -- server ARGS...

SIGTERM stops the station the way Ctrl-C does (``run_station`` closes the
store); the probes' numbers are then written to STATS_JSON.
"""

from __future__ import annotations

import json
import signal
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import hostspeed  # noqa: E402
from tracer import Patches, ServiceProbe, Tracer  # noqa: E402


# Every SPEED_EVERY SEND_DATA frames, 1/SPEED_SHARE of hostspeed's reference
# is timed when the handler next waits for a frame: after the DATA_ACK went
# out, so the node's ack times do not include it.
SPEED_EVERY = 4
SPEED_SHARE = 20


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def sample_speed(patches: Patches, probe: ServiceProbe, samples: list) -> None:
    """Append (start, seconds at full reference size) to ``samples`` as frames are served."""
    next_at = [SPEED_EVERY]

    def make(original):
        def read_frame(*args, **kwargs):
            if len(probe.samples_s) >= next_at[0]:
                next_at[0] = len(probe.samples_s) + SPEED_EVERY
                samples.append((time.perf_counter(), hostspeed.reference_s(SPEED_SHARE) * SPEED_SHARE))
            return original(*args, **kwargs)
        return read_frame

    patches.wrap("slopewatch.wire", "read_frame", make)


def main() -> int:
    stats_path, spans_path, trace = sys.argv[1], sys.argv[2], sys.argv[3] == "1"
    cli_args = sys.argv[sys.argv.index("--") + 1:]
    from slopewatch.cli import main as cli_main

    patches, disk, speed = Patches(), hostspeed.DiskProbe(), []
    probe, tracer = ServiceProbe(disk), None
    if trace:
        tracer = Tracer()
        tracer.install(patches)
    else:
        disk.install(patches)
        probe.install(patches)
        sample_speed(patches, probe, speed)
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        rc = cli_main(cli_args)
    finally:
        patches.restore()
    stats = {"rc": rc, "missing": patches.missing, "service_s": probe.samples_s.tolist(),
             "cpu_s": probe.cpu_s.tolist(), "start_s": probe.start_s.tolist(),
             "sync_cpu_s": probe.sync_cpu_s.tolist(), "sync_calls": probe.sync_calls.tolist(),
             "sync_s": disk.time_s, "speed": speed, "durable": probe.durable}
    if tracer is not None:
        stats["totals"] = tracer.totals()
        stats["frame_engine_s"] = tracer.frame_engine_s()
        stats["durable"] = tracer.durable
        if spans_path != "-":
            tracer.write_csv(spans_path)
    Path(stats_path).write_text(json.dumps(stats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
