"""slopewatch command line: node, server, replay, analyze, report.

Exit codes: 0 success, 1 runtime failure, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
from pathlib import Path

from slopewatch.analytics import CaineDomainError, RainEvent, caine_threshold, segment_events
from slopewatch.alert import AlertEngine, AnalysisConfig, exceedance_sets, multi_level
from slopewatch.config import ENV_CONFIG, ConfigError, load_config, resolve_config_path
from slopewatch.domain import CalibratedReading, SensorKind
from slopewatch.ingest import READINGS_FILE, Repository, StoreError
from slopewatch.nodesim import ScenarioError, load_scenario, resolve_scenario

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_CONFIG = 2

logger = logging.getLogger(__name__)


def _node_id(text: str) -> int:
    """A node id: the wire carries it as an unsigned 16-bit integer."""
    if not (text.isascii() and text.isdigit() and int(text) <= 0xFFFF):
        raise argparse.ArgumentTypeError(f"{text!r} is not a node id from 0 to 65535")
    return int(text)


def _speedup(text: str) -> float:
    """A pace in simulated seconds per wall second: positive and finite."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive, finite speedup")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopewatch",
        description="Landslide early-warning telemetry: sensor nodes, base station, analytics.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p_node = sub.add_parser("node", help="stream a scenario to a station over TCP")
    p_node.add_argument("--config", help="config file (or set EWS_CONFIG)")
    p_node.add_argument("--scenario", required=True, help="scenario CSV path or bundled name")
    p_node.add_argument("--node-id", type=_node_id, default=1, help="node identifier, 0-65535 (default 1)")
    p_node.add_argument("--connect", default="127.0.0.1:9470", help="station host:port")
    p_node.add_argument("--speedup", type=_speedup, default=3600.0,
                        help="scenario seconds per wall second (default 3600); "
                             "protocol timers run in wall seconds")

    p_server = sub.add_parser("server", help="run the base station")
    p_server.add_argument("--config", help="config file (or set EWS_CONFIG)")
    p_server.add_argument("--store", help="store directory (default from config)")
    p_server.add_argument("--listen", default="127.0.0.1:9470", help="bind address host:port")

    p_replay = sub.add_parser("replay", help="run node + simulated link + server to completion")
    p_replay.add_argument("--config", help="config file (or set EWS_CONFIG)")
    p_replay.add_argument("--scenario", required=True, help="scenario CSV path or bundled name")
    p_replay.add_argument("--store", default="./replay_run", help="store directory")
    p_replay.add_argument("--seed", type=int, default=0, help="link rng seed")
    p_replay.add_argument("--node-id", type=_node_id, default=1, help="node identifier, 0-65535 (default 1)")
    p_replay.add_argument("--force-disconnects", type=int, default=0,
                          help="sever the link N times at evenly spaced points, "
                               "0 to the scenario's number of sampling intervals")
    p_replay.add_argument("--trace", help="write the protocol event trace to this CSV file")

    p_analyze = sub.add_parser("analyze", help="rain events, and what the station's alert engine "
                                                "judges the next batch on")
    p_analyze.add_argument("--store", required=True, help="store directory")
    p_analyze.add_argument("--config", help="config file (or set EWS_CONFIG); without one, the rain events alone")
    p_analyze.add_argument("--format", choices=("text", "csv"), default="text")

    p_report = sub.add_parser("report", help="alert history for a store directory")
    p_report.add_argument("--store", required=True, help="store directory")
    p_report.add_argument("--format", choices=("text", "csv"), default="text")

    return parser


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_node(args) -> int:
    from slopewatch.nettransport import NodeRunner

    scenario = load_scenario(resolve_scenario(args.scenario))
    runner = NodeRunner(scenario, node_id=args.node_id, connect=args.connect, speedup=args.speedup)
    return runner.run()


def cmd_server(args) -> int:
    cfg = load_config(resolve_config_path(args.config))
    from slopewatch.nettransport import run_station

    return run_station(cfg, args.listen, args.store or cfg.store_dir)


def cmd_replay(args) -> int:
    from slopewatch.replay import SimReplay
    from slopewatch.session import TraceLog

    cfg = load_config(resolve_config_path(args.config))
    scenario = load_scenario(resolve_scenario(args.scenario))
    n = args.force_disconnects
    most = math.floor(scenario.duration / scenario.sample_interval)
    if not 0 <= n <= most:
        print(f"error: --force-disconnects must be from 0 to {most}, the scenario's sampling "
              f"intervals, got {n}", file=sys.stderr)
        return EXIT_CONFIG
    # A replay's node restarts at seq 1, so into a store that holds readings
    # it would store none of them.
    if (Path(args.store) / READINGS_FILE).is_file() and len(Repository(args.store, read_only=True)):
        print(f"error: store {args.store} already holds readings; replay into a new store", file=sys.stderr)
        return EXIT_CONFIG
    offsets = tuple(scenario.duration * (i + 1) / (n + 1) for i in range(n))
    sim = SimReplay(
        scenario,
        cfg,
        args.store,
        seed=args.seed,
        node_id=args.node_id,
        force_disconnect_at=offsets,
        trace=TraceLog() if args.trace else None,
    )
    summary = sim.run()
    if args.trace:
        sim.trace.write(args.trace)
    print(summary.format())
    if summary.records_stored != summary.readings_generated:
        print(
            f"warning: stored {summary.records_stored} of {summary.readings_generated} readings",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
    return EXIT_OK


def _stored_records(repo: Repository, rain: list):
    """Every stored row as a record, in file order, which is the order the
    station observed them in; appends each rain row's (ts, node_id, seq, mm) to ``rain``."""
    for ts, node_id, seq, sensor, value in repo.rows():
        if sensor is SensorKind.RAIN_GAUGE:
            rain.append((ts, node_id, seq, value))
        yield CalibratedReading(node_id, ts, sensor, value, seq)


# The station view's rows: sensor, unit, ValueSnapshot field, Thresholds field.
_VIEW_ROWS = (
    ("rain_gauge", "mm/h", "rain_intensity_mm_per_h", "mt_rain_mm_per_h"),
    ("piezometer", "kPa", "pore_kpa", "mt_pore_kpa"),
    ("extensometer", "mm", "displacement_mm", "mt_displacement_mm"),
    ("inclinometer", "deg", "inclinometer_deg", "mt_inclination_deg"),
    ("tiltmeter", "deg", "tiltmeter_deg", "mt_inclination_deg"),
)


def _caine_columns(event: RainEvent) -> tuple[str, str]:
    """The event's Caine bound in mm/h and "yes" or "no" it is reached; "" and "n/a" off the curve."""
    try:
        bound = caine_threshold(event.duration_h)
    except CaineDomainError:
        return "", "n/a"
    return f"{bound:.3f}", "yes" if event.mean_intensity_mm_per_h >= bound else "no"


def _number(value: float | None) -> str:
    return "-" if value is None else f"{value:.4f}"


def _print_station_view(engine: AlertEngine) -> None:
    """What the station's engine judges the next batch on, after observing the store."""
    th = engine.thresholds
    current, predicted = engine.snapshots()
    print(f"\nstation view at ts {engine.now:.0f} (forecast max over {th.prediction_horizon} steps):")
    _print_table(("sensor", "unit", "current", "forecast_max", "threshold"), [
        (sensor, unit, _number(getattr(current, field)), _number(getattr(predicted, field)), f"{getattr(th, limit):g}")
        for sensor, unit, field, limit in _VIEW_ROWS
    ])
    event = current.active_event
    if event is None:
        print("active rain event: none")
    else:
        bound, exceeds = _caine_columns(event)
        print(f"active rain event: {event.duration_h:.3f} h, {event.total_mm:.3f} mm, "
              f"{event.mean_intensity_mm_per_h:.3f} mm/h; "
              + (f"Caine bound {bound} mm/h, exceeded: {exceeds}" if bound else "Caine bound n/a"))
    current_e, predicted_e = exceedance_sets(current, predicted, th)
    print(f"multi_level: current {multi_level(current_e).name}, predicted {multi_level(predicted_e).name}")


def cmd_analyze(args) -> int:
    try:
        path = resolve_config_path(args.config)
    except ConfigError:
        path = None  # neither --config nor EWS_CONFIG: the rain table alone
    cfg = load_config(path) if path else None
    repo = Repository(args.store, read_only=True)
    for warning in repo.load_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if repo.rows_seen > 0 and len(repo) == 0:
        print("error: no parseable rows in store", file=sys.stderr)
        return EXIT_RUNTIME

    # One streaming pass: the engine observes every row, as the station did
    # when it stored them, without evaluating, dispatching or writing.
    engine = AlertEngine(cfg.thresholds, cfg.analysis) if cfg and args.format == "text" else None
    rain_rows: list[tuple[int, int, int, float]] = []
    records = _stored_records(repo, rain_rows)
    if engine is not None:
        engine.observe(records)
    else:
        for _ in records:
            pass
    rain_rows.sort()  # by (ts, node, seq), as Repository.series orders the rain
    rain = [(ts, mm) for ts, _, _, mm in rain_rows]
    dry_gap_h = (cfg.analysis if cfg else AnalysisConfig()).dry_gap_h
    events = segment_events(rain, dry_gap_h * 3600.0) if rain else []
    rows = [
        (f"{ev.start:.0f}", f"{ev.end:.0f}", f"{ev.duration_h:.3f}", f"{ev.total_mm:.3f}",
         f"{ev.mean_intensity_mm_per_h:.6f}", *_caine_columns(ev))
        for ev in events
    ]
    header = ("start_ts", "end_ts", "duration_h", "total_mm", "intensity_mm_per_h",
              "caine_mm_per_h", "exceeds_caine")

    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
        return EXIT_OK

    print(f"store: {args.store} ({len(repo)} records)")
    print(f"\nrain events (dry gap {dry_gap_h} h): {len(events)}")
    if rows:
        _print_table(header, rows)
    if engine is None:
        print(f"\nstation view: needs a config (--config or {ENV_CONFIG})")
    else:
        _print_station_view(engine)
    return EXIT_OK


def cmd_report(args) -> int:
    store = Path(args.store)
    if not store.is_dir():
        print(f"error: store directory not found: {store}", file=sys.stderr)
        return EXIT_RUNTIME
    alerts_path = store / "alerts.ndjson"
    rows = []
    bad = 0
    if alerts_path.exists():
        # A byte that is not UTF-8 reads as a backslash escape, which no JSON line parses.
        with open(alerts_path, encoding="utf-8", errors="backslashreplace") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    r = json.loads(line)
                    if not isinstance(r, dict):
                        raise ValueError("not a JSON object")
                    rows.append((f"{r.get('ts', 0):.0f}", r.get("level", "?"), r.get("mode", "?"),
                                 r.get("source", "?"), r.get("message", "")))
                except (ValueError, TypeError):  # not JSON, not an object, or a ts that is no number
                    bad += 1
                    print(f"warning: alerts.ndjson line {lineno}: unparseable", file=sys.stderr)
    if bad and not rows:
        print("error: no parseable alert records", file=sys.stderr)
        return EXIT_RUNTIME

    header = ("ts", "level", "mode", "source", "message")
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
        return EXIT_OK
    print(f"alert history for {store}: {len(rows)} notifications")
    if rows:
        _print_table(header, rows)
    outbox = store / "sms_outbox.txt"
    if outbox.exists():
        with open(outbox, encoding="utf-8", errors="backslashreplace") as fh:
            n = sum(1 for line in fh if line.strip())
        print(f"\nsms outbox: {n} messages")
    return EXIT_OK


def _print_table(header, rows) -> None:
    widths = [max(len(str(h)), *(len(str(r[i])) for r in rows)) for i, h in enumerate(header)]
    fmt = "  ".join(f"{{:<{w}}}" for w in widths)
    print(fmt.format(*header))
    print(fmt.format(*("-" * w for w in widths)))
    for row in rows:
        print(fmt.format(*row))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(asctime)s %(name)s %(levelname)s %(message)s",
    )
    handlers = {
        "node": cmd_node,
        "server": cmd_server,
        "replay": cmd_replay,
        "analyze": cmd_analyze,
        "report": cmd_report,
    }
    try:
        code = handlers[args.command](args)
        sys.stdout.flush()  # here, so that a reader gone away is met inside the try
        return code
    except BrokenPipeError:
        # stdout's reader went away, as ``| head`` does. As Python's "Note on SIGPIPE"
        # advises, no error line, and stdout goes to devnull so that the flush at exit is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_RUNTIME
    except (ConfigError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (StoreError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
