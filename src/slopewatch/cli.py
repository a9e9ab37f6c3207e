"""slopewatch command line: node, server, replay, analyze, report.

Exit codes: 0 success, 1 runtime failure, 2 configuration or usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from pathlib import Path

from slopewatch.analytics import (
    CaineDomainError,
    InsufficientDataError,
    InvalidSeriesError,
    antecedent_rainfall,
    ar_fit,
    ar_forecast,
    caine_threshold,
    segment_events,
)
from slopewatch.alert import AnalysisConfig
from slopewatch.config import ConfigError, load_config, resolve_config_path
from slopewatch.domain import SensorKind
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

    p_analyze = sub.add_parser("analyze", help="rain events, threshold exceedances, forecasts")
    p_analyze.add_argument("--store", required=True, help="store directory")
    p_analyze.add_argument("--config", help="config file for analysis windows (optional)")
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


def _analysis_config(args) -> AnalysisConfig:
    if getattr(args, "config", None):
        return load_config(resolve_config_path(args.config)).analysis
    return AnalysisConfig()


def cmd_analyze(args) -> int:
    analysis = _analysis_config(args)
    repo = Repository(args.store, read_only=True)
    for warning in repo.load_warnings:
        print(f"warning: {warning}", file=sys.stderr)
    if repo.rows_seen > 0 and len(repo) == 0:
        print("error: no parseable rows in store", file=sys.stderr)
        return EXIT_RUNTIME

    by_kind: dict[SensorKind, list[tuple[int, float]]] = {kind: [] for kind in SensorKind}
    for ts, _, _, sensor, value in repo.sorted_rows():  # the one pass over readings.csv
        by_kind[sensor].append((ts, value))
    rain = by_kind[SensorKind.RAIN_GAUGE]
    events = segment_events(rain, analysis.dry_gap_h * 3600.0) if rain else []
    rows = []
    for ev in events:
        try:
            threshold = caine_threshold(ev.duration_h)
            exceeds = "yes" if ev.mean_intensity_mm_per_h >= threshold else "no"
            threshold_s = f"{threshold:.3f}"
        except CaineDomainError:
            threshold_s, exceeds = "", "n/a"
        rows.append(
            (
                f"{ev.start:.0f}",
                f"{ev.end:.0f}",
                f"{ev.duration_h:.3f}",
                f"{ev.total_mm:.3f}",
                f"{ev.mean_intensity_mm_per_h:.6f}",
                threshold_s,
                exceeds,
            )
        )
    header = ("start_ts", "end_ts", "duration_h", "total_mm", "intensity_mm_per_h",
              "caine_mm_per_h", "exceeds_caine")

    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
        return EXIT_OK

    print(f"store: {args.store} ({len(repo)} records)")
    print(f"\nrain events (dry gap {analysis.dry_gap_h} h): {len(events)}")
    if rows:
        _print_table(header, rows)
    if rain:
        now = rain[-1][0]
        ante = antecedent_rainfall(rain, now, analysis.antecedent_lookback_h * 3600.0)
        print(f"\nantecedent rainfall over {analysis.antecedent_lookback_h:.0f} h: {ante:.2f} mm")

    print("\nAR forecast snapshot (next step / max over 6):")
    for kind in SensorKind:
        series = [v for _, v in by_kind[kind][-256:]]
        label = kind.name.lower()
        try:
            model = ar_fit(series, analysis.ar_order)
            steps = ar_forecast(model, series, 6)
            print(f"  {label:<13} {steps[0]:>12.4f} / {max(steps):>12.4f}  (rms {model.fit_residual_rms:.2e})")
        except (InsufficientDataError, InvalidSeriesError):
            print(f"  {label:<13} {'-':>12} / {'-':>12}  (insufficient data)")
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
        return handlers[args.command](args)
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
