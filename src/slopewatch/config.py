"""Shared configuration file (INI key-value format).

Sections:
    [thresholds]   monitoring thresholds and analysis windows (mandatory)
    [calibration]  per-sensor gain/offset, keys like rain_gauge_gain
    [link]         simulated link behaviour (all optional)
    [server]       store directory, sink list, webhook URL

Validation is all-at-once: every missing mandatory key is reported in a
single error message so a config can be fixed in one pass.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass
from pathlib import Path

from slopewatch.domain import CalibrationConstants, SensorKind
from slopewatch.session import LinkConfig
from slopewatch.alert import (
    AnalysisConfig,
    ConsoleSink,
    FileSink,
    SmsOutboxSink,
    Thresholds,
    WebhookSink,
)

ENV_CONFIG = "EWS_CONFIG"

THRESHOLD_KEYS = (
    "mt_rain_mm_per_h",
    "mt_pore_kpa",
    "mt_displacement_mm",
    "mt_inclination_deg",
    "hold_period_s",
    "prediction_horizon",
    "ar_order",
    "dry_gap_h",
)

KNOWN_SINKS = ("console", "file", "sms", "webhook")


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class Config:
    thresholds: Thresholds
    analysis: AnalysisConfig
    calibration: dict[SensorKind, CalibrationConstants]
    link: LinkConfig
    store_dir: str = "./run"
    sinks: tuple[str, ...] = ("console",)
    webhook_url: str | None = None


def resolve_config_path(cli_value: str | None) -> str:
    """CLI flag wins; EWS_CONFIG is the fallback."""
    path = cli_value or os.environ.get(ENV_CONFIG)
    if not path:
        raise ConfigError(f"no config file given (use --config or set {ENV_CONFIG})")
    return path


def load_config(path: str | Path) -> Config:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path, encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc

    problems: list[str] = []

    if not parser.has_section("thresholds"):
        problems.append("missing [thresholds] section")
        missing = list(THRESHOLD_KEYS)
    else:
        missing = [k for k in THRESHOLD_KEYS if not parser.has_option("thresholds", k)]
    if missing:
        problems.append(f"missing [thresholds] keys: {', '.join(missing)}")
    if problems:
        raise ConfigError(f"{path}: " + "; ".join(problems))

    def t_float(key: str) -> float:
        try:
            return parser.getfloat("thresholds", key)
        except ValueError:
            problems.append(f"[thresholds] {key} is not a number")
            return 1.0

    def t_int(key: str) -> int:
        try:
            return parser.getint("thresholds", key)
        except ValueError:
            problems.append(f"[thresholds] {key} is not an integer")
            return 1

    thresholds = None
    analysis = None
    try:
        thresholds = Thresholds(
            mt_rain_mm_per_h=t_float("mt_rain_mm_per_h"),
            mt_pore_kpa=t_float("mt_pore_kpa"),
            mt_displacement_mm=t_float("mt_displacement_mm"),
            mt_inclination_deg=t_float("mt_inclination_deg"),
            prediction_horizon=t_int("prediction_horizon"),
            hold_period_s=t_float("hold_period_s"),
        )
    except ValueError as exc:
        problems.append(str(exc))
    try:
        analysis = AnalysisConfig(
            dry_gap_h=t_float("dry_gap_h"),
            ar_order=t_int("ar_order"),
        )
    except ValueError as exc:
        problems.append(str(exc))

    calibration: dict[SensorKind, CalibrationConstants] = {}
    if parser.has_section("calibration"):
        for kind in SensorKind:
            base = kind.name.lower()
            if parser.has_option("calibration", f"{base}_gain"):
                try:
                    gain = parser.getfloat("calibration", f"{base}_gain")
                    offset = parser.getfloat("calibration", f"{base}_offset", fallback=0.0)
                    calibration[kind] = CalibrationConstants(kind, gain, offset)
                except ValueError as exc:
                    problems.append(f"[calibration] {base}: {exc}")

    link = LinkConfig()
    if parser.has_section("link"):
        try:
            link = LinkConfig(
                drop_probability=parser.getfloat("link", "drop_probability", fallback=0.0),
                disconnect_probability_per_frame=parser.getfloat(
                    "link", "disconnect_probability_per_frame", fallback=0.0
                ),
                latency_ms=parser.getfloat("link", "latency_ms", fallback=50.0),
                bandwidth_bps=parser.getint("link", "bandwidth_bps", fallback=115200),
            )
        except ValueError as exc:
            problems.append(f"[link]: {exc}")

    store_dir = "./run"
    sinks: tuple[str, ...] = ("console",)
    webhook_url = None
    if parser.has_section("server"):
        store_dir = parser.get("server", "store_dir", fallback=store_dir)
        raw_sinks = parser.get("server", "sinks", fallback="console")
        sinks = tuple(s.strip() for s in raw_sinks.split(",") if s.strip())
        unknown = [s for s in sinks if s not in KNOWN_SINKS]
        if unknown:
            problems.append(f"[server] unknown sinks: {', '.join(unknown)} (known: {', '.join(KNOWN_SINKS)})")
        webhook_url = parser.get("server", "webhook_url", fallback="").strip() or None
        if "webhook" in sinks and not webhook_url:
            problems.append("[server] sink 'webhook' requires webhook_url")

    if problems:
        raise ConfigError(f"{path}: " + "; ".join(problems))

    return Config(
        thresholds=thresholds,
        analysis=analysis,
        calibration=calibration,
        link=link,
        store_dir=store_dir,
        sinks=sinks or ("console",),
        webhook_url=webhook_url,
    )


def build_sinks(cfg: Config, store_dir: str | Path):
    """Instantiate the configured sink objects for a run directory."""
    out = []
    for name in cfg.sinks:
        if name == "console":
            out.append(ConsoleSink())
        elif name == "file":
            out.append(FileSink(store_dir))
        elif name == "sms":
            out.append(SmsOutboxSink(store_dir))
        elif name == "webhook":
            out.append(WebhookSink(cfg.webhook_url))
    if not out:
        out.append(ConsoleSink())
    return out
