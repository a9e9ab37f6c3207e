"""Base-station data pipeline: calibrate, deduplicate, persist, query.

The store is a per-run directory holding an append-only, human-readable
``readings.csv`` (header ``ts_unix,node_id,sensor,seq,value``). The dedup
index over (node_id, seq) is rebuilt from the log on open, so a restarted
server silently skips retransmissions of batches it already acknowledged.
"""

from __future__ import annotations

import bisect
import logging
import os
from pathlib import Path

from slopewatch.domain import CalibratedReading, CalibrationConstants, CalibrationError, RawReading, SensorKind
from slopewatch.wire import SendDataPayload

logger = logging.getLogger(__name__)

READINGS_FILE = "readings.csv"
_HEADER = "ts_unix,node_id,sensor,seq,value"


class StoreError(RuntimeError):
    """Raised for unusable store directories or invalid queries."""


class MissingConstantsError(CalibrationError):
    """No calibration constants configured for a sensor in a batch."""


def calibrate(reading: RawReading, constants: CalibrationConstants) -> CalibratedReading:
    """Apply the linear correction value = gain * raw + offset."""
    if constants.sensor is not reading.sensor:
        raise CalibrationError(
            f"constants for {constants.sensor.name} applied to a {reading.sensor.name} reading"
        )
    return CalibratedReading(
        node_id=reading.node_id,
        timestamp=reading.timestamp,
        sensor=reading.sensor,
        value=constants.gain * reading.raw + constants.offset,
        seq=reading.seq,
    )


def _sort_key(r: CalibratedReading) -> tuple[int, int, int]:
    return (r.timestamp, r.node_id, r.seq)


class Repository:
    """Append-only calibrated-reading store with a time index.

    Single writer, many readers: ``append``/``ingest_batch`` are called by
    the ingest task only; queries may run from other threads and observe a
    snapshot no older than the last completed batch.
    """

    def __init__(self, store_dir: str | Path, durable: bool = True, read_only: bool = False):
        self.store_dir = Path(store_dir)
        if not read_only:
            self.store_dir.mkdir(parents=True, exist_ok=True)
        elif not self.store_dir.is_dir():
            raise StoreError(f"store directory not found: {self.store_dir}")
        self.path = self.store_dir / READINGS_FILE
        self.durable = durable
        self.read_only = read_only
        self._records: list[CalibratedReading] = []  # kept sorted by _sort_key
        self._seen: set[tuple[int, int]] = set()     # (node_id, seq)
        self.load_warnings: list[str] = []
        self.rows_seen = 0
        if not read_only:
            self._truncate_torn_row()
        self._load()
        if read_only:
            self._fh = None
            return
        self._fh = open(self.path, "a", encoding="utf-8", newline="")
        if self.path.stat().st_size == 0:
            self._fh.write(_HEADER + "\n")
            self._fh.flush()

    # -- persistence --------------------------------------------------------

    def _truncate_torn_row(self) -> None:
        """Cut the file back to just after its last newline.

        A row is acknowledged only once it is flushed whole, so a last row
        without its newline was torn by a crash and never acknowledged. Left
        in place, the next row would be appended onto its line, and the
        merged line would be skipped on reload.
        """
        if not self.path.exists():
            return
        with open(self.path, "r+b") as fh:
            size = pos = fh.seek(0, os.SEEK_END)
            keep = 0
            while pos > 0:
                step = min(pos, 4096)
                pos -= step
                fh.seek(pos)
                newline = fh.read(step).rfind(b"\n")
                if newline >= 0:
                    keep = pos + newline + 1
                    break
            if keep == size:
                return
            fh.truncate(keep)
            if self.durable:
                os.fsync(fh.fileno())
        msg = f"{self.path.name}: dropped a torn last row ({size - keep} bytes without a newline)"
        self.load_warnings.append(msg)
        logger.warning(msg)

    def _load(self) -> None:
        if not self.path.exists():
            return
        with open(self.path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):
                    # Only a read-only open gets here: a torn last row, whose
                    # prefix may still parse, as "12." for 12.75.
                    msg = f"{self.path.name} line {lineno}: skipping a torn last row"
                    self.load_warnings.append(msg)
                    logger.warning(msg)
                    continue
                line = line.strip()
                if not line or line == _HEADER:
                    continue
                self.rows_seen += 1
                try:
                    rec = self._parse_row(line)
                except (ValueError, IndexError) as exc:
                    msg = f"{self.path.name} line {lineno}: skipping unparseable row ({exc})"
                    self.load_warnings.append(msg)
                    logger.warning(msg)
                    continue
                key = (rec.node_id, rec.seq)
                if key in self._seen:
                    continue
                self._seen.add(key)
                self._insert(rec)

    @staticmethod
    def _parse_row(line: str) -> CalibratedReading:
        ts, node_id, sensor, seq, value = line.split(",")
        return CalibratedReading(
            node_id=int(node_id),
            timestamp=int(ts),
            sensor=SensorKind.from_name(sensor),
            value=float(value),
            seq=int(seq),
        )

    def _write_row(self, rec: CalibratedReading) -> None:
        self._fh.write(
            f"{rec.timestamp},{rec.node_id},{rec.sensor.name.lower()},{rec.seq},{rec.value!r}\n"
        )

    def flush(self) -> None:
        if self._fh is None:
            return
        self._fh.flush()
        if self.durable:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self.flush()
            self._fh.close()

    # -- writes --------------------------------------------------------------

    def _insert(self, rec: CalibratedReading) -> None:
        key = _sort_key(rec)
        idx = bisect.bisect_right(self._records, key, key=_sort_key)
        self._records.insert(idx, rec)

    def append(self, rec: CalibratedReading) -> bool:
        """Store one record unless its (node_id, seq) was already seen."""
        if self._fh is None:
            raise StoreError("repository opened read-only")
        key = (rec.node_id, rec.seq)
        if key in self._seen:
            return False
        self._seen.add(key)
        self._insert(rec)
        self._write_row(rec)
        return True

    def ingest_batch(
        self,
        payload: SendDataPayload,
        node_id: int,
        constants: dict[SensorKind, CalibrationConstants],
    ) -> list[CalibratedReading]:
        """Calibrate and store one decoded batch; returns the newly stored records.

        Readings within a payload share its timestamp and occupy consecutive
        sequence numbers starting at ``payload.seq``. The whole batch is
        rejected (nothing stored) if any sensor lacks calibration constants.
        """
        raws = []
        for i, (code, raw) in enumerate(payload.readings):
            sensor = SensorKind.from_code(code)
            if sensor not in constants:
                raise MissingConstantsError(
                    f"no calibration constants for {sensor.name}; batch seq {payload.seq} rejected"
                )
            raws.append(
                RawReading(
                    node_id=node_id,
                    seq=payload.seq + i,
                    timestamp=payload.timestamp,
                    sensor=sensor,
                    raw=raw,
                )
            )
        stored = []
        for r in raws:
            rec = calibrate(r, constants[r.sensor])
            if self.append(rec):
                stored.append(rec)
        if stored:
            self.flush()
        return stored

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def query_range(
        self, ts_from: int, ts_to: int, sensor: SensorKind | None = None
    ) -> list[CalibratedReading]:
        """Records with ts_from <= timestamp <= ts_to, sorted by (ts, node, seq)."""
        if ts_from > ts_to:
            raise StoreError(f"invalid range: from {ts_from} > to {ts_to}")
        lo = bisect.bisect_left(self._records, (ts_from,), key=lambda r: (r.timestamp,))
        hi = bisect.bisect_right(self._records, (ts_to,), key=lambda r: (r.timestamp,))
        rows = self._records[lo:hi]
        if sensor is not None:
            rows = [r for r in rows if r.sensor is sensor]
        return rows

    def all_records(self) -> list[CalibratedReading]:
        return list(self._records)

    def series(self, sensor: SensorKind, limit: int | None = None) -> list[tuple[int, float]]:
        """(timestamp, value) pairs for one sensor kind, oldest first."""
        rows = [(r.timestamp, r.value) for r in self._records if r.sensor is sensor]
        return rows[-limit:] if limit else rows
