"""Base-station data pipeline: calibrate, deduplicate, persist, query.

The store is a per-run directory holding an append-only, human-readable
``readings.csv`` (header ``ts_unix,node_id,sensor,seq,value``). The file is
the only copy of the readings: in memory the store keeps just a dedup
index, per node the sorted runs of stored seqs, rebuilt from the log on
open. So a restarted server silently skips retransmissions of batches it
already acknowledged, and memory is O(nodes + seq gaps), not O(readings).
Queries read ``readings.csv`` as a stream.
"""

from __future__ import annotations

import bisect
import logging
import os
from pathlib import Path

from slopewatch.domain import CalibratedReading, CalibrationConstants, CalibrationError, SensorKind
from slopewatch.wire import SendDataPayload

logger = logging.getLogger(__name__)

READINGS_FILE = "readings.csv"
_HEADER = "ts_unix,node_id,sensor,seq,value"
_SENSOR_BY_NAME = {k.name.lower(): k for k in SensorKind}  # as rows are written


class StoreError(RuntimeError):
    """Raised for unusable store directories and writes to a read-only store."""


class MissingConstantsError(CalibrationError):
    """No calibration constants configured for a sensor in a batch."""


def _parse_row(line: str) -> tuple[int, int, int, SensorKind, float]:
    """(ts, node_id, seq, sensor, value) of one stripped row; raises ValueError."""
    ts, node_id, sensor, seq, value = line.split(",")
    node, t = int(node_id), int(ts)  # node first: a load warning names the first bad field
    kind = _SENSOR_BY_NAME.get(sensor) or SensorKind.from_name(sensor)
    return t, node, int(seq), kind, float(value)


class _SeqRuns:
    """The seqs stored for one node, as sorted, disjoint, non-adjacent [lo, hi] runs.

    An in-order seq extends the last run; a late retransmit fills a gap,
    joining two runs when it closes one.
    """

    __slots__ = ("los", "his")

    def __init__(self) -> None:
        self.los: list[int] = []
        self.his: list[int] = []

    def add(self, seq: int) -> bool:
        """Record ``seq``; False if it was already recorded."""
        los, his = self.los, self.his
        if his and seq == his[-1] + 1:
            his[-1] = seq
            return True
        i = bisect.bisect_right(los, seq) - 1  # the last run starting at or before seq
        if i >= 0 and seq <= his[i]:
            return False
        joins_prev = i >= 0 and his[i] == seq - 1
        joins_next = i + 1 < len(los) and los[i + 1] == seq + 1
        if joins_prev and joins_next:
            his[i] = his.pop(i + 1)
            del los[i + 1]
        elif joins_prev:
            his[i] = seq
        elif joins_next:
            los[i + 1] = seq
        else:
            los.insert(i + 1, seq)
            his.insert(i + 1, seq)
        return True


def _fsync_dir(path: Path) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class Repository:
    """Append-only calibrated-reading store over ``readings.csv``.

    In memory it holds only the dedup index: per node, the sorted runs of
    stored seqs, so memory is O(nodes + seq gaps) however many readings
    are stored. Queries read ``readings.csv`` as a stream, in their own
    file handle.

    Single writer, many readers: ``ingest_batch`` and ``flush`` are called
    by the ingest task only; queries may run from other threads. A batch
    is stored in two steps: ``ingest_batch`` writes its rows to the file
    object, and ``flush`` pushes every row written since the last flush to
    the file and, if durable, to disk in one fsync. The writer flushes
    before it acknowledges anything. A query reads the rows up to the last
    ``flush`` and never a row written after that, so it sees every flushed
    batch whole. A read-only store reads the rows that were there when it
    was opened.
    """

    def __init__(self, store_dir: str | Path, durable: bool = True, read_only: bool = False):
        self.store_dir = Path(store_dir)
        new_dir = not read_only and not self.store_dir.is_dir()
        if not read_only:
            self.store_dir.mkdir(parents=True, exist_ok=True)
        elif not self.store_dir.is_dir():
            raise StoreError(f"store directory not found: {self.store_dir}")
        self.path = self.store_dir / READINGS_FILE
        self.durable = durable
        self._index: dict[int, _SeqRuns] = {}
        self._count = 0
        self._dup_lines: set[int] = set()  # line numbers of rows repeating an earlier key
        self._lines = 0                    # complete lines in the file, header included
        self._visible_lines = 0            # lines queries read: those flushed
        self._dirty = False                # lines written since the last flush
        self._calibration: tuple[tuple, dict] = ((), {})  # see _calibration_table
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
            self._lines += 1
            self._dirty = True  # not yet synced; close() syncs it
            if durable:
                # The file's fsync does not make its directory entry durable:
                # without these, a crash could lose the file with acked rows.
                _fsync_dir(self.store_dir)
                if new_dir:
                    _fsync_dir(self.store_dir.parent)

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
        """Build the index from every parseable row; the rows themselves are not kept."""
        if not self.path.exists():
            return
        # A byte that is not UTF-8 reads as a backslash escape, which no field
        # parses: its row is skipped with a warning that shows the byte.
        with open(self.path, encoding="utf-8", errors="backslashreplace") as fh:
            for lineno, line in enumerate(fh, start=1):
                if not line.endswith("\n"):
                    # Only a read-only open gets here: a torn last row, whose
                    # prefix may still parse, as "12." for 12.75.
                    msg = f"{self.path.name} line {lineno}: skipping a torn last row"
                    self.load_warnings.append(msg)
                    logger.warning(msg)
                    continue
                self._lines = lineno
                line = line.strip()
                if not line or line == _HEADER:
                    continue
                self.rows_seen += 1
                try:
                    _, node_id, seq, _, _ = _parse_row(line)
                except ValueError as exc:
                    msg = f"{self.path.name} line {lineno}: skipping unparseable row ({exc})"
                    self.load_warnings.append(msg)
                    logger.warning(msg)
                    continue
                if not self._add(node_id, seq):
                    self._dup_lines.add(lineno)
        self._visible_lines = self._lines

    def _add(self, node_id: int, seq: int) -> bool:
        runs = self._index.get(node_id)
        if runs is None:
            runs = self._index[node_id] = _SeqRuns()
        if not runs.add(seq):
            return False
        self._count += 1
        return True

    def flush(self) -> None:
        """Push the rows written since the last flush to the file, and to disk if durable.

        One write and at most one fsync, however many batches were written
        since the last flush. From then on queries see the rows. Does
        nothing if no row was written.
        """
        if self._fh is None or not self._dirty:
            return
        self._fh.flush()
        self._visible_lines = self._lines
        if self.durable:
            os.fsync(self._fh.fileno())
        self._dirty = False

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self.flush()
            self._fh.close()

    # -- writes --------------------------------------------------------------

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
        The new rows go to the file object in one write and the dedup index
        records them, but nothing is flushed: they are durable, and queries
        see them, only after the next ``flush``.
        """
        readings = payload.readings
        table = self._calibration_table(constants)
        try:
            cals = [table[code] for code, _ in readings]
        except KeyError as exc:
            sensor = SensorKind.from_code(exc.args[0])
            raise MissingConstantsError(
                f"no calibration constants for {sensor.name}; batch seq {payload.seq} rejected"
            ) from None
        if not readings:
            return []
        if self._fh is None:
            raise StoreError("repository opened read-only")
        runs = self._index.get(node_id)
        if runs is None:
            runs = self._index[node_id] = _SeqRuns()
        seq, ts = payload.seq, payload.timestamp
        stored, rows = [], []
        for (_, raw), (sensor, name, gain, offset) in zip(readings, cals):
            if runs.add(seq):
                value = gain * raw + offset
                stored.append(CalibratedReading(node_id, ts, sensor, value, seq))
                rows.append(f"{ts},{node_id},{name},{seq},{value!r}\n")
            seq += 1
        if stored:
            self._fh.write("".join(rows))
            self._count += len(stored)
            self._lines += len(stored)
            self._dirty = True
        return stored

    def _calibration_table(self, constants: dict[SensorKind, CalibrationConstants]) -> dict:
        """Wire code -> (sensor, row name, gain, offset), rebuilt when ``constants`` changes.

        Keyed by int code, so no batch hashes a SensorKind. Constants filed
        under another sensor's kind are rejected for every batch.
        """
        entries = tuple(constants.items())
        if entries != self._calibration[0]:
            table = {}
            for sensor, c in entries:
                if c.sensor is not sensor:
                    raise CalibrationError(f"constants for {c.sensor.name} applied to a {sensor.name} reading")
                table[sensor.value] = (sensor, sensor.name.lower(), c.gain, c.offset)
            self._calibration = (entries, table)
        return self._calibration[1]

    # -- reads ---------------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    def seq_runs(self, node_id: int) -> list[tuple[int, int]]:
        """The [lo, hi] runs of seqs stored for one node, in ascending order."""
        runs = self._index.get(node_id)
        return list(zip(runs.los, runs.his)) if runs else []

    def rows(self):
        """Yield (ts, node_id, seq, sensor, value) of each stored row, in file order.

        Reads the flushed lines only and skips what the index skipped on
        open: torn, unparseable and repeated-key rows.
        """
        end, dup_lines = self._visible_lines, self._dup_lines
        if end == 0:
            return
        with open(self.path, encoding="utf-8", errors="backslashreplace") as fh:
            for lineno, line in enumerate(fh, start=1):
                if lineno > end:
                    break
                if lineno in dup_lines:
                    continue
                try:
                    row = _parse_row(line.strip())
                except ValueError:
                    continue  # the header, a blank or an unparseable row
                yield row

    def all_records(self) -> list[CalibratedReading]:
        """Every stored record, sorted by (ts, node, seq)."""
        return [CalibratedReading(node, ts, kind, value, seq) for ts, node, seq, kind, value in sorted(self.rows())]

    def series(self, sensor: SensorKind) -> list[tuple[int, float]]:
        """(timestamp, value) pairs for one sensor kind, oldest first."""
        rows = sorted(row for row in self.rows() if row[3] is sensor)
        return [(ts, value) for ts, _, _, _, value in rows]
