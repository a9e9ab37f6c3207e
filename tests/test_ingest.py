"""Calibration, dedup and store persistence tests."""

import os
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopewatch import ingest as ingest_module
from slopewatch.domain import CalibratedReading, CalibrationConstants, CalibrationError, SensorKind
from slopewatch.ingest import MissingConstantsError, Repository, StoreError
from slopewatch.wire import SendDataPayload

CONSTANTS = {
    SensorKind.RAIN_GAUGE: CalibrationConstants(SensorKind.RAIN_GAUGE, 0.2, 0.0),
    SensorKind.PIEZOMETER: CalibrationConstants(SensorKind.PIEZOMETER, 0.01, -3.5),
    SensorKind.EXTENSOMETER: CalibrationConstants(SensorKind.EXTENSOMETER, 0.01, 0.0),
    SensorKind.INCLINOMETER: CalibrationConstants(SensorKind.INCLINOMETER, 0.01, 0.0),
    SensorKind.TILTMETER: CalibrationConstants(SensorKind.TILTMETER, 0.01, 0.0),
}


# The record-at-a-time path that ``ingest_batch`` replaced, kept as the oracle
# of TestOnePassIngestMatchesRecordAtATime: ``calibrate`` as it was, on the
# per-reading value it took, and ``append`` as ``Repository.append`` with its
# ``_write_row`` inlined.


@dataclass(slots=True)
class RawReading:
    """One uncalibrated sample of a SEND_DATA batch, with its own seq."""

    node_id: int
    seq: int
    timestamp: int
    sensor: SensorKind
    raw: int


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


def append(repo, rec: CalibratedReading) -> bool:
    """Store one record unless its (node_id, seq) was already seen.

    Queries see the record after the next ``flush``.
    """
    if repo._fh is None:
        raise StoreError("repository opened read-only")
    if not repo._add(rec.node_id, rec.seq):
        return False
    repo._fh.write(
        f"{rec.timestamp},{rec.node_id},{rec.sensor.name.lower()},{rec.seq},{rec.value!r}\n"
    )
    repo._lines += 1
    repo._dirty = True
    return True


def query_range(repo, ts_from, ts_to):
    """Stored records with ts_from <= timestamp <= ts_to, in the store's (ts, node, seq) order."""
    return [r for r in repo.all_records() if ts_from <= r.timestamp <= ts_to]


def raw(seq, sensor=SensorKind.RAIN_GAUGE, value=5, ts=1000, node=1):
    return RawReading(node_id=node, seq=seq, timestamp=ts, sensor=sensor, raw=value)


class TestCalibrate:
    def test_identity_constants(self):
        c = CalibrationConstants(SensorKind.PIEZOMETER, 1.0, 0.0)
        rec = calibrate(raw(1, SensorKind.PIEZOMETER, 42), c)
        assert rec.value == 42.0
        assert (rec.node_id, rec.seq, rec.timestamp, rec.sensor) == (1, 1, 1000, SensorKind.PIEZOMETER)

    def test_rain_tips(self):
        rec = calibrate(raw(1, SensorKind.RAIN_GAUGE, 5), CONSTANTS[SensorKind.RAIN_GAUGE])
        assert rec.value == pytest.approx(1.0)

    def test_piezometer_offset(self):
        rec = calibrate(raw(1, SensorKind.PIEZOMETER, 400), CONSTANTS[SensorKind.PIEZOMETER])
        assert rec.value == pytest.approx(0.5)

    def test_sensor_mismatch_rejected(self):
        with pytest.raises(CalibrationError, match="PIEZOMETER"):
            calibrate(raw(1, SensorKind.RAIN_GAUGE, 5), CONSTANTS[SensorKind.PIEZOMETER])

    def test_calibration_is_affine(self):
        c = CalibrationConstants(SensorKind.EXTENSOMETER, 0.25, -2.0)
        values = [calibrate(raw(i, SensorKind.EXTENSOMETER, x), c).value for i, x in enumerate((0, 10, 20), 1)]
        assert values[2] - values[1] == pytest.approx(values[1] - values[0])


def payload(seq, readings, session=1, ts=2000):
    return SendDataPayload(session_id=session, seq=seq, timestamp=ts, readings=tuple(readings))


class TestIngestBatch:
    def test_new_batch_stores_all(self, tmp_path):
        repo = Repository(tmp_path / "s")
        stored = repo.ingest_batch(payload(1, [(1, 5), (2, 2300), (3, 50)]), node_id=1, constants=CONSTANTS)
        assert len(stored) == 3
        assert len(repo) == 3
        assert [r.seq for r in stored] == [1, 2, 3]
        repo.close()

    def test_retransmission_stores_nothing(self, tmp_path):
        repo = Repository(tmp_path / "s")
        p = payload(1, [(1, 5), (1, 6), (1, 7)])
        assert len(repo.ingest_batch(p, 1, CONSTANTS)) == 3
        assert len(repo.ingest_batch(p, 1, CONSTANTS)) == 0
        assert len(repo) == 3
        repo.close()

    def test_partial_overlap_stores_only_new(self, tmp_path):
        repo = Repository(tmp_path / "s")
        repo.ingest_batch(payload(1, [(1, 5)]), 1, CONSTANTS)
        stored = repo.ingest_batch(payload(1, [(1, 5), (1, 6), (1, 7)]), 1, CONSTANTS)
        assert len(stored) == 2
        assert len(repo) == 3
        repo.close()

    def test_missing_constants_rejects_whole_batch(self, tmp_path):
        repo = Repository(tmp_path / "s")
        constants = {SensorKind.RAIN_GAUGE: CONSTANTS[SensorKind.RAIN_GAUGE]}
        with pytest.raises(MissingConstantsError):
            repo.ingest_batch(payload(1, [(1, 5), (2, 100)]), 1, constants)
        assert len(repo) == 0
        repo.close()

    def test_same_seq_different_nodes_both_stored(self, tmp_path):
        repo = Repository(tmp_path / "s")
        repo.ingest_batch(payload(1, [(1, 5)]), node_id=1, constants=CONSTANTS)
        repo.ingest_batch(payload(1, [(1, 5)]), node_id=2, constants=CONSTANTS)
        assert len(repo) == 2
        repo.close()


class TestPersistence:
    def test_reload_preserves_queries_and_dedup(self, tmp_path):
        store = tmp_path / "s"
        repo = Repository(store)
        repo.ingest_batch(payload(1, [(1, 5), (2, 2300)]), 1, CONSTANTS)
        repo.ingest_batch(payload(3, [(3, 120)], ts=2500), 1, CONSTANTS)
        repo.flush()
        before = query_range(repo, 0, 10_000)
        csv_before = (store / "readings.csv").read_bytes()
        repo.close()

        reloaded = Repository(store)
        assert query_range(reloaded, 0, 10_000) == before
        # a retransmission arriving after restart is still recognized
        assert reloaded.ingest_batch(payload(1, [(1, 5), (2, 2300)]), 1, CONSTANTS) == []
        reloaded.close()
        assert (store / "readings.csv").read_bytes() == csv_before

    def test_values_round_trip_exactly(self, tmp_path):
        store = tmp_path / "s"
        repo = Repository(store)
        repo.ingest_batch(payload(1, [(2, 333)]), 1, CONSTANTS)  # 0.01*333-3.5 = -0.17
        repo.flush()
        value = repo.all_records()[0].value
        repo.close()
        reloaded = Repository(store)
        assert reloaded.all_records()[0].value == value
        reloaded.close()

    def test_corrupt_rows_skipped_with_warnings(self, tmp_path):
        store = tmp_path / "s"
        repo = Repository(store)
        repo.ingest_batch(payload(1, [(1, 5)]), 1, CONSTANTS)
        repo.close()
        with open(store / "readings.csv", "a") as fh:
            fh.write("not,a,valid,row\n")
            fh.write("9999,2,rain_gauge,7,0.4\n")
        reloaded = Repository(store)
        assert len(reloaded) == 2  # good rows survive
        assert len(reloaded.load_warnings) == 1
        reloaded.close()

    def test_a_byte_that_is_not_utf8_costs_only_its_row(self, tmp_path):
        store = tmp_path / "s"
        repo = Repository(store)
        repo.ingest_batch(payload(1, [(1, 5)], ts=1001), 1, CONSTANTS)
        repo.close()
        with open(store / "readings.csv", "ab") as fh:
            fh.write(b"10\xff0,1,rain_gauge,2,0.4\n")  # seq 2, its ts hit by one bad byte
            fh.write(b"1003,1,rain_gauge,3,0.6\n")

        def check(r, seqs, runs):
            assert len(r.load_warnings) == 1
            assert "line 3: skipping unparseable row" in r.load_warnings[0]
            assert "\\xff" in r.load_warnings[0]
            assert [rec.seq for rec in r.all_records()] == seqs
            assert r.seq_runs(1) == runs

        check(Repository(store, read_only=True), [1, 3], [(1, 1), (3, 3)])
        repo = Repository(store)
        check(repo, [1, 3], [(1, 1), (3, 3)])
        assert [r.seq for r in repo.ingest_batch(payload(2, [(1, 2)], ts=1002), 1, CONSTANTS)] == [2]
        repo.close()
        check(Repository(store, read_only=True), [1, 2, 3], [(1, 3)])

    def test_torn_last_row_never_swallows_the_next(self, tmp_path):
        # A crash may cut the last row at any byte; that row was never acked.
        # Reopening drops it, so a later append starts a line of its own.
        store = tmp_path / "s"
        repo = Repository(store, durable=False)
        for seq in range(1, 9):
            repo.ingest_batch(payload(seq, [(seq % 5 + 1, 100 + seq)], ts=2000 + seq), 1, CONSTANTS)
        repo.close()
        full = (store / "readings.csv").read_bytes()
        last_row = full.rindex(b"\n", 0, len(full) - 1) + 1
        whole = {(r.node_id, r.seq): r for r in Repository(store, read_only=True).all_records()}
        for cut in range(last_row, len(full)):
            (store / "readings.csv").write_bytes(full[:cut])
            repo = Repository(store, durable=False)
            assert repo.ingest_batch(payload(9, [(1, 7)], ts=2009), 1, CONSTANTS)
            repo.close()
            reloaded = Repository(store, read_only=True)
            records = reloaded.all_records()
            assert reloaded.load_warnings == []
            assert [r.seq for r in records] == [1, 2, 3, 4, 5, 6, 7, 9]
            assert records[:7] == [whole[1, seq] for seq in range(1, 8)]

    def test_read_only_open_skips_a_torn_last_row(self, tmp_path):
        store = tmp_path / "s"
        repo = Repository(store, durable=False)
        repo.ingest_batch(payload(1, [(1, 5), (1, 64)]), 1, CONSTANTS)  # 1.0 and 12.8 mm
        repo.close()
        csv = store / "readings.csv"
        csv.write_bytes(csv.read_bytes()[:-2])  # "...,12.8\n" -> "...,12."
        ro = Repository(store, read_only=True)
        assert [r.seq for r in ro.all_records()] == [1]
        assert len(ro.load_warnings) == 1

    def test_store_cut_inside_its_header_starts_over(self, tmp_path):
        store = tmp_path / "s"
        store.mkdir()
        (store / "readings.csv").write_bytes(b"ts_unix,node")
        repo = Repository(store, durable=False)
        repo.ingest_batch(payload(1, [(1, 5)]), 1, CONSTANTS)
        repo.close()
        reloaded = Repository(store, read_only=True)
        assert len(reloaded) == 1 and reloaded.load_warnings == []

    def test_read_only_refuses_append(self, tmp_path):
        store = tmp_path / "s"
        Repository(store).close()
        ro = Repository(store, read_only=True)
        with pytest.raises(StoreError):
            ro.ingest_batch(payload(1, [(1, 5)]), 1, CONSTANTS)

    def test_read_only_missing_dir_errors(self, tmp_path):
        with pytest.raises(StoreError):
            Repository(tmp_path / "nope", read_only=True)


class TestFsyncCount:
    @pytest.fixture
    def fsyncs(self, monkeypatch):
        """The inode of each fsynced file or directory, in call order."""
        calls = []
        real = ingest_module.os.fsync
        monkeypatch.setattr(
            ingest_module.os, "fsync", lambda fd: (calls.append(os.fstat(fd).st_ino), real(fd))[1]
        )
        return calls

    def test_one_fsync_per_stored_batch_and_none_on_close(self, tmp_path, fsyncs):
        # ingest_batch writes a batch's rows and never fsyncs; the flush after
        # it makes one fsync if the batch stored a row, and none if not.
        repo = Repository(tmp_path / "s")
        # The new store's directory and the one that gained it, before any batch.
        dirs = [inode(tmp_path / "s"), inode(tmp_path)]
        synced = []
        for seq in (1, 3, 1, 5, 3, 7):  # 1 and 3 come twice: retransmits store nothing
            stored = repo.ingest_batch(payload(seq, [(1, 5), (2, 2300)]), 1, CONSTANTS)
            assert fsyncs == dirs + synced
            repo.flush()
            if stored:
                synced.append(inode(repo.path))
            assert fsyncs == dirs + synced
        assert len(synced) == 4
        repo.close()
        assert fsyncs == dirs + synced

    def test_one_flush_covers_every_batch_written_since_the_last(self, tmp_path, fsyncs):
        repo = Repository(tmp_path / "s")
        fsyncs.clear()
        for seq in (1, 3, 5):
            assert repo.ingest_batch(payload(seq, [(1, 5), (2, 2300)]), 1, CONSTANTS)
        assert fsyncs == [] and repo.all_records() == []  # written, neither durable nor visible
        repo.flush()
        assert fsyncs == [inode(repo.path)] and len(repo.all_records()) == 6
        repo.flush()
        assert fsyncs == [inode(repo.path)]
        repo.close()

    def test_reopen_and_close_without_writes_does_not_fsync(self, tmp_path, fsyncs):
        Repository(tmp_path / "s").close()
        fsyncs.clear()
        repo = Repository(tmp_path / "s")
        assert repo.ingest_batch(payload(1, [(1, 5)]), 1, CONSTANTS)
        assert repo.ingest_batch(payload(1, [(1, 5)]), 1, CONSTANTS) == []
        repo.close()
        assert fsyncs == [inode(repo.path)]
        fsyncs.clear()
        Repository(tmp_path / "s").close()
        assert fsyncs == []

    def test_header_only_store_fsyncs_on_close(self, tmp_path, fsyncs):
        repo = Repository(tmp_path / "s")
        dirs = [inode(tmp_path / "s"), inode(tmp_path)]
        assert fsyncs == dirs
        repo.close()
        assert fsyncs == dirs + [inode(repo.path)]
        assert (tmp_path / "s" / "readings.csv").read_text() == "ts_unix,node_id,sensor,seq,value\n"

    def test_new_file_in_an_existing_directory_fsyncs_that_directory_only(self, tmp_path, fsyncs):
        (tmp_path / "s").mkdir()
        repo = Repository(tmp_path / "s")
        assert fsyncs == [inode(tmp_path / "s")]
        repo.close()

    def test_non_durable_and_read_only_stores_never_fsync(self, tmp_path, fsyncs):
        repo = Repository(tmp_path / "s", durable=False)
        assert repo.ingest_batch(payload(1, [(1, 5)]), 1, CONSTANTS)
        repo.close()
        Repository(tmp_path / "s", read_only=True).close()
        assert fsyncs == []


def inode(path: Path) -> int:
    return os.stat(path).st_ino


class TestSeqIndex:
    def test_in_order_seqs_leave_one_run_per_node(self, tmp_path):
        repo = Repository(tmp_path / "s", durable=False)
        for node in (1, 2, 3):
            for first in range(1, 100_001, 100):
                readings = [(1, 5)] * 100
                assert len(repo.ingest_batch(payload(first, readings), node, CONSTANTS)) == 100
        assert len(repo) == 300_000
        for node in (1, 2, 3):
            assert repo.seq_runs(node) == [(1, 100_000)]
        repo.close()
        reloaded = Repository(tmp_path / "s", read_only=True)
        assert [reloaded.seq_runs(node) for node in (1, 2, 3, 4)] == [[(1, 100_000)]] * 3 + [[]]

    def test_late_retransmit_fills_gaps_and_joins_runs(self, tmp_path):
        repo = Repository(tmp_path / "s", durable=False)
        for seq in (1, 2, 5, 9, 10, 7):
            repo.ingest_batch(payload(seq, [(1, 5)]), 1, CONSTANTS)
        assert repo.seq_runs(1) == [(1, 2), (5, 5), (7, 7), (9, 10)]
        for seq in (3, 4, 8, 6):
            repo.ingest_batch(payload(seq, [(1, 5)]), 1, CONSTANTS)
        assert repo.seq_runs(1) == [(1, 10)]
        assert repo.ingest_batch(payload(1, [(1, 5)] * 10), 1, CONSTANTS) == []
        assert len(repo) == 10
        repo.close()


class TestQueryVisibility:
    def test_queries_from_another_thread_see_whole_batches(self, tmp_path):
        repo = Repository(tmp_path / "s", durable=False)
        seen, errors = [], []
        done = threading.Event()

        def reader():
            while not done.is_set():
                seqs = [r.seq for r in repo.all_records()]
                if seqs != list(range(1, len(seqs) + 1)) or len(seqs) % 5:
                    errors.append(seqs)
                seen.append(len(seqs))

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for k in range(400):
                repo.ingest_batch(payload(1 + 5 * k, [(1, 5)] * 5, ts=1000 + k), 1, CONSTANTS)
                repo.flush()
        finally:
            done.set()
            thread.join()
        assert errors == []
        assert seen and max(seen) <= 2000
        assert len(repo.all_records()) == 2000
        repo.close()


# -- differential test against a plain reference model -------------------------


class _ReferenceStore:
    """What the store must answer: every first occurrence of a key, in a dict."""

    def __init__(self):
        self.rows: dict[tuple[int, int], CalibratedReading] = {}

    def add(self, rec):
        if (rec.node_id, rec.seq) in self.rows:
            return False
        self.rows[rec.node_id, rec.seq] = rec
        return True

    def ingest(self, p, node_id):
        stored = []
        for i, (code, value) in enumerate(p.readings):
            kind = SensorKind.from_code(code)
            rec = calibrate(RawReading(node_id, p.seq + i, p.timestamp, kind, value), CONSTANTS[kind])
            if self.add(rec):
                stored.append(rec)
        return stored

    def records(self):
        return sorted(self.rows.values(), key=lambda r: (r.timestamp, r.node_id, r.seq))

    def runs(self, node_id):
        runs = []
        for seq in sorted(seq for node, seq in self.rows if node == node_id):
            if runs and runs[-1][1] == seq - 1:
                runs[-1] = (runs[-1][0], seq)
            else:
                runs.append((seq, seq))
        return runs


_BATCH = st.tuples(
    st.integers(1, 3),                                   # node
    st.integers(1, 30),                                  # first seq
    st.integers(0, 20),                                  # timestamp step
    st.lists(st.tuples(st.integers(1, 5), st.integers(-50, 400)), min_size=1, max_size=4),
)
_OP = st.one_of(
    st.tuples(st.just("batch"), _BATCH),
    st.tuples(st.just("retransmit"), st.integers(0, 1000)),
    st.tuples(st.just("reopen"), st.booleans()),
    st.tuples(st.just("external"), st.lists(st.sampled_from(
        ["row", "row", "unparseable", "blank", "header"]), min_size=1, max_size=3), st.booleans()),
)


@settings(max_examples=80, deadline=None)
@given(ops=st.lists(_OP, min_size=1, max_size=40), data=st.data())
def test_repository_matches_reference_model(ops, data):
    ref = _ReferenceStore()
    sent = []
    with tempfile.TemporaryDirectory() as tmp:
        store = Path(tmp) / "s"
        repo = Repository(store, durable=False)

        def check(r):
            records = ref.records()
            assert len(r) == len(records)
            assert r.all_records() == records
            # The reference dict holds each key's first occurrence in insertion order: file order.
            assert list(r.rows()) == [(x.timestamp, x.node_id, x.seq, x.sensor, x.value) for x in ref.rows.values()]
            for node in (1, 2, 3):
                assert r.seq_runs(node) == ref.runs(node)
            kind = data.draw(st.sampled_from(list(SensorKind)), label="series sensor")
            assert r.series(kind) == [(x.timestamp, x.value) for x in records if x.sensor is kind]

        try:
            ts = 1000
            for op in ops:
                if op[0] in ("batch", "retransmit"):
                    if op[0] == "batch":
                        node, seq, step, readings = op[1]
                        ts += step
                        sent.append((node, payload(seq, readings, ts=ts)))
                    elif not sent:
                        continue
                    node, p = sent[op[1] % len(sent)] if op[0] == "retransmit" else sent[-1]
                    assert repo.ingest_batch(p, node, CONSTANTS) == ref.ingest(p, node)
                    repo.flush()  # as the station does before acknowledging the batch
                elif op[0] == "reopen":
                    repo.close()
                    if op[1]:
                        check(Repository(store, read_only=True))
                    repo = Repository(store, durable=False)
                else:
                    _, kinds, torn = op
                    repo.close()
                    lines = []
                    for what in kinds:
                        if what == "row":
                            node = data.draw(st.integers(1, 3), label="node")
                            seq = data.draw(st.integers(1, 40), label="seq")
                            kind = data.draw(st.sampled_from(list(SensorKind)), label="kind")
                            value = data.draw(st.sampled_from([0.0, -1.5, 2.25, 1e-3]), label="value")
                            name = data.draw(st.sampled_from([kind.name, kind.name.lower()]), label="name")
                            lines.append(f"{ts},{node},{name},{seq},{value!r}\n")
                            ref.add(CalibratedReading(node, ts, kind, value, seq))
                        elif what == "unparseable":
                            lines.append(data.draw(st.sampled_from(
                                ["not,a,valid,row\n", f"{ts},1,rain_gauge,x,1.0\n", f"{ts},1,snow,2,1.0\n"]),
                                label="bad row"))
                        elif what == "blank":
                            lines.append("\n")
                        else:
                            lines.append("ts_unix,node_id,sensor,seq,value\n")
                    if torn:
                        lines.append(f"{ts},1,rain_gauge,{data.draw(st.integers(1, 40), label='torn seq')},1.")
                    with open(store / "readings.csv", "a", encoding="utf-8") as fh:
                        fh.write("".join(lines))
                    check(Repository(store, read_only=True))
                    repo = Repository(store, durable=False)
                check(repo)
        finally:
            repo.close()  # also when hypothesis ends the example early
        check(Repository(store, read_only=True))


def oracle_ingest(repo, p, node_id, constants):
    """``ingest_batch`` as one record at a time: calibrate, then append."""
    raws = []
    for i, (code, value) in enumerate(p.readings):
        kind = SensorKind.from_code(code)
        if kind not in constants:
            raise MissingConstantsError(f"no calibration constants for {kind.name}; batch seq {p.seq} rejected")
        raws.append(RawReading(node_id, p.seq + i, p.timestamp, kind, value))
    stored = []
    for r in raws:
        rec = calibrate(r, constants[r.sensor])
        if append(repo, rec):
            stored.append(rec)
    return stored


# Without the tiltmeter: a batch carrying one is rejected whole.
_NO_TILT = {kind: c for kind, c in CONSTANTS.items() if kind is not SensorKind.TILTMETER}
_DIFF_BATCH = st.tuples(
    st.integers(1, 3),                                   # node
    st.integers(0, 40),                                  # first seq: overlaps, gaps, out of order
    st.integers(0, 50),                                  # timestamp step
    st.lists(st.tuples(st.integers(1, 5), st.integers(-2**31, 2**31 - 1)), max_size=6),
)


class TestOnePassIngestMatchesRecordAtATime:
    @staticmethod
    def run_both(tmp, ops, constants):
        one_pass = Repository(Path(tmp) / "one_pass", durable=False)
        oracle = Repository(Path(tmp) / "oracle", durable=False)
        sent, ts = [], 1000
        for kind, arg in ops:
            if kind == "batch":
                node, seq, step, readings = arg
                ts += step
                sent.append((node, payload(seq, readings, ts=ts)))
                node, p = sent[-1]
            elif sent:
                node, p = sent[arg % len(sent)]  # a retransmit of any earlier batch
            else:
                continue
            outcomes = []
            for repo, ingest in ((one_pass, Repository.ingest_batch), (oracle, oracle_ingest)):
                try:
                    outcomes.append(ingest(repo, p, node, constants))
                except MissingConstantsError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
            assert len(one_pass) == len(oracle)
            for n in (1, 2, 3):
                assert one_pass.seq_runs(n) == oracle.seq_runs(n)
            one_pass.flush()
            oracle.flush()
            assert one_pass.path.read_bytes() == oracle.path.read_bytes()
        one_pass.close()
        oracle.close()
        assert one_pass.path.read_bytes() == oracle.path.read_bytes()

    @settings(max_examples=150, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("batch"), _DIFF_BATCH),
                st.tuples(st.just("retransmit"), st.integers(0, 1000)),
            ),
            min_size=1,
            max_size=30,
        ),
        all_constants=st.booleans(),
    )
    def test_same_records_rows_and_runs(self, ops, all_constants):
        with tempfile.TemporaryDirectory() as tmp:
            self.run_both(tmp, ops, CONSTANTS if all_constants else _NO_TILT)

    def test_uncalibrated_sensor_last_touches_nothing(self, tmp_path):
        repo = Repository(tmp_path / "s", durable=False)
        repo.ingest_batch(payload(1, [(1, 5), (2, 2300)]), 1, _NO_TILT)
        before, runs = repo.path.read_bytes(), repo.seq_runs(1)
        tilt = SensorKind.TILTMETER.value
        for seq in (3, 2, 1):  # in order, overlapping, all duplicates but the last
            with pytest.raises(MissingConstantsError, match="TILTMETER"):
                repo.ingest_batch(payload(seq, [(1, 5), (3, 50), (tilt, 7)]), 1, _NO_TILT)
            assert repo.path.read_bytes() == before
            assert repo.seq_runs(1) == runs
            assert len(repo) == 2
        repo.close()

    def test_constants_changed_between_batches(self, tmp_path):
        repo = Repository(tmp_path / "s", durable=False)
        constants = dict(CONSTANTS)
        first = repo.ingest_batch(payload(1, [(2, 100)]), 1, constants)
        constants[SensorKind.PIEZOMETER] = CalibrationConstants(SensorKind.PIEZOMETER, 0.5, 1.0)
        second = repo.ingest_batch(payload(2, [(2, 100)]), 1, constants)
        assert [r.value for r in first + second] == [0.01 * 100 - 3.5, 0.5 * 100 + 1.0]
        del constants[SensorKind.PIEZOMETER]
        with pytest.raises(MissingConstantsError):
            repo.ingest_batch(payload(3, [(2, 100)]), 1, constants)
        repo.close()

    def test_constants_filed_under_another_kind_rejected(self, tmp_path):
        repo = Repository(tmp_path / "s", durable=False)
        swapped = dict(CONSTANTS)
        swapped[SensorKind.RAIN_GAUGE] = CONSTANTS[SensorKind.PIEZOMETER]
        with pytest.raises(CalibrationError, match="PIEZOMETER applied to a RAIN_GAUGE"):
            repo.ingest_batch(payload(1, [(1, 5)]), 1, swapped)
        assert len(repo) == 0 and repo.seq_runs(1) == []
        assert repo.ingest_batch(payload(1, [(1, 5)]), 1, CONSTANTS)[0].value == 1.0
        repo.close()
