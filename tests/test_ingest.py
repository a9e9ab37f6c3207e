"""Calibration, dedup and store persistence tests."""

import pytest

from slopewatch.domain import CalibrationConstants, CalibrationError, RawReading, SensorKind
from slopewatch.ingest import MissingConstantsError, Repository, StoreError, calibrate
from slopewatch.wire import SendDataPayload

CONSTANTS = {
    SensorKind.RAIN_GAUGE: CalibrationConstants(SensorKind.RAIN_GAUGE, 0.2, 0.0),
    SensorKind.PIEZOMETER: CalibrationConstants(SensorKind.PIEZOMETER, 0.01, -3.5),
    SensorKind.EXTENSOMETER: CalibrationConstants(SensorKind.EXTENSOMETER, 0.01, 0.0),
    SensorKind.INCLINOMETER: CalibrationConstants(SensorKind.INCLINOMETER, 0.01, 0.0),
    SensorKind.TILTMETER: CalibrationConstants(SensorKind.TILTMETER, 0.01, 0.0),
}


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

    def test_retransmission_stores_nothing(self, tmp_path):
        repo = Repository(tmp_path / "s")
        p = payload(1, [(1, 5), (1, 6), (1, 7)])
        assert len(repo.ingest_batch(p, 1, CONSTANTS)) == 3
        assert len(repo.ingest_batch(p, 1, CONSTANTS)) == 0
        assert len(repo) == 3

    def test_partial_overlap_stores_only_new(self, tmp_path):
        repo = Repository(tmp_path / "s")
        repo.ingest_batch(payload(1, [(1, 5)]), 1, CONSTANTS)
        stored = repo.ingest_batch(payload(1, [(1, 5), (1, 6), (1, 7)]), 1, CONSTANTS)
        assert len(stored) == 2
        assert len(repo) == 3

    def test_missing_constants_rejects_whole_batch(self, tmp_path):
        repo = Repository(tmp_path / "s")
        constants = {SensorKind.RAIN_GAUGE: CONSTANTS[SensorKind.RAIN_GAUGE]}
        with pytest.raises(MissingConstantsError):
            repo.ingest_batch(payload(1, [(1, 5), (2, 100)]), 1, constants)
        assert len(repo) == 0

    def test_same_seq_different_nodes_both_stored(self, tmp_path):
        repo = Repository(tmp_path / "s")
        repo.ingest_batch(payload(1, [(1, 5)]), node_id=1, constants=CONSTANTS)
        repo.ingest_batch(payload(1, [(1, 5)]), node_id=2, constants=CONSTANTS)
        assert len(repo) == 2


class TestQueryRange:
    def test_empty_store(self, tmp_path):
        repo = Repository(tmp_path / "s")
        assert repo.query_range(0, 10_000) == []

    def test_inclusive_bounds(self, tmp_path):
        repo = Repository(tmp_path / "s")
        for i, ts in enumerate((1000, 2000, 3000), start=1):
            repo.ingest_batch(payload(i, [(1, i)], ts=ts), 1, CONSTANTS)
        assert [r.timestamp for r in repo.query_range(2000, 3000)] == [2000, 3000]

    def test_sensor_filter(self, tmp_path):
        repo = Repository(tmp_path / "s")
        repo.ingest_batch(payload(1, [(1, 5), (2, 100)]), 1, CONSTANTS)
        rows = repo.query_range(0, 10_000, sensor=SensorKind.PIEZOMETER)
        assert [r.sensor for r in rows] == [SensorKind.PIEZOMETER]

    def test_sorted_by_ts_node_seq(self, tmp_path):
        repo = Repository(tmp_path / "s")
        repo.ingest_batch(payload(5, [(1, 1)], ts=3000), 2, CONSTANTS)
        repo.ingest_batch(payload(9, [(1, 1)], ts=1000), 2, CONSTANTS)
        repo.ingest_batch(payload(1, [(1, 1)], ts=3000), 1, CONSTANTS)
        keys = [(r.timestamp, r.node_id, r.seq) for r in repo.query_range(0, 10_000)]
        assert keys == sorted(keys)

    def test_invalid_range(self, tmp_path):
        repo = Repository(tmp_path / "s")
        with pytest.raises(StoreError):
            repo.query_range(10, 5)


class TestPersistence:
    def test_reload_preserves_queries_and_dedup(self, tmp_path):
        store = tmp_path / "s"
        repo = Repository(store)
        repo.ingest_batch(payload(1, [(1, 5), (2, 2300)]), 1, CONSTANTS)
        repo.ingest_batch(payload(3, [(3, 120)], ts=2500), 1, CONSTANTS)
        before = repo.query_range(0, 10_000)
        csv_before = (store / "readings.csv").read_bytes()
        repo.close()

        reloaded = Repository(store)
        assert reloaded.query_range(0, 10_000) == before
        # a retransmission arriving after restart is still recognized
        assert reloaded.ingest_batch(payload(1, [(1, 5), (2, 2300)]), 1, CONSTANTS) == []
        reloaded.close()
        assert (store / "readings.csv").read_bytes() == csv_before

    def test_values_round_trip_exactly(self, tmp_path):
        store = tmp_path / "s"
        repo = Repository(store)
        repo.ingest_batch(payload(1, [(2, 333)]), 1, CONSTANTS)  # 0.01*333-3.5 = -0.17
        value = repo.all_records()[0].value
        repo.close()
        assert Repository(store).all_records()[0].value == value

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
        from slopewatch.domain import CalibratedReading

        with pytest.raises(StoreError):
            ro.append(CalibratedReading(1, 1, SensorKind.RAIN_GAUGE, 1.0, 1))

    def test_read_only_missing_dir_errors(self, tmp_path):
        with pytest.raises(StoreError):
            Repository(tmp_path / "nope", read_only=True)
