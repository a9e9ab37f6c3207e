"""Station engine: malformed payloads inside frames with a valid CRC, and
the order of a batch's effects: judged, made durable, then notified and acked."""

from pathlib import Path

import pytest

from slopewatch import ingest as ingest_module
from slopewatch import wire
from slopewatch.alert import AlertEngine, Dispatcher
from slopewatch.config import load_config
from slopewatch.ingest import Repository
from slopewatch.session import ServerPhase
from slopewatch.station import ServerEngine
from slopewatch.wire import Frame, MessageType, SendDataPayload

DEMO = Path(__file__).resolve().parent.parent / "config" / "demo.ini"
NODE = 3
TS = 1_700_000_000
READINGS = tuple((code, 100 * code) for code in range(1, 6))


class NullSink:
    name = "null"

    def send(self, note) -> None:
        pass


@pytest.fixture
def engine(tmp_path):
    cfg = load_config(DEMO)
    repo = Repository(tmp_path / "store", durable=False)
    yield ServerEngine(repo, cfg.calibration, AlertEngine(cfg.thresholds, cfg.analysis), Dispatcher([NullSink()]))
    repo.close()


def connect(engine: ServerEngine) -> int:
    """Announce and connect NODE; returns its session id."""
    engine.handle_control_frame(Frame(MessageType.SEND_IP, wire.encode_sendip(NODE, "10.77.0.3")))
    (ack,) = engine.handle_data_frame(Frame(MessageType.REQ_CONN, wire.encode_reqconn(NODE, 7)))
    return wire.decode_connack(ack.payload)[0]


def send_data(session_id: int, seq: int) -> Frame:
    return Frame(MessageType.SEND_DATA, wire.encode_senddata(SendDataPayload(session_id, seq, TS + seq, READINGS)))


def unknown_sensor(frame: Frame) -> Frame:
    # The first reading's sensor code follows the 17-byte fixed header.
    payload = bytearray(frame.payload)
    payload[17] = 0x77
    return Frame(frame.msg_type, bytes(payload))


def count_off_by_one(frame: Frame) -> Frame:
    payload = bytearray(frame.payload)
    payload[16] += 1
    return Frame(frame.msg_type, bytes(payload))


@pytest.mark.parametrize("corrupt", [unknown_sensor, count_off_by_one])
def test_malformed_send_data_is_a_violation_and_not_acked(engine, corrupt):
    session_id = connect(engine)
    bad = corrupt(send_data(session_id, 0))
    assert wire.decode_frame(wire.encode_frame(bad)) == bad  # the frame itself is valid
    assert engine.handle_data_frame(bad) == []
    assert engine.violations == 1
    assert (engine.batches_ingested, engine.records_stored, len(engine.repo)) == (0, 0, 0)
    # The session is untouched: the next good batch is stored and acked.
    (ack,) = engine.handle_data_frame(send_data(session_id, 5))
    assert ack.msg_type is MessageType.DATA_ACK and wire.decode_dataack(ack.payload) == 5
    assert engine.records_stored == len(READINGS)
    assert engine.sessions[NODE].phase is ServerPhase.CONNECTED


@pytest.mark.parametrize(
    "frame",
    [
        Frame(MessageType.REQ_IP, b"\x00"),
        Frame(MessageType.SEND_IP, wire.encode_sendip(NODE, "10.77.0.3")[:5]),
        Frame(MessageType.SEND_IP, wire.encode_sendip(NODE, "10.77.0.3") + b"\x00"),
    ],
    ids=["req_ip short", "send_ip short", "send_ip long"],
)
def test_malformed_control_payload_is_a_violation(engine, frame):
    assert engine.handle_control_frame(frame) == []
    assert engine.violations == 1
    assert engine.sessions == {}


@pytest.mark.parametrize(
    "payload",
    [b"", wire.encode_reqconn(NODE, 7)[:5], wire.encode_reqconn(NODE, 7) + b"\x01"],
    ids=["empty", "short", "long"],
)
def test_malformed_req_conn_is_a_violation(engine, payload):
    engine.handle_control_frame(Frame(MessageType.SEND_IP, wire.encode_sendip(NODE, "10.77.0.3")))
    assert engine.handle_data_frame(Frame(MessageType.REQ_CONN, payload)) == []
    assert engine.violations == 1
    assert engine.sessions[NODE].phase is ServerPhase.KNOWN_CLIENT
    # No session id was spent on it.
    assert connect(engine) == 1


# Calibrated with demo.ini: 20 mm of rain and a 5 degree tilt (YELLOW), and
# the same with 60 kPa of pore pressure and 10 mm of displacement (RED).
RAIN_AND_TILT = READINGS
STORM = ((1, 100), (2, 6000), (3, 1000), (4, 400), (5, 500))


class TestEffectOrder:
    """Per stored batch: ingest, judge, one fsync, then its notifications,
    then its DATA_ACK. Effects are logged as they happen; an ack when
    ``handle_data_frame`` returns it."""

    @pytest.fixture
    def station(self, tmp_path, monkeypatch):
        effects = []
        fsync, evaluate_batch, dispatch = ingest_module.os.fsync, AlertEngine.evaluate_batch, Dispatcher.dispatch

        def logged_fsync(fd):
            effects.append("fsync")
            fsync(fd)

        def logged_evaluate_batch(alert_engine, records):
            effects.append(("judge", [r.seq for r in records]))
            return evaluate_batch(alert_engine, records)

        def logged_dispatch(dispatcher, note):
            effects.append(("notify", note.level.name))
            return dispatch(dispatcher, note)

        monkeypatch.setattr(ingest_module.os, "fsync", logged_fsync)
        monkeypatch.setattr(AlertEngine, "evaluate_batch", logged_evaluate_batch)
        monkeypatch.setattr(Dispatcher, "dispatch", logged_dispatch)
        cfg = load_config(DEMO)
        repo = Repository(tmp_path / "store")  # durable
        engine = ServerEngine(repo, cfg.calibration, AlertEngine(cfg.thresholds, cfg.analysis), Dispatcher([NullSink()]))
        session_id = connect(engine)
        effects.clear()  # the new store's directory fsyncs

        def send(seq: int, readings=RAIN_AND_TILT) -> None:
            payload = SendDataPayload(session_id, seq, TS + seq, readings)
            out = engine.handle_data_frame(Frame(MessageType.SEND_DATA, wire.encode_senddata(payload)))
            effects.extend(("ack", wire.decode_dataack(f.payload)) for f in out if f.msg_type is MessageType.DATA_ACK)

        yield engine, send, effects
        repo.close()

    def test_judged_before_the_fsync_and_notified_and_acked_after_it(self, station):
        engine, send, effects = station
        send(0)
        send(5, STORM)
        send(0)  # an all-duplicate retransmit, with nothing pending: no fsync
        send(10, STORM)  # stored, but the ladder stays RED: no notification
        assert effects == [
            ("judge", [0, 1, 2, 3, 4]), "fsync", ("notify", "YELLOW"), ("ack", 0),
            ("judge", [5, 6, 7, 8, 9]), "fsync", ("notify", "RED"), ("ack", 5),
            ("judge", []), ("ack", 0),
            ("judge", [10, 11, 12, 13, 14]), "fsync", ("ack", 10),
        ]
        assert engine.repo.seq_runs(NODE) == [(0, 14)]

    def test_a_batch_whose_judgement_raises_is_not_acked_and_synced_before_the_next_ack(self, station, monkeypatch):
        engine, send, effects = station
        evaluate_batch = AlertEngine.evaluate_batch

        def failing(alert_engine, records):
            evaluate_batch(alert_engine, records)  # logged
            raise RuntimeError("judgement failed")

        monkeypatch.setattr(AlertEngine, "evaluate_batch", failing)
        with pytest.raises(RuntimeError):
            send(0)
        monkeypatch.setattr(AlertEngine, "evaluate_batch", evaluate_batch)
        assert effects == [("judge", [0, 1, 2, 3, 4])]  # no fsync, no notification, no ack
        send(5, STORM)  # one fsync covers both batches' rows
        send(0)  # the retransmit is all duplicates, and nothing is pending
        assert effects == [
            ("judge", [0, 1, 2, 3, 4]),
            ("judge", [5, 6, 7, 8, 9]), "fsync", ("notify", "RED"), ("ack", 5),
            ("judge", []), ("ack", 0),
        ]
        assert [r.seq for r in engine.repo.all_records()] == list(range(10))
