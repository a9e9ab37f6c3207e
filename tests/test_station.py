"""Station engine: malformed payloads inside frames with a valid CRC."""

from pathlib import Path

import pytest

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
    yield ServerEngine(repo, cfg.calibration, AlertEngine(cfg.thresholds, cfg.analysis, Dispatcher([NullSink()])))
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
