"""Splitting a byte stream into frames: the sans-IO splitter, its blocking
adapter ``read_frame``, and both TCP ends resynchronising after bad bytes."""

import io
import socket
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopewatch import wire
from slopewatch.config import load_config
from slopewatch.wire import (
    MAGIC,
    BadMagic,
    CrcMismatch,
    Frame,
    FrameError,
    FrameSplitter,
    LengthMismatch,
    MessageType,
    SendDataPayload,
)

DEMO = str(Path(__file__).resolve().parent.parent / "config" / "demo.ini")


def senddata(seq: int) -> bytes:
    readings = tuple((code, 100 * code + seq) for code in range(1, 6))
    payload = wire.encode_senddata(SendDataPayload(7, seq, 1_700_000_000 + 600 * seq, readings))
    return wire.encode_frame(Frame(MessageType.SEND_DATA, payload))


F1, F2, F3 = senddata(1), senddata(2), senddata(3)
HEARTBEAT = wire.encode_frame(Frame(MessageType.HEARTBEAT))


def bad_magic(raw: bytes) -> bytes:
    return b"XX" + raw[2:]


def bad_crc(raw: bytes) -> bytes:
    return raw[:-1] + bytes([raw[-1] ^ 0x01])


def length_past_stream(raw: bytes) -> bytes:
    # The declared frame ends 10 bytes after frame 3 does.
    plen = len(raw) - wire.HEADER_LEN - wire.TRAILER_LEN + len(F3) + 10
    return raw[:4] + plen.to_bytes(2, "big") + raw[6:]


def feed_split(splitter: FrameSplitter, data: bytes, at: int) -> list:
    return splitter.feed(data[:at]) + splitter.feed(data[at:])


def frames_of(items: list) -> list[Frame]:
    return [x for x in items if isinstance(x, Frame)]


def test_corrupt_middles_contain_no_magic():
    # Resync scans the bad frame for the next MAGIC; these carry none.
    for corrupt in (bad_magic, bad_crc, length_past_stream):
        assert MAGIC not in corrupt(F2)[1:]


@pytest.mark.parametrize("corrupt, error", [(bad_magic, BadMagic), (bad_crc, CrcMismatch)],
                         ids=["bad magic", "bad crc"])
def test_every_split_point_yields_frames_one_and_three(corrupt, error):
    stream = F1 + corrupt(F2) + F3
    want = [wire.decode_frame(F1), wire.decode_frame(F3)]
    for at in range(len(stream) + 1):
        out = feed_split(FrameSplitter(), stream, at)
        assert frames_of(out) == want, at
        errors = [x for x in out if isinstance(x, FrameError)]
        assert len(errors) == 1 and isinstance(errors[0], error), at
        assert out[1] is errors[0], at  # in stream order


def test_length_past_the_stream_waits_for_its_bytes():
    stream = F1 + length_past_stream(F2) + F3
    tail = HEARTBEAT * 2  # covers the 10 bytes the length field still wants
    hb = wire.decode_frame(HEARTBEAT)
    for at in range(len(stream) + 1):
        splitter = FrameSplitter()
        out = feed_split(splitter, stream, at)
        assert out == [wire.decode_frame(F1)], at
        out += splitter.feed(tail)
        assert frames_of(out) == [wire.decode_frame(F1), wire.decode_frame(F3), hb, hb], at
        assert sum(isinstance(x, FrameError) for x in out) == 1 and isinstance(out[1], FrameError), at


def test_byte_at_a_time():
    splitter = FrameSplitter()
    out = [x for b in F1 + bad_crc(F2) + F3 for x in splitter.feed(bytes([b]))]
    assert frames_of(out) == [wire.decode_frame(F1), wire.decode_frame(F3)]
    assert len(out) == 3


def test_stray_bytes_before_frames_are_one_error():
    out = FrameSplitter().feed(b"\x00\x01\x02" + F1 + F1)
    assert isinstance(out[0], BadMagic)
    assert out[1:] == [wire.decode_frame(F1)] * 2


def test_a_good_frame_ends_the_skip():
    # Each bad stretch after a good frame is reported again.
    out = FrameSplitter().feed(b"\x00" + F1 + b"\x00" + F3)
    assert [type(x) for x in out] == [BadMagic, Frame, BadMagic, Frame]


def test_bad_version_is_bad_before_its_length_arrives():
    # A header with a bad version does not hold the stream for its length.
    bogus = MAGIC + b"\x09\x07\xff\xff"
    out = FrameSplitter().feed(bogus + F1)
    assert isinstance(out[0], wire.BadVersion)
    assert out[1:] == [wire.decode_frame(F1)]


def test_a_trailing_magic_byte_is_kept():
    splitter = FrameSplitter()
    assert [type(x) for x in splitter.feed(b"\x00" + MAGIC[:1])] == [BadMagic]
    assert splitter.feed(F1[1:]) == [wire.decode_frame(F1)]


frames_st = st.lists(
    st.builds(
        lambda t, p: wire.encode_frame(Frame(t, p)),
        st.sampled_from(list(MessageType)),
        st.binary(max_size=80),
    ),
    max_size=8,
)


@settings(max_examples=300, deadline=None)
@given(frames_st, st.lists(st.integers(0, 1000), max_size=12))
def test_any_chunking_of_a_valid_stream_gives_its_frames(raws, cuts):
    stream = b"".join(raws)
    whole = FrameSplitter().feed(stream)
    assert whole == [wire.decode_frame(r) for r in raws]
    bounds = sorted({0, len(stream), *(c % (len(stream) + 1) for c in cuts)})
    splitter = FrameSplitter()
    chunked = [x for a, b in zip(bounds, bounds[1:]) for x in splitter.feed(stream[a:b])]
    assert chunked == whole


class TestReadFrame:
    def test_reads_one_frame_and_leaves_the_next(self):
        stream = io.BytesIO(F1 + F3)
        assert wire.read_frame(stream) == wire.decode_frame(F1)
        assert stream.tell() == len(F1)
        assert wire.read_frame(stream) == wire.decode_frame(F3)
        assert wire.read_frame(stream) is None

    def test_returns_a_bad_frame_and_reads_on(self):
        stream, splitter = io.BytesIO(b"\x00" + F1 + bad_crc(F2) + F3), FrameSplitter()
        items = []
        while (item := wire.read_frame(stream, splitter)) is not None:
            items.append(item)
        assert [type(x) for x in items] == [BadMagic, Frame, CrcMismatch, Frame]

    def test_eof_inside_a_frame(self):
        with pytest.raises(LengthMismatch):
            wire.read_frame(io.BytesIO(F1[:-1]))


# -- real sockets ---------------------------------------------------------------


@pytest.fixture
def station(tmp_path):
    from slopewatch.nettransport import StationServer

    server = StationServer(("127.0.0.1", 0), load_config(DEMO), str(tmp_path / "store"))
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
    yield server
    server.shutdown()
    server.close_store()
    server.server_close()


def req_ip(node_id: int) -> bytes:
    return wire.encode_frame(Frame(MessageType.REQ_IP, wire.encode_reqip(node_id)))


def test_stray_byte_before_three_req_ip(station):
    with socket.create_connection(station.server_address[:2], timeout=5) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(b"\x00" + req_ip(1) + req_ip(2) + req_ip(3))
        replies = [wire.read_frame(rfile) for _ in range(3)]
    assert [r.msg_type for r in replies] == [MessageType.IP_ASSIGN] * 3
    assert [wire.decode_ipassign(r.payload) for r in replies] == ["10.77.0.1", "10.77.0.2", "10.77.0.3"]


def test_bad_magic_then_send_data_is_acked(station):
    with socket.create_connection(station.server_address[:2], timeout=5) as sock, \
            sock.makefile("rb") as rfile:
        sock.sendall(wire.encode_frame(Frame(MessageType.SEND_IP, wire.encode_sendip(3, "10.77.0.3"))))
        assert wire.read_frame(rfile).msg_type is MessageType.SERVER_IP
        sock.sendall(wire.encode_frame(Frame(MessageType.REQ_CONN, wire.encode_reqconn(3, 1))))
        session_id = wire.decode_connack(wire.read_frame(rfile).payload)[0]
        payload = SendDataPayload(session_id, 4, 1_700_000_000, ((1, 5),))
        good = wire.encode_frame(Frame(MessageType.SEND_DATA, wire.encode_senddata(payload)))
        sock.sendall(b"XX" + good)  # a bad magic: the header the station reads is off by two bytes
        ack = wire.read_frame(rfile)
    assert ack.msg_type is MessageType.DATA_ACK and wire.decode_dataack(ack.payload) == 4
    with station.engine_lock:
        assert station.engine.records_stored == 1


def test_station_reads_each_frame_through_the_module_read_frame(station, monkeypatch):
    # perfbench/station_child.py samples host speed by wrapping
    # ``slopewatch.wire.read_frame`` as a module attribute: one call per frame,
    # plus the one that finds EOF.
    calls = []
    original = wire.read_frame
    eof = threading.Event()

    def counting(*args, **kwargs):
        calls.append(1)
        out = original(*args, **kwargs)
        if out is None:
            eof.set()
        return out

    monkeypatch.setattr(wire, "read_frame", counting)
    n = 5
    with socket.create_connection(station.server_address[:2], timeout=5) as sock, \
            sock.makefile("rb") as rfile:
        for node_id in range(1, n + 1):
            sock.sendall(req_ip(node_id))
            assert original(rfile).msg_type is MessageType.IP_ASSIGN
    assert eof.wait(5.0)
    assert len(calls) == n + 1


def test_node_resyncs_after_a_stray_byte(tmp_path):
    from slopewatch.domain import SensorKind
    from slopewatch.nettransport import NodeRunner, StationServer, _StationHandler
    from slopewatch.nodesim import Scenario, ScenarioStep

    class StrayByteFirst(_StationHandler):
        """Puts one stray byte before the first reply of the connection."""

        def setup(self):
            super().setup()
            write, first = self.wfile.write, [True]

            def write_with_stray(data):
                if first[0]:
                    first[0] = False
                    data = b"\x00" + data
                return write(data)

            self.wfile.write = write_with_stray

    server = StationServer(("127.0.0.1", 0), load_config(DEMO), str(tmp_path / "store"))
    server.RequestHandlerClass = StrayByteFirst
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True).start()
    try:
        steps = tuple(ScenarioStep(15.0 * k, SensorKind.RAIN_GAUGE, k) for k in range(1, 5))
        runner = NodeRunner(Scenario(name="mini", steps=steps, sample_interval=15.0), node_id=3,
                            connect=f"127.0.0.1:{server.server_address[1]}", speedup=120.0)
        assert runner.run() == 0
        assert runner.driver.state.pending == ()
        with server.engine_lock:
            assert server.engine.records_stored == 4
    finally:
        server.shutdown()
        server.close_store()
        server.server_close()
