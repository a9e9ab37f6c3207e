"""Station engine entry points shared by both transports: open, handle_frame, link-down."""

from pathlib import Path

import pytest

from slopewatch import replay, wire
from slopewatch.config import load_config
from slopewatch.nodesim import load_scenario, resolve_scenario
from slopewatch.replay import SimReplay
from slopewatch.session import SERVER_IP, LossyLink, ServerPhase, describe
from slopewatch.station import ServerEngine
from slopewatch.wire import Frame, MessageType, SendDataPayload

DEMO = Path(__file__).resolve().parent.parent / "config" / "demo.ini"
NODE = 3


class NullSink:
    name = "null"

    def send(self, note) -> None:
        pass


@pytest.fixture
def engine(tmp_path):
    engine = ServerEngine.open(load_config(DEMO), tmp_path / "store", [NullSink()])
    yield engine
    engine.repo.close()


def announce(engine: ServerEngine) -> None:
    engine.handle_frame(Frame(MessageType.SEND_IP, wire.encode_sendip(NODE, "10.77.0.3")))


def connect(engine: ServerEngine, nonce: int) -> int:
    (ack,) = engine.handle_frame(Frame(MessageType.REQ_CONN, wire.encode_reqconn(NODE, nonce)))
    return wire.decode_connack(ack.payload)[0]


def send_data(session_id: int, seq: int) -> Frame:
    payload = SendDataPayload(session_id, seq, 1_700_000_000 + 600 * seq, ((1, 100),))
    return Frame(MessageType.SEND_DATA, wire.encode_senddata(payload))


def test_open_builds_the_engine_over_the_store(tmp_path):
    steps = []
    engine = ServerEngine.open(load_config(DEMO), tmp_path / "store", [NullSink()],
                               observe=lambda *step: steps.append(step))
    try:
        announce(engine)
        connect(engine, 1)
        engine.handle_frame(send_data(1, 0))
        assert engine.records_stored == 1
        assert len(steps) == 3
    finally:
        engine.repo.close()
    assert (tmp_path / "store" / "readings.csv").exists()


def test_observe_sees_each_step_once_before_its_ingest(tmp_path):
    seen = []

    def observe(node_id, state, event, actions):
        assert state is engine.sessions[node_id]  # the state the step left
        seen.append((node_id, state.phase, describe(event), [describe(a) for a in actions],
                     engine.records_stored))

    engine = ServerEngine.open(load_config(DEMO), tmp_path / "store", [NullSink()], observe=observe)
    try:
        engine.handle_frame(Frame(MessageType.REQ_IP, wire.encode_reqip(NODE)))  # no machine step
        announce(engine)
        sid = connect(engine, 1)
        engine.handle_frame(send_data(sid, 0))
        engine.handle_frame(Frame(MessageType.HEARTBEAT))  # no machine step
        engine.handle_frame(send_data(sid, 1))
        engine.handle_link_down(NODE)
    finally:
        engine.repo.close()
    assert seen == [
        (NODE, ServerPhase.KNOWN_CLIENT, "AnnounceReceived", ["SendFrame(SERVER_IP,control)"], 0),
        (NODE, ServerPhase.CONNECTED, "ReqConnReceived", ["SendFrame(CONN_ACK,data)"], 0),
        (NODE, ServerPhase.CONNECTED, "SendDataReceived(seq=0)",
         ["ForwardToIngest(seq=0)", "SendFrame(DATA_ACK,data)"], 0),
        (NODE, ServerPhase.CONNECTED, "SendDataReceived(seq=1)",
         ["ForwardToIngest(seq=1)", "SendFrame(DATA_ACK,data)"], 1),
        (NODE, ServerPhase.KNOWN_CLIENT, "LinkDown", [], 2),
    ]


@pytest.mark.parametrize("msg_type", list(MessageType), ids=lambda t: t.name)
def test_handle_frame_routes_like_the_channels(msg_type, engine, monkeypatch):
    # Patched on the class, as a benchmark's wrapper is: handle_frame must
    # look both handlers up through ``self``.
    reached = []
    monkeypatch.setattr(ServerEngine, "handle_control_frame",
                        lambda self, frame: reached.append("control") or [])
    monkeypatch.setattr(ServerEngine, "handle_data_frame",
                        lambda self, frame: reached.append("data") or [])
    assert engine.handle_frame(Frame(msg_type, b"")) == []
    assert reached == ["control" if msg_type in wire.CONTROL_TYPES else "data"]


def test_replies_are_whole_frames(engine):
    (ip,) = engine.handle_frame(Frame(MessageType.REQ_IP, wire.encode_reqip(NODE)))
    assert ip == Frame(MessageType.IP_ASSIGN, wire.encode_ipassign("10.77.0.3"))
    (server_ip,) = engine.handle_frame(Frame(MessageType.SEND_IP, wire.encode_sendip(NODE, "10.77.0.3")))
    assert server_ip == Frame(MessageType.SERVER_IP, wire.encode_serverip(SERVER_IP))
    (conn,) = engine.handle_frame(Frame(MessageType.REQ_CONN, wire.encode_reqconn(NODE, 5)))
    assert conn == Frame(MessageType.CONN_ACK, wire.encode_connack(1, 5))
    (ack,) = engine.handle_frame(send_data(1, 0))
    assert ack == Frame(MessageType.DATA_ACK, wire.encode_dataack(0))


def test_control_frames_never_reach_the_lossy_link(tmp_path, monkeypatch):
    # Every data frame the node sends goes through LossyLink.deliver, in
    # order; no control-channel type ever does, in either direction.
    sent = []
    step = replay.node_step

    def recording_step(*args, **kwargs):
        state, actions = step(*args, **kwargs)
        sent.extend(a for a in actions if isinstance(a, Frame))
        return state, actions

    offered = {"up": [], "down": []}
    deliver = LossyLink.deliver

    def recording_deliver(self, frame_bytes, now, direction="up"):
        offered[direction].append(wire.decode_frame(frame_bytes))
        return deliver(self, frame_bytes, now, direction)

    monkeypatch.setattr(replay, "node_step", recording_step)
    monkeypatch.setattr(LossyLink, "deliver", recording_deliver)
    scenario = load_scenario(resolve_scenario("three_day_rain"))
    sim = SimReplay(scenario, load_config(DEMO), str(tmp_path / "store"), seed=4,
                    force_disconnect_at=(scenario.duration / 3,), server_restart_at=scenario.duration / 2,
                    sinks=[NullSink()])
    sim.run()
    node_types = set(MessageType) - {
        MessageType.IP_ASSIGN, MessageType.SERVER_IP, MessageType.CONN_ACK, MessageType.DATA_ACK}
    assert {f.msg_type for f in sent} == node_types
    assert offered["up"] == [f for f in sent if f.msg_type not in wire.CONTROL_TYPES]
    assert {f.msg_type for f in offered["down"]} == {MessageType.CONN_ACK, MessageType.DATA_ACK}


class TestStaleLinkDown:
    """A link-down for a session the node no longer holds leaves its live one alone."""

    def test_old_session_link_down_keeps_the_new_session(self, engine):
        announce(engine)
        old = connect(engine, 1)
        new = connect(engine, 2)
        assert new != old
        assert engine.handle_link_down(NODE, session_id=old) == []
        state = engine.sessions[NODE]
        assert (state.phase, state.session_id) == (ServerPhase.CONNECTED, new)
        (ack,) = engine.handle_frame(send_data(new, 0))
        assert ack.msg_type is MessageType.DATA_ACK
        assert engine.violations == 0

    def test_live_session_link_down_ends_it(self, engine):
        announce(engine)
        sid = connect(engine, 1)
        engine.handle_link_down(NODE, session_id=sid)
        assert engine.sessions[NODE].phase is ServerPhase.KNOWN_CLIENT
        assert engine.handle_frame(send_data(sid, 0)) == []

    def test_link_down_without_a_session_ends_the_live_one(self, engine):
        # The replay's link-down ends whichever session is live.
        announce(engine)
        connect(engine, 1)
        connect(engine, 2)
        engine.handle_link_down(NODE)
        assert engine.sessions[NODE].phase is ServerPhase.KNOWN_CLIENT

    def test_unknown_node_link_down_with_a_session_is_ignored(self, engine):
        assert engine.handle_link_down(NODE, session_id=1) == []
        assert NODE not in engine.sessions


class TestSessionMap:
    """The station maps each node's latest accepted session only."""

    def test_refused_req_conn_adds_no_entry(self, engine):
        # Unannounced: the request is refused, yet it takes a session id.
        assert engine.handle_frame(Frame(MessageType.REQ_CONN, wire.encode_reqconn(NODE, 1))) == []
        assert engine._session_to_node == {}
        announce(engine)
        assert connect(engine, 2) == 2
        assert engine._session_to_node == {2: NODE}

    def test_replaced_session_is_unknown(self, engine, caplog):
        announce(engine)
        old = connect(engine, 1)
        new = connect(engine, 2)
        assert engine._session_to_node == {new: NODE}
        with caplog.at_level("WARNING", logger="slopewatch.station"):
            assert engine.handle_frame(send_data(old, 0)) == []
        assert engine.violations == 1
        assert engine.records_stored == 0
        assert any(f"unknown session {old}" in r.getMessage() for r in caplog.records)

    def test_link_down_keeps_the_entry_until_the_next_session(self, engine):
        # A late frame of the session just ended still reads as "outside a session".
        announce(engine)
        sid = connect(engine, 1)
        engine.handle_link_down(NODE)
        assert engine._session_to_node == {sid: NODE}
        assert engine.handle_frame(send_data(sid, 0)) == []
        assert engine.violations == 1

    def test_forced_disconnect_replay_ends_with_one_entry_per_node(self, tmp_path):
        scenario = load_scenario(resolve_scenario("seven_day_rain"))
        n = 10
        offsets = tuple(scenario.duration * (i + 1) / (n + 1) for i in range(n))
        sim = SimReplay(scenario, load_config(DEMO), str(tmp_path / "store"), seed=7,
                        force_disconnect_at=offsets, sinks=[NullSink()])
        sim.run()
        entries = sim.server._session_to_node
        assert sim.reconnect_attempts >= n  # many sessions were opened
        assert len(entries) <= 1 and set(entries.values()) <= {sim.node.node_id}
