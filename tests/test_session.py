"""State machine and link simulator tests.

The step functions are pure, so every case here is a direct call with a
hand-built state; full lifecycles run in test_replay.
"""

from dataclasses import replace

import pytest

from slopewatch.domain import RawReading, SensorKind
from slopewatch.session import (
    AnnounceReceived,
    Channel,
    ConnAckReceived,
    DataAckReceived,
    ForwardToIngest,
    IpAssigned,
    LinkConfig,
    LinkDown,
    LogWarning,
    LossyLink,
    NodePhase,
    NodeState,
    ReadingsAvailable,
    ReqConnReceived,
    SendDataReceived,
    SendFrame,
    ServerIpReceived,
    ServerPhase,
    ServerSessionState,
    SessionTiming,
    SetTimer,
    TimerFired,
    backoff_delay,
    node_event_for,
    node_step,
    server_step,
)
from slopewatch import wire
from slopewatch.wire import Frame, MessageType, SendDataPayload, decode_senddata

T = SessionTiming()


def reading(seq, ts=1000, sensor=SensorKind.RAIN_GAUGE, raw=3, node=1):
    return RawReading(node_id=node, seq=seq, timestamp=ts, sensor=sensor, raw=raw)


def sent_types(actions):
    return [a.frame.msg_type for a in actions if isinstance(a, SendFrame)]


class TestBackoff:
    @pytest.mark.parametrize("attempt,expected", [(1, 1.0), (2, 2.0), (4, 8.0), (7, 60.0), (10, 60.0)])
    def test_delay(self, attempt, expected):
        assert backoff_delay(attempt) == expected

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            backoff_delay(0)

    @pytest.mark.parametrize("attempt", [1025, 10**6])
    def test_long_outage_stays_at_the_cap(self, attempt):
        # 2.0 ** 1024 overflows a float; the delay must stay 60 s regardless.
        assert backoff_delay(attempt) == 60.0

    def test_node_survives_2000_failed_connects(self):
        state = replace(_streaming_state(), phase=NodePhase.CONNECTING)
        now = 0.0
        while True:
            state, actions = node_step(state, TimerFired(), now)
            if state.phase is NodePhase.BACKOFF and state.attempt == 2000:
                break
            now += next(a.delay for a in actions if isinstance(a, SetTimer))
        assert actions == [SetTimer(60.0)]
        assert state.resume_at == now + 60.0


class TestNodeMachine:
    def test_boot_requests_ip(self):
        state, actions = node_step(NodeState(node_id=7), TimerFired(), now=0.0)
        assert state.phase is NodePhase.ACQUIRING_IP
        assert sent_types(actions) == [MessageType.REQ_IP]
        assert actions[0].channel is Channel.CONTROL

    def test_full_happy_path(self):
        state = NodeState(node_id=7)
        state, _ = node_step(state, TimerFired(), 0.0)
        state, actions = node_step(state, IpAssigned("10.77.0.7"), 1.0)
        assert state.phase is NodePhase.ANNOUNCING_IP
        assert sent_types(actions) == [MessageType.SEND_IP]
        state, _ = node_step(state, TimerFired(), 1.0)
        assert state.phase is NodePhase.AWAITING_SERVER_IP
        state, actions = node_step(state, ServerIpReceived("10.0.0.1"), 2.0)
        assert state.phase is NodePhase.CONNECTING
        assert sent_types(actions) == [MessageType.REQ_CONN]
        state, actions = node_step(state, ConnAckReceived(5, state.conn_nonce), 3.0)
        assert state.phase is NodePhase.STREAMING
        assert state.session_id == 5
        assert state.attempt == 0

    def test_streaming_sends_and_acks_batches(self):
        state = _streaming_state()
        batch = (reading(1), reading(2))
        state, actions = node_step(state, ReadingsAvailable(batch), 10.0)
        assert [b.seq for b in state.pending] == [1]
        send = [a for a in actions if isinstance(a, SendFrame)][0]
        payload = decode_senddata(send.frame.payload)
        assert payload.seq == 1 and len(payload.readings) == 2
        state, actions = node_step(state, DataAckReceived(1), 11.0)
        assert state.pending == ()
        assert not sent_types(actions)

    def test_ack_for_unknown_batch_warns(self):
        state = _streaming_state()
        state2, actions = node_step(state, DataAckReceived(42), 10.0)
        assert state2 == state
        assert any(isinstance(a, LogWarning) for a in actions)

    def test_retransmit_timer_resends_all_pending(self):
        state = _streaming_state()
        state, _ = node_step(state, ReadingsAvailable((reading(1),)), 10.0)
        state, _ = node_step(state, ReadingsAvailable((reading(2, ts=1001),)), 11.0)
        state, actions = node_step(state, TimerFired(), 41.0)
        assert sent_types(actions) == [MessageType.SEND_DATA, MessageType.SEND_DATA]

    def test_idle_timer_sends_heartbeat(self):
        state = _streaming_state()
        _, actions = node_step(state, TimerFired(), 100.0)
        assert sent_types(actions) == [MessageType.HEARTBEAT]

    def test_link_down_in_streaming_enters_backoff(self):
        state = _streaming_state()
        state, actions = node_step(state, LinkDown(), 50.0)
        assert state.phase is NodePhase.BACKOFF
        assert state.attempt == 1
        assert state.resume_at == 51.0
        assert any(isinstance(a, SetTimer) and a.delay == 1.0 for a in actions)

    def test_consecutive_connect_failures_escalate(self):
        state = _streaming_state()
        state, _ = node_step(state, LinkDown(), 50.0)
        for expected_attempt, expected_delay in ((2, 2.0), (3, 4.0)):
            state, _ = node_step(state, TimerFired(), 60.0)  # backoff over, reconnect
            assert state.phase is NodePhase.CONNECTING
            state, actions = node_step(state, TimerFired(), 70.0)  # connect timeout
            assert state.phase is NodePhase.BACKOFF
            assert state.attempt == expected_attempt
            assert any(isinstance(a, SetTimer) and a.delay == expected_delay for a in actions)

    def test_reconnect_resends_pending_with_new_session(self):
        state = _streaming_state()
        state, _ = node_step(state, ReadingsAvailable((reading(1),)), 10.0)
        state, _ = node_step(state, LinkDown(), 11.0)
        state, _ = node_step(state, ReadingsAvailable((reading(2, ts=1001),)), 12.0)  # queued offline
        state, _ = node_step(state, TimerFired(), 13.0)
        assert state.phase is NodePhase.CONNECTING
        nonce = state.conn_nonce
        state, actions = node_step(state, ConnAckReceived(9, nonce), 14.0)
        assert state.phase is NodePhase.STREAMING
        sends = [a for a in actions if isinstance(a, SendFrame)]
        payloads = [decode_senddata(a.frame.payload) for a in sends]
        assert [p.seq for p in payloads] == [1, 2]
        assert all(p.session_id == 9 for p in payloads)

    def test_stale_connack_nonce_ignored(self):
        state = _streaming_state()
        state, _ = node_step(state, LinkDown(), 50.0)
        state, _ = node_step(state, TimerFired(), 51.0)
        assert state.phase is NodePhase.CONNECTING
        state2, actions = node_step(state, ConnAckReceived(33, state.conn_nonce - 1), 52.0)
        assert state2.phase is NodePhase.CONNECTING
        assert any(isinstance(a, LogWarning) for a in actions)

    def test_illegal_event_ignored_with_warning(self):
        state = NodeState(node_id=1)
        state2, actions = node_step(state, ConnAckReceived(1, 1), 0.0)
        assert state2 == state
        assert actions and isinstance(actions[0], LogWarning)

    def test_purity(self):
        state = _streaming_state()
        event = ReadingsAvailable((reading(1),))
        assert node_step(state, event, 5.0) == node_step(state, event, 5.0)


def _streaming_state() -> NodeState:
    return NodeState(
        node_id=1,
        phase=NodePhase.STREAMING,
        node_ip="10.77.0.1",
        server_ip="10.0.0.1",
        session_id=4,
        conn_nonce=1,
    )


class TestServerMachine:
    def test_announce_registers_and_replies(self):
        state = ServerSessionState(node_id=7)
        state, actions = server_step(state, AnnounceReceived(7, "10.77.0.7"), 0.0)
        assert state.phase is ServerPhase.KNOWN_CLIENT
        assert state.client_ip == "10.77.0.7"
        assert sent_types(actions) == [MessageType.SERVER_IP]
        assert actions[0].channel is Channel.CONTROL

    def test_reannounce_replaces_ip(self):
        state = ServerSessionState(node_id=7, phase=ServerPhase.KNOWN_CLIENT, client_ip="10.77.0.7")
        state, _ = server_step(state, AnnounceReceived(7, "10.77.0.8"), 1.0)
        assert state.client_ip == "10.77.0.8"

    def test_reqconn_accepts_with_session(self):
        state = ServerSessionState(node_id=7, phase=ServerPhase.KNOWN_CLIENT, client_ip="x")
        state, actions = server_step(state, ReqConnReceived(7, nonce=2, session_id=11), 1.0)
        assert state.phase is ServerPhase.CONNECTED
        assert state.session_id == 11
        assert sent_types(actions) == [MessageType.CONN_ACK]

    def test_senddata_ingests_then_acks(self):
        state = _connected_state()
        payload = SendDataPayload(session_id=11, seq=5, timestamp=99, readings=((1, 2),))
        state, actions = server_step(state, SendDataReceived(payload), 2.0)
        assert isinstance(actions[0], ForwardToIngest)  # durability precedes the ack
        assert isinstance(actions[1], SendFrame)
        assert actions[1].frame.msg_type is MessageType.DATA_ACK

    def test_stale_session_not_acked(self):
        state = _connected_state()
        payload = SendDataPayload(session_id=3, seq=5, timestamp=99, readings=())
        state2, actions = server_step(state, SendDataReceived(payload), 2.0)
        assert state2 == state
        assert sent_types(actions) == []
        assert any(isinstance(a, LogWarning) for a in actions)

    def test_senddata_before_connect_is_violation(self):
        state = ServerSessionState(node_id=7)
        _, actions = server_step(state, SendDataReceived(SendDataPayload(1, 1, 1, ())), 0.0)
        assert any(isinstance(a, LogWarning) for a in actions)

    def test_link_down_drops_back_to_known_client(self):
        state = _connected_state()
        state, actions = server_step(state, LinkDown(), 3.0)
        assert state.phase is ServerPhase.KNOWN_CLIENT
        assert state.session_id is None
        assert actions == []

    def test_reconnect_replaces_session(self):
        state = _connected_state()
        state, actions = server_step(state, ReqConnReceived(7, nonce=3, session_id=12), 4.0)
        assert state.session_id == 12
        assert sent_types(actions) == [MessageType.CONN_ACK]

    def test_purity(self):
        state = _connected_state()
        event = SendDataReceived(SendDataPayload(11, 5, 99, ()))
        assert server_step(state, event, 2.0) == server_step(state, event, 2.0)


def _connected_state() -> ServerSessionState:
    return ServerSessionState(
        node_id=7, phase=ServerPhase.CONNECTED, client_ip="10.77.0.7", session_id=11
    )


class TestLossyLink:
    # Each deliver is judged by its (arrival time or None, link.up) pair.

    def test_degenerate_configs(self):
        clean = LossyLink(LinkConfig(drop_probability=0.0, latency_ms=10))
        pairs = [(clean.deliver(b"x" * 10, 0.0), clean.up) for _ in range(50)]
        assert all(at is not None and up for at, up in pairs)
        lossy = LossyLink(LinkConfig(drop_probability=1.0))
        assert [(lossy.deliver(b"x" * 10, 0.0), lossy.up) for _ in range(50)] == [(None, True)] * 50

    def test_determinism(self):
        cfg = LinkConfig(drop_probability=0.3, disconnect_probability_per_frame=0.01)
        a, b = LossyLink(cfg, 77), LossyLink(cfg, 77)
        outcome_a = [(a.deliver(b"frame", float(i)), a.up) for i in range(200)]
        outcome_b = [(b.deliver(b"frame", float(i)), b.up) for i in range(200)]
        assert outcome_a == outcome_b

    def test_sever_blocks_until_reconnect(self):
        link = LossyLink(LinkConfig())
        link.sever()
        assert (link.deliver(b"x", 0.0), link.up) == (None, False)
        link.reconnect()
        at = link.deliver(b"x", 1.0)
        assert (at is not None, link.up) == (True, True)

    def test_latency_and_serialization(self):
        link = LossyLink(LinkConfig(latency_ms=100, bandwidth_bps=8000))
        out = link.deliver(b"x" * 100, 0.0)  # 800 bits -> 0.1 s tx
        assert (out, link.up) == (pytest.approx(0.2), True)

    def test_bandwidth_queueing(self):
        link = LossyLink(LinkConfig(latency_ms=0, bandwidth_bps=8000))
        first = link.deliver(b"x" * 100, 0.0)
        second = link.deliver(b"x" * 100, 0.0)  # queued behind the first
        assert (second, link.up) == (pytest.approx(first + 0.1), True)

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            LinkConfig(drop_probability=1.5)


class TestNodeEventFor:
    @pytest.mark.parametrize("frame, event", [
        (Frame(MessageType.IP_ASSIGN, wire.encode_ipassign("10.77.0.3")), IpAssigned("10.77.0.3")),
        (Frame(MessageType.SERVER_IP, wire.encode_serverip("10.0.0.1")), ServerIpReceived("10.0.0.1")),
        (Frame(MessageType.CONN_ACK, wire.encode_connack(42, 7)), ConnAckReceived(42, 7)),
        (Frame(MessageType.DATA_ACK, wire.encode_dataack(65535)), DataAckReceived(65535)),
    ], ids=lambda v: v.msg_type.name if isinstance(v, Frame) else "")
    def test_station_frames_map_to_their_events(self, frame, event):
        assert node_event_for(frame) == event

    @pytest.mark.parametrize("msg_type", [
        MessageType.REQ_IP, MessageType.SEND_IP, MessageType.REQ_CONN,
        MessageType.SEND_DATA, MessageType.HEARTBEAT,
    ], ids=lambda t: t.name)
    def test_node_to_station_types_carry_no_event(self, msg_type):
        assert node_event_for(Frame(msg_type, b"\x00" * 4)) is None

    def test_short_data_ack_payload_raises(self):
        with pytest.raises(wire.PayloadError):
            node_event_for(Frame(MessageType.DATA_ACK, wire.encode_dataack(5)[:-1]))
