"""The one node driver both transports use, and the node's direct NodeState builds."""

import dataclasses
import logging

from slopewatch import session, wire
from slopewatch.domain import SensorKind
from slopewatch.session import (
    DataAckReceived,
    LinkDown,
    NodeDriver,
    NodePhase,
    NodeState,
    PendingBatch,
    ReadingsAvailable,
    SetTimer,
    TimerFired,
    node_step,
)
from slopewatch.wire import Frame, MessageType

RAIN = SensorKind.RAIN_GAUGE.code


def batch(seq: int, ts: int = 1000) -> ReadingsAvailable:
    return ReadingsAvailable(PendingBatch(seq, ts, ((RAIN, 5),)))


def pending(*seqs: int) -> tuple[PendingBatch, ...]:
    return tuple(PendingBatch(seq, 1000 + seq, ((1, seq),)) for seq in seqs)


class Recorder:
    """Transport callbacks that log what the driver asks for, in order."""

    def __init__(self, send_ok: bool = True):
        self.log: list[tuple] = []
        self.send_ok = send_ok

    def send(self, frame) -> bool:
        self.log.append(("send", frame.msg_type))
        return self.send_ok

    def set_timer(self, delay: float) -> None:
        self.log.append(("timer", delay))

    def driver(self, state: NodeState, **kwargs) -> NodeDriver:
        return NodeDriver(state, send=self.send, set_timer=self.set_timer, **kwargs)


def streaming(**changes) -> NodeState:
    return dataclasses.replace(NodeState(node_id=1, phase=NodePhase.STREAMING, session_id=9), **changes)


class TestNodeStateBuilds:
    """Queueing a batch and taking an ack build NodeState directly; no field may be lost."""

    def full_state(self) -> NodeState:
        values = {
            "node_id": 7, "phase": NodePhase.CONNECTING, "node_ip": "10.77.0.7",
            "server_ip": "10.0.0.1", "session_id": 42, "conn_nonce": 5, "attempt": 3,
            "pending": pending(4, 5, 6),
        }
        assert set(values) == {f.name for f in dataclasses.fields(NodeState)}
        state = NodeState(**values)
        for f in dataclasses.fields(NodeState):
            assert getattr(state, f.name) != f.default, f.name
        return state

    def assert_kept(self, before: NodeState, after: NodeState, queue: tuple) -> None:
        assert after == dataclasses.replace(before, pending=queue)

    def test_queueing_a_batch_keeps_every_field(self):
        state = self.full_state()
        after, _ = node_step(state, batch(8))
        self.assert_kept(state, after, state.pending + (PendingBatch(8, 1000, ((RAIN, 5),)),))

    def test_acking_the_head_keeps_every_field(self):
        state = self.full_state()
        after, actions = node_step(state, DataAckReceived(4))
        assert actions == []
        self.assert_kept(state, after, pending(5, 6))

    def test_acking_a_later_batch_keeps_every_field(self):
        state = self.full_state()
        after, actions = node_step(state, DataAckReceived(5))
        assert actions == []
        self.assert_kept(state, after, pending(4, 6))

    def test_unknown_ack_changes_nothing(self):
        state = self.full_state()
        after, actions = node_step(state, DataAckReceived(99))
        assert after is state
        assert "unknown batch seq 99" in actions[0].message


class TestNodeDriver:
    def test_timers_are_armed_before_frames_are_sent(self):
        rec = Recorder()
        driver = rec.driver(streaming())
        driver.feed(batch(1))
        assert rec.log == [("timer", session.RETRANSMIT_S), ("send", MessageType.SEND_DATA)]
        assert driver.state.pending == (PendingBatch(1, 1000, ((RAIN, 5),)),)

    def test_a_failed_send_feeds_one_link_down_and_stops_sending(self):
        rec = Recorder(send_ok=False)
        driver = rec.driver(streaming(pending=pending(1, 2)))
        driver.feed(TimerFired())  # retransmits both batches
        # The first send fails: one LinkDown, so Backoff's timer; the second batch is not sent.
        assert rec.log == [("timer", session.RETRANSMIT_S), ("send", MessageType.SEND_DATA),
                           ("timer", 1.0)]
        assert driver.state.phase is NodePhase.BACKOFF

    def test_observe_sees_each_step(self):
        rec, seen = Recorder(), []
        driver = rec.driver(NodeState(node_id=1), observe=lambda *step: seen.append(step))
        driver.feed(TimerFired())
        ((state, event, actions),) = seen
        assert (state, event) == (driver.state, TimerFired())
        assert state.phase is NodePhase.ACQUIRING_IP
        assert SetTimer(session.IP_RETRY_S) in actions

    def test_step_is_the_callers(self):
        calls = []

        def step(*args):
            calls.append(args[1])
            return node_step(*args)

        Recorder().driver(NodeState(node_id=1), step=step).feed(LinkDown())
        assert calls == [LinkDown()]

    def test_receive_feeds_the_frames_event(self):
        rec = Recorder()
        driver = rec.driver(streaming(pending=pending(3)))
        driver.receive(Frame(MessageType.DATA_ACK, wire.encode_dataack(3)))
        assert driver.state.pending == ()

    def test_receive_drops_a_malformed_or_unexpected_frame(self, caplog):
        rec = Recorder()
        state = streaming(pending=pending(3))
        driver = rec.driver(state)
        with caplog.at_level(logging.WARNING, logger="slopewatch.session"):
            driver.receive(Frame(MessageType.DATA_ACK, b"\x00\x03"))
            driver.receive(Frame(MessageType.REQ_IP, wire.encode_reqip(1)))
        assert driver.state is state and rec.log == []
        messages = [r.getMessage() for r in caplog.records]
        assert any("dropping bad frame" in m for m in messages)
        assert any("unexpected REQ_IP" in m for m in messages)
