"""Connection lifecycle state machines and the lossy-link simulator.

Node side: boot, acquire an IP, announce it on the control channel, learn
the server address, connect, stream reading batches with at-least-once
retransmission, and back off exponentially after failures.

Server side: track each node from announce through connect to streaming,
acknowledge batches, and hand payloads to ingest.

Both step functions are pure: (state, event) fully determines
(state', actions). Side effects (timers, ingest, frames to send) are
returned as action values; a send is the ``wire.Frame`` itself, whose type
names its channel (``wire.CONTROL_TYPES``). On the node side ``NodeDriver``
executes the actions through callbacks of the transport -- the
discrete-event replay harness or the socket runner. The node's timers have
one set of values, the ``*_S`` constants below; each transport arms them on
its own clock, simulated seconds in the replay and wall seconds over TCP.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from enum import Enum
from random import Random
from typing import Callable, Union

from slopewatch import wire
from slopewatch.wire import Frame, MessageType, SendDataPayload

logger = logging.getLogger(__name__)

# The node's protocol timers, in seconds of its transport's clock: simulated
# time in the replay, wall time over TCP.
IP_RETRY_S = 5.0
ANNOUNCE_S = 5.0
CONNECT_S = 10.0
RETRANSMIT_S = 30.0
HEARTBEAT_S = 1800.0
MAX_BACKOFF_S = 60.0
SERVER_IP = "10.0.0.1"  # the station's address in every SERVER_IP reply
# The first doubling exponent whose delay reaches the cap; capping the
# exponent too keeps 2.0 ** exponent from overflowing on long outages.
_MAX_BACKOFF_EXPONENT = math.ceil(math.log2(MAX_BACKOFF_S))


def backoff_delay(attempt: int) -> float:
    """Reconnect delay for the given 1-based attempt: 1s, 2s, 4s ... capped at 60s."""
    if attempt < 1:
        raise ValueError(f"attempt must be >= 1, got {attempt}")
    return min(2.0 ** min(attempt - 1, _MAX_BACKOFF_EXPONENT), MAX_BACKOFF_S)


# ---------------------------------------------------------------------------
# Events and actions
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class IpAssigned:
    ip: str


@dataclass(slots=True)
class ServerIpReceived:
    ip: str


@dataclass(slots=True)
class ConnAckReceived:
    session_id: int
    nonce: int


@dataclass(slots=True)
class DataAckReceived:
    seq: int


@dataclass(slots=True)
class LinkDown:
    pass


@dataclass(slots=True)
class TimerFired:
    pass


@dataclass(slots=True)
class ReadingsAvailable:
    """A batch from the scenario player, queued on the node as it is."""

    batch: PendingBatch


NodeEvent = Union[
    IpAssigned, ServerIpReceived, ConnAckReceived, DataAckReceived,
    LinkDown, TimerFired, ReadingsAvailable,
]


@dataclass(slots=True)
class AnnounceReceived:
    node_id: int
    ip: str


@dataclass(slots=True)
class ReqConnReceived:
    """Connection request; ``session_id`` is pre-allocated by the caller."""

    node_id: int
    nonce: int
    session_id: int


@dataclass(slots=True)
class SendDataReceived:
    payload: SendDataPayload


ServerEvent = Union[AnnounceReceived, ReqConnReceived, SendDataReceived, LinkDown]


@dataclass(slots=True)
class SetTimer:
    """Arm the session timer for ``delay`` seconds, replacing any pending timer."""

    delay: float


@dataclass(slots=True)
class LogWarning:
    message: str


@dataclass(slots=True)
class ForwardToIngest:
    payload: SendDataPayload


# A Frame action is a send: on the control channel if its type is in
# ``wire.CONTROL_TYPES``, else on the data channel.
Action = Union[Frame, SetTimer, LogWarning, ForwardToIngest]


def describe(obj) -> str:
    """Compact event/action label for trace lines."""
    if isinstance(obj, Frame):
        # Named as when a send was its own action class, so traces compare across versions.
        channel = "control" if obj.msg_type in wire.CONTROL_TYPES else "data"
        return f"SendFrame({obj.msg_type.name},{channel})"
    if isinstance(obj, SetTimer):
        return f"SetTimer({obj.delay:g})"
    if isinstance(obj, ReadingsAvailable):
        return f"ReadingsAvailable(n={len(obj.batch.readings)})"
    if isinstance(obj, SendDataReceived):
        return f"SendDataReceived(seq={obj.payload.seq})"
    if isinstance(obj, ForwardToIngest):
        return f"ForwardToIngest(seq={obj.payload.seq})"
    if isinstance(obj, LogWarning):
        return "LogWarning"
    return type(obj).__name__


# ---------------------------------------------------------------------------
# Node state machine
# ---------------------------------------------------------------------------


class NodePhase(Enum):
    BOOT = "Boot"
    ACQUIRING_IP = "AcquiringIp"
    ANNOUNCING_IP = "AnnouncingIp"
    AWAITING_SERVER_IP = "AwaitingServerIp"
    CONNECTING = "Connecting"
    STREAMING = "Streaming"
    BACKOFF = "Backoff"


@dataclass(slots=True)
class PendingBatch:
    """An unacknowledged batch, retransmitted until its DATA_ACK arrives.

    Its readings share one timestamp and have the seqs ``seq``, ``seq + 1``, ...
    """

    seq: int
    timestamp: int
    readings: tuple[tuple[int, int], ...]  # (sensor_code, raw) pairs


@dataclass(slots=True)
class NodeState:
    node_id: int
    phase: NodePhase = NodePhase.BOOT
    node_ip: str | None = None
    server_ip: str | None = None
    session_id: int = 0
    conn_nonce: int = 0
    attempt: int = 0           # consecutive failed connection attempts
    pending: tuple[PendingBatch, ...] = ()


def _senddata_frame(state: NodeState, batch: PendingBatch) -> Frame:
    payload = SendDataPayload(state.session_id, batch.seq, batch.timestamp, batch.readings)
    return Frame(MessageType.SEND_DATA, wire.encode_senddata(payload))


def _reqconn_actions(state: NodeState) -> tuple[NodeState, list[Action]]:
    state = replace(state, phase=NodePhase.CONNECTING, conn_nonce=state.conn_nonce + 1)
    frame = Frame(MessageType.REQ_CONN, wire.encode_reqconn(state.node_id, state.conn_nonce))
    return state, [frame, SetTimer(CONNECT_S)]


def _enter_backoff(state: NodeState) -> tuple[NodeState, list[Action]]:
    attempt = state.attempt + 1
    return replace(state, phase=NodePhase.BACKOFF, attempt=attempt), [SetTimer(backoff_delay(attempt))]


def _with_pending(state: NodeState, pending: tuple[PendingBatch, ...]) -> NodeState:
    """``state`` with ``pending`` in place of its queue; built directly, at a
    third of ``dataclasses.replace``'s cost, as it runs once per batch and ack."""
    return NodeState(state.node_id, state.phase, state.node_ip, state.server_ip, state.session_id,
                     state.conn_nonce, state.attempt, pending)


def node_event_for(frame: Frame) -> NodeEvent | None:
    """The node event a frame from the station carries; None for any other type.

    Raises ``wire.PayloadError`` for a malformed payload.
    """
    t = frame.msg_type
    if t is MessageType.IP_ASSIGN:
        return IpAssigned(wire.decode_ipassign(frame.payload))
    if t is MessageType.SERVER_IP:
        return ServerIpReceived(wire.decode_serverip(frame.payload))
    if t is MessageType.CONN_ACK:
        return ConnAckReceived(*wire.decode_connack(frame.payload))
    if t is MessageType.DATA_ACK:
        return DataAckReceived(wire.decode_dataack(frame.payload))
    return None


_LINK_DOWN_IS_NOOP = frozenset(
    (NodePhase.ACQUIRING_IP, NodePhase.ANNOUNCING_IP, NodePhase.AWAITING_SERVER_IP, NodePhase.BACKOFF)
)


def node_step(state: NodeState, event: NodeEvent) -> tuple[NodeState, list[Action]]:
    """Advance the node machine by one event.

    Illegal (state, event) pairs are ignored with a LogWarning action; all
    connection failures surface as transitions into BACKOFF.
    """
    phase = state.phase

    # Batches may arrive in any phase after boot; they are queued and only
    # transmitted while STREAMING (at-least-once until acknowledged).
    if isinstance(event, ReadingsAvailable):
        state = _with_pending(state, state.pending + (event.batch,))
        if phase is NodePhase.STREAMING:
            return state, [
                _senddata_frame(state, state.pending[-1]),
                SetTimer(RETRANSMIT_S),
            ]
        return state, []

    # Acks are accepted in any phase; a late ack for a batch already sent is
    # still a valid receipt.
    if isinstance(event, DataAckReceived):
        pending = state.pending
        if pending and pending[0].seq == event.seq:  # the usual case; seqs in pending are unique
            return _with_pending(state, pending[1:]), []
        remaining = tuple(b for b in pending if b.seq != event.seq)
        if len(remaining) == len(pending):
            return state, [LogWarning(f"ack for unknown batch seq {event.seq}")]
        return _with_pending(state, remaining), []

    # A send that fails before a session is up is retried by the phase's own
    # timer; in BACKOFF the link is already down.
    if isinstance(event, LinkDown) and phase in _LINK_DOWN_IS_NOOP:
        return state, []

    if phase is NodePhase.BOOT:
        if isinstance(event, TimerFired):
            state = replace(state, phase=NodePhase.ACQUIRING_IP)
            frame = Frame(MessageType.REQ_IP, wire.encode_reqip(state.node_id))
            return state, [frame, SetTimer(IP_RETRY_S)]

    elif phase is NodePhase.ACQUIRING_IP:
        if isinstance(event, IpAssigned):
            state = replace(state, phase=NodePhase.ANNOUNCING_IP, node_ip=event.ip)
            frame = Frame(MessageType.SEND_IP, wire.encode_sendip(state.node_id, event.ip))
            return state, [frame, SetTimer(0.0)]
        if isinstance(event, TimerFired):
            frame = Frame(MessageType.REQ_IP, wire.encode_reqip(state.node_id))
            return state, [frame, SetTimer(IP_RETRY_S)]

    elif phase is NodePhase.ANNOUNCING_IP:
        if isinstance(event, TimerFired):
            state = replace(state, phase=NodePhase.AWAITING_SERVER_IP)
            return state, [SetTimer(ANNOUNCE_S)]
        if isinstance(event, ServerIpReceived):
            # Reply raced the announce timer; remember it, transition on the timer.
            return replace(state, server_ip=event.ip), []

    elif phase is NodePhase.AWAITING_SERVER_IP:
        if isinstance(event, ServerIpReceived):
            return _reqconn_actions(replace(state, server_ip=event.ip))
        if isinstance(event, TimerFired):
            if state.server_ip is not None:
                return _reqconn_actions(state)
            frame = Frame(MessageType.SEND_IP, wire.encode_sendip(state.node_id, state.node_ip or "0.0.0.0"))
            return state, [frame, SetTimer(ANNOUNCE_S)]

    elif phase is NodePhase.CONNECTING:
        if isinstance(event, ConnAckReceived):
            if event.nonce != state.conn_nonce:
                return state, [LogWarning(f"stale CONN_ACK nonce {event.nonce}")]
            state = replace(state, phase=NodePhase.STREAMING, session_id=event.session_id, attempt=0)
            actions: list[Action] = [_senddata_frame(state, b) for b in state.pending]
            actions.append(SetTimer(RETRANSMIT_S if state.pending else HEARTBEAT_S))
            return state, actions
        if isinstance(event, (TimerFired, LinkDown)):
            return _enter_backoff(state)

    elif phase is NodePhase.STREAMING:
        if isinstance(event, TimerFired):
            if state.pending:
                actions = [_senddata_frame(state, b) for b in state.pending]
                actions.append(SetTimer(RETRANSMIT_S))
                return state, actions
            return state, [Frame(MessageType.HEARTBEAT), SetTimer(HEARTBEAT_S)]
        if isinstance(event, LinkDown):
            return _enter_backoff(replace(state, attempt=0))
        if isinstance(event, ConnAckReceived):
            return state, [LogWarning("duplicate CONN_ACK while streaming")]

    elif phase is NodePhase.BACKOFF:
        if isinstance(event, TimerFired):
            # A server that restarted has forgotten the announce and refuses
            # bare connection requests, so every third stalled attempt
            # repeats the announce sequence (regressing no further back
            # than AWAITING_SERVER_IP).
            if state.attempt >= 3 and state.attempt % 3 == 0 and state.node_ip is not None:
                state = replace(state, phase=NodePhase.AWAITING_SERVER_IP)
                frame = Frame(MessageType.SEND_IP, wire.encode_sendip(state.node_id, state.node_ip))
                return state, [frame, SetTimer(ANNOUNCE_S)]
            return _reqconn_actions(state)

    return state, [LogWarning(f"ignoring {describe(event)} in {phase.value}")]


@dataclass(slots=True)
class NodeDriver:
    """Runs the node machine for a transport, through two of its callbacks:
    ``send(Frame) -> bool`` (False: the link failed) and ``set_timer(delay)``,
    which replaces any pending timer. Timers and warnings are applied before
    any send, so a failed send maps to one ``LinkDown`` that no later
    ``SetTimer`` of the step overrides. ``observe(state, event, actions)``
    sees each step; ``step`` lets a caller pass in its own name for ``node_step``.
    """

    state: NodeState
    send: Callable[[Frame], bool]
    set_timer: Callable[[float], None]
    observe: Callable | None = None
    step: Callable = node_step

    def feed(self, event: NodeEvent) -> None:
        state, actions = self.step(self.state, event)
        self.state = state
        if self.observe is not None:
            self.observe(state, event, actions)
        sends = []
        for action in actions:
            if isinstance(action, Frame):
                sends.append(action)
            elif isinstance(action, SetTimer):
                self.set_timer(action.delay)
            elif isinstance(action, LogWarning):
                logger.warning(action.message)
        for frame in sends:
            if not self.send(frame):
                self.feed(LinkDown())
                break

    def receive(self, frame: Frame) -> None:
        """Feed the event that a frame from the station carries. A frame of
        another type, or with a malformed payload, is logged and dropped."""
        try:
            event = node_event_for(frame)
        except wire.PayloadError as exc:
            logger.warning("dropping bad frame: %s", exc)
            return
        if event is None:
            logger.warning("node received unexpected %s", frame.msg_type.name)
            return
        self.feed(event)


# ---------------------------------------------------------------------------
# Server state machine
# ---------------------------------------------------------------------------


class ServerPhase(Enum):
    AWAITING_ANNOUNCE = "AwaitingAnnounce"
    KNOWN_CLIENT = "KnownClient"
    CONNECTED = "Connected"


@dataclass(slots=True)
class ServerSessionState:
    """Per-node view held by the base station."""

    node_id: int
    phase: ServerPhase = ServerPhase.AWAITING_ANNOUNCE
    client_ip: str | None = None
    session_id: int | None = None


def server_step(state: ServerSessionState, event: ServerEvent) -> tuple[ServerSessionState, list[Action]]:
    """Advance the server-side machine for one node by one event.

    A SEND_DATA whose session id does not match the live session is a
    protocol violation: nothing is acked, a warning is logged.
    """
    phase = state.phase

    if isinstance(event, AnnounceReceived):
        # A re-announce replaces the client's address regardless of phase.
        state = replace(state, client_ip=event.ip)
        if phase is ServerPhase.AWAITING_ANNOUNCE:
            state = replace(state, phase=ServerPhase.KNOWN_CLIENT)
        return state, [Frame(MessageType.SERVER_IP, wire.encode_serverip(SERVER_IP))]

    if isinstance(event, ReqConnReceived):
        if phase is ServerPhase.AWAITING_ANNOUNCE:
            return state, [LogWarning(f"REQ_CONN from unannounced node {event.node_id}")]
        state = replace(state, phase=ServerPhase.CONNECTED, session_id=event.session_id)
        return state, [Frame(MessageType.CONN_ACK, wire.encode_connack(event.session_id, event.nonce))]

    if isinstance(event, SendDataReceived):
        if phase is not ServerPhase.CONNECTED:
            return state, [LogWarning(f"SEND_DATA outside a session from node {state.node_id}")]
        if event.payload.session_id != state.session_id:
            return state, [LogWarning(
                f"SEND_DATA with stale session {event.payload.session_id} "
                f"(live {state.session_id}) from node {state.node_id}"
            )]
        ack = Frame(MessageType.DATA_ACK, wire.encode_dataack(event.payload.seq))
        # Ingest precedes the ack so an acknowledged batch is always durable.
        return state, [ForwardToIngest(event.payload), ack]

    if isinstance(event, LinkDown):
        if phase is ServerPhase.CONNECTED:
            return replace(state, phase=ServerPhase.KNOWN_CLIENT, session_id=None), []
        return state, []

    return state, [LogWarning(f"ignoring {describe(event)} in {phase.value}")]


# ---------------------------------------------------------------------------
# Lossy link simulator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinkConfig:
    """Behaviour of the simulated radio link."""

    drop_probability: float = 0.0
    disconnect_probability_per_frame: float = 0.0
    latency_ms: float = 50.0
    bandwidth_bps: int = 115200  # GPRS-class uplink

    def __post_init__(self) -> None:
        for name in ("drop_probability", "disconnect_probability_per_frame"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be within [0, 1], got {p}")
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        if not 0 <= self.latency_ms < math.inf:
            raise ValueError(f"latency_ms must be finite and >= 0, got {self.latency_ms}")


class LossyLink:
    """Deterministic seeded frame-level loss, latency and serialization model.

    Per frame, in order: a sever draw (connection breaks, link goes down
    until ``reconnect``), then a drop draw, then queueing behind earlier
    frames in the same direction at the configured bandwidth. With a fixed
    ``seed`` the link gives an identical delivery trace for an identical
    sequence of deliver calls.
    """

    def __init__(self, cfg: LinkConfig, seed: int = 0):
        self.cfg = cfg
        self._rng = Random(seed)
        self.up = True
        self._busy_until: dict[str, float] = {}
        self.frames_offered = 0
        self.frames_dropped = 0
        self.severs = 0

    def deliver(self, frame_bytes: bytes, now: float, direction: str = "up") -> float | None:
        """Arrival time of one frame sent at ``now``, or None if it is lost.

        A frame is lost when dropped or when the link is down; ``up`` then
        tells the two apart.
        """
        self.frames_offered += 1
        if not self.up:
            return None
        if self._rng.random() < self.cfg.disconnect_probability_per_frame:
            self.sever()
            return None
        if self._rng.random() < self.cfg.drop_probability:
            self.frames_dropped += 1
            return None
        start = max(now, self._busy_until.get(direction, 0.0))
        tx_time = len(frame_bytes) * 8 / self.cfg.bandwidth_bps
        self._busy_until[direction] = start + tx_time
        return start + tx_time + self.cfg.latency_ms / 1000.0

    def sever(self) -> None:
        """Break the connection; frames are refused until ``reconnect``."""
        if self.up:
            self.up = False
            self.severs += 1

    def reconnect(self) -> None:
        self.up = True


# ---------------------------------------------------------------------------
# Trace log
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class TraceRecord:
    ts: float
    side: str
    node_id: int
    state: str
    event: str
    action: str

    def line(self) -> str:
        return f"{self.ts:.3f},{self.side},{self.node_id},{self.state},{self.event},{self.action}"


class TraceLog:
    """One record per (event, action) pair stepped through a state machine."""

    def __init__(self) -> None:
        self.records: list[TraceRecord] = []

    def record(self, ts: float, side: str, node_id: int, state: str, event, actions) -> None:
        labels = [describe(a) for a in actions] or ["-"]
        for label in labels:
            self.records.append(TraceRecord(ts, side, node_id, state, describe(event), label))

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("ts,side,node_id,state,event,action\n")
            for rec in self.records:
                fh.write(rec.line() + "\n")
