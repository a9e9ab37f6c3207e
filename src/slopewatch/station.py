"""Base-station service engine: frames in, acks and alerts out.

Decodes protocol frames, drives the per-node server state machines,
allocates session ids, forwards batches to the repository and triggers one
alert evaluation per ingested batch. Each batch goes ingest -> judge ->
sync -> notify -> ack: its rows are written and judged, one flush makes
them durable, and only then are its notifications sent and its DATA_ACK
returned. Transport-agnostic: both the
discrete-event replay harness and the socket server start it with
``ServerEngine.open``, feed it frames through ``handle_frame`` and transmit
the reply frames it returns.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Callable

from slopewatch import wire
from slopewatch.alert import AlertEngine, Dispatcher
from slopewatch.config import Config
from slopewatch.domain import CalibrationConstants, SensorKind
from slopewatch.ingest import MissingConstantsError, Repository
from slopewatch.session import (
    AnnounceReceived,
    ForwardToIngest,
    LinkDown,
    LogWarning,
    ReqConnReceived,
    SendDataReceived,
    ServerSessionState,
    server_step,
)
from slopewatch.wire import Frame, MessageType

logger = logging.getLogger(__name__)


class ServerEngine:
    """One engine per base station; sessions are keyed by node id."""

    def __init__(
        self,
        repo: Repository,
        calibration: dict[SensorKind, CalibrationConstants],
        alert_engine: AlertEngine,
        dispatcher: Dispatcher,
        observe: Callable | None = None,
    ):
        self.repo = repo
        self.calibration = calibration
        self.alert_engine = alert_engine
        self.dispatcher = dispatcher
        # observe(node_id, state, event, actions) sees each step, before its actions run.
        self.observe = observe
        self.sessions: dict[int, ServerSessionState] = {}
        self._session_to_node: dict[int, int] = {}  # each node's latest accepted session
        self._next_session_id = 1
        self.batches_ingested = 0
        self.records_stored = 0
        self.duplicates_skipped = 0
        self.violations = 0

    @classmethod
    def open(cls, config: Config, store_dir: str | Path, sinks: list,
             observe: Callable | None = None) -> ServerEngine:
        """The engine over the store in ``store_dir``, alerting through ``sinks``."""
        alert_engine = AlertEngine(config.thresholds, config.analysis)
        return cls(Repository(store_dir), config.calibration, alert_engine, Dispatcher(sinks), observe=observe)

    # -- helpers ---------------------------------------------------------------

    def _state_of(self, node_id: int) -> ServerSessionState:
        if node_id not in self.sessions:
            self.sessions[node_id] = ServerSessionState(node_id=node_id)
        return self.sessions[node_id]

    def _decode(self, decode, frame: Frame):
        """``decode(frame.payload)``, or None for a malformed payload, which
        counts as a violation: the frame gets no reply, so nothing is acked."""
        try:
            return decode(frame.payload)
        except wire.PayloadError as exc:
            self.violations += 1
            logger.warning("malformed %s payload: %s", frame.msg_type.name, exc)
            return None

    def _step(self, node_id: int, event) -> list[Frame]:
        state = self._state_of(node_id)
        new_state, actions = server_step(state, event)
        self.sessions[node_id] = new_state
        if self.observe is not None:
            self.observe(node_id, new_state, event, actions)
        out: list[Frame] = []
        for action in actions:
            if isinstance(action, ForwardToIngest):
                try:
                    stored = self.repo.ingest_batch(action.payload, node_id, self.calibration)
                except MissingConstantsError as exc:
                    logger.error("batch rejected: %s", exc)
                    return out  # no ack for an unstored batch
                self.batches_ingested += 1
                self.records_stored += len(stored)
                self.duplicates_skipped += len(action.payload.readings) - len(stored)
                notes = self.alert_engine.evaluate_batch(stored)
                # Judged before the fsync; nothing leaves before it. The flush
                # also covers rows left unflushed by a batch whose judgement
                # raised, which got no ack.
                self.repo.flush()
                for note in notes:
                    self.dispatcher.dispatch(note)
            elif isinstance(action, Frame):
                out.append(action)
            elif isinstance(action, LogWarning):
                self.violations += 1
                logger.warning(action.message)
        return out

    # -- entry points ------------------------------------------------------------

    def synthetic_ip_for(self, node_id: int) -> str:
        return f"10.77.{(node_id >> 8) & 0xFF}.{node_id & 0xFF}"

    def handle_frame(self, frame: Frame) -> list[Frame]:
        """Any frame from a node; the replies go back to that node."""
        if frame.msg_type in wire.CONTROL_TYPES:
            return self.handle_control_frame(frame)
        return self.handle_data_frame(frame)

    def handle_control_frame(self, frame: Frame) -> list[Frame]:
        """Control-channel frames: IP acquisition and address announcements."""
        if frame.msg_type is MessageType.REQ_IP:
            # Stand-in for the carrier: assign a synthetic address.
            node_id = self._decode(wire.decode_reqip, frame)
            if node_id is None:
                return []
            return [Frame(MessageType.IP_ASSIGN, wire.encode_ipassign(self.synthetic_ip_for(node_id)))]
        if frame.msg_type is MessageType.SEND_IP:
            announced = self._decode(wire.decode_sendip, frame)
            if announced is None:
                return []
            node_id, ip = announced
            return self._step(node_id, AnnounceReceived(node_id, ip))
        logger.warning("unexpected %s on control channel", frame.msg_type.name)
        return []

    def handle_data_frame(self, frame: Frame) -> list[Frame]:
        """Data-channel frames: connection requests, batches, heartbeats."""
        if frame.msg_type is MessageType.REQ_CONN:
            request = self._decode(wire.decode_reqconn, frame)
            if request is None:
                return []
            node_id, nonce = request
            # Each request takes an id, also one the node's state refuses.
            sid = self._next_session_id
            self._next_session_id += 1
            out = self._step(node_id, ReqConnReceived(node_id, nonce, sid))
            if self.sessions[node_id].session_id == sid:
                # Accepted: it replaces the node's older session, whose late
                # frames are then from an unknown session.
                self._session_to_node = {s: n for s, n in self._session_to_node.items() if n != node_id}
                self._session_to_node[sid] = node_id
            return out
        if frame.msg_type is MessageType.SEND_DATA:
            payload = self._decode(wire.decode_senddata, frame)
            if payload is None:
                return []
            node_id = self._session_to_node.get(payload.session_id)
            if node_id is None:
                self.violations += 1
                logger.warning("SEND_DATA for unknown session %d", payload.session_id)
                return []
            return self._step(node_id, SendDataReceived(payload))
        if frame.msg_type is MessageType.HEARTBEAT:
            return []  # liveness only
        logger.warning("unexpected %s on data channel", frame.msg_type.name)
        return []

    def handle_link_down(self, node_id: int, session_id: int | None = None) -> list[Frame]:
        """The node's link is gone. With ``session_id``, only if that session
        is still the node's live one: an old connection closing must not end
        the session a newer connection holds."""
        state = self.sessions.get(node_id)
        if session_id is not None and (state is None or state.session_id != session_id):
            return []
        return self._step(node_id, LinkDown())
