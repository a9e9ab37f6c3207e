"""End-to-end replay: scenario node + lossy link + base station on one clock.

A discrete-event loop owns simulated time; the node and server machines
are stepped purely and all I/O between them flows through the seeded
LossyLink (data channel) or a lossless control path. With a fixed seed the
whole run, including the summary, is reproducible bit for bit.
"""

from __future__ import annotations

import heapq
import logging
from dataclasses import dataclass, field

from slopewatch import wire
from slopewatch.analytics import segment_events
from slopewatch.config import Config, build_sinks
from slopewatch.domain import SensorKind
from slopewatch.nodesim import Scenario, ScenarioPlayer
from slopewatch.session import (
    LinkDown,
    LossyLink,
    MessageType,
    NodeDriver,
    NodePhase,
    NodeState,
    ReadingsAvailable,
    TimerFired,
    TraceLog,
    node_step,
)
from slopewatch.station import ServerEngine

logger = logging.getLogger(__name__)

# 2010-04-02 00:00 UTC, the onset of the seven-day-rain storm fixture.
START_TS = 1270166400

CONTROL_LATENCY_S = 0.01


@dataclass
class ReplaySummary:
    scenario: str
    seed: int
    sim_duration_s: float = 0.0
    readings_generated: int = 0
    records_stored: int = 0
    batches_ingested: int = 0
    duplicates_skipped: int = 0
    frames_offered: int = 0
    frames_dropped: int = 0
    severs: int = 0
    reconnect_attempts: int = 0
    recoveries: int = 0
    rain_events: int = 0
    alert_timeline: list[tuple[float, str]] = field(default_factory=list)

    def format(self) -> str:
        lines = [
            f"scenario            {self.scenario}",
            f"seed                {self.seed}",
            f"sim duration        {self.sim_duration_s:.0f} s",
            f"readings generated  {self.readings_generated}",
            f"records stored      {self.records_stored}",
            f"batches ingested    {self.batches_ingested}",
            f"duplicates skipped  {self.duplicates_skipped}",
            f"frames offered      {self.frames_offered}",
            f"frames dropped      {self.frames_dropped}",
            f"link severs         {self.severs}",
            f"reconnect attempts  {self.reconnect_attempts}",
            f"recoveries          {self.recoveries}",
            f"rain events         {self.rain_events}",
            "alert timeline:",
        ]
        for ts, level in self.alert_timeline:
            lines.append(f"  t+{ts:>10.0f}s  {level}")
        return "\n".join(lines)


class SimReplay:
    """Drives one node, one link and one server to scenario completion."""

    def __init__(
        self,
        scenario: Scenario,
        config: Config,
        store_dir: str,
        *,
        seed: int = 0,
        node_id: int = 1,
        force_disconnect_at: tuple[float, ...] = (),
        server_restart_at: float | None = None,
        sinks: list | None = None,
        trace: TraceLog | None = None,
    ):
        self.scenario = scenario
        self.config = config
        self.store_dir = store_dir
        self.seed = seed
        # Records go to a trace only when the caller passes one; sim.trace is
        # that log, or else an empty one that stays empty.
        self._trace = trace
        self.trace = trace if trace is not None else TraceLog()
        self.now = float(START_TS)
        self._queue: list[tuple[float, int, object]] = []
        self._counter = 0

        self.link = LossyLink(config.link, seed)
        self.player = ScenarioPlayer(scenario, start_ts=START_TS)
        # Stepped through this module's ``node_step``, so that a wrapper
        # installed here sees every node step.
        self.driver = NodeDriver(NodeState(node_id=node_id), send=self._transmit_from_node,
                                 set_timer=self._set_node_timer, observe=self._observe_node, step=node_step)
        self._node_timer_gen = 0
        self._node_phase: NodePhase | None = None
        self._saw_backoff = False
        self.reconnect_attempts = 0
        self.recoveries = 0

        self._sinks = sinks if sinks is not None else build_sinks(config, store_dir)
        self.server = self._make_server()

        self.force_disconnect_at = force_disconnect_at
        self.server_restart_at = server_restart_at

    @property
    def node(self) -> NodeState:
        """The node's current state."""
        return self.driver.state

    def _make_server(self) -> ServerEngine:
        observe = self._observe_server if self._trace is not None else None
        return ServerEngine.open(self.config, self.store_dir, self._sinks, observe=observe)

    # -- event queue -------------------------------------------------------------

    def _schedule(self, at: float, fn) -> None:
        self._counter += 1
        heapq.heappush(self._queue, (at, self._counter, fn))

    # -- node plumbing -------------------------------------------------------------

    def _observe_node(self, state: NodeState, event, actions) -> None:
        if self._trace is not None:
            self._trace.record(self.now, "node", state.node_id, state.phase.value, event, actions)
        self._observe_phase(state.phase)

    def _observe_phase(self, phase: NodePhase) -> None:
        """Count phase changes: a reconnect attempt is Backoff -> Connecting,
        a recovery is the first Streaming after any Backoff."""
        if phase is self._node_phase:
            return
        if self._node_phase is NodePhase.BACKOFF and phase is NodePhase.CONNECTING:
            self.reconnect_attempts += 1
        if phase is NodePhase.BACKOFF:
            self._saw_backoff = True
        elif phase is NodePhase.STREAMING and self._saw_backoff:
            self.recoveries += 1
            self._saw_backoff = False
        self._node_phase = phase

    def _set_node_timer(self, delay: float) -> None:
        self._node_timer_gen += 1
        gen = self._node_timer_gen
        self._schedule(self.now + delay, lambda: self._node_timer_fired(gen))

    def _node_timer_fired(self, gen: int) -> None:
        if gen == self._node_timer_gen:  # stale timers were replaced
            self.driver.feed(TimerFired())

    def _transmit_from_node(self, frame: wire.Frame) -> bool:
        """Always True: ``_link_down`` reports a severed link to both ends, on the event queue."""
        # A fresh connection attempt re-establishes the severed carrier.
        if frame.msg_type is MessageType.REQ_CONN and not self.link.up:
            self.link.reconnect()
        self._carry(frame, "up", lambda f: self._dispatch_outbound(self.server.handle_frame(f)))
        return True

    def _carry(self, frame: wire.Frame, direction: str, receive) -> None:
        """Put a frame's bytes on its channel; ``receive(frame)`` runs when they arrive."""
        raw = wire.encode_frame(frame)
        if frame.msg_type in wire.CONTROL_TYPES:
            at = self.now + CONTROL_LATENCY_S
        else:
            at = self.link.deliver(raw, self.now, direction)
            if not self.link.up:
                self._link_down()
            if at is None:
                return
        self._schedule(at, lambda: receive(wire.decode_frame(raw)))

    def _link_down(self) -> None:
        self.link.sever()
        node_id = self.node.node_id
        self._schedule(self.now, lambda: self.driver.feed(LinkDown()))
        self._schedule(self.now, lambda: self._dispatch_outbound(self.server.handle_link_down(node_id)))

    # -- server plumbing ---------------------------------------------------------

    def _observe_server(self, node_id: int, state, event, actions) -> None:
        self._trace.record(self.now, "server", node_id, state.phase.value, event, actions)

    def _dispatch_outbound(self, outbound: list[wire.Frame]) -> None:
        for frame in outbound:
            self._carry(frame, "down", self.driver.receive)

    # -- scenario sampling ---------------------------------------------------------

    def _sample_tick(self) -> None:
        for batch in self.player.emit_readings(self.now):
            self.driver.feed(ReadingsAvailable(batch))
        # Only the tick that emits the next step is queued. Counter 0 puts a
        # tick before every other event at its time; only one is ever queued.
        at = self.player.next_tick
        if at is not None:
            heapq.heappush(self._queue, (at, 0, self._sample_tick))

    def _restart_server(self) -> None:
        """Kill-and-restart: in-memory state is lost, the store is reloaded."""
        carry = (self.server.batches_ingested, self.server.records_stored,
                 self.server.duplicates_skipped)
        self.server.repo.close()
        self.link.sever()
        self.driver.feed(LinkDown())
        self.server = self._make_server()
        (self.server.batches_ingested, self.server.records_stored,
         self.server.duplicates_skipped) = carry

    # -- main loop -------------------------------------------------------------------

    def run(self) -> ReplaySummary:
        end_ts = START_TS + self.scenario.duration
        heapq.heappush(self._queue, (float(START_TS), 0, self._sample_tick))
        for offset in self.force_disconnect_at:
            self._schedule(START_TS + offset, self._link_down)
        if self.server_restart_at is not None:
            self._schedule(START_TS + self.server_restart_at, self._restart_server)
        self._set_node_timer(0.0)  # boot

        deadline = end_ts + 30 * 86400.0  # hard stop against pathological configs
        try:
            while self._queue:
                at, _, fn = heapq.heappop(self._queue)
                if at > deadline:
                    logger.error("replay aborted at safety deadline")
                    break
                self.now = max(self.now, at)
                fn()
                if self.now >= end_ts and self.player.exhausted and not self.driver.state.pending:
                    break
        finally:
            self.server.repo.close()
        return self._summary()

    def _summary(self) -> ReplaySummary:
        timeline = [(0.0, "GREEN")] + [
            (ts - START_TS, level.name) for ts, level in self.server.alert_engine.timeline
        ]
        rain = self.server.repo.series(SensorKind.RAIN_GAUGE)
        rain_events = (
            len(segment_events(rain, self.config.analysis.dry_gap_h * 3600.0)) if rain else 0
        )
        return ReplaySummary(
            scenario=self.scenario.name,
            seed=self.seed,
            sim_duration_s=self.now - START_TS,
            readings_generated=self.player.emitted,
            records_stored=self.server.records_stored,
            batches_ingested=self.server.batches_ingested,
            duplicates_skipped=self.server.duplicates_skipped,
            frames_offered=self.link.frames_offered,
            frames_dropped=self.link.frames_dropped,
            severs=self.link.severs,
            reconnect_attempts=self.reconnect_attempts,
            recoveries=self.recoveries,
            rain_events=rain_events,
            alert_timeline=timeline,
        )

