"""Real-socket binding of the protocol: TCP server and node runner.

Frames are byte-identical to the simulated link; both channels share the
TCP stream, whose reliability stands in for the lossless control path.
The node runner paces the scenario against the wall clock divided by a
speedup factor, so multi-day storms can stream in seconds.
"""

from __future__ import annotations

import logging
import signal
import socket
import socketserver
import threading
import time

from slopewatch import wire
from slopewatch.config import Config, ConfigError, build_sinks
from slopewatch.nodesim import Scenario, ScenarioPlayer, group_batches
from slopewatch.session import (
    LinkDown,
    NodeDriver,
    NodeState,
    ReadingsAvailable,
    SendFrame,
    SessionTiming,
    TimerFired,
)
from slopewatch.station import ServerEngine

logger = logging.getLogger(__name__)

# Wall-clock pacing: protocol timers stay snappy relative to sim time.
NODE_TIMING = SessionTiming(
    ip_retry=2.0, announce_timeout=2.0, connect_timeout=5.0,
    retransmit_interval=5.0, heartbeat_interval=30.0,
)


def parse_address(text: str, *, listening: bool) -> tuple[str, int]:
    """``host:port`` as a (host, port) pair; the host defaults to 127.0.0.1.

    A station may listen on port 0 (any free port), also by leaving the port
    out; a node must connect to a port from 1 to 65535. Raises ConfigError.
    """
    host, _, port_s = text.partition(":")
    if listening and not port_s:
        port_s = "0"
    lowest = 0 if listening else 1
    if not (port_s.isascii() and port_s.isdigit() and lowest <= int(port_s) <= 65535):
        raise ConfigError(f"bad address {text!r}: expected host:port, the port from {lowest} to 65535")
    return host or "127.0.0.1", int(port_s)


class StationServer(socketserver.ThreadingTCPServer):
    """One engine shared by all client connections, guarded by a lock."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr: tuple[str, int], config: Config, store_dir: str):
        super().__init__(addr, _StationHandler)  # bound before the store is opened
        try:
            self.engine = ServerEngine.open(config, store_dir, build_sinks(config, store_dir))
        except BaseException:
            self.server_close()
            raise
        self.engine_lock = threading.Lock()

    def close_store(self) -> None:
        with self.engine_lock:
            self.engine.repo.close()


class _StationHandler(socketserver.StreamRequestHandler):
    # Acks are small and go out at once: waiting to coalesce them with the
    # next segment (Nagle) only delays the node's next batch.
    disable_nagle_algorithm = True

    def handle(self) -> None:
        server: StationServer = self.server  # type: ignore[assignment]
        peer: tuple[int, int] | None = None  # (node id, session id) of the CONN_ACK sent
        splitter = wire.FrameSplitter()
        try:
            while True:
                try:
                    frame = wire.read_frame(self.rfile, splitter)
                except (wire.FrameError, ConnectionError, OSError):
                    break
                if frame is None:
                    break
                if isinstance(frame, wire.FrameError):
                    logger.warning("dropping bad frame from %s: %s", self.client_address, frame)
                    continue
                now = time.time()
                with server.engine_lock:
                    out = server.engine.handle_frame(frame, now)
                if not out:
                    continue
                if frame.msg_type is wire.MessageType.REQ_CONN:
                    peer = out[0].to_node, wire.decode_connack(out[0].frame.payload)[0]
                try:
                    # One write per handled frame, so its replies leave in one segment.
                    self.wfile.write(b"".join(wire.encode_frame(send.frame) for send in out))
                except (ConnectionError, OSError):
                    break
        finally:
            # Also when the engine raised: the node's session must not stay CONNECTED.
            # A session a newer connection took over is left to that connection.
            if peer is not None:
                with server.engine_lock:
                    server.engine.handle_link_down(peer[0], time.time(), session_id=peer[1])


def run_station(config: Config, listen: str, store_dir: str) -> int:
    """Serve until interrupted; flush the store on the way out."""
    addr = parse_address(listen, listening=True)
    try:
        server = StationServer(addr, config, store_dir)
    except OSError as exc:
        logger.error("cannot bind %s: %s", listen, exc)
        return 1
    host, port = server.server_address[:2]
    restore_signals = _stop_on_signals()
    try:
        print(f"listening on {host}:{port}", flush=True)
        server.serve_forever(poll_interval=0.2)
    except KeyboardInterrupt:
        pass
    finally:
        server.close_store()
        server.server_close()
        print("store flushed, bye", flush=True)
        restore_signals()
    return 0


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def _stop_on_signals():
    """Make SIGTERM and SIGINT raise KeyboardInterrupt, when in the main thread.

    SIGINT gets Python's default handler back, because a process started in
    the background by a non-interactive shell inherits it as ignored.
    Returns a function that puts the previous handlers back.
    """
    if threading.current_thread() is not threading.main_thread():
        return lambda: None
    saved = {sig: signal.getsignal(sig) for sig in (signal.SIGINT, signal.SIGTERM)}
    signal.signal(signal.SIGINT, signal.default_int_handler)
    signal.signal(signal.SIGTERM, _interrupt)

    def restore() -> None:
        for sig, handler in saved.items():
            if handler is not None:  # None: set outside Python, cannot be put back
                signal.signal(sig, handler)

    return restore


class NodeRunner:
    """Streams one scenario to a station over TCP, reconnecting on failures."""

    def __init__(
        self,
        scenario: Scenario,
        node_id: int,
        connect: str,
        speedup: float = 3600.0,
    ):
        self.addr = parse_address(connect, listening=False)
        self.scenario = scenario
        self.speedup = max(speedup, 1e-9)
        self.start_wall = time.monotonic()
        self.start_ts = int(time.time())
        self.player = ScenarioPlayer(scenario, node_id=node_id, start_ts=self.start_ts)
        self.driver = NodeDriver(NodeState(node_id=node_id), NODE_TIMING, send=self._send,
                                 set_timer=self._set_timer)
        self.sock: socket.socket | None = None
        self._splitter = wire.FrameSplitter()
        self._timer_at: float | None = None

    # sim-time now: scenario seconds elapsed
    def _sim_now(self) -> float:
        return self.start_ts + (time.monotonic() - self.start_wall) * self.speedup

    def run(self) -> int:
        self._connect_socket()
        self.driver.feed(TimerFired(), self._sim_now())  # boot
        end_ts = self.start_ts + self.scenario.duration
        next_tick = float(self.start_ts)
        while not (self.player.exhausted and not self.driver.state.pending):
            now = self._sim_now()
            if now >= next_tick:
                for batch in group_batches(self.player.emit_readings(min(now, end_ts))):
                    self.driver.feed(ReadingsAvailable(batch), self._sim_now())
                next_tick += self.scenario.sample_interval
            if self._timer_at is not None and time.monotonic() >= self._timer_at:
                self._timer_at = None
                self.driver.feed(TimerFired(), self._sim_now())
            self._poll_socket()
        logger.info("scenario complete: %d readings emitted", self.player.emitted)
        if self.sock:
            self.sock.close()
        return 0

    def _connect_socket(self) -> None:
        if self.sock is not None:
            self.sock.close()
        self._splitter = wire.FrameSplitter()  # bytes left from the old connection are void
        try:
            self.sock = socket.create_connection(self.addr, timeout=5.0)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self.sock.settimeout(0.05)
        except OSError:
            self.sock = None

    def _set_timer(self, delay: float) -> None:
        # Protocol timers run on the wall clock, scaled like the scenario.
        self._timer_at = time.monotonic() + delay / self.speedup

    def _send(self, action: SendFrame) -> bool:
        if action.frame.msg_type is wire.MessageType.REQ_CONN:
            self._connect_socket()  # fresh connection attempt
        if self.sock is None:
            return False
        try:
            self.sock.sendall(wire.encode_frame(action.frame))
            return True
        except OSError:
            return False

    def _poll_socket(self) -> None:
        if self.sock is None:
            time.sleep(0.02)
            return
        try:
            data = self.sock.recv(4096)
        except socket.timeout:
            return
        except OSError:
            data = b""
        if not data:
            self.driver.feed(LinkDown(), self._sim_now())
            return
        for item in self._splitter.feed(data):
            if isinstance(item, wire.FrameError):
                logger.warning("dropping bad frame from %s: %s", self.addr, item)
            else:
                self.driver.receive(item, self._sim_now())
