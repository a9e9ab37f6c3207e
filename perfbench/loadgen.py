"""The tcp_station node: handshake, then open-loop SEND_DATA batches at a fixed rate.

Built on public ``slopewatch.wire`` encoders only. One node id per
connection; the benchmark process is single-threaded and holds at most
one connection at a time.
"""

from __future__ import annotations

import random
import select
import socket
import time

from slopewatch import wire
from slopewatch.domain import SensorKind

from tracer import percentile

perf = time.perf_counter

SENSORS = (SensorKind.RAIN_GAUGE, SensorKind.PIEZOMETER, SensorKind.EXTENSOMETER,
           SensorKind.INCLINOMETER, SensorKind.TILTMETER)
# Raw ranges whose calibrated values stay below every demo threshold.
RAW_RANGE = {
    SensorKind.RAIN_GAUGE: (0, 2),
    SensorKind.PIEZOMETER: (1900, 2100),
    SensorKind.EXTENSOMETER: (40, 60),
    SensorKind.INCLINOMETER: (180, 220),
    SensorKind.TILTMETER: (140, 160),
}
START_TS = 1270166400
HOUR = 3600
ACK_GRACE_S = 20.0  # a batch not acked this long after the rung's last send counts as lost


class NodeLink:
    """One node's TCP connection to the station."""

    def __init__(self, addr: tuple[str, int], node_id: int):
        self.node_id = node_id
        self.sock = socket.create_connection(addr, timeout=10.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buf = b""
        self.session_id = 0

    def close(self) -> None:
        self.sock.close()

    def _send(self, msg_type, payload: bytes) -> None:
        self.sock.sendall(wire.encode_frame(wire.Frame(msg_type, payload)))

    def frames(self, data: bytes) -> list:
        """Split received bytes into frames (header carries the payload length)."""
        self._buf += data
        out = []
        while len(self._buf) >= wire.HEADER_LEN:
            total = wire.HEADER_LEN + int.from_bytes(self._buf[4:6], "big") + wire.TRAILER_LEN
            if len(self._buf) < total:
                break
            out.append(wire.decode_frame(self._buf[:total]))
            self._buf = self._buf[total:]
        return out

    def _expect(self, msg_type):
        while True:
            data = self.sock.recv(65536)
            if not data:
                raise ConnectionError(f"station closed the connection awaiting {msg_type.name}")
            for frame in self.frames(data):
                if frame.msg_type is msg_type:
                    return frame

    def handshake(self) -> None:
        """REQ_IP -> IP_ASSIGN, SEND_IP -> SERVER_IP, REQ_CONN -> CONN_ACK."""
        mt = wire.MessageType
        self._send(mt.REQ_IP, wire.encode_reqip(self.node_id))
        ip = wire.decode_ipassign(self._expect(mt.IP_ASSIGN).payload)
        self._send(mt.SEND_IP, wire.encode_sendip(self.node_id, ip))
        self._expect(mt.SERVER_IP)
        self._send(mt.REQ_CONN, wire.encode_reqconn(self.node_id, 1))
        self.session_id, _ = wire.decode_connack(self._expect(mt.CONN_ACK).payload)

    def encode_batches(self, n: int, rng: random.Random, first_hour: int) -> list[tuple[int, bytes]]:
        """n five-reading batches as (first seq, frame bytes), one hour apart."""
        out = []
        for k in range(n):
            seq = 1 + len(SENSORS) * k
            readings = tuple((s.code, rng.randint(*RAW_RANGE[s])) for s in SENSORS)
            payload = wire.SendDataPayload(self.session_id, seq, START_TS + HOUR * (first_hour + k), readings)
            out.append((seq, wire.encode_frame(wire.Frame(wire.MessageType.SEND_DATA,
                                                         wire.encode_senddata(payload)))))
        return out


def run_rate(link: NodeLink, batches: list[tuple[int, bytes]], rate: float, limit_ms: float) -> dict:
    """Send ``batches`` open loop at ``rate`` per second; time each from when it was due."""
    n = len(batches)
    t0 = perf() + 0.005
    due = [t0 + k / rate for k in range(n)]
    sent = [0.0] * n
    index = {seq: k for k, (seq, _) in enumerate(batches)}
    acked_at: dict[int, float] = {}
    late = 0.0
    k = 0
    deadline = due[-1] + ACK_GRACE_S
    sock = link.sock
    while len(acked_at) < n:
        now = perf()
        while k < n and due[k] <= now:
            sock.sendall(batches[k][1])
            sent[k] = perf()
            late = max(late, sent[k] - due[k])
            k += 1
        if now > deadline:
            break
        wait = (due[k] - perf()) if k < n else deadline - now
        readable, _, _ = select.select([sock], [], [], max(wait, 0.0))
        if not readable:
            continue
        data = sock.recv(65536)
        t_ack = perf()
        if not data:
            break
        for frame in link.frames(data):
            if frame.msg_type is wire.MessageType.DATA_ACK:
                j = index.get(wire.decode_dataack(frame.payload))
                if j is not None:
                    acked_at.setdefault(j, t_ack)
    lat = sorted((acked_at[j] - due[j]) * 1e3 for j in acked_at)
    tail = sorted((acked_at[j] - due[j]) * 1e3 for j in acked_at if j >= n - max(1, n // 10))
    p99 = percentile(lat, 99)
    passed = len(acked_at) == n and p99 <= limit_ms and percentile(tail, 50) <= limit_ms
    last_ack = max(acked_at.values(), default=t0)
    return {
        "rate": rate,
        "batches": n,
        "acked": len(acked_at),
        "ack_ms_p50": percentile(lat, 50),
        "ack_ms_p99": p99,
        "tail_ms_p50": percentile(tail, 50),
        "late_ms_max": late * 1e3,
        "achieved_bps": len(acked_at) / max(last_ack - t0, 1e-9),
        "passed": passed,
        # send -> ack per batch, joined with the station's engine time on (node_id, seq)
        "rtt_ms": {f"{link.node_id}:{batches[j][0]}": (acked_at[j] - sent[j]) * 1e3 for j in acked_at},
        "sent_seqs": [seq for seq, _ in batches[:k]],
    }
