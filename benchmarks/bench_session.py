#!/usr/bin/env python3
"""Benchmark the session step functions and the value objects they build.

Usage: python benchmarks/bench_session.py [--calls 20000] [--rounds 5]

Prints µs per call, best of ``--rounds`` rounds of ``--calls`` calls each,
for:

* ``node_step`` on ``ReadingsAvailable``: a five-sensor batch while
  STREAMING, so the batch is queued and sent as SEND_DATA;
* ``node_step`` on ``DataAckReceived``: the ack of the one pending batch;
* ``node_step`` on ``TimerFired``: STREAMING with nothing pending, so a
  heartbeat;
* ``server_step`` on ``SendDataReceived``: a five-reading batch in the live
  session, so ``ForwardToIngest`` and a DATA_ACK;
* the construction of a ``Frame`` (also what a state machine returns to
  send one) and a ``NodeState``.

Every call starts from the same state, as the step functions are pure.
Each figure includes the call of a lambda, about 0.05 µs.
"""

import argparse
import time

from slopewatch.domain import SensorKind
from slopewatch.session import (
    DataAckReceived,
    NodePhase,
    NodeState,
    PendingBatch,
    ReadingsAvailable,
    SendDataReceived,
    ServerPhase,
    ServerSessionState,
    TimerFired,
    node_step,
    server_step,
)
from slopewatch.wire import Frame, MessageType, SendDataPayload, encode_dataack

T0 = 1_700_000_000


def best_us(fn, calls: int, rounds: int) -> float:
    """Best per-call time in µs over ``rounds`` rounds of ``calls`` calls."""
    for _ in range(10):
        fn()
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - start)
    return best / calls * 1e6


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--calls", type=int, default=20000, help="calls per round")
    parser.add_argument("--rounds", type=int, default=5, help="rounds; the best is printed")
    args = parser.parse_args()

    readings = tuple((kind.code, 10 * i) for i, kind in enumerate(SensorKind))
    batch = PendingBatch(100, T0, readings)
    streaming = NodeState(
        node_id=1, phase=NodePhase.STREAMING, node_ip="10.0.0.2", server_ip="10.0.0.1",
        session_id=7, conn_nonce=1,
    )
    awaiting_ack = NodeState(
        node_id=1, phase=NodePhase.STREAMING, node_ip="10.0.0.2", server_ip="10.0.0.1",
        session_id=7, conn_nonce=1, pending=(batch,),
    )
    connected = ServerSessionState(
        node_id=1, phase=ServerPhase.CONNECTED, client_ip="10.0.0.2", session_id=7
    )
    available, ack, timer = ReadingsAvailable(batch), DataAckReceived(100), TimerFired()
    received = SendDataReceived(SendDataPayload(7, 100, T0, readings))
    ack_payload = encode_dataack(100)

    cases = [
        ("node_step ReadingsAvailable", lambda: node_step(streaming, available)),
        ("node_step DataAckReceived", lambda: node_step(awaiting_ack, ack)),
        ("node_step TimerFired (heartbeat)", lambda: node_step(streaming, timer)),
        ("server_step SendDataReceived", lambda: server_step(connected, received)),
        ("Frame(...)", lambda: Frame(MessageType.DATA_ACK, ack_payload)),
        ("NodeState(...)", lambda: NodeState(1, NodePhase.STREAMING, "10.0.0.2", "10.0.0.1", 7, 1)),
    ]
    print(f"best of {args.rounds} x {args.calls} calls")
    for name, fn in cases:
        print(f"{name:<34} {best_us(fn, args.calls, args.rounds):>8.2f} µs")


if __name__ == "__main__":
    main()
