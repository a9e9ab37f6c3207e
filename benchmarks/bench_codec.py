#!/usr/bin/env python3
"""Benchmark the CRC, the frame codec and the stream splitter.

Usage: python benchmarks/bench_codec.py [--seconds 0.5]
"""

import argparse
import random
import time

from slopewatch.wire import Frame, FrameSplitter, MessageType, crc16, decode_frame, encode_frame


def throughput(fn, payload: bytes, seconds: float) -> float:
    """Bytes per second of CRC input processed."""
    # warm up
    fn(payload)
    n = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        fn(payload)
        n += 1
    elapsed = time.perf_counter() - start
    return n * len(payload) / elapsed


def frames_per_second(frames: list[bytes], seconds: float) -> float:
    for raw in frames[:10]:
        decode_frame(raw)
    n = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        decode_frame(frames[n % len(frames)])
        n += 1
    return n / (time.perf_counter() - start)


def split_frames_per_second(stream: bytes, frames: int, chunk: int, seconds: float) -> float:
    """Frames per second cut by ``FrameSplitter.feed`` from ``stream`` in ``chunk``-byte pieces."""
    chunks = [stream[i : i + chunk] for i in range(0, len(stream), chunk)]
    n = 0
    start = time.perf_counter()
    while True:
        splitter = FrameSplitter()
        got = sum(len(splitter.feed(piece)) for piece in chunks)
        assert got == frames, got
        n += got
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return n / elapsed


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seconds", type=float, default=0.5, help="time budget per measurement")
    args = parser.parse_args()

    rng = random.Random(1)
    print(f"{'payload':>8}  {'crc16':>14}")
    for size in (64, 1024, 65535):
        rate = throughput(crc16, rng.randbytes(size), args.seconds)
        print(f"{size:>7}B  {rate / 1e6:>9.1f} MB/s")

    frames = [
        encode_frame(Frame(MessageType.SEND_DATA, rng.randbytes(rng.randrange(10, 60))))
        for _ in range(256)
    ]
    print(f"\nframe decode: {frames_per_second(frames, args.seconds):,.0f} frames/s")

    stream = b"".join(
        encode_frame(Frame(MessageType.SEND_DATA, rng.randbytes(rng.randrange(10, 60))))
        for _ in range(1000)
    )
    print(f"\n{'chunk':>8}  {'split':>14}  (1,000 SEND_DATA frames through FrameSplitter.feed)")
    for chunk in (1, 64, 4096):
        rate = split_frames_per_second(stream, 1000, chunk, args.seconds)
        print(f"{chunk:>7}B  {rate:>8,.0f} frames/s")


if __name__ == "__main__":
    main()
