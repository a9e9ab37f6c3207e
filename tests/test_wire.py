"""Frame and payload codec tests.

The CRC is checked two ways: frozen vectors computed with the bitwise
shift-register oracle below, and randomized agreement between the oracle
and ``wire.crc16``.
"""

import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from slopewatch import wire
from slopewatch.wire import (
    BadMagic,
    BadVersion,
    CrcMismatch,
    Frame,
    FrameError,
    FrameTooLarge,
    LengthMismatch,
    MessageType,
    PayloadError,
    SendDataPayload,
    UnknownType,
    decode_frame,
    decode_senddata,
    encode_frame,
    encode_senddata,
)


def crc16_oracle(data: bytes, crc: int = 0xFFFF) -> int:
    """Independent bit-at-a-time shift register; no tables, no shortcuts."""
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ 0x1021) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc


class TestCrc:
    # Values frozen from crc16_oracle (the well-known check value included).
    VECTORS = [
        (b"", 0xFFFF),
        (b"123456789", 0x29B1),
        (b"\x00", 0xE1F0),
        (bytes([0x01, 0x09, 0x00, 0x00]), 0x6CE5),  # heartbeat header
    ]

    def test_oracle_reproduces_frozen_vectors(self):
        for data, expected in self.VECTORS:
            assert crc16_oracle(data) == expected

    def test_crc16_matches_frozen_vectors(self):
        for data, expected in self.VECTORS:
            assert wire.crc16(data) == expected

    def test_crc16_matches_oracle_on_random_data(self):
        rng = random.Random(0xC5C5)
        for length in range(300):
            data = rng.randbytes(length)
            assert wire.crc16(data) == crc16_oracle(data)


class TestFrameCodec:
    def test_heartbeat_exact_bytes(self):
        encoded = encode_frame(Frame(MessageType.HEARTBEAT))
        assert encoded == bytes([0x4C, 0x53, 0x01, 0x09, 0x00, 0x00, 0x6C, 0xE5])

    def test_reqip_frame_is_ten_bytes(self):
        frame = Frame(MessageType.REQ_IP, wire.encode_reqip(7))
        encoded = encode_frame(frame)
        assert len(encoded) == 10
        assert encoded[:8] == bytes([0x4C, 0x53, 0x01, 0x01, 0x00, 0x02, 0x00, 0x07])
        assert encoded[8:] == crc16_oracle(encoded[2:8]).to_bytes(2, "big")

    def test_round_trip_identity(self):
        frame = Frame(MessageType.SEND_DATA, b"\x01\x02\x03")
        assert decode_frame(encode_frame(frame)) == frame

    def test_round_trip_fuzz_10k_frames(self):
        rng = random.Random(2024)
        types = list(MessageType)
        for _ in range(10_000):
            frame = Frame(rng.choice(types), rng.randbytes(rng.randrange(0, 40)))
            assert decode_frame(encode_frame(frame)) == frame

    def test_decode_never_crashes_on_garbage(self):
        rng = random.Random(99)
        outcomes = {"frame": 0, "error": 0}
        for _ in range(10_000):
            blob = rng.randbytes(rng.randrange(0, 32))
            try:
                decode_frame(blob)
                outcomes["frame"] += 1
            except FrameError:
                outcomes["error"] += 1
        assert outcomes["error"] > 0  # garbage should essentially never decode

    def test_every_single_bit_corruption_is_rejected(self):
        reference = encode_frame(Frame(MessageType.SEND_DATA, b"\x00\x01\x02\x03"))
        for bit in range(len(reference) * 8):
            corrupted = bytearray(reference)
            corrupted[bit // 8] ^= 1 << (bit % 8)
            with pytest.raises(FrameError):
                decode_frame(bytes(corrupted))

    def test_payload_bit_flip_is_crc_mismatch(self):
        encoded = bytearray(encode_frame(Frame(MessageType.SEND_DATA, b"\x55")))
        encoded[6] ^= 0x01  # payload byte
        with pytest.raises(CrcMismatch):
            decode_frame(bytes(encoded))

    def test_bad_magic(self):
        encoded = bytearray(encode_frame(Frame(MessageType.HEARTBEAT)))
        encoded[0] = 0x00
        with pytest.raises(BadMagic) as exc:
            decode_frame(bytes(encoded))
        assert exc.value.offset == 0

    def test_bad_version(self):
        body = bytes([0x02, 0x09, 0x00, 0x00])
        blob = wire.MAGIC + body + wire.crc16(body).to_bytes(2, "big")
        with pytest.raises(BadVersion) as exc:
            decode_frame(blob)
        assert exc.value.offset == 2

    def test_truncated_frame_is_length_mismatch(self):
        encoded = encode_frame(Frame(MessageType.SEND_DATA, b"\x01\x02\x03"))
        with pytest.raises(LengthMismatch):
            decode_frame(encoded[:-2])

    def test_trailing_bytes_are_length_mismatch(self):
        encoded = encode_frame(Frame(MessageType.HEARTBEAT))
        with pytest.raises(LengthMismatch):
            decode_frame(encoded + b"\x00")

    def test_unknown_type_with_valid_crc(self):
        body = bytes([0x01, 0x7F, 0x00, 0x00])
        blob = wire.MAGIC + body + wire.crc16(body).to_bytes(2, "big")
        with pytest.raises(UnknownType) as exc:
            decode_frame(blob)
        assert exc.value.offset == 3

    def test_every_unused_type_code_is_unknown_type(self):
        unused = [0x00, *range(0x0A, 0x100)]
        assert set(range(0x100)) - set(unused) == {t.value for t in MessageType}
        for code in unused:
            body = bytes([0x01, code, 0x00, 0x01, 0xAB])
            blob = wire.MAGIC + body + wire.crc16(body).to_bytes(2, "big")
            with pytest.raises(UnknownType) as exc:
                decode_frame(blob)
            assert exc.value.offset == 3
            assert str(exc.value) == f"unknown message type 0x{code:02x} (at byte 3)"

    def test_oversize_payload_rejected_at_encode(self):
        with pytest.raises(FrameTooLarge):
            encode_frame(Frame(MessageType.SEND_DATA, b"\x00" * 65536))

    @given(
        msg_type=st.sampled_from(list(MessageType)),
        payload=st.binary(max_size=200),
    )
    @settings(max_examples=200)
    def test_round_trip_property(self, msg_type, payload):
        frame = Frame(msg_type, payload)
        assert decode_frame(encode_frame(frame)) == frame

    @given(blob=st.binary(max_size=64))
    @settings(max_examples=300)
    def test_decode_total_over_arbitrary_bytes(self, blob):
        try:
            frame = decode_frame(blob)
            assert isinstance(frame, Frame)
        except FrameError:
            pass


class TestSendDataCodec:
    def test_empty_readings_round_trip(self):
        p = SendDataPayload(session_id=1, seq=9, timestamp=1000, readings=())
        encoded = encode_senddata(p)
        assert encoded[-1] == 0x00  # count byte
        assert decode_senddata(encoded) == p

    def test_one_reading_layout(self):
        p = SendDataPayload(session_id=0, seq=0, timestamp=0, readings=((0x01, 3),))
        encoded = encode_senddata(p)
        assert encoded[-6:] == bytes([0x01, 0x01, 0x00, 0x00, 0x00, 0x03])

    def test_255_readings_ok_256_rejected(self):
        readings = tuple((0x01, i) for i in range(255))
        p = SendDataPayload(1, 1, 1, readings)
        assert decode_senddata(encode_senddata(p)) == p
        with pytest.raises(PayloadError):
            encode_senddata(SendDataPayload(1, 1, 1, readings + ((0x01, 0),)))

    def test_unknown_sensor_code_rejected(self):
        with pytest.raises(PayloadError):
            encode_senddata(SendDataPayload(1, 1, 1, ((0x77, 0),)))
        good = encode_senddata(SendDataPayload(1, 1, 1, ((0x01, 0),)))
        bad = good[:-5] + bytes([0x77]) + good[-4:]
        with pytest.raises(PayloadError):
            decode_senddata(bad)

    @pytest.mark.parametrize("position", range(5))
    def test_unknown_sensor_code_offset(self, position):
        # 17-byte head (session, seq, timestamp, count), then 5 bytes per reading.
        readings = tuple((code, 10 * code) for code in range(1, 6))
        data = bytearray(encode_senddata(SendDataPayload(1, 1, 1, readings)))
        data[17 + 5 * position] = 0x77
        with pytest.raises(PayloadError, match="unknown sensor code 0x77") as exc:
            decode_senddata(bytes(data))
        assert exc.value.offset == 17 + 5 * position

    def test_count_mismatch_rejected(self):
        good = encode_senddata(SendDataPayload(1, 1, 1, ((0x01, 0),)))
        with pytest.raises(PayloadError):
            decode_senddata(good + b"\x00")
        with pytest.raises(PayloadError):
            decode_senddata(good[:-1])

    def test_negative_raw_survives(self):
        p = SendDataPayload(1, 2, 3, ((0x02, -12345),))
        assert decode_senddata(encode_senddata(p)).readings == ((0x02, -12345),)

    def test_small_payload_codecs_round_trip(self):
        assert wire.decode_reqip(wire.encode_reqip(7)) == 7
        assert wire.decode_ipassign(wire.encode_ipassign("10.77.0.9")) == "10.77.0.9"
        assert wire.decode_sendip(wire.encode_sendip(3, "192.168.1.2")) == (3, "192.168.1.2")
        assert wire.decode_serverip(wire.encode_serverip("10.0.0.1")) == "10.0.0.1"
        assert wire.decode_reqconn(wire.encode_reqconn(12, 99)) == (12, 99)
        assert wire.decode_connack(wire.encode_connack(5, 99)) == (5, 99)
        assert wire.decode_dataack(wire.encode_dataack(41)) == 41


def test_control_types_match_the_documented_channels():
    doc = (Path(__file__).resolve().parent.parent / "docs" / "wire_format.md").read_text(encoding="utf-8")

    def carried(channel: str) -> set[str]:
        bullet = re.search(rf"\* \*\*{channel} channel\*\*:(.*?)Carries(.*?)\.\n", doc, re.S)
        return set(re.findall(r"[A-Z_]{3,}", bullet.group(2)))

    assert carried("Control") == {t.name for t in wire.CONTROL_TYPES}
    assert carried("Data") == {t.name for t in MessageType} - carried("Control")
