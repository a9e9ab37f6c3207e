"""Wire protocol: CRC, binary framing and payload codecs for the telemetry link.

This module IS the wire contract (see docs/wire_format.md). Frame layout,
all integers big-endian:

    offset  size  field
    0       2     magic 0x4C 0x53 ("LS")
    2       1     version (0x01)
    3       1     message type
    4       2     payload length N (uint16)
    6       N     payload
    6+N     2     CRC-16/CCITT-FALSE over bytes [2, 6+N)

The CRC covers version, type, length and payload but not the magic.
Decode errors are distinct exception types, each carrying the byte offset
at which validation failed.
"""

from __future__ import annotations

import struct
from binascii import crc_hqx
from dataclasses import dataclass
from enum import IntEnum
from typing import BinaryIO

from slopewatch.domain import SensorKind

MAGIC = b"\x4c\x53"
VERSION = 0x01
MAX_PAYLOAD = 0xFFFF
HEADER_LEN = 6  # magic + version + type + length
TRAILER_LEN = 2  # crc16
MAX_READINGS_PER_FRAME = 255  # a SEND_DATA frame's reading count is one byte


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE of ``data`` (bytes-like): poly 0x1021, init 0xFFFF,
    no reflection, no final xor; ``crc16(b"123456789") == 0x29B1``.

    The standard library's ``binascii.crc_hqx`` is this CRC, computed in C.
    """
    return crc_hqx(data, 0xFFFF)


class MessageType(IntEnum):
    """1-byte message type codes."""

    REQ_IP = 0x01       # node -> ISP: request an IP address
    IP_ASSIGN = 0x02    # ISP -> node: assigned address
    SEND_IP = 0x03      # node -> server (control): announce own IP, ask for server IP
    SERVER_IP = 0x04    # server -> node (control): server address
    REQ_CONN = 0x05     # node -> server: connection request
    CONN_ACK = 0x06     # server -> node: connection accepted, session id
    SEND_DATA = 0x07    # node -> server: batch of sensor readings
    DATA_ACK = 0x08     # server -> node: batch acknowledged
    HEARTBEAT = 0x09    # node -> server: idle keepalive


# By code: calling MessageType(code) costs ten times a dict lookup.
_MESSAGE_TYPES = {t.value: t for t in MessageType}


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------


class FrameError(ValueError):
    """Base class for framing/codec failures.

    ``offset`` is the byte position at which validation failed.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


class FrameTooLarge(FrameError):
    pass


class BadMagic(FrameError):
    pass


class BadVersion(FrameError):
    pass


class LengthMismatch(FrameError):
    pass


class CrcMismatch(FrameError):
    pass


class UnknownType(FrameError):
    pass


class PayloadError(FrameError):
    """Malformed payload body (bad count, unknown sensor code, short/long)."""


# ---------------------------------------------------------------------------
# Frame codec
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class Frame:
    """One protocol message: type plus opaque payload bytes."""

    msg_type: MessageType
    payload: bytes = b""


def encode_frame(frame: Frame) -> bytes:
    """Serialize a frame to its bit-exact wire form."""
    if len(frame.payload) > MAX_PAYLOAD:
        raise FrameTooLarge(f"payload of {len(frame.payload)} bytes exceeds {MAX_PAYLOAD}")
    body = struct.pack(">BBH", VERSION, frame.msg_type, len(frame.payload)) + frame.payload
    return MAGIC + body + struct.pack(">H", crc16(body))


def decode_frame(data: bytes) -> Frame:
    """Parse one complete frame; the buffer must contain exactly one frame.

    Raises BadMagic, BadVersion, LengthMismatch, CrcMismatch or UnknownType.
    """
    if len(data) < len(MAGIC):
        raise LengthMismatch(f"buffer of {len(data)} bytes is shorter than the frame magic", len(data))
    if data[:2] != MAGIC:
        raise BadMagic(f"expected magic {MAGIC.hex()}, got {data[:2].hex()}", 0)
    if len(data) < HEADER_LEN:
        raise LengthMismatch("truncated header", len(data))
    version = data[2]
    if version != VERSION:
        raise BadVersion(f"unsupported version 0x{version:02x}", 2)
    (plen,) = struct.unpack_from(">H", data, 4)
    total = HEADER_LEN + plen + TRAILER_LEN
    if len(data) != total:
        raise LengthMismatch(f"length field declares {total} bytes, buffer has {len(data)}", 4)
    body = data[2 : HEADER_LEN + plen]
    (stated_crc,) = struct.unpack_from(">H", data, HEADER_LEN + plen)
    actual = crc16(body)
    if stated_crc != actual:
        raise CrcMismatch(f"crc 0x{stated_crc:04x} != computed 0x{actual:04x}", HEADER_LEN + plen)
    msg_type = _MESSAGE_TYPES.get(data[3])
    if msg_type is None:
        raise UnknownType(f"unknown message type 0x{data[3]:02x}", 3)
    return Frame(msg_type, bytes(data[HEADER_LEN : HEADER_LEN + plen]))


class FrameSplitter:
    """Cuts the frames out of a byte stream; the caller does the reading.

    ``feed`` returns, in stream order, each frame and each bad frame (as its
    ``FrameError``) that the bytes so far complete. A bad frame is reported
    once, and splitting resumes at the next ``MAGIC`` after its first byte;
    bytes skipped on the way to the next good frame are not reported again.
    """

    __slots__ = ("_buf", "_synced", "_unread")

    def __init__(self) -> None:
        self._buf = bytearray()
        self._synced = True  # False from a reported error to the next good frame
        self._unread: list[Frame | FrameError] = []  # fed, not yet returned by read_frame

    def feed(self, data: bytes) -> list[Frame | FrameError]:
        buf = self._buf
        buf += data
        end = len(buf)
        out: list[Frame | FrameError] = []
        pos = 0
        while pos < end:
            if not buf.startswith(MAGIC, pos):
                if end - pos < len(MAGIC) and MAGIC.startswith(buf[pos:]):
                    break  # the first byte of a magic
                error: FrameError = BadMagic(f"expected magic {MAGIC.hex()}, got {buf[pos:pos + 2].hex()}")
            elif end - pos < HEADER_LEN:
                break
            elif buf[pos + 2] != VERSION:  # bad at once: its length field means nothing
                error = BadVersion(f"unsupported version 0x{buf[pos + 2]:02x}", 2)
            else:
                total = HEADER_LEN + int.from_bytes(buf[pos + 4 : pos + 6], "big") + TRAILER_LEN
                if end - pos < total:
                    break
                try:
                    frame = decode_frame(buf[pos : pos + total])
                except FrameError as exc:
                    error = exc
                else:
                    out.append(frame)
                    self._synced = True
                    pos += total
                    continue
            if self._synced:
                out.append(error)
                self._synced = False
            pos = buf.find(MAGIC, pos + 1)
            if pos < 0:  # keep a last byte that may start a magic
                pos = end - 1 if buf.endswith(MAGIC[:1]) else end
        del buf[:pos]
        return out


def read_frame(stream: BinaryIO, splitter: FrameSplitter | None = None) -> Frame | FrameError | None:
    """The next frame, or bad frame, that ``splitter`` cuts from a blocking stream.

    Reads only the bytes that the frame begun in the splitter still lacks, so
    it never reads past a good frame; without a splitter it reads one frame.
    Returns None on EOF at a frame boundary; raises LengthMismatch on EOF
    inside a frame.
    """
    splitter = splitter or FrameSplitter()
    buf, unread = splitter._buf, splitter._unread
    while not unread:
        have = len(buf)
        want = HEADER_LEN if have < HEADER_LEN else HEADER_LEN + int.from_bytes(buf[4:6], "big") + TRAILER_LEN
        data = stream.read(want - have)
        if not data:
            if buf:
                raise LengthMismatch("stream ended inside a frame", have)
            return None
        unread.extend(splitter.feed(data))
    return unread.pop(0)


# ---------------------------------------------------------------------------
# Payload codecs
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class SendDataPayload:
    """Body of a SEND_DATA frame: one batch of readings.

    ``seq`` is the batch sequence number (the first reading's per-node
    sequence number); readings are (sensor_code, raw_count) pairs sharing
    ``timestamp``. At most ``MAX_READINGS_PER_FRAME`` readings per frame.
    """

    session_id: int
    seq: int
    timestamp: int
    readings: tuple[tuple[int, int], ...]


_READING = struct.Struct(">Bi")
_SENDDATA_HEAD = struct.Struct(">IIQB")
_SENSOR_CODES = frozenset(kind.value for kind in SensorKind)


def encode_senddata(p: SendDataPayload) -> bytes:
    if len(p.readings) > MAX_READINGS_PER_FRAME:
        raise PayloadError(f"{len(p.readings)} readings exceed the {MAX_READINGS_PER_FRAME}-per-frame cap")
    parts = [_SENDDATA_HEAD.pack(p.session_id, p.seq, p.timestamp, len(p.readings))]
    for code, raw in p.readings:
        if code not in _SENSOR_CODES:  # reject unknown codes at encode time
            raise PayloadError(f"unknown sensor code 0x{code:02x}")
        parts.append(_READING.pack(code, raw))
    return b"".join(parts)


def decode_senddata(data: bytes) -> SendDataPayload:
    if len(data) < _SENDDATA_HEAD.size:
        raise PayloadError("SEND_DATA payload shorter than its fixed header", len(data))
    session_id, seq, timestamp, count = _SENDDATA_HEAD.unpack_from(data, 0)
    expected = _SENDDATA_HEAD.size + count * _READING.size
    if len(data) != expected:
        raise PayloadError(
            f"SEND_DATA count {count} implies {expected} bytes, payload has {len(data)}",
            _SENDDATA_HEAD.size,
        )
    readings = tuple(_READING.iter_unpack(data[_SENDDATA_HEAD.size :]))
    for i, (code, _) in enumerate(readings):
        if code not in _SENSOR_CODES:
            off = _SENDDATA_HEAD.size + i * _READING.size
            raise PayloadError(f"unknown sensor code 0x{code:02x}", off)
    return SendDataPayload(session_id=session_id, seq=seq, timestamp=timestamp, readings=readings)


# Small fixed-shape payloads. IPv4 addresses travel as 4 raw bytes.


def _pack_ip(ip: str) -> bytes:
    parts = ip.split(".")
    if len(parts) != 4:
        raise PayloadError(f"not a dotted-quad IPv4 address: {ip!r}")
    try:
        octets = bytes(int(p) for p in parts)
    except ValueError:
        raise PayloadError(f"not a dotted-quad IPv4 address: {ip!r}") from None
    return octets


def _unpack_ip(data: bytes, offset: int = 0) -> str:
    return ".".join(str(b) for b in data[offset : offset + 4])


def encode_reqip(node_id: int) -> bytes:
    return struct.pack(">H", node_id)


def decode_reqip(data: bytes) -> int:
    if len(data) != 2:
        raise PayloadError(f"REQ_IP payload must be 2 bytes, got {len(data)}")
    return struct.unpack(">H", data)[0]


def encode_ipassign(ip: str) -> bytes:
    return _pack_ip(ip)


def decode_ipassign(data: bytes) -> str:
    if len(data) != 4:
        raise PayloadError(f"IP_ASSIGN payload must be 4 bytes, got {len(data)}")
    return _unpack_ip(data)


def encode_sendip(node_id: int, ip: str) -> bytes:
    return struct.pack(">H", node_id) + _pack_ip(ip)


def decode_sendip(data: bytes) -> tuple[int, str]:
    if len(data) != 6:
        raise PayloadError(f"SEND_IP payload must be 6 bytes, got {len(data)}")
    (node_id,) = struct.unpack_from(">H", data, 0)
    return node_id, _unpack_ip(data, 2)


def encode_serverip(ip: str) -> bytes:
    return _pack_ip(ip)


def decode_serverip(data: bytes) -> str:
    if len(data) != 4:
        raise PayloadError(f"SERVER_IP payload must be 4 bytes, got {len(data)}")
    return _unpack_ip(data)


def encode_reqconn(node_id: int, nonce: int) -> bytes:
    return struct.pack(">HI", node_id, nonce)


def decode_reqconn(data: bytes) -> tuple[int, int]:
    if len(data) != 6:
        raise PayloadError(f"REQ_CONN payload must be 6 bytes, got {len(data)}")
    return struct.unpack(">HI", data)


def encode_connack(session_id: int, nonce: int) -> bytes:
    return struct.pack(">II", session_id, nonce)


def decode_connack(data: bytes) -> tuple[int, int]:
    if len(data) != 8:
        raise PayloadError(f"CONN_ACK payload must be 8 bytes, got {len(data)}")
    return struct.unpack(">II", data)


def encode_dataack(seq: int) -> bytes:
    return struct.pack(">I", seq)


def decode_dataack(data: bytes) -> int:
    if len(data) != 4:
        raise PayloadError(f"DATA_ACK payload must be 4 bytes, got {len(data)}")
    return struct.unpack(">I", data)[0]
