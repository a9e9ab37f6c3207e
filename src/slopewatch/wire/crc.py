"""CRC-16/CCITT-FALSE: poly 0x1021, init 0xFFFF, no input/output reflection,
no final xor. Check value: crc16(b"123456789") == 0x29B1.

The standard library's ``binascii.crc_hqx`` is this CRC, computed in C.
"""

from binascii import crc_hqx

__all__ = ["crc16"]


def crc16(data: bytes) -> int:
    """CRC-16/CCITT-FALSE of ``data`` (bytes-like)."""
    return crc_hqx(data, 0xFFFF)
