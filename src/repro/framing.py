"""The ``magic | length | crc32`` frame of the shard wire and the journal.

A 4-byte magic, the payload length and the payload's CRC-32 (both u32
big-endian), then the payload.  The wire (``RPW1``) and the journal
(``RPF1``) differ only in the magic; each maps :class:`BadFrame` onto
its own error types.
"""

from __future__ import annotations

import struct
import zlib

HEADER = struct.Struct(">4sII")


class BadFrame(ValueError):
    """A complete header or payload failed its check."""


def encode(magic: bytes, payload: bytes) -> bytes:
    return HEADER.pack(magic, len(payload), zlib.crc32(payload)) + payload


def check_header(
    data: bytes, offset: int, magic: bytes, max_length: int | None = None
) -> tuple[int, int]:
    """``(length, crc)`` of the complete header at ``offset`` in ``data``."""
    found, length, crc = HEADER.unpack_from(data, offset)
    if found != magic:
        raise BadFrame(f"bad magic {found!r}")
    if max_length is not None and length > max_length:
        raise BadFrame(f"frame length {length} exceeds {max_length}")
    return length, crc


def check_crc(payload: bytes, crc: int) -> None:
    if zlib.crc32(payload) != crc:
        raise BadFrame("crc mismatch")
