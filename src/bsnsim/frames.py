"""Sensor frame wire format, CRC and the frame log.

`_RECORD` is the frame layout (big-endian, 16 bytes total):

    offset  size  field
    0       1     node id
    1       2     sequence number (wraps at 65535)
    3       4     timestamp, milliseconds
    7       6     three 16-bit ADC codes (x, y, z)
    13      1     three 2-bit range codes packed high-to-low, 2 spare bits
    14      2     CRC-16/CCITT-FALSE over bytes 0..13

A frame log is the 8-byte magic `LOG_MAGIC` followed by frame records,
written by `write_frame_log` and read back, every CRC checked, by `read_frame_log`.
"""

from __future__ import annotations

import binascii
import struct
from functools import partial
from numbers import Integral
from typing import NamedTuple, Sequence

from .errors import FrameError, ParameterError

_RECORD = struct.Struct(">BHIHHHBH")
FRAME_LEN = _RECORD.size
_CRC_AT = FRAME_LEN - 2
LOG_MAGIC = b"BSLOG1\x00\x00"
# The largest value of each integer field, as wide as its place in `_RECORD`.
NODE_ID_MAX, SEQ_MAX, TIMESTAMP_MAX, _CODE_MAX = 0xFF, 0xFFFF, 0xFFFFFFFF, 0xFFFF
# The (x, y, z) range codes carried by each value of the packed byte, and
# the byte, spare bits clear, that carries each (x, y, z).
_UNPACKED = tuple(((p >> 6) & 0x3, (p >> 4) & 0x3, (p >> 2) & 0x3) for p in range(256))
_PACKED = {ranges: p for p, ranges in enumerate(_UNPACKED) if not p & 0x3}


def crc16_ccitt(data: bytes) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection)."""
    return binascii.crc_hqx(data, 0xFFFF)


class _FrameFields(NamedTuple):
    node_id: int
    seq: int
    timestamp_ms: int
    codes: tuple[int, int, int]
    range_codes: tuple[int, int, int]


class SensorFrame(_FrameFields):
    """One transmitted accelerometer reading: a tuple of integers within their frame
    widths, the codes and range codes tuples of three. `_make` and `_replace` check them too."""

    __slots__ = ()

    def __new__(cls, node_id: int, seq: int, timestamp_ms: int, codes, range_codes) -> "SensorFrame":
        for name, value, top in (("node_id", node_id, NODE_ID_MAX), ("seq", seq, SEQ_MAX),
                                 ("timestamp_ms", timestamp_ms, TIMESTAMP_MAX)):
            if not isinstance(value, Integral):
                raise FrameError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value <= top:
                raise FrameError(f"{name} out of range: {value}")
        for label, values, top in (("ADC codes", codes, _CODE_MAX), ("range codes", range_codes, 3)):
            if not (isinstance(values, tuple) and len(values) == 3
                    and all(isinstance(v, Integral) and 0 <= v <= top for v in values)):
                raise FrameError(f"bad {label}: {values}")
        return tuple.__new__(cls, (node_id, seq, timestamp_ms, codes, range_codes))

    @classmethod
    def _make(cls, iterable) -> "SensorFrame":
        return cls(*iterable)


# A frame from a (node_id, seq, timestamp_ms, codes, range_codes) tuple whose
# fields are known to be in range, without the checks.
_unchecked = partial(tuple.__new__, SensorFrame)


def _pack(frames: Sequence[SensorFrame]) -> bytearray:
    """The records of `frames`, in order; each ends in the CRC of its other bytes."""
    buf = bytearray(len(frames) * FRAME_LEN)
    pack_into = _RECORD.pack_into
    for offset, (node_id, seq, timestamp_ms, (cx, cy, cz), range_codes) in zip(range(0, len(buf), FRAME_LEN), frames):
        pack_into(buf, offset, node_id, seq, timestamp_ms, cx, cy, cz, _PACKED[range_codes], 0)
    with memoryview(buf) as view:
        crcs = [binascii.crc_hqx(view[offset : offset + _CRC_AT], 0xFFFF) for offset in range(0, len(buf), FRAME_LEN)]
    buf[_CRC_AT::FRAME_LEN] = bytes([crc >> 8 for crc in crcs])
    buf[_CRC_AT + 1 :: FRAME_LEN] = bytes([crc & 0xFF for crc in crcs])
    return buf


def _unpack(view: memoryview) -> list[SensorFrame]:
    """The frames of a buffer of whole records; the first bad CRC raises a `FrameError`."""
    crcs = [binascii.crc_hqx(view[offset : offset + _CRC_AT], 0xFFFF) for offset in range(0, len(view), FRAME_LEN)]
    frames = []
    for crc, (node_id, seq, timestamp_ms, cx, cy, cz, packed, carried) in zip(crcs, _RECORD.iter_unpack(view)):
        if crc != carried:
            raise FrameError(f"CRC mismatch: computed {crc:#06x}, frame carries {carried:#06x}")
        frames.append(_unchecked((node_id, seq, timestamp_ms, (cx, cy, cz), _UNPACKED[packed])))
    return frames


def encode_frame(frame: SensorFrame) -> bytes:
    """Serialize a frame; the trailing CRC covers all preceding bytes."""
    return bytes(_pack((frame,)))


def decode_frame(buf: bytes) -> SensorFrame:
    """Parse one frame, rejecting short buffers and CRC mismatches."""
    if len(buf) < FRAME_LEN:
        raise FrameError(f"short buffer: {len(buf)} < {FRAME_LEN} bytes")
    return _unpack(memoryview(buf)[:FRAME_LEN])[0]


def write_frame_log(frames: Sequence[SensorFrame]) -> bytes:
    """A binary frame log of `frames`, in order."""
    return LOG_MAGIC + _pack(frames)


def read_frame_log(data: bytes) -> list[SensorFrame]:
    """Decode a binary frame log, validating the magic and every CRC.

    The first record with a bad CRC raises the `FrameError` that
    `decode_frame` gives for it."""
    if not data.startswith(LOG_MAGIC):
        raise ParameterError("not a frame log: bad magic header")
    body = memoryview(data)[len(LOG_MAGIC):]
    if len(body) % FRAME_LEN != 0:
        raise ParameterError(f"frame log length {len(body)} is not a multiple of {FRAME_LEN}")
    return _unpack(body)
