"""Sensor frame wire format, CRC and the frame log.

Frame layout (big-endian, 16 bytes total):

    offset  size  field
    0       1     node id
    1       2     sequence number (wraps at 65535)
    3       4     timestamp, milliseconds
    7       6     three 16-bit ADC codes (x, y, z)
    13      1     three 2-bit range codes packed high-to-low, 2 spare bits
    14      2     CRC-16/CCITT-FALSE over bytes 0..13

A frame log is the 8-byte magic `LOG_MAGIC` followed by 16-byte frame
records; `read_frame_log` checks the CRC of every record.
"""

from __future__ import annotations

import binascii
import struct
from functools import partial
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .errors import FrameError, ParameterError

FRAME_LEN = 16
LOG_MAGIC = b"BSLOG1\x00\x00"
_HEADER = struct.Struct(">BHIHHHB")
# One frame record as a numpy dtype, field for field the layout above.
_RECORD = np.dtype([("node_id", "u1"), ("seq", ">u2"), ("timestamp_ms", ">u4"), ("codes", ">u2", (3,)),
                    ("ranges", "u1"), ("crc", ">u2")])
# The (x, y, z) range codes carried by each value of the packed byte.
_UNPACKED = tuple(((p >> 6) & 0x3, (p >> 4) & 0x3, (p >> 2) & 0x3) for p in range(256))


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
    """One transmitted accelerometer reading: a tuple whose fields are
    integers within their frame widths. `_make` and `_replace` check them too."""

    __slots__ = ()

    def __new__(cls, node_id: int, seq: int, timestamp_ms: int, codes, range_codes) -> "SensorFrame":
        for name, value, top in (("node_id", node_id, 0xFF), ("seq", seq, 0xFFFF),
                                 ("timestamp_ms", timestamp_ms, 0xFFFFFFFF)):
            if not isinstance(value, Integral):
                raise FrameError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value <= top:
                raise FrameError(f"{name} out of range: {value}")
        if len(codes) != 3 or not all(isinstance(c, Integral) and 0 <= c <= 0xFFFF for c in codes):
            raise FrameError(f"bad ADC codes: {codes}")
        if len(range_codes) != 3 or not all(isinstance(r, Integral) and 0 <= r <= 3 for r in range_codes):
            raise FrameError(f"bad range codes: {range_codes}")
        return tuple.__new__(cls, (node_id, seq, timestamp_ms, codes, range_codes))

    @classmethod
    def _make(cls, iterable) -> "SensorFrame":
        return cls(*iterable)


# A frame from a (node_id, seq, timestamp_ms, codes, range_codes) tuple whose
# fields are known to be in range, without the checks.
_unchecked = partial(tuple.__new__, SensorFrame)


def encode_frame(frame: SensorFrame) -> bytes:
    """Serialize a frame; the trailing CRC covers all preceding bytes."""
    packed_ranges = (
        (frame.range_codes[0] << 6)
        | (frame.range_codes[1] << 4)
        | (frame.range_codes[2] << 2)
    )
    body = _HEADER.pack(
        frame.node_id,
        frame.seq,
        frame.timestamp_ms,
        frame.codes[0],
        frame.codes[1],
        frame.codes[2],
        packed_ranges,
    )
    return body + struct.pack(">H", crc16_ccitt(body))


def decode_frame(buf: bytes) -> SensorFrame:
    """Parse one frame, rejecting short buffers and CRC mismatches."""
    if len(buf) < FRAME_LEN:
        raise FrameError(f"short buffer: {len(buf)} < {FRAME_LEN} bytes")
    body, crc_bytes = buf[: FRAME_LEN - 2], buf[FRAME_LEN - 2 : FRAME_LEN]
    (expected,) = struct.unpack(">H", crc_bytes)
    actual = crc16_ccitt(body)
    if actual != expected:
        raise FrameError(f"CRC mismatch: computed {actual:#06x}, frame carries {expected:#06x}")
    node_id, seq, ts, cx, cy, cz, packed = _HEADER.unpack(body)
    return SensorFrame(node_id, seq, ts, (cx, cy, cz), _UNPACKED[packed])


def read_frame_log(data: bytes) -> list[SensorFrame]:
    """Decode a binary frame log, validating the magic and every CRC.

    The first record with a bad CRC raises the `FrameError` that
    `decode_frame` gives for it."""
    if not data.startswith(LOG_MAGIC):
        raise ParameterError("not a frame log: bad magic header")
    body = memoryview(data)[len(LOG_MAGIC):]
    if len(body) % FRAME_LEN != 0:
        raise ParameterError(f"frame log length {len(body)} is not a multiple of {FRAME_LEN}")
    records = np.frombuffer(body, _RECORD)
    carried = records["crc"].tolist()
    computed = [binascii.crc_hqx(body[i : i + FRAME_LEN - 2], 0xFFFF) for i in range(0, len(body), FRAME_LEN)]
    if computed != carried:
        k = next(k for k, (a, b) in enumerate(zip(computed, carried)) if a != b)
        decode_frame(bytes(body[k * FRAME_LEN : (k + 1) * FRAME_LEN]))  # raises its CRC mismatch
    return list(map(_unchecked, zip(
        records["node_id"].tolist(),
        records["seq"].tolist(),
        records["timestamp_ms"].tolist(),
        zip(*records["codes"].T.tolist()),
        map(_UNPACKED.__getitem__, records["ranges"].tolist()),
    )))
