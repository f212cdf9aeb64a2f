"""Sensor frame wire format and CRC.

Frame layout (big-endian, 16 bytes total):

    offset  size  field
    0       1     node id
    1       2     sequence number (wraps at 65535)
    3       4     timestamp, milliseconds
    7       6     three 16-bit ADC codes (x, y, z)
    13      1     three 2-bit range codes packed high-to-low, 2 spare bits
    14      2     CRC-16/CCITT-FALSE over bytes 0..13
"""

from __future__ import annotations

import binascii
import struct
from dataclasses import dataclass

from .errors import FrameError

FRAME_LEN = 16
_HEADER = struct.Struct(">BHIHHHB")


def crc16_ccitt(data: bytes) -> int:
    """CRC-16/CCITT-FALSE (poly 0x1021, init 0xFFFF, no reflection)."""
    return binascii.crc_hqx(data, 0xFFFF)


@dataclass(frozen=True)
class SensorFrame:
    """One transmitted accelerometer reading."""

    node_id: int
    seq: int
    timestamp_ms: int
    codes: tuple[int, int, int]
    range_codes: tuple[int, int, int]

    def __post_init__(self):
        if not 0 <= self.node_id <= 0xFF:
            raise FrameError(f"node_id out of range: {self.node_id}")
        if not 0 <= self.seq <= 0xFFFF:
            raise FrameError(f"seq out of range: {self.seq}")
        if not 0 <= self.timestamp_ms <= 0xFFFFFFFF:
            raise FrameError(f"timestamp_ms out of range: {self.timestamp_ms}")
        # spelled out per axis: one frame is built per sensor sample
        c = self.codes
        if len(c) != 3 or not (0 <= c[0] <= 0xFFFF and 0 <= c[1] <= 0xFFFF and 0 <= c[2] <= 0xFFFF):
            raise FrameError(f"bad ADC codes: {c}")
        r = self.range_codes
        if len(r) != 3 or not (0 <= r[0] <= 3 and 0 <= r[1] <= 3 and 0 <= r[2] <= 3):
            raise FrameError(f"bad range codes: {r}")


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
    ranges = ((packed >> 6) & 0x3, (packed >> 4) & 0x3, (packed >> 2) & 0x3)
    return SensorFrame(node_id, seq, ts, (cx, cy, cz), ranges)
