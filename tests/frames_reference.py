"""Reference frame encoder: one frame at a time, written out field by field.

`struct.pack` of the 14 header bytes, the three range codes shifted into
their byte, and a bitwise CRC-16/CCITT-FALSE appended big-endian. The tests
require `bsnsim.frames` to encode every frame and frame log to these bytes.
"""

import struct

from bsnsim.frames import LOG_MAGIC


def crc16_ccitt_false(data: bytes) -> int:
    """CRC-16/CCITT-FALSE, one bit at a time: poly 0x1021, init 0xFFFF, no reflection."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021 if crc & 0x8000 else crc << 1) & 0xFFFF
    return crc


def encode_frame(frame) -> bytes:
    packed_ranges = (frame.range_codes[0] << 6) | (frame.range_codes[1] << 4) | (frame.range_codes[2] << 2)
    body = struct.pack(">BHIHHHB", frame.node_id, frame.seq, frame.timestamp_ms, *frame.codes, packed_ranges)
    return body + struct.pack(">H", crc16_ccitt_false(body))


def write_frame_log(frames) -> bytes:
    return LOG_MAGIC + b"".join(encode_frame(frame) for frame in frames)
