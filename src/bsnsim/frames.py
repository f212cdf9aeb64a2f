"""Sensor frame wire format, CRC and the frame log.

`_WIRE` is the frame layout, a numpy record dtype (big-endian, 16 bytes total):

    offset  size  field
    0       1     node id
    1       2     sequence number (wraps at 65535)
    3       4     timestamp, milliseconds
    7       6     three 16-bit ADC codes (x, y, z)
    13      1     three 2-bit range codes packed high-to-low, 2 spare bits
    14      2     CRC-16/CCITT-FALSE over bytes 0..13

Records are packed and unpacked as whole buffers, never one at a time:
`_pack` fills one `np.empty(k, _WIRE)` from seven integer field columns (a
star run's delivered frames, or the one frame `encode_frame` transposes), and
`_unpack` reads every record with one `np.frombuffer`.

`_crcs` takes the CRC of every record of a buffer at once, table-driven:
the table `_BYTE_STEP[b] = crc_hqx(bytes([b]), 0)` advances a register by
one byte (`crc = (crc << 8) ^ _BYTE_STEP[(crc >> 8) ^ byte]`), and
`_WORD_STEP`, two such steps, by the two bytes of a big-endian 16-bit word
(`crc = _WORD_STEP[crc ^ word]`), so a record's 14 bytes take seven numpy
steps over all records.
The bitwise CRC in `tests/frames_reference.py` is the oracle for `_crcs`.

`_frames` is the one place that turns integer field columns into
`SensorFrame` tuples: a replay's field matrix, a star run's delivered
frames and a decoded log all go through it, and only when their frames are
asked for.

A frame log is the 8-byte magic `LOG_MAGIC` followed by frame records, packed
by `_pack` and read back, every CRC checked, by `read_frame_log`; `encode_frame`
and `decode_frame` are the single-frame edge.
"""

from __future__ import annotations

import binascii
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import FrameError, ParameterError, integer, require_type

_WIRE = np.dtype([("node_id", "u1"), ("seq", ">u2"), ("timestamp_ms", ">u4"), ("codes", ">u2", (3,)),
                  ("ranges", "u1"), ("crc", ">u2")])
FRAME_LEN = _WIRE.itemsize
_CRC_AT = FRAME_LEN - 2
LOG_MAGIC = b"BSLOG1\x00\x00"
# The largest value of each integer field, as wide as its place in `_WIRE`.
NODE_ID_MAX, SEQ_MAX, TIMESTAMP_MAX, _CODE_MAX = 0xFF, 0xFFFF, 0xFFFFFFFF, 0xFFFF
# The (x, y, z) range codes carried by each value of the packed byte, and
# what each axis's range code adds to that byte (range codes as a (3, m)
# array pack as `_RANGE_BYTE @ codes`).
_UNPACKED = tuple(((p >> 6) & 0x3, (p >> 4) & 0x3, (p >> 2) & 0x3) for p in range(256))
_RANGE_BYTE = np.array([1 << 6, 1 << 4, 1 << 2])
# `_pack`'s seven field columns by name, and the bits each may not set: those outside its
# width (each maximum is all ones) and the range byte's spare bits.
_COLUMNS = ("node_id", "seq", "timestamp_ms", "x code", "y code", "z code", "range byte")
_OUTSIDE = ~np.array([NODE_ID_MAX, SEQ_MAX, TIMESTAMP_MAX, _CODE_MAX, _CODE_MAX, _CODE_MAX, 0xFC])[:, None]
# What one byte does to a zero CRC register: a byte advances any register by
# `crc = (crc << 8) ^ _BYTE_STEP[(crc >> 8) ^ byte]`.
_BYTE_STEP = np.array([binascii.crc_hqx(bytes([b]), 0) for b in range(256)], dtype=np.uint16)
# What each big-endian 16-bit word 256 * hi + lo does to a zero register: the byte step of lo from
# _BYTE_STEP[hi], the register after hi. A word advances any register by `crc = _WORD_STEP[crc ^ word]`.
_AFTER_HI = _BYTE_STEP[:, None]
_WORD_STEP = ((_AFTER_HI << 8) ^ _BYTE_STEP[(_AFTER_HI >> 8) ^ np.arange(256, dtype=np.uint16)]).ravel()


class _FrameFields(NamedTuple):
    node_id: int
    seq: int
    timestamp_ms: int
    codes: tuple[int, int, int]
    range_codes: tuple[int, int, int]


class SensorFrame(_FrameFields):
    """One accelerometer reading: integers (`errors.integer`) within their frame widths, the codes
    and range codes tuples of three. `_make`, which also counts the fields, and `_replace` check them too."""

    __slots__ = ()

    def __new__(cls, node_id: int, seq: int, timestamp_ms: int, codes, range_codes) -> "SensorFrame":
        for name, value, top in (("node_id", node_id, NODE_ID_MAX), ("seq", seq, SEQ_MAX),
                                 ("timestamp_ms", timestamp_ms, TIMESTAMP_MAX)):
            if not integer(value):
                raise FrameError(f"{name} must be an integer, got {value!r}")
            if not 0 <= value <= top:
                raise FrameError(f"{name} out of range: {value}")
        for label, values, top in (("ADC codes", codes, _CODE_MAX), ("range codes", range_codes, 3)):
            if not (isinstance(values, tuple) and len(values) == 3
                    and all(integer(v) and 0 <= v <= top for v in values)):
                raise FrameError(f"bad {label}: {values}")
        return tuple.__new__(cls, (node_id, seq, timestamp_ms, codes, range_codes))

    @classmethod
    def _make(cls, iterable) -> "SensorFrame":
        fields = tuple(iterable)
        if len(fields) != len(cls._fields):
            raise FrameError(f"a frame has {len(cls._fields)} fields, got {fields!r}")
        return cls(*fields)


def _frames(columns) -> list[SensorFrame]:
    """The frames of seven lists of integers, each field within its width, built
    without `SensorFrame`'s checks: node id, seq, timestamp, the three ADC codes
    and the packed range byte."""
    node_id, seq, timestamp_ms, cx, cy, cz, packed = columns
    rows = zip(node_id, seq, timestamp_ms, zip(cx, cy, cz), map(_UNPACKED.__getitem__, packed))
    return list(map(tuple.__new__, repeat(SensorFrame), rows))


def _crcs(records) -> np.ndarray:
    """The CRC-16/CCITT-FALSE of bytes 0..13 of each record of a buffer of whole records."""
    crc = 0xFFFF
    for word in np.frombuffer(records, ">u2").reshape(-1, FRAME_LEN // 2).T[: _CRC_AT // 2].astype(np.uint16):
        crc = _WORD_STEP.take(crc ^ word)
    return crc


def _pack(columns) -> bytes:
    """The records of seven field columns (see `_frames`), in order; each ends
    in the CRC of its other bytes. A field outside its width raises a `FrameError`."""
    fields = np.asarray(columns)
    if fields.dtype.kind != "i":  # a float, or an int too wide for int64, in a column
        raise FrameError(f"frame fields must be integers that fit in 64 bits, got {fields.dtype} columns")
    outside = fields & _OUTSIDE
    if outside.any():
        k, column = np.argwhere(outside.T)[0]
        raise FrameError(f"{_COLUMNS[column]} out of range in frame {k}: {fields[column, k]}")
    node_id, seq, timestamp_ms, *codes, packed = fields
    records = np.empty(len(node_id), _WIRE)
    records["node_id"], records["seq"], records["timestamp_ms"], records["ranges"] = node_id, seq, timestamp_ms, packed
    records["codes"] = np.transpose(codes)
    records["crc"] = _crcs(records)
    return records.tobytes()


def _unpack(view: memoryview) -> list[SensorFrame]:
    """The frames of a buffer of whole records; the first bad CRC raises a `FrameError`."""
    records, crcs = np.frombuffer(view, _WIRE), _crcs(view)
    bad = np.flatnonzero(crcs != records["crc"])
    if bad.size:
        k = bad[0]
        raise FrameError(f"CRC mismatch: computed {int(crcs[k]):#06x}, frame carries {int(records['crc'][k]):#06x}")
    return _frames([records["node_id"].tolist(), records["seq"].tolist(), records["timestamp_ms"].tolist(),
                    *records["codes"].T.tolist(), records["ranges"].tolist()])


def encode_frame(frame: SensorFrame) -> bytes:
    """Serialize a frame, checked as a `SensorFrame` (a plain tuple too); the
    trailing CRC covers all preceding bytes."""
    node_id, seq, timestamp_ms, codes, range_codes = SensorFrame._make(frame)
    return _pack(np.array([node_id, seq, timestamp_ms, *codes, _RANGE_BYTE @ range_codes], np.int64)[:, None])


def decode_frame(buf: bytes) -> SensorFrame:
    """Parse one frame, rejecting short buffers and CRC mismatches."""
    require_type("buf", buf, (bytes, bytearray))
    if len(buf) < FRAME_LEN:
        raise FrameError(f"short buffer: {len(buf)} < {FRAME_LEN} bytes")
    return _unpack(memoryview(buf)[:FRAME_LEN])[0]


def read_frame_log(data: bytes) -> list[SensorFrame]:
    """Decode a binary frame log, validating the magic and every CRC.

    The first record with a bad CRC raises the `FrameError` that
    `decode_frame` gives for it."""
    require_type("data", data, (bytes, bytearray))
    if not data.startswith(LOG_MAGIC):
        raise ParameterError("not a frame log: bad magic header")
    body = memoryview(data)[len(LOG_MAGIC):]
    if len(body) % FRAME_LEN != 0:
        raise ParameterError(f"frame log length {len(body)} is not a multiple of {FRAME_LEN}")
    return _unpack(body)
