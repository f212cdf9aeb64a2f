"""Frame codec round trips and CRC behavior."""

import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsnsim.errors import FrameError
from bsnsim.frames import FRAME_LEN, SensorFrame, crc16_ccitt, decode_frame, encode_frame


def test_crc_known_vector():
    # standard CRC-16/CCITT-FALSE check value
    assert crc16_ccitt(b"123456789") == 0x29B1


def test_crc_empty_is_init():
    assert crc16_ccitt(b"") == 0xFFFF


def _crc16_ccitt_false_bitwise(data: bytes) -> int:
    """Reference CRC-16/CCITT-FALSE, one bit at a time: poly 0x1021, init 0xFFFF, no reflection."""
    crc = 0xFFFF
    for byte in data:
        crc ^= byte << 8
        for _ in range(8):
            crc = ((crc << 1) ^ 0x1021 if crc & 0x8000 else crc << 1) & 0xFFFF
    return crc


@given(st.binary(max_size=64))
def test_crc_matches_bitwise_reference(data):
    assert crc16_ccitt(data) == _crc16_ccitt_false_bitwise(data)


def test_round_trip_bit_exact():
    frame = SensorFrame(node_id=7, seq=513, timestamp_ms=123456789, codes=(1, 65535, 32768), range_codes=(0, 3, 2))
    assert decode_frame(encode_frame(frame)) == frame


def test_all_zero_frame():
    frame = SensorFrame(0, 0, 0, (0, 0, 0), (0, 0, 0))
    buf = encode_frame(frame)
    assert len(buf) == FRAME_LEN
    assert decode_frame(buf) == frame


def test_flipped_byte_rejected():
    buf = bytearray(encode_frame(SensorFrame(1, 2, 3, (4, 5, 6), (1, 2, 3))))
    for i in range(FRAME_LEN):
        corrupted = bytearray(buf)
        corrupted[i] ^= 0x40
        with pytest.raises(FrameError):
            decode_frame(bytes(corrupted))


def test_short_buffer_rejected():
    buf = encode_frame(SensorFrame(1, 2, 3, (4, 5, 6), (1, 2, 3)))
    with pytest.raises(FrameError):
        decode_frame(buf[:-1])


def test_field_width_validation():
    with pytest.raises(FrameError):
        SensorFrame(256, 0, 0, (0, 0, 0), (0, 0, 0))
    with pytest.raises(FrameError):
        SensorFrame(0, 65536, 0, (0, 0, 0), (0, 0, 0))
    with pytest.raises(FrameError):
        SensorFrame(0, 0, 0, (0, 0, 70000), (0, 0, 0))
    with pytest.raises(FrameError):
        SensorFrame(0, 0, 0, (0, 0, 0), (0, 0, 4))


_u16 = st.integers(0, 0xFFFF)
_frames = st.builds(
    SensorFrame,
    node_id=st.integers(0, 0xFF),
    seq=_u16,
    timestamp_ms=st.integers(0, 0xFFFFFFFF),
    codes=st.tuples(_u16, _u16, _u16),
    range_codes=st.tuples(*[st.integers(0, 3)] * 3),
)


@given(_frames)
def test_random_frames_round_trip(frame):
    assert decode_frame(encode_frame(frame)) == frame


# arbitrary bytes rarely carry a valid CRC, so half the buffers get one
_with_crc = st.binary(min_size=FRAME_LEN - 2, max_size=FRAME_LEN - 2).map(
    lambda body: body + struct.pack(">H", crc16_ccitt(body))
)


@given(st.one_of(st.binary(max_size=2 * FRAME_LEN), _with_crc))
def test_decode_arbitrary_bytes_raises_only_frame_error(buf):
    try:
        frame = decode_frame(buf)
    except FrameError:
        return
    assert isinstance(frame, SensorFrame)
