"""Frame codec round trips, CRC behavior and the frame log reader."""

import re
import struct

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsnsim.errors import FrameError
from bsnsim.frames import (
    FRAME_LEN,
    LOG_MAGIC,
    SensorFrame,
    _unchecked,
    crc16_ccitt,
    decode_frame,
    encode_frame,
    read_frame_log,
)


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


@pytest.mark.parametrize(
    "fields, message",
    [
        ((1.5, 0, 0, (0, 0, 0), (0, 0, 0)), "node_id must be an integer, got 1.5"),
        ((0, 2.0, 0, (0, 0, 0), (0, 0, 0)), "seq must be an integer, got 2.0"),
        ((0, 0, 3.0, (0, 0, 0), (0, 0, 0)), "timestamp_ms must be an integer, got 3.0"),
        ((0, 0, 0, (0.5, 0, 0), (0, 0, 0)), "bad ADC codes: (0.5, 0, 0)"),
        ((0, 0, 0, (0, 0, 0), (1.0, 0, 0)), "bad range codes: (1.0, 0, 0)"),
    ],
    ids=["node_id", "seq", "timestamp_ms", "codes", "range_codes"],
)
def test_fields_must_be_integers(fields, message):
    # a float field would otherwise fail later, outside the bsnsim errors, in encode_frame
    with pytest.raises(FrameError, match=f"^{re.escape(message)}$"):
        SensorFrame(*fields)


def test_make_and_replace_check_fields():
    frame = SensorFrame(1, 2, 3, (4, 5, 6), (1, 2, 3))
    assert SensorFrame._make(tuple(frame)) == frame
    assert frame._replace(seq=9) == SensorFrame(1, 9, 3, (4, 5, 6), (1, 2, 3))
    with pytest.raises(FrameError, match="node_id out of range: 256"):
        SensorFrame._make((256, 2, 3, (4, 5, 6), (1, 2, 3)))
    with pytest.raises(FrameError, match="bad range codes"):
        frame._replace(range_codes=(0, 0, 4))
    with pytest.raises(FrameError, match="seq must be an integer"):
        frame._replace(seq=2.5)


def test_frame_is_a_tuple_of_its_fields():
    frame = SensorFrame(node_id=7, seq=513, timestamp_ms=123456789, codes=(1, 65535, 32768), range_codes=(0, 3, 2))
    assert frame == (7, 513, 123456789, (1, 65535, 32768), (0, 3, 2))
    assert repr(frame) == ("SensorFrame(node_id=7, seq=513, timestamp_ms=123456789, codes=(1, 65535, 32768), "
                           "range_codes=(0, 3, 2))")


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


@given(_frames)
def test_unchecked_matches_checked_constructor(frame):
    fields = tuple(frame)
    unchecked = _unchecked(fields)
    assert type(unchecked) is SensorFrame
    assert unchecked == SensorFrame(*fields)
    assert hash(unchecked) == hash(SensorFrame(*fields))
    assert repr(unchecked) == repr(SensorFrame(*fields))


@given(st.lists(_frames, max_size=12))
def test_read_frame_log_matches_per_record_decode(frames):
    body = b"".join(encode_frame(frame) for frame in frames)
    decoded = read_frame_log(LOG_MAGIC + body)
    assert decoded == [decode_frame(body[i : i + FRAME_LEN]) for i in range(0, len(body), FRAME_LEN)]
    assert all(type(frame) is SensorFrame for frame in decoded)
    assert all(type(v) is int for frame in decoded for v in (*frame[:3], *frame.codes, *frame.range_codes))


@given(st.lists(_frames, min_size=1, max_size=8), st.data())
def test_read_frame_log_reports_the_first_bad_record(frames, data):
    body = bytearray(b"".join(encode_frame(frame) for frame in frames))
    # one flipped byte in each of some records; the earliest of them is k
    corrupted = data.draw(st.sets(st.integers(0, len(frames) - 1), min_size=1))
    for record in corrupted:
        body[record * FRAME_LEN + data.draw(st.integers(0, FRAME_LEN - 1))] ^= data.draw(st.integers(1, 0xFF))
    k = min(corrupted)
    bad = bytes(body[k * FRAME_LEN : (k + 1) * FRAME_LEN])
    with pytest.raises(FrameError) as expected:
        decode_frame(bad)
    with pytest.raises(FrameError, match=f"^{re.escape(str(expected.value))}$"):
        read_frame_log(LOG_MAGIC + bytes(body))


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
