"""Frame codec round trips, CRC behavior and the frame log reader."""

import itertools
import re
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import frames_reference
from bsnsim.errors import FrameError
from bsnsim.frames import (
    _WIRE,
    FRAME_LEN,
    LOG_MAGIC,
    NODE_ID_MAX,
    SEQ_MAX,
    TIMESTAMP_MAX,
    SensorFrame,
    _crcs,
    _pack,
    decode_frame,
    encode_frame,
    read_frame_log,
)
from sensor_reference import _unchecked


def test_crc_known_vector():
    # standard CRC-16/CCITT-FALSE check value, of the oracle every frame CRC is held to
    assert frames_reference.crc16_ccitt_false(b"123456789") == 0x29B1


def test_crc_empty_is_init():
    assert frames_reference.crc16_ccitt_false(b"") == 0xFFFF


def test_round_trip_bit_exact():
    frame = SensorFrame(node_id=7, seq=513, timestamp_ms=123456789, codes=(1, 65535, 32768), range_codes=(0, 3, 2))
    assert decode_frame(encode_frame(frame)) == frame
    # a longer buffer is read from its first byte
    assert decode_frame(encode_frame(frame) + bytes(FRAME_LEN)) == frame


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
        computed = frames_reference.crc16_ccitt_false(bytes(corrupted[: FRAME_LEN - 2]))
        carried = int.from_bytes(corrupted[FRAME_LEN - 2 :], "big")
        with pytest.raises(FrameError, match=f"^CRC mismatch: computed {computed:#06x}, frame carries {carried:#06x}$"):
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


@pytest.mark.parametrize(
    "codes, range_codes, message",
    [
        ([4, 5, 6], (1, 2, 3), "bad ADC codes: [4, 5, 6]"),
        (5, (1, 2, 3), "bad ADC codes: 5"),
        ((4, 5), (1, 2, 3), "bad ADC codes: (4, 5)"),
        ((4, 5, 6), [1, 2, 3], "bad range codes: [1, 2, 3]"),
        ((4, 5, 6), 3, "bad range codes: 3"),
        ((4, 5, 6), range(3), "bad range codes: range(0, 3)"),
    ],
    ids=["codes_list", "codes_int", "codes_pair", "ranges_list", "ranges_int", "ranges_range"],
)
def test_codes_must_be_tuples_of_three(codes, range_codes, message):
    # a list built a frame that could not be hashed and never equalled its decoded copy
    with pytest.raises(FrameError, match=f"^{re.escape(message)}$"):
        SensorFrame(1, 2, 3, codes, range_codes)


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


@given(_frames)
def test_encode_matches_reference(frame):
    assert encode_frame(frame) == frames_reference.encode_frame(frame)


@given(st.lists(_frames, max_size=12))
def test_frame_log_matches_reference_and_reads_back(frames):
    log = LOG_MAGIC + _pack(_field_matrix(frames))
    assert log == frames_reference.write_frame_log(frames)
    decoded = read_frame_log(log)
    assert decoded == frames
    assert [type(frame) for frame in decoded] == [SensorFrame] * len(frames)
    assert [repr(frame) for frame in decoded] == [repr(frame) for frame in frames]


def test_empty_frame_log_is_the_magic():
    assert LOG_MAGIC + _pack(_field_matrix([])) == frames_reference.write_frame_log([]) == LOG_MAGIC
    assert read_frame_log(LOG_MAGIC) == []


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
    lambda body: body + struct.pack(">H", frames_reference.crc16_ccitt_false(body))
)


@given(st.one_of(st.binary(max_size=2 * FRAME_LEN), _with_crc))
def test_decode_arbitrary_bytes_raises_only_frame_error(buf):
    try:
        frame = decode_frame(buf)
    except FrameError:
        return
    assert isinstance(frame, SensorFrame)


_bodies = st.binary(min_size=FRAME_LEN - 2, max_size=FRAME_LEN - 2)


def _all_crcs(bodies, tails=None):
    """`_crcs` over a buffer of one record per body, each ending in `tails` (default 2 zero bytes)."""
    tails = tails or [b"\x00\x00"] * len(bodies)
    return _crcs(b"".join(body + tail for body, tail in zip(bodies, tails))).tolist()


@given(st.lists(_bodies, max_size=20), st.data())
def test_all_records_crc_equals_the_scalar_one(bodies, data):
    # whatever the record's own CRC bytes hold
    tails = [data.draw(st.binary(min_size=2, max_size=2)) for _ in bodies]
    assert _all_crcs(bodies, tails) == [frames_reference.crc16_ccitt_false(body) for body in bodies]


@pytest.mark.parametrize(
    "body",
    [bytes(FRAME_LEN - 2), b"\xff" * (FRAME_LEN - 2), b"123456789".ljust(FRAME_LEN - 2, b"\x00")],
    ids=["zeros", "ones", "check-string"],
)
def test_all_records_crc_hand_cases(body):
    expected = frames_reference.crc16_ccitt_false(body)
    assert _all_crcs([body]) == [expected]
    assert _all_crcs([body] * 3) == [expected] * 3


def test_wire_dtype_is_the_record_layout():
    fields = (7, 513, 123456789, 1, 65535, 32768, 0b10110100, 0xBEEF)
    layout = struct.Struct(">BHIHHHBH")
    record = np.frombuffer(layout.pack(*fields), _WIRE)
    assert _WIRE.itemsize == layout.size == FRAME_LEN
    assert [record[name][0].tolist() for name in _WIRE.names] == [*fields[:3], list(fields[3:6]), *fields[6:]]


def _field_matrix(frames):
    """The (7, k) int64 field matrix of `frames`, as a star run holds its delivered frames."""
    rows = [(*frame[:3], *frame.codes, (frame.range_codes[0] << 6) | (frame.range_codes[1] << 4)
             | (frame.range_codes[2] << 2)) for frame in frames]
    return np.array(rows, dtype=np.int64).reshape(-1, 7).T


def _edge_frames():
    """Every field at 0 and alone at its maximum, all fields at their maxima, and all 64 range tuples."""
    tops = (NODE_ID_MAX, SEQ_MAX, TIMESTAMP_MAX, 0xFFFF, 0xFFFF, 0xFFFF)
    frames = [SensorFrame(0, 0, 0, (0, 0, 0), (0, 0, 0)), SensorFrame(*tops[:3], tops[3:], (3, 3, 3))]
    for k, top in enumerate(tops):
        fields = [0] * 6
        fields[k] = top
        frames.append(SensorFrame(*fields[:3], tuple(fields[3:]), (0, 0, 0)))
    for k, ranges in enumerate(itertools.product(range(4), repeat=3)):
        frames.append(SensorFrame(k, 1000 + k, 1000 * k, (k, 0x100 * k, 0xFFFF - k), ranges))
    return frames


def test_pack_from_columns_matches_reference_at_field_edges():
    frames = _edge_frames()
    columns = _field_matrix(frames)
    assert LOG_MAGIC + _pack(columns) == frames_reference.write_frame_log(frames)
    for k, frame in enumerate(frames):
        assert _pack(columns[:, k : k + 1]) == frames_reference.encode_frame(frame) == encode_frame(frame)
    assert read_frame_log(LOG_MAGIC + _pack(columns)) == frames


def _out_of_range(top):
    return st.integers(max_value=-1) | st.integers(min_value=top + 1)


_TOPS = (NODE_ID_MAX, SEQ_MAX, TIMESTAMP_MAX, 0xFFFF, 0xFFFF, 0xFFFF, 3, 3, 3)


@given(_frames, st.data())
def test_an_out_of_range_field_raises_frame_error(frame, data):
    # plain tuples are checked as SensorFrames; a field wrapped to its width would read back as another value
    slot = data.draw(st.integers(0, 8), label="field")  # node id, seq, timestamp, three codes, three range codes
    flat = [*frame[:3], *frame.codes, *frame.range_codes]
    # any float is refused; the range codes draw integers only
    wrong = _out_of_range(_TOPS[slot]) if slot >= 6 else _out_of_range(_TOPS[slot]) | st.floats()
    flat[slot] = data.draw(wrong, label="value")
    bad = (*flat[:3], tuple(flat[3:6]), tuple(flat[6:]))
    with pytest.raises(FrameError, match="out of range|bad ADC codes|bad range codes|must be an integer"):
        encode_frame(bad)


@given(st.lists(_frames, min_size=1, max_size=6), st.data())
def test_pack_rejects_a_column_value_outside_its_width(frames, data):
    columns = _field_matrix(frames)
    k = data.draw(st.integers(0, len(frames) - 1), label="frame")
    row = data.draw(st.integers(0, 6), label="column")
    int64 = st.integers(-(2**63), 2**63 - 1)
    if row < 6:
        wide = int64.filter(lambda v: not 0 <= v <= _TOPS[row])
    else:  # the range byte: outside a byte, or a spare bit set
        wide = st.integers(0, 0xFF).filter(lambda v: v & 0x3) | int64.filter(lambda v: not 0 <= v <= 0xFF)
    columns[row, k] = data.draw(wide, label="value")
    with pytest.raises(FrameError, match="out of range"):
        _pack(columns)


def test_log_with_two_bad_records_reports_the_first():
    frames = [SensorFrame(1, k, 10 * k, (k, 2 * k, 3 * k), (0, 1, 2)) for k in range(4)]
    body = bytearray(b"".join(encode_frame(frame) for frame in frames))
    body[2 * FRAME_LEN + 5] ^= 0x10  # record 2: a flipped timestamp bit
    body[1 * FRAME_LEN + 15] ^= 0x01  # record 1: a flipped CRC bit
    record = bytes(body[FRAME_LEN : 2 * FRAME_LEN])
    computed = frames_reference.crc16_ccitt_false(record[:-2])
    carried = int.from_bytes(record[-2:], "big")
    message = f"CRC mismatch: computed {computed:#06x}, frame carries {carried:#06x}"
    with pytest.raises(FrameError, match=f"^{re.escape(message)}$"):
        read_frame_log(LOG_MAGIC + bytes(body))
