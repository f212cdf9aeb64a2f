"""Trace generator contracts: envelopes, determinism, scheduling."""

import hashlib

import numpy as np
import pytest

from bsnsim.errors import ParameterError
from bsnsim.motion import AccelTrace, ActivityKind, compose_schedule, generate_trace

SLOW = (ActivityKind.SIT_STAND, ActivityKind.LEFT_RIGHT_ROTATION, ActivityKind.SLOW_WALK)


def test_rest_total_band():
    trace = generate_trace(ActivityKind.REST, 10.0, 60.0, seed=1)
    total = trace.total()
    assert total.min() >= 0.95 and total.max() <= 1.05


@pytest.mark.parametrize("seed", range(25))
def test_rest_mean_near_gravity_every_window(seed):
    trace = generate_trace(ActivityKind.REST, 8.0, 60.0, seed=seed)
    total = trace.total()
    w = 60  # 1 s
    for start in range(0, len(trace) - w + 1, w // 2):
        assert abs(total[start : start + w].mean() - 1.0) <= 0.02


@pytest.mark.parametrize("kind", SLOW)
@pytest.mark.parametrize("seed", range(15))
def test_slow_modes_stay_in_band(kind, seed):
    trace = generate_trace(kind, 30.0, 60.0, seed=seed)
    total = trace.total()
    assert total.min() >= 0.9
    assert total.max() <= 1.3


@pytest.mark.parametrize("kind", SLOW)
def test_slow_modes_vary_mostly_in_plane(kind):
    trace = generate_trace(kind, 30.0, 60.0, seed=3)
    std_plane = max(trace.ax.std(), trace.ay.std())
    assert std_plane > trace.az.std()


@pytest.mark.parametrize("seed", range(15))
def test_run_exits_band_and_exceeds_slow_z_variation(seed):
    run = generate_trace(ActivityKind.RUN, 10.0, 60.0, seed=seed)
    walk = generate_trace(ActivityKind.SLOW_WALK, 10.0, 60.0, seed=seed)
    total = run.total()
    assert (total > 1.3).any() or (total < 0.9).any()
    assert run.az.std() > 2.0 * walk.az.std()


@pytest.mark.parametrize("kind", [ActivityKind.JUMP, ActivityKind.FALL])
@pytest.mark.parametrize("seed", range(15))
def test_event_kinds_z_span_and_band_exit(kind, seed):
    trace = generate_trace(kind, 5.0, 60.0, seed=seed)
    assert trace.az.max() - trace.az.min() > 2.0
    total = trace.total()
    assert (total < 0.9).any()
    assert (total > 1.3).any()


def test_fall_z_span_at_low_rate():
    trace = generate_trace(ActivityKind.FALL, 5.0, 10.0, seed=3)
    assert trace.az.max() - trace.az.min() > 2.0


def test_determinism_bit_identical():
    a = generate_trace(ActivityKind.SLOW_WALK, 7.0, 60.0, seed=9)
    b = generate_trace(ActivityKind.SLOW_WALK, 7.0, 60.0, seed=9)
    assert np.array_equal(a.ax, b.ax) and np.array_equal(a.ay, b.ay) and np.array_equal(a.az, b.az)
    c = generate_trace(ActivityKind.SLOW_WALK, 7.0, 60.0, seed=10)
    assert not np.array_equal(a.az, c.az)


def _trace(az, labels=None, rate_hz=60.0):
    az = np.asarray(az, dtype=float)
    return AccelTrace(rate_hz, np.zeros(len(az)), np.zeros(len(az)), az, labels or [ActivityKind.REST] * len(az))


def test_traces_compare_by_rate_axes_and_labels():
    a, b = generate_trace(ActivityKind.REST, 1.0, seed=1), generate_trace(ActivityKind.REST, 1.0, seed=1)
    assert a == b and not a != b
    # the labels compare as sequences
    assert a == AccelTrace(a.rate_hz, a.ax.copy(), a.ay.copy(), a.az.copy(), tuple(a.labels))
    assert a != generate_trace(ActivityKind.REST, 1.0, seed=2)
    one = _trace([1.0, 1.0])
    assert one == _trace([1.0, 1.0])
    assert one != _trace([1.0, 1.5])  # one sample differs
    assert one != _trace([1.0, 1.0, 1.0]) and one != _trace([1.0])  # another length
    assert one != _trace([1.0, 1.0], rate_hz=50.0)
    assert one != _trace([1.0, 1.0], [ActivityKind.REST, ActivityKind.FALL])
    assert one != (60.0, one.ax, one.ay, one.az, one.labels)
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_sample_spacing():
    trace = generate_trace(ActivityKind.REST, 3.0, 50.0, seed=0)
    assert np.allclose(np.diff(trace.t), 1.0 / 50.0)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        generate_trace(ActivityKind.REST, 0.0, 60.0)
    with pytest.raises(ParameterError):
        generate_trace(ActivityKind.REST, 1.0, 5.0)
    with pytest.raises(ParameterError):
        generate_trace(ActivityKind.REST, 1.0, 200.0)
    with pytest.raises(ParameterError):
        compose_schedule([])
    with pytest.raises(ParameterError):
        compose_schedule([(ActivityKind.REST, -1.0)])
    for duration_s in (float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="duration_s must be positive and finite"):
            generate_trace(ActivityKind.REST, duration_s)
        with pytest.raises(ParameterError, match="segment 1 duration must be positive and finite"):
            compose_schedule([(ActivityKind.REST, 1.0), (ActivityKind.FALL, duration_s)])


@pytest.mark.parametrize("rate_hz", [0.0, float("nan"), float("inf"), -60.0, 5.0])
def test_trace_rejects_rate_outside_band(rate_hz):
    t = np.arange(3) / 60.0
    with pytest.raises(ParameterError, match="rate_hz must be a finite number in \\[10, 100\\]"):
        AccelTrace(rate_hz=rate_hz, ax=0 * t, ay=0 * t, az=1 + 0 * t, labels=[ActivityKind.REST] * 3)


def test_trace_names_its_first_non_finite_sample_as_a_replay_does():
    # sample order, then x, y, z: sample 1's y comes before its z and before sample 2
    ay, az = np.array([0.0, np.nan, 0.0]), np.array([1.0, np.inf, -np.inf])
    with pytest.raises(ParameterError, match="^acceleration must be finite, got nan$"):
        AccelTrace(rate_hz=60.0, ax=np.zeros(3), ay=ay, az=az, labels=[ActivityKind.REST] * 3)


@pytest.mark.parametrize(
    "axis, got",
    [
        ([0.0, 0.0, 0.0], "list"),
        (np.zeros((3, 1)), "a 2-D float64 array"),
        (np.zeros(3, dtype=np.int64), "a 1-D int64 array"),
        (np.zeros(3, dtype=np.complex128), "a 1-D complex128 array"),
    ],
    ids=["list", "two_dimensional", "integer", "complex"],
)
def test_trace_axes_must_be_1d_real_float_arrays(axis, got):
    # a list-built trace would otherwise fail later, outside the bsnsim errors, e.g. in detect_abnormal
    ok = np.zeros(3)
    with pytest.raises(ParameterError, match=f"trace axis ay must be a 1-D numpy array of real floats, got {got}$"):
        AccelTrace(rate_hz=60.0, ax=ok, ay=axis, az=ok + 1.0, labels=[ActivityKind.REST] * 3)


def test_single_segment_schedule_matches_generate():
    single = compose_schedule([(ActivityKind.REST, 2.0)], seed=4)
    direct = generate_trace(ActivityKind.REST, 2.0, seed=4)
    assert np.array_equal(single.az, direct.az)
    assert single.labels == direct.labels


def test_schedule_concatenation_boundary():
    trace = compose_schedule([(ActivityKind.REST, 2.0), (ActivityKind.FALL, 1.0)], seed=0)
    assert len(trace) / trace.rate_hz == pytest.approx(3.0)
    assert np.allclose(np.diff(trace.t), 1.0 / 60.0)
    boundary = 120  # 2 s at 60 Hz
    assert all(l is ActivityKind.REST for l in trace.labels[:boundary])
    assert all(l is ActivityKind.FALL for l in trace.labels[boundary:])
    assert trace.t[boundary] == pytest.approx(2.0)


def test_schedule_walk_then_run_envelope():
    trace = compose_schedule([(ActivityKind.SLOW_WALK, 10.0), (ActivityKind.RUN, 10.0)], seed=7)
    half = len(trace) // 2
    total = trace.total()
    first, second = total[:half], total[half:]
    assert ((first >= 0.9) & (first <= 1.3)).all()
    assert ((second > 1.3) | (second < 0.9)).any()


# SHA-256 of the ax, ay and az bytes of generate_trace(kind, duration_s,
# rate_hz, seed), fixed when every event jitter was its own rng.uniform call.
# The 0.5 s falls and 2.0 s jumps have an event cut short at the trace end;
# the 0.3 s jump at 10 Hz is a 3-sample segment, below the 5-sample event.
MOTION_SHA256 = {
    (ActivityKind.FALL, 4.0, 10.0, 3): "13947cbd9cfcf4c50d427056547c740a2539920db2e7a115d3f70e2d9921d772",
    (ActivityKind.FALL, 0.5, 10.0, 5): "317106fe55c367cac2568d3814432dfc845709144d344c2219c778966648bd6b",
    (ActivityKind.FALL, 4.0, 60.0, 3): "56abfec90427805481a9fd3beca8625e1df4c4d402d9d3293947148d5ae3544a",
    (ActivityKind.FALL, 0.5, 60.0, 5): "12142657cc0f1fb346a411349adcb7fb37fb36ea3c9d01e5cc3f8816debd8ced",
    (ActivityKind.FALL, 4.0, 100.0, 3): "009d0a145181572c5b90bba034fdaebfa8b47a48e4b6bc1bf498ffc1effc7195",
    (ActivityKind.FALL, 0.5, 100.0, 5): "afd6c08c7d1878db60c963b713875e90a3e373dc1c0da2d860f45cf133120e85",
    (ActivityKind.JUMP, 6.3, 10.0, 3): "9753614642c46879c6daf358dd340a8ca9c015836ef1b185dcf8649e223f8321",
    (ActivityKind.JUMP, 2.0, 10.0, 8): "3e195d4f5fa81f69eb6ff04e846a8ea9fe8c31f03c0b00d700761551e7d7eafe",
    (ActivityKind.JUMP, 6.3, 60.0, 3): "061cda23183bcb2dadb34ff2b7b476067d635ccb847665b6e3d26bea660e6658",
    (ActivityKind.JUMP, 2.0, 60.0, 8): "cb3cb5702d025f4a04b1e8c710d25d376f9db2365ca4f5603d880daf48cdeb92",
    (ActivityKind.JUMP, 6.3, 100.0, 3): "0b7ccaf5c5cc1b9a1949397b2cbe45fc61cc1984f1813a153f3d2ea1b9834c49",
    (ActivityKind.JUMP, 2.0, 100.0, 8): "01f32f552dd5903d860991adb90347c31a49fc536e4d2c13043ea89e1ad78777",
    (ActivityKind.JUMP, 0.3, 10.0, 4): "2425728e24ad6d7d02d349d3815e95736a840d48e438694015d71eb7c026c9ad",
}


@pytest.mark.parametrize("kind, duration_s, rate_hz, seed", MOTION_SHA256, ids=lambda v: getattr(v, "name", v))
def test_event_traces_match_golden_bytes(kind, duration_s, rate_hz, seed):
    trace = generate_trace(kind, duration_s, rate_hz, seed=seed)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in (trace.ax, trace.ay, trace.az))).hexdigest()
    assert digest == MOTION_SHA256[kind, duration_s, rate_hz, seed]
