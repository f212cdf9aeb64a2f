"""Trace generator contracts: envelopes, determinism, scheduling."""

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
    with pytest.raises(ParameterError, match="rate_hz must be within"):
        AccelTrace(rate_hz=rate_hz, ax=0 * t, ay=0 * t, az=1 + 0 * t, labels=[ActivityKind.REST] * 3)


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
