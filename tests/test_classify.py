"""Window classification and abnormal-event detection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import classify_reference
from bsnsim.classify import (
    AbnormalTrigger,
    ActivityClass,
    ClassifierConfig,
    _fire_axis,
    classify_window,
    detect_abnormal,
)
from bsnsim.cli import main
from bsnsim.errors import ParameterError
from bsnsim.motion import AccelTrace, ActivityKind, compose_schedule, generate_trace


def _window(values):
    """A 60 Hz window holding the given (ax, ay, az) rows."""
    ax, ay, az = np.array(values, dtype=float).reshape(-1, 3).T
    return AccelTrace(rate_hz=60.0, ax=ax, ay=ay, az=az, labels=[ActivityKind.REST] * len(ax))


def test_constant_gravity_is_rest():
    window = _window([(0.0, 0.0, 1.0)] * 60)
    assert classify_window(window) is ActivityClass.REST


def test_in_band_oscillation_is_slow():
    # total oscillates within [0.95, 1.25]: outside the rest band, inside [0.9, 1.3]
    values = [(0.0, 0.0, 0.95 + 0.3 * (i % 2)) for i in range(60)]
    assert classify_window(_window(values)) is ActivityClass.SLOW_ACTIVITY


def test_out_of_band_total_is_fast():
    values = [(0.0, 0.0, 1.0)] * 59 + [(0.0, 0.0, 2.1)]
    assert classify_window(_window(values)) is ActivityClass.FAST_ACTIVITY


def test_axis_delta_is_fast():
    # totals stay in band but the z axis swings more than 2 g
    values = [(0.0, 0.0, 1.1), (0.0, 0.0, -1.1)] * 30
    assert classify_window(_window(values)) is ActivityClass.FAST_ACTIVITY


def test_empty_window_rejected():
    with pytest.raises(ParameterError):
        classify_window(_window([]))


def test_order_invariance():
    trace = generate_trace(ActivityKind.SLOW_WALK, 1.0, 60.0, seed=5)
    rows = np.column_stack([trace.ax, trace.ay, trace.az])
    rng = np.random.default_rng(3)
    for _ in range(20):
        shuffled = _window(rng.permutation(rows))
        assert classify_window(shuffled) is classify_window(trace)


def test_rest_trace_has_no_events():
    for seed in range(20):
        trace = generate_trace(ActivityKind.REST, 10.0, 60.0, seed=seed)
        assert detect_abnormal(trace) == []


def test_slow_walk_has_no_events():
    for seed in range(20):
        trace = generate_trace(ActivityKind.SLOW_WALK, 10.0, 60.0, seed=seed)
        assert detect_abnormal(trace) == []


def test_rest_fall_rest_yields_one_event_over_fall():
    trace = compose_schedule(
        [(ActivityKind.REST, 4.0), (ActivityKind.FALL, 3.0), (ActivityKind.REST, 4.0)], seed=11
    )
    events = detect_abnormal(trace)
    assert len(events) == 1
    event = events[0]
    fall_start, fall_end = 4.0, 7.0
    assert event.t_start < fall_end and event.t_end > fall_start
    assert event.trigger is AbnormalTrigger.TOTAL_ACCEL_BOUND
    assert event.peak_total_a > 1.3 or event.peak_total_a < 0.9


def test_brute_force_cross_check():
    # every sample with total outside the band must land inside some event
    trace = compose_schedule(
        [(ActivityKind.REST, 3.0), (ActivityKind.JUMP, 3.0), (ActivityKind.REST, 3.0)], seed=7
    )
    events = detect_abnormal(trace)
    total = trace.total()
    outside = np.flatnonzero((total < 0.9) | (total > 1.3))
    assert outside.size > 0
    for i in outside:
        t = trace.t[i]
        assert any(ev.t_start <= t <= ev.t_end for ev in events)


def test_monotonicity_in_band_width():
    cfg_narrow = ClassifierConfig(low_threshold_g=0.92, high_threshold_g=1.25)
    cfg_wide = ClassifierConfig(low_threshold_g=0.85, high_threshold_g=1.45)
    for seed in range(10):
        trace = compose_schedule(
            [(ActivityKind.REST, 2.0), (ActivityKind.FALL, 3.0), (ActivityKind.REST, 2.0), (ActivityKind.JUMP, 3.0)],
            seed=seed,
        )
        n_narrow = len(detect_abnormal(trace, cfg_narrow))
        n_wide = len(detect_abnormal(trace, cfg_wide))
        assert n_wide <= n_narrow


def test_config_validation():
    with pytest.raises(ParameterError):
        ClassifierConfig(low_threshold_g=1.1)
    with pytest.raises(ParameterError):
        ClassifierConfig(high_threshold_g=0.8)
    with pytest.raises(ParameterError):
        ClassifierConfig(window_s=0.0)
    for window_s in (float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="window_s must be positive and finite"):
            ClassifierConfig(window_s=window_s)


def test_events_csv_shape(tmp_path):
    assert main(["run", "classify", "--activity", "fall", "--duration", "4", "--seed", "2",
                 "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "events.csv").read_text().strip().splitlines()
    assert lines[0] == "t_start,t_end,trigger,peak_total_a"
    assert len(lines) == 2
    fields = lines[1].split(",")
    assert float(fields[0]) <= float(fields[1])


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 400),
    rate_hz=st.sampled_from([10.0, 25.0, 60.0, 100.0]),
    window_s=st.one_of(st.floats(0.01, 100.0), st.sampled_from([0.01, 0.5, 1.0, 1.5])),
    dtypes=st.tuples(*[st.sampled_from([np.float64, np.float32])] * 3),
    seed=st.integers(0, 2**32 - 1),
    nan_at=st.none() | st.tuples(st.integers(0, 2), st.floats(0.0, 1.0, exclude_max=True)),
)
def test_axis_windows_match_the_reference_loop(n, rate_hz, window_s, dtypes, seed, nan_at):
    # sparse bursts of a few g, so that some windows fire and some do not; w = 1, odd w and
    # windows longer than the trace included
    rng = np.random.default_rng(seed)
    ax, ay, az = (
        (rng.normal(0.0, 1.5, n) * (rng.random(n) < rng.random())).astype(dtype) for dtype in dtypes
    )
    trace = AccelTrace(rate_hz=rate_hz, ax=ax, ay=ay, az=az, labels=[ActivityKind.REST] * n)
    if nan_at is not None:  # the trace's checks ran at construction
        axis, where = nan_at
        (ax, ay, az)[axis][int(where * n)] = np.nan
    w = max(1, int(round(window_s * rate_hz)))
    assert _fire_axis(trace, w).tolist() == classify_reference.fire_axis(trace, w).tolist()
