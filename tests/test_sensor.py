"""Sensor node: quantization, range selection, and the sleep/wake workflow."""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsnsim import sensor
from bsnsim.errors import ParameterError
from bsnsim.motion import AccelTrace, ActivityKind, compose_schedule, generate_trace
from bsnsim.sensor import (
    _TIME_EPS,
    RANGE_LADDER,
    MeasurementRange,
    ReplayResult,
    SensorMode,
    SensorState,
    TimelineInterval,
    _read,
    _require_finite,
    initial_state,
    replay_trace,
)
from sensor_reference import AccelSample, _dequantize, _next_index, _quantize, step

G1_5, G2_0 = MeasurementRange.G1_5.code, MeasurementRange.G2_0.code


def _reference_read(a, r):
    """The reference's ADC code, value read back, next range index and clip flag of one reading."""
    code, clipped = _quantize(a, r)
    value = _dequantize(code, r, clipped)
    return code, value, _next_index(value, r, clipped), clipped


def _read_both(a, r):
    """One reading through the reference, after asserting that the kernel's `_read` gives the
    same code, value (bit for bit) and next range index."""
    expected = _reference_read(a, r)
    code, value, nxt = _read(np.float64(a), r)
    assert (float(code), float(value).hex(), int(nxt)) == (expected[0], expected[1].hex(), expected[2])
    return expected


class TestQuantize:
    def test_zero_g_mid_scale(self):
        code, _, _, clipped = _read_both(0.0, G1_5)
        assert abs(code - 32768) <= 1
        assert not clipped

    def test_one_g_at_low_range(self):
        # v = 3.3/2 + 1.0 * 0.8 = 2.45 V -> round(2.45/3.3 * 65535) = 48655
        code, _, _, clipped = _read_both(1.0, G1_5)
        assert code == 48655
        assert not clipped

    def test_beyond_range_clips(self):
        assert _read_both(2.0, G1_5)[3]
        assert _read_both(-2.0, G1_5)[3]
        assert not _read_both(1.5, G1_5)[3]

    def test_non_finite_rejected(self):
        with pytest.raises(ParameterError):
            _quantize(float("nan"), G2_0)
        with pytest.raises(ParameterError):
            _quantize(float("inf"), G2_0)
        # the kernel checks the (axis, sample) block it reads in the reference's order:
        # sample by sample, then x, y, z
        acc = np.array([[0.0, 0.0, np.nan], [0.0, -np.inf, 0.0], [1.0, np.nan, 1.0]])
        with pytest.raises(ParameterError, match="acceleration must be finite, got -inf"):
            _require_finite(acc)

    def test_round_trip_half_lsb(self):
        code, value, _, clipped = _read_both(0.5, G2_0)
        assert abs(_dequantize(code, G2_0, clipped) - 0.5) <= 6.3e-5
        assert abs(value - 0.5) <= 6.3e-5

    def test_mid_scale_dequantizes_to_zero(self):
        for rng in RANGE_LADDER:
            assert abs(_dequantize(32768, rng.code, False)) < 1e-3
            # 0 g lands on the half-code tie 32767.5, which rounds to the even 32768
            code, value, _, _ = _read_both(0.0, rng.code)
            assert code == 32768 and abs(value) < 1e-3

    def test_clipped_saturates_at_range(self):
        code, clipped = _quantize(2.4, G1_5)
        assert _dequantize(code, G1_5, clipped) == pytest.approx(1.5)
        code, clipped = _quantize(-2.4, G1_5)
        assert _dequantize(code, G1_5, clipped) == pytest.approx(-1.5)
        assert _read_both(2.4, G1_5)[1] == 1.5
        assert _read_both(-2.4, G1_5)[1] == -1.5

    def test_round_trip_property_10000(self):
        rng = np.random.default_rng(12)
        accs, codes, half_lsbs = [], [], []
        for _ in range(10_000):
            meas_range = RANGE_LADDER[rng.integers(0, 4)]
            a = float(rng.uniform(-meas_range.range_g, meas_range.range_g))
            half_lsb_g = (3.3 / 65535) / 2.0 / (meas_range.sensitivity_mv_per_g / 1000.0)
            code, clipped = _quantize(a, meas_range.code)
            assert not clipped
            assert abs(_dequantize(code, meas_range.code, clipped) - a) <= half_lsb_g
            accs.append(a)
            codes.append(meas_range.code)
            half_lsbs.append(half_lsb_g)
        # the kernel's model, all 10,000 readings in one call
        _, values, _ = _read(np.array(accs), np.array(codes))
        assert (np.abs(values - np.array(accs)) <= np.array(half_lsbs)).all()


def _kernel_next_ranges(ranges, readings):
    """The ranges an active node steps to after one sample, replayed as a one-sample 60 Hz trace."""
    ax, ay, az = (np.array([value]) for value in readings)
    trace = AccelTrace(rate_hz=60.0, ax=ax, ay=ay, az=az, labels=[ActivityKind.REST])
    state = SensorState(mode=SensorMode.ACTIVE, ranges=ranges, next_sample_at_s=0.0)
    return replay_trace(state, trace).final_state.ranges


class TestSelectRange:
    # each hand value through the reference's `_next_index` and as a reading through `_read`

    def test_step_up_from_2g(self):
        assert _next_index(2.3, G2_0, False) == MeasurementRange.G4_0.code
        assert _read_both(2.3, G2_0)[2] == MeasurementRange.G4_0.code

    def test_step_down_to_1_5(self):
        assert _next_index(1.2, G2_0, False) == G1_5
        assert _read_both(1.2, G2_0)[2] == G1_5

    def test_minimal_stays(self):
        assert _next_index(0.5, G1_5, False) == G1_5
        assert _read_both(0.5, G1_5)[2] == G1_5

    def test_saturates_at_6g(self):
        assert _next_index(9.0, MeasurementRange.G6_0.code, False) == MeasurementRange.G6_0.code
        assert _read_both(9.0, MeasurementRange.G6_0.code)[2] == MeasurementRange.G6_0.code

    def test_one_step_at_a_time(self):
        assert _next_index(5.9, G1_5, False) == G2_0
        assert _read_both(5.9, G1_5)[2] == G2_0

    def test_minimality_property(self):
        rng = np.random.default_rng(5)
        for _ in range(3000):
            current = RANGE_LADDER[rng.integers(0, 4)]
            value = float(rng.uniform(-7.0, 7.0))
            chosen = RANGE_LADDER[_next_index(value, current.code, False)]
            if abs(value) > current.range_g:
                # one step up from current
                assert chosen is RANGE_LADDER[min(RANGE_LADDER.index(current) + 1, 3)]
            else:
                # unique minimal covering range
                covering = [r for r in RANGE_LADDER if abs(value) <= r.range_g]
                assert chosen is covering[0]

    def test_per_axis_independence(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            current = tuple(RANGE_LADDER[i] for i in rng.integers(0, 4, size=3))
            readings = tuple(float(v) for v in rng.uniform(-7, 7, size=3))
            base = _kernel_next_ranges(current, readings)
            for axis in range(3):
                perturbed = list(readings)
                perturbed[axis] = float(rng.uniform(-7, 7))
                out = _kernel_next_ranges(current, perturbed)
                for other in range(3):
                    if other != axis:
                        assert out[other] is base[other]


def _boundary_readings():
    """(acceleration, range index) pairs where a port of the ADC model is most likely to slip."""
    cases = []
    for rng in RANGE_LADDER:
        for span in (rng.range_g, -rng.range_g):
            # the span, and one ulp either side of it
            cases += [(a, rng.code) for a in (span, np.nextafter(span, 0.0), np.nextafter(span, 2 * span))]
        # where the next range depends on the current one
        cases += [(1.49999, rng.code), (-1.49999, rng.code)]
        cases += [(0.0, rng.code), (-0.0, rng.code)]
    # the ADC clamps at 0 and V_REF on the lowest range
    cases += [(2.0625, G1_5), (-2.0625, G1_5)]
    return [(float(a), r) for a, r in cases]


# Accelerations whose voltage scales to an exact half code on each range: 0 g lands on
# 32767.5 (rounds up to even); the others on 20037.5 (up), 20074.5 or 20148.5 (down).
_HALF_CODE_TIES = [
    (0.0, G1_5), (-0.8012703135729001, G1_5), (-0.7989414053559166, G1_5),
    (-1.0683604180972002, G2_0), (-1.0590447852292666, G2_0),
    (-2.1367208361944003, MeasurementRange.G4_0.code), (-2.118089570458533, MeasurementRange.G4_0.code),
    (-3.2050812542916005, MeasurementRange.G6_0.code), (-3.1957656214236665, MeasurementRange.G6_0.code),
]


class TestReadMatchesReference:
    """The kernel's elementwise `_read` equals the reference's scalar helpers, bit for bit."""

    @pytest.mark.parametrize("a, r", _boundary_readings())
    def test_boundary_readings(self, a, r):
        _read_both(a, r)

    @pytest.mark.parametrize("a, r", _HALF_CODE_TIES)
    def test_half_code_ties_round_to_even(self, a, r):
        scaled = (3.3 / 2.0 + a * RANGE_LADDER[r].sensitivity_mv_per_g / 1000.0) / 3.3 * 65535
        assert scaled % 1.0 == 0.5
        assert _read_both(a, r)[0] % 2 == 0

    def test_clamp_at_the_rails(self):
        assert _read_both(2.0625, G1_5)[0] == 65535
        assert _read_both(-2.0625, G1_5)[0] == 0

    def test_history_dependent_step_at_1_49999(self):
        # 1.49999 g stays on the 1.5 g range from it, and on the 2 g range from that
        assert _read_both(1.49999, G1_5)[2] == G1_5
        assert _read_both(1.49999, G2_0)[2] == G2_0

    @settings(max_examples=200, deadline=None)
    @given(
        readings=st.lists(
            st.tuples(
                st.one_of(st.floats(-10.0, 10.0), st.sampled_from([a for a, _ in _boundary_readings()])),
                st.integers(0, 3),
            ),
            min_size=1,
            max_size=40,
        )
    )
    def test_elementwise_against_the_reference(self, readings):
        accs, ranges = (np.array(column) for column in zip(*readings))
        codes, values, nexts = _read(accs, ranges)
        for (a, r), code, value, nxt in zip(readings, codes.tolist(), values.tolist(), nexts.tolist()):
            expected = _reference_read(a, r)
            assert (code, value.hex(), nxt) == (expected[0], expected[1].hex(), expected[2])


class TestWorkflow:
    def test_rest_trace_stays_asleep_with_duty_bound(self):
        trace = generate_trace(ActivityKind.REST, 10.0, 60.0, seed=2)
        result = replay_trace(initial_state(), trace)
        assert result.final_state.mode is SensorMode.SLEEP
        assert len(result.frames) <= 10  # ceil(10 s / 1 s wake period)

    def test_fall_wakes_within_one_wake_period(self):
        trace = compose_schedule([(ActivityKind.REST, 3.0), (ActivityKind.FALL, 3.0)], seed=4)
        result = replay_trace(initial_state(), trace)
        assert result.final_state.mode is SensorMode.ACTIVE
        active = [iv for iv in result.intervals if iv.mode is SensorMode.ACTIVE]
        assert active, "node never woke"
        spike_t = float(trace.t[int(np.argmax(trace.az))])
        assert active[0].t_start <= spike_t + 1.0

    def test_active_returns_to_sleep_after_inactivity_window(self):
        rate = 10.0
        trace = compose_schedule(
            [(ActivityKind.FALL, 2.0), (ActivityKind.REST, 310.0)], rate_hz=rate, seed=1
        )
        result = replay_trace(initial_state(sample_rate_hz=rate), trace)
        assert result.final_state.mode is SensorMode.SLEEP
        sleeps = [iv for iv in result.intervals if iv.mode is SensorMode.SLEEP]
        assert len(sleeps) >= 2  # initial sleep and the return to sleep

    def test_active_emits_per_sample(self):
        trace = compose_schedule([(ActivityKind.FALL, 1.0), (ActivityKind.RUN, 3.0)], seed=0)
        result = replay_trace(initial_state(), trace)
        # active from the first wake tick onward: roughly one frame per sample
        assert len(result.frames) > 2.5 * 60

    def test_step_determinism(self):
        trace = generate_trace(ActivityKind.FALL, 4.0, 60.0, seed=8)
        r1 = replay_trace(initial_state(), trace)
        r2 = replay_trace(initial_state(), trace)
        assert [f for _, f in r1.frames] == [f for _, f in r2.frames]

    def test_sleep_mode_uses_low_range(self):
        trace = generate_trace(ActivityKind.REST, 5.0, 60.0, seed=3)
        result = replay_trace(initial_state(), trace)
        for _, frame in result.frames:
            assert frame.range_codes == (0, 0, 0)

    def test_range_steps_up_during_fall(self):
        trace = compose_schedule([(ActivityKind.REST, 1.5), (ActivityKind.FALL, 2.0)], seed=6)
        result = replay_trace(initial_state(), trace)
        assert any(frame.range_codes[2] > 0 for _, frame in result.frames)

    def test_step_rejects_bad_dt(self):
        state = initial_state()
        with pytest.raises(ParameterError):
            step(state, AccelSample(0.0, 0.0, 0.0, 1.0), 0.0)

    def test_replay_reads_big_endian_arrays(self):
        trace = compose_schedule([(ActivityKind.REST, 3.0), (ActivityKind.FALL, 2.0)], seed=2)
        swapped = replace(trace, **{axis: getattr(trace, axis).astype(">f8") for axis in ("ax", "ay", "az")})
        assert replay_trace(initial_state(), swapped) == replay_trace(initial_state(), trace)

    def test_seq_increments_and_wraps(self):
        trace = generate_trace(ActivityKind.RUN, 3.0, 60.0, seed=1)
        state = initial_state(seq=65534)
        result = replay_trace(state, trace)
        seqs = [frame.seq for _, frame in result.frames]
        assert seqs[0] == 65534
        assert 0 in seqs  # wrapped past 65535


def _step_replay(state, trace):
    """Reference replay: one step() per sample, the behaviour replay_trace must match."""
    dt = 1.0 / trace.rate_hz
    frames, intervals = [], []
    seg_start, seg_mode = state.time_s, state.mode
    for sample in zip(trace.t.tolist(), trace.ax.tolist(), trace.ay.tolist(), trace.az.tolist()):
        state, frame = step(state, AccelSample(*sample), dt)
        if frame is not None:
            frames.append((state.time_s, frame))
        if state.mode is not seg_mode:
            intervals.append(TimelineInterval(seg_start, state.time_s, seg_mode))
            seg_start, seg_mode = state.time_s, state.mode
    if state.time_s > seg_start:
        intervals.append(TimelineInterval(seg_start, state.time_s, seg_mode))
    return ReplayResult(frames=frames, intervals=intervals, final_state=state)


def _assert_replay_matches_steps(state, trace):
    expected = _step_replay(state, trace)
    got = replay_trace(state, trace)
    assert got.frames == expected.frames
    assert got.intervals == expected.intervals
    assert got.final_state == expected.final_state
    # repr also tells a numpy scalar from a Python float
    assert repr(got.final_state) == repr(expected.final_state)
    return expected


# whole-number rates make sample instants coincide with ticks up to rounding
_RATES = st.one_of(st.sampled_from([10.0, 20.0, 25.0, 30.0, 50.0, 60.0, 100.0]), st.floats(10.0, 100.0))


class TestReplayMatchesStep:
    """replay_trace is a batched kernel; sensor_reference.step() is the reference it must equal."""

    @pytest.mark.parametrize("seed", range(8))
    def test_criterion_5_rest(self, seed):
        trace = generate_trace(ActivityKind.REST, 7.0, 60.0, seed=seed)
        _assert_replay_matches_steps(initial_state(), trace)

    @pytest.mark.parametrize("seed", range(8))
    def test_criterion_5_rest_then_fall(self, seed):
        trace = compose_schedule([(ActivityKind.REST, 2.0), (ActivityKind.FALL, 2.0)], seed=seed)
        _assert_replay_matches_steps(initial_state(), trace)

    @pytest.mark.parametrize("seed", range(2))
    def test_criterion_5_fall_then_inactivity_window(self, seed):
        trace = compose_schedule(
            [(ActivityKind.FALL, 2.0), (ActivityKind.REST, 310.0)], rate_hz=10.0, seed=seed
        )
        result = _assert_replay_matches_steps(initial_state(sample_rate_hz=10.0), trace)
        assert result.final_state.mode is SensorMode.SLEEP

    @pytest.mark.parametrize("k", [1, 7, 60])
    def test_wake_tick_on_the_epsilon_boundary(self, k):
        # the k-th sample lands exactly _TIME_EPS before the wake tick: step() takes it
        trace = generate_trace(ActivityKind.FALL, 2.0, 60.0, seed=k)
        t = 0.0
        for _ in range(k):
            t += 1.0 / trace.rate_hz
        result = _assert_replay_matches_steps(initial_state(next_sample_at_s=t + _TIME_EPS), trace)
        assert result.frames[0][0] == t

    @pytest.mark.parametrize("k", [1, 7, 60])
    def test_active_sample_on_the_epsilon_boundary(self, k):
        # an active node's next sample instant lies _TIME_EPS after the k-th sample: step() takes it
        trace = generate_trace(ActivityKind.FALL, 2.0, 60.0, seed=k)
        t = 0.0
        for _ in range(k):
            t += 1.0 / trace.rate_hz
        state = initial_state(mode=SensorMode.ACTIVE, next_sample_at_s=t + _TIME_EPS)
        result = _assert_replay_matches_steps(state, trace)
        assert result.frames[0][0] == t

    @pytest.mark.parametrize("k", [1, 7, 60])
    def test_missed_wake_tick_on_the_epsilon_boundary(self, k):
        # the tick after the one the last sample takes lands within _TIME_EPS after that
        # sample, so step() re-arms one wake period after the sample instead
        trace = generate_trace(ActivityKind.REST, k / 10.0, 10.0, seed=k)
        t = 0.0
        for _ in range(k):
            t += 1.0 / trace.rate_hz
        wake_period = 0.05
        state = initial_state(wake_period_s=wake_period, next_sample_at_s=t - wake_period + _TIME_EPS / 2)
        result = _assert_replay_matches_steps(state, trace)
        assert [time for time, _ in result.frames] == [t]
        assert result.final_state.next_sample_at_s == t + wake_period

    def test_active_at_half_the_trace_rate(self):
        # every other sample of the 60 Hz trace is not due: the kernel jumps over it
        trace = generate_trace(ActivityKind.FALL, 4.0, 60.0, seed=3)
        state = initial_state(mode=SensorMode.ACTIVE, sample_rate_hz=30.0, next_sample_at_s=0.0)
        result = _assert_replay_matches_steps(state, trace)
        times = [time for time, _ in result.frames]
        assert len(times) == len(trace) // 2
        assert times == pytest.approx(trace.t[::2] + 1.0 / 60.0, abs=1e-9)

    def test_resumed_active_with_high_ranges_falls_asleep(self):
        # x holds 1.8 g, quiet under a 5 g threshold: the node falls asleep mid-trace on the 2 g range
        # of that axis, and its wake-tick samples go back to the lowest range
        rest = generate_trace(ActivityKind.REST, 3.0, 60.0, seed=5)
        trace = replace(rest, ax=rest.ax + 1.8)
        ranges = (MeasurementRange.G4_0, MeasurementRange.G2_0, MeasurementRange.G6_0)
        state = initial_state(mode=SensorMode.ACTIVE, ranges=ranges, activation_threshold_g=5.0,
                              inactivity_window_s=0.5, low_activity_timer_s=0.2, next_sample_at_s=0.0)
        result = _assert_replay_matches_steps(state, trace)
        assert result.frames[0][1].range_codes == (2, 1, 3)
        assert [iv.mode for iv in result.intervals] == [SensorMode.ACTIVE, SensorMode.SLEEP]
        asleep_at = result.intervals[0].t_end
        assert 0.25 < asleep_at < 0.35
        assert dict(result.frames)[asleep_at].range_codes == (1, 0, 0)
        asleep = [frame.range_codes for t, frame in result.frames if t > asleep_at]
        assert asleep and all(codes == (0, 0, 0) for codes in asleep)
        assert result.final_state.ranges == (MeasurementRange.G1_5,) * 3

    def test_waking_node_starts_a_fresh_inactivity_timer(self):
        # a sleeping state may carry a timer; waking resets it, so a node woken by one jolt stays up a full window
        rest = generate_trace(ActivityKind.REST, 3.0, 60.0, seed=1)
        az = rest.az.copy()
        az[59] += 2.0  # the sample of the first wake tick, at 1 s
        state = initial_state(inactivity_window_s=1.7, low_activity_timer_s=1.69)
        result = _assert_replay_matches_steps(state, replace(rest, az=az))
        assert [iv.mode for iv in result.intervals] == [SensorMode.SLEEP, SensorMode.ACTIVE, SensorMode.SLEEP]
        assert result.intervals[1].t_end - result.intervals[1].t_start > 1.6

    @settings(max_examples=100, deadline=None)
    @given(
        segments=st.lists(
            st.tuples(st.sampled_from(list(ActivityKind)), st.floats(0.2, 5.0)), min_size=1, max_size=4
        ),
        rate_hz=_RATES,
        seed=st.integers(0, 2**30),
        sample_rate_hz=_RATES,
        wake_period_s=st.one_of(st.sampled_from([0.5, 1.0, 2.0]), st.floats(0.01, 2.5)),
        first_tick_s=st.one_of(st.none(), st.floats(-2.0, 2.0)),
        inactivity_window_s=st.sampled_from([0.5, 1.7, 300.0]),
        node_id=st.integers(0, 255),
        seq=st.integers(65500, 65535),
    )
    def test_random_schedules_and_states(
        self, segments, rate_hz, seed, sample_rate_hz, wake_period_s, first_tick_s, inactivity_window_s,
        node_id, seq,
    ):
        state = initial_state(
            sample_rate_hz=sample_rate_hz,
            wake_period_s=wake_period_s,
            inactivity_window_s=inactivity_window_s,
            node_id=node_id,
            seq=seq,
            **({} if first_tick_s is None else {"next_sample_at_s": first_tick_s}),
        )
        first = compose_schedule(segments, rate_hz=rate_hz, seed=seed)
        mid_run = _assert_replay_matches_steps(state, first).final_state
        # resume from wherever the first trace left the node, asleep or active
        second = compose_schedule(segments[::-1], rate_hz=rate_hz, seed=seed + 1)
        _assert_replay_matches_steps(mid_run, second)

    def test_constant_trace_on_the_history_dependent_step(self):
        # at 1.49999 g the next x range is the one it was read on, so the ladder depends on
        # history all the way; a 1 s window splits the stretch into chunks that must carry it
        n = 18_000
        trace = AccelTrace(rate_hz=60.0, ax=np.full(n, 1.49999), ay=np.zeros(n), az=np.ones(n),
                           labels=[ActivityKind.REST] * n)
        ranges = (MeasurementRange.G2_0, MeasurementRange.G1_5, MeasurementRange.G1_5)
        state = initial_state(mode=SensorMode.ACTIVE, ranges=ranges, inactivity_window_s=1.0, next_sample_at_s=0.0)
        start = time.perf_counter()
        replay_trace(state, trace)
        elapsed = time.perf_counter() - start
        result = _assert_replay_matches_steps(state, trace)
        assert {frame.range_codes for _, frame in result.frames} == {(1, 0, 0)}
        # about 0.1 s; a ladder iterated to a fixed point grows quadratically, to tens of seconds
        assert elapsed < 1.0

    def test_timestamps_stay_exact_far_from_zero(self):
        # at 1e17 s every sample lands on the same float instant, 1e20 ms, and every one is due
        trace = compose_schedule([(ActivityKind.REST, 1.0), (ActivityKind.FALL, 1.0)], seed=3)
        result = _assert_replay_matches_steps(initial_state(time_s=1e17), trace)
        assert [iv.mode for iv in result.intervals] == [SensorMode.SLEEP]
        assert result.final_state.mode is SensorMode.ACTIVE
        stamps = [frame.timestamp_ms for _, frame in result.frames]
        assert len(stamps) == len(trace)
        assert all(type(stamp) is int and stamp == 10**20 % 2**32 == 1661992960 for stamp in stamps)

    def test_mode_switch_every_few_samples(self, monkeypatch):
        # loud 2 samples in 7: a 0.05 s window puts the node to sleep 3 quiet samples later and
        # a 0.02 s wake period wakes it at the next loud one, so every stretch is a few samples long
        n = 3000
        az = np.where(np.arange(n) % 7 < 2, 1.8, 1.0)
        trace = AccelTrace(rate_hz=60.0, ax=np.zeros(n), ay=np.zeros(n), az=az, labels=[ActivityKind.REST] * n)
        state = initial_state(inactivity_window_s=0.05, wake_period_s=0.02)
        elements = []
        read = sensor._read
        monkeypatch.setattr(sensor, "_read", lambda acc, r: elements.append(np.size(acc)) or read(acc, r))
        result = _assert_replay_matches_steps(state, trace)
        assert len(result.intervals) > n / 5
        # the work past each switch stays within a first chunk: about 30 readings per sample,
        # where reading the rest of the trace at every switch would take about a thousand
        assert sum(elements) <= 60 * n

    @pytest.mark.parametrize("mode, n", [(SensorMode.ACTIVE, 18_000), (SensorMode.SLEEP, 15_000)])
    def test_chunks_double_in_a_long_stretch(self, monkeypatch, mode, n):
        # one steady stretch: active, 18,000 samples 0.5 g off rest on x, loud enough that the 0.5 s
        # window never runs out; asleep, 5,000 wake ticks on a quiet trace, one per 3 samples
        trace = AccelTrace(rate_hz=60.0, ax=np.full(n, 0.5 if mode is SensorMode.ACTIVE else 0.0),
                           ay=np.zeros(n), az=np.ones(n), labels=[ActivityKind.REST] * n)
        state = initial_state(mode=mode, inactivity_window_s=0.5, wake_period_s=0.05, next_sample_at_s=0.0)
        sizes = []
        read = sensor._read
        monkeypatch.setattr(sensor, "_read", lambda acc, r: sizes.append(np.shape(acc)[1]) or read(acc, r))
        result = _assert_replay_matches_steps(state, trace)
        assert [iv.mode for iv in result.intervals] == [mode]
        assert len(result.frames) >= (n if mode is SensorMode.ACTIVE else n // 3)
        # chunks of 32, 64, 128, ... readings: about log2(n / 32) reads, where chunks that stay
        # at 32 readings would take hundreds
        first = sensor._FIRST_CHUNK
        assert sizes[:-1] == [first << k for k in range(len(sizes) - 1)]
        assert len(sizes) <= math.ceil(math.log2(len(result.frames) / first + 1))

    @pytest.mark.parametrize("where", ["skipped asleep", "wake tick", "active"])
    def test_non_finite_sample_assigned_after_construction(self, where):
        # a sleeping 60 Hz node reads samples 59, 119, ... until the fall wakes it, then every sample
        trace = compose_schedule([(ActivityKind.REST, 2.5), (ActivityKind.FALL, 1.5)], seed=4)
        state = initial_state()
        times = [t for t, _ in _assert_replay_matches_steps(state, trace).frames]
        woke = round(times[2] * 60.0) - 1
        assert [round(t * 60.0) - 1 for t in times[:4]] == [59, 119, woke, woke + 1] and woke < 200
        # AccelTrace checks its arrays when built, not when changed later
        trace.ax = trace.ax.copy()
        trace.ax[{"skipped asleep": 30, "wake tick": 59, "active": woke + 5}[where]] = np.nan
        if where == "skipped asleep":
            _assert_replay_matches_steps(state, trace)
        else:
            with pytest.raises(ParameterError, match="acceleration must be finite, got nan"):
                replay_trace(state, trace)
            with pytest.raises(ParameterError, match="acceleration must be finite, got nan"):
                _step_replay(state, trace)

    def test_non_finite_sample_read_past_the_switch(self):
        # an active node with a 0.5 s window falls asleep at sample 30, inside its first chunk of
        # 32 samples; sample 31 is read with that chunk, but the node never takes it
        trace = generate_trace(ActivityKind.REST, 3.0, 60.0, seed=1)
        trace.az = trace.az.copy()
        trace.az[31] = np.nan
        state = initial_state(mode=SensorMode.ACTIVE, inactivity_window_s=0.5, next_sample_at_s=0.0)
        result = _assert_replay_matches_steps(state, trace)
        taken = [round(t * 60.0) - 1 for t, _ in result.frames]
        assert taken[29:32] == [29, 30, 90]
        assert result.intervals[0] == TimelineInterval(0.0, result.frames[30][0], SensorMode.ACTIVE)

    def test_frame_fields_out_of_range_rejected(self):
        # at construction, not once the first frame is built
        for name, value in (("node_id", -1), ("node_id", 256), ("seq", -1), ("seq", 0x10000)):
            with pytest.raises(ParameterError, match=f"{name} must be within"):
                initial_state(**{name: value})

    def test_non_integer_frame_fields_rejected(self):
        # a float node id used to fail only when its frame was encoded, a float seq inside the replay
        for name, value in (("node_id", 1.5), ("node_id", 1.0), ("seq", 2.5), ("seq", "2")):
            with pytest.raises(ParameterError, match=f"{name} must be an integer"):
                initial_state(**{name: value})

    def test_non_finite_state_time_rejected(self):
        for name in ("wake_period_s", "time_s", "next_sample_at_s", "last_sample_t_s"):
            with pytest.raises(ParameterError, match=name):
                initial_state(**{name: float("nan")})

    @pytest.mark.parametrize(
        "name, value, problem",
        [("wake_period_s", 0.0, "wake_period_s must be positive"),
         ("wake_period_s", -1.0, "wake_period_s must be positive"),
         *(("sample_rate_hz", rate, "rate_hz must be within") for rate in (0.0, 5.0, float("nan"), float("inf")))],
    )
    def test_bad_wake_period_or_rate_rejected(self, name, value, problem):
        with pytest.raises(ParameterError, match=problem):
            initial_state(**{name: value})
