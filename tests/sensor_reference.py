"""One-sample-at-a-time reference of the sensor node, the oracle that
`bsnsim.sensor.replay_trace` is checked against.

`step()` advances one `SensorState` by one sample, written as directly as
the node's workflow reads. It shares the ADC and range-ladder helpers of
`bsnsim.sensor`, so the differential tests compare the kernel's control
flow (wake ticks, the activation and inactivity rules, the seq wrap, the
sample timestamps), not two copies of one formula.
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple

from bsnsim.errors import ParameterError
from bsnsim.frames import SensorFrame
from bsnsim.sensor import (
    _SLEEP_RANGES,
    _TIME_EPS,
    RANGE_LADDER,
    SensorMode,
    SensorState,
    _dequantize,
    _deviation,
    _frame,
    _next_index,
    _quantize,
)


class AccelSample(NamedTuple):
    """One timestamped triaxial reading in g."""

    t: float
    ax: float
    ay: float
    az: float


def _measure(sample: AccelSample, ranges) -> tuple[tuple, tuple[float, float, float]]:
    """Per axis (ADC code, clip flag) on the given ranges, and the values read back."""
    reading = tuple(_quantize(a, r.code) for a, r in zip((sample.ax, sample.ay, sample.az), ranges))
    return reading, tuple(_dequantize(code, r.code, clipped) for (code, clipped), r in zip(reading, ranges))


def _reading_frame(state: SensorState, t: float, reading, ranges) -> SensorFrame:
    return _frame(state.node_id, state.seq, t, tuple(code for code, _ in reading), tuple(r.code for r in ranges))


def step(state: SensorState, true_accel: AccelSample, dt: float) -> tuple[SensorState, SensorFrame | None]:
    """Advance the node by dt with the given true acceleration present.

    Emits a frame whenever a sample is taken: at every sleep wake tick and
    at every active-mode sample instant.
    """
    if dt <= 0:
        raise ParameterError(f"dt must be positive, got {dt}")
    now = state.time_s + dt
    if now + _TIME_EPS < state.next_sample_at_s:
        return replace(state, time_s=now), None

    if state.mode is SensorMode.SLEEP:
        reading, measured = _measure(true_accel, _SLEEP_RANGES)
        frame = _reading_frame(state, now, reading, _SLEEP_RANGES)
        if _deviation(*measured) > state.activation_threshold_g:
            new_state = replace(
                state,
                mode=SensorMode.ACTIVE,
                ranges=_next_ranges(_SLEEP_RANGES, reading, measured),
                low_activity_timer_s=0.0,
                seq=(state.seq + 1) & 0xFFFF,
                time_s=now,
                next_sample_at_s=now + 1.0 / state.sample_rate_hz,
                last_sample_t_s=now,
            )
        else:
            next_tick = state.next_sample_at_s + state.wake_period_s
            if next_tick <= now + _TIME_EPS:
                next_tick = now + state.wake_period_s
            new_state = replace(
                state,
                seq=(state.seq + 1) & 0xFFFF,
                time_s=now,
                next_sample_at_s=next_tick,
                last_sample_t_s=now,
            )
        return new_state, frame

    reading, measured = _measure(true_accel, state.ranges)
    frame = _reading_frame(state, now, reading, state.ranges)
    elapsed = now - state.last_sample_t_s
    if _deviation(*measured) < state.activation_threshold_g:
        timer = min(state.low_activity_timer_s + elapsed, state.inactivity_window_s)
    else:
        timer = 0.0
    if timer >= state.inactivity_window_s:
        new_state = replace(
            state,
            mode=SensorMode.SLEEP,
            ranges=_SLEEP_RANGES,
            low_activity_timer_s=0.0,
            seq=(state.seq + 1) & 0xFFFF,
            time_s=now,
            next_sample_at_s=now + state.wake_period_s,
            last_sample_t_s=now,
        )
    else:
        new_state = replace(
            state,
            ranges=_next_ranges(state.ranges, reading, measured),
            low_activity_timer_s=timer,
            seq=(state.seq + 1) & 0xFFFF,
            time_s=now,
            next_sample_at_s=now + 1.0 / state.sample_rate_hz,
            last_sample_t_s=now,
        )
    return new_state, frame


def _next_ranges(ranges, reading, measured):
    """Range update as the microcontroller sees it, axis by axis."""
    return tuple(
        RANGE_LADDER[_next_index(value, r.code, clipped)]
        for value, r, (_, clipped) in zip(measured, ranges, reading)
    )
