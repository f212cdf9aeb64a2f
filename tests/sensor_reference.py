"""One-sample-at-a-time reference of the sensor node, the oracle that
`bsnsim.sensor.replay_trace` is checked against.

`step()` advances one `SensorState` by one sample, written as directly as
the node's workflow reads. The scalar ADC and range-ladder helpers below
(`_quantize`, `_dequantize`, `_next_index`, `_deviation`, `_frame`) are a
scalar copy of the kernel's ADC model and range ladder, one sample at a
time, while the kernel reads whole stretches through its elementwise
`_read`; so the differential tests check its control flow (wake ticks,
the activation and inactivity rules, the seq wrap, the sample timestamps)
and its formula against an independent copy.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import partial
from typing import NamedTuple

from bsnsim.errors import ParameterError
from bsnsim.frames import TIMESTAMP_MAX, SensorFrame
from bsnsim.sensor import (
    _RANGE_G,
    _SENSITIVITY,
    _SLEEP_RANGES,
    _TIME_EPS,
    _TOP,
    ADC_FULL_SCALE,
    RANGE_LADDER,
    V_REF,
    SensorMode,
    SensorState,
)

# A frame from a (node_id, seq, timestamp_ms, codes, range_codes) tuple whose
# fields are known to be in range, without the checks.
_unchecked = partial(tuple.__new__, SensorFrame)


def _quantize(a_g: float, idx: int) -> tuple[int, bool]:
    """ADC code and clip flag of one axis on range index `idx`: the voltage
    V_REF/2 + a * sensitivity, clamped to [0, V_REF], read as 0..65535; the
    flag is set when |a| exceeds the range, whatever the ADC saturation."""
    if not math.isfinite(a_g):
        raise ParameterError(f"acceleration must be finite, got {a_g}")
    v = V_REF / 2.0 + a_g * _SENSITIVITY[idx] / 1000.0
    if v < 0.0:
        v = 0.0
    elif v > V_REF:
        v = V_REF
    return round(v / V_REF * ADC_FULL_SCALE), abs(a_g) > _RANGE_G[idx]


def _dequantize(code: int, idx: int, clipped: bool) -> float:
    """Invert the voltage model; a clipped reading saturates at the range bound."""
    v = code / ADC_FULL_SCALE * V_REF
    if clipped:
        v_mid = V_REF / 2.0
        return math.copysign(_RANGE_G[idx], v - v_mid if v != v_mid else 1.0)
    return (v - V_REF / 2.0) / (_SENSITIVITY[idx] / 1000.0)


def _next_index(value_g: float, idx: int, clipped: bool) -> int:
    """Next range index of one axis: a clipped reading, or one beyond the
    current span, steps up one level (saturating at +/-6 g); otherwise the
    smallest range covering the reading wins."""
    mag = abs(value_g)
    if clipped or mag > _RANGE_G[idx]:
        return min(idx + 1, _TOP)
    for k, span in enumerate(_RANGE_G):
        if mag <= span:
            return k
    return _TOP


def _deviation(x: float, y: float, z: float) -> float:
    """Largest gravity-compensated axis magnitude (1 g removed from z)."""
    return max(abs(x), abs(y), abs(z - 1.0))


def _frame(node_id: int, seq: int, t: float, codes, range_codes) -> SensorFrame:
    return _unchecked((node_id, seq, int(round(t * 1000.0)) & TIMESTAMP_MAX, codes, range_codes))


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
