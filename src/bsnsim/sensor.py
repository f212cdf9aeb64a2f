"""Accelerometer node workflow: sleep/wake cycling, threshold activation,
per-axis adaptive range selection, and ADC quantization.

The node sleeps by default, waking once per wake period to take a single
low-range (+/-1.5 g) sample. A reading whose gravity-compensated magnitude
exceeds the activation threshold on any axis switches the node to continuous
sampling; each active sample re-selects the measurement range per axis for
the next sample. After the movement stays below the threshold for the full
inactivity window the node returns to sleep.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum

from .errors import ParameterError
from .frames import SensorFrame
from .motion import AccelSample, AccelTrace

ADC_FULL_SCALE = 65535
V_REF = 3.3
DEFAULT_ACTIVATION_THRESHOLD_G = 0.3
DEFAULT_WAKE_PERIOD_S = 1.0
DEFAULT_INACTIVITY_WINDOW_S = 300.0
_TIME_EPS = 1e-9


class MeasurementRange(Enum):
    """Selectable full-scale span with its output sensitivity."""

    G1_5 = (1.5, 800.0)
    G2_0 = (2.0, 600.0)
    G4_0 = (4.0, 300.0)
    G6_0 = (6.0, 200.0)

    @property
    def range_g(self) -> float:
        return self.value[0]

    @property
    def sensitivity_mv_per_g(self) -> float:
        return self.value[1]

    @property
    def code(self) -> int:
        return RANGE_LADDER.index(self)


RANGE_LADDER = (
    MeasurementRange.G1_5,
    MeasurementRange.G2_0,
    MeasurementRange.G4_0,
    MeasurementRange.G6_0,
)


@dataclass(frozen=True)
class AxisReading:
    """One quantized axis sample."""

    code: int
    range: MeasurementRange
    clipped: bool


@dataclass(frozen=True)
class AdcReading:
    x: AxisReading
    y: AxisReading
    z: AxisReading

    @property
    def axes(self) -> tuple[AxisReading, AxisReading, AxisReading]:
        return (self.x, self.y, self.z)


def quantize(a_g: float, meas_range: MeasurementRange, v_ref: float = V_REF) -> AxisReading:
    """Quantize one axis value.

    Voltage model: v = v_ref/2 + a * sensitivity, clamped to [0, v_ref];
    code = round(v / v_ref * 65535). The clipped flag is set when |a|
    exceeds the selected range, independent of ADC saturation.
    """
    if not math.isfinite(a_g):
        raise ParameterError(f"acceleration must be finite, got {a_g}")
    v = v_ref / 2.0 + a_g * meas_range.sensitivity_mv_per_g / 1000.0
    v = min(max(v, 0.0), v_ref)
    code = round(v / v_ref * ADC_FULL_SCALE)
    return AxisReading(code=code, range=meas_range, clipped=abs(a_g) > meas_range.range_g)


def dequantize(reading: AxisReading) -> float:
    """Invert the quantize voltage model; clipped readings saturate at the range bound."""
    if reading.clipped:
        v_mid = V_REF / 2.0
        v = reading.code / ADC_FULL_SCALE * V_REF
        return math.copysign(reading.range.range_g, v - v_mid if v != v_mid else 1.0)
    v = reading.code / ADC_FULL_SCALE * V_REF
    return (v - V_REF / 2.0) / (reading.range.sensitivity_mv_per_g / 1000.0)


def select_range_axis(reading_g: float, current: MeasurementRange) -> MeasurementRange:
    """Pick the next range for one axis.

    A reading beyond the current span steps up exactly one level (saturating
    at +/-6 g); otherwise the smallest range covering the reading wins, which
    keeps sensitivity maximal without clipping.
    """
    mag = abs(reading_g)
    idx = RANGE_LADDER.index(current)
    if mag > current.range_g:
        return RANGE_LADDER[min(idx + 1, len(RANGE_LADDER) - 1)]
    for candidate in RANGE_LADDER:
        if mag <= candidate.range_g:
            return candidate
    return RANGE_LADDER[-1]


def select_range(
    readings_g: tuple[float, float, float],
    current: tuple[MeasurementRange, MeasurementRange, MeasurementRange],
) -> tuple[MeasurementRange, MeasurementRange, MeasurementRange]:
    """Apply select_range_axis independently on all three axes."""
    return tuple(select_range_axis(r, c) for r, c in zip(readings_g, current))  # type: ignore[return-value]


class SensorMode(Enum):
    SLEEP = "sleep"
    ACTIVE = "active"


_SLEEP_RANGES = (MeasurementRange.G1_5, MeasurementRange.G1_5, MeasurementRange.G1_5)


@dataclass(frozen=True)
class SensorState:
    """Value-type node state; step() returns the successor state."""

    mode: SensorMode = SensorMode.SLEEP
    ranges: tuple[MeasurementRange, MeasurementRange, MeasurementRange] = _SLEEP_RANGES
    wake_period_s: float = DEFAULT_WAKE_PERIOD_S
    sample_rate_hz: float = 60.0
    activation_threshold_g: float = DEFAULT_ACTIVATION_THRESHOLD_G
    inactivity_window_s: float = DEFAULT_INACTIVITY_WINDOW_S
    low_activity_timer_s: float = 0.0
    node_id: int = 1
    seq: int = 0
    time_s: float = 0.0
    next_sample_at_s: float = field(default=DEFAULT_WAKE_PERIOD_S)
    last_sample_t_s: float = 0.0

    def __post_init__(self):
        if self.mode is SensorMode.SLEEP and self.ranges != _SLEEP_RANGES:
            raise ParameterError("sleep mode requires the lowest range on all axes")
        if not 0.0 <= self.low_activity_timer_s <= self.inactivity_window_s:
            raise ParameterError("low_activity_timer_s outside [0, inactivity_window]")
        if not 10.0 <= self.sample_rate_hz <= 100.0:
            raise ParameterError(f"sample_rate_hz must be within [10, 100], got {self.sample_rate_hz}")


def initial_state(**kwargs) -> SensorState:
    """A sleeping node whose first wake tick lands one wake period in."""
    state = SensorState(**kwargs)
    if "next_sample_at_s" not in kwargs:
        state = replace(state, next_sample_at_s=state.time_s + state.wake_period_s)
    return state


def _measure(sample: AccelSample, ranges) -> tuple[AdcReading, tuple[float, float, float]]:
    rx = quantize(sample.ax, ranges[0])
    ry = quantize(sample.ay, ranges[1])
    rz = quantize(sample.az, ranges[2])
    reading = AdcReading(rx, ry, rz)
    return reading, (dequantize(rx), dequantize(ry), dequantize(rz))


def _deviation(measured: tuple[float, float, float]) -> float:
    """Largest gravity-compensated axis magnitude (1 g removed from z)."""
    return max(abs(measured[0]), abs(measured[1]), abs(measured[2] - 1.0))


def _frame(state: SensorState, t: float, reading: AdcReading) -> SensorFrame:
    return SensorFrame(
        node_id=state.node_id,
        seq=state.seq,
        timestamp_ms=int(round(t * 1000.0)) & 0xFFFFFFFF,
        codes=tuple(ax.code for ax in reading.axes),  # type: ignore[arg-type]
        range_codes=tuple(ax.range.code for ax in reading.axes),  # type: ignore[arg-type]
    )


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
        frame = _frame(state, now, reading)
        if _deviation(measured) > state.activation_threshold_g:
            clipped = tuple(ax.clipped for ax in reading.axes)
            next_ranges = _next_ranges(measured, _SLEEP_RANGES, clipped)
            new_state = replace(
                state,
                mode=SensorMode.ACTIVE,
                ranges=next_ranges,
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
    frame = _frame(state, now, reading)
    elapsed = now - state.last_sample_t_s
    if _deviation(measured) < state.activation_threshold_g:
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
        clipped = tuple(ax.clipped for ax in reading.axes)
        new_state = replace(
            state,
            ranges=_next_ranges(measured, state.ranges, clipped),
            low_activity_timer_s=timer,
            seq=(state.seq + 1) & 0xFFFF,
            time_s=now,
            next_sample_at_s=now + 1.0 / state.sample_rate_hz,
            last_sample_t_s=now,
        )
    return new_state, frame


def _next_ranges(measured, current, clipped):
    """Range update as the microcontroller sees it: a clipped axis steps up
    one level; an in-range axis takes the smallest covering range."""
    out = []
    for value, rng, clip in zip(measured, current, clipped):
        if clip:
            idx = RANGE_LADDER.index(rng)
            out.append(RANGE_LADDER[min(idx + 1, len(RANGE_LADDER) - 1)])
        else:
            out.append(select_range_axis(value, rng))
    return tuple(out)


@dataclass(frozen=True)
class TimelineInterval:
    t_start: float
    t_end: float
    mode: SensorMode


@dataclass
class ReplayResult:
    """Outcome of driving one node through a trace."""

    frames: list[tuple[float, SensorFrame]]
    intervals: list[TimelineInterval]
    final_state: SensorState


def replay_trace(state: SensorState, trace: AccelTrace) -> ReplayResult:
    """Run the state machine over a full trace, one step per sample."""
    dt = 1.0 / trace.rate_hz
    frames: list[tuple[float, SensorFrame]] = []
    intervals: list[TimelineInterval] = []
    seg_start = state.time_s
    seg_mode = state.mode
    for i in range(len(trace)):
        state, frame = step(state, trace.sample(i), dt)
        if frame is not None:
            frames.append((state.time_s, frame))
        if state.mode is not seg_mode:
            intervals.append(TimelineInterval(seg_start, state.time_s, seg_mode))
            seg_start = state.time_s
            seg_mode = state.mode
    if state.time_s > seg_start:
        intervals.append(TimelineInterval(seg_start, state.time_s, seg_mode))
    return ReplayResult(frames=frames, intervals=intervals, final_state=state)
