"""Accelerometer node workflow: sleep/wake cycling, threshold activation,
per-axis adaptive range selection, and ADC quantization.

The node sleeps by default, waking once per wake period to take a single
low-range (+/-1.5 g) sample. A reading whose gravity-compensated magnitude
exceeds the activation threshold on any axis switches the node to continuous
sampling; each active sample re-selects the measurement range per axis for
the next sample. After the movement stays below the threshold for the full
inactivity window the node returns to sleep.

`replay_trace()` is the node's one state machine: it runs a whole trace
with one advance rule, jumping to the next sample that is due (the wake
tick while asleep, the next sample instant while active), and one sample
body for both modes. To advance one sample, replay a one-sample trace.
Per axis, the body calls `_quantize`, `_dequantize` and `_next_index`,
the one copy of the ADC model and the range ladder.
`tests/sensor_reference.py` holds a one-sample-at-a-time reference that
shares those helpers and that the tests require the kernel to match frame
for frame, interval for interval and in its final state.

`_frame` builds each frame with `frames._unchecked`, skipping the field
checks of `SensorFrame`, because every field is in range by construction:
`SensorState` checks the node id; the sequence number and the timestamp are
masked to their widths; `_quantize` clamps the codes to 0..65535; the range
indices are 0..3.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum
from numbers import Integral

import numpy as np

from .errors import ParameterError
from .frames import SensorFrame, _unchecked
from .motion import DEFAULT_RATE_HZ, AccelTrace, _require_rate

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


RANGE_LADDER = tuple(MeasurementRange)

# Span and sensitivity by range index (the frame's range code).
_RANGE_G = tuple(r.range_g for r in RANGE_LADDER)
_SENSITIVITY = tuple(r.sensitivity_mv_per_g for r in RANGE_LADDER)
_TOP = len(RANGE_LADDER) - 1


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


class SensorMode(Enum):
    SLEEP = "sleep"
    ACTIVE = "active"


_SLEEP_RANGES = (MeasurementRange.G1_5, MeasurementRange.G1_5, MeasurementRange.G1_5)


@dataclass(frozen=True)
class SensorState:
    """Value-type node state; replay_trace() returns the state a trace leaves."""

    mode: SensorMode = SensorMode.SLEEP
    ranges: tuple[MeasurementRange, MeasurementRange, MeasurementRange] = _SLEEP_RANGES
    wake_period_s: float = DEFAULT_WAKE_PERIOD_S
    sample_rate_hz: float = DEFAULT_RATE_HZ
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
        _require_rate(self.sample_rate_hz)
        for name in ("wake_period_s", "time_s", "next_sample_at_s", "last_sample_t_s"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError(f"{name} must be finite, got {getattr(self, name)}")
        if self.wake_period_s <= 0:
            raise ParameterError(f"wake_period_s must be positive, got {self.wake_period_s}")
        # the frame's one-byte node id and 16-bit sequence number
        for name in ("node_id", "seq"):
            if not isinstance(getattr(self, name), Integral):
                raise ParameterError(f"{name} must be an integer, got {getattr(self, name)!r}")
        if not 0 <= self.node_id <= 0xFF:
            raise ParameterError(f"node_id must be within [0, 255], got {self.node_id}")
        if not 0 <= self.seq <= 0xFFFF:
            raise ParameterError(f"seq must be within [0, 65535], got {self.seq}")


def initial_state(**kwargs) -> SensorState:
    """A sleeping node whose first wake tick lands one wake period in."""
    state = SensorState(**kwargs)
    if "next_sample_at_s" not in kwargs:
        state = replace(state, next_sample_at_s=state.time_s + state.wake_period_s)
    return state


def _deviation(x: float, y: float, z: float) -> float:
    """Largest gravity-compensated axis magnitude (1 g removed from z)."""
    return max(abs(x), abs(y), abs(z - 1.0))


def _frame(node_id: int, seq: int, t: float, codes, range_codes) -> SensorFrame:
    return _unchecked((node_id, seq, int(round(t * 1000.0)) & 0xFFFFFFFF, codes, range_codes))


@dataclass(frozen=True)
class TimelineInterval:
    t_start: float
    t_end: float
    mode: SensorMode

    def __post_init__(self):
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end) and self.t_end >= self.t_start):
            raise ParameterError(f"interval needs finite bounds with t_end >= t_start, "
                                 f"got [{self.t_start}, {self.t_end}]")


@dataclass
class ReplayResult:
    """Outcome of driving one node through a trace."""

    frames: list[tuple[float, SensorFrame]]
    intervals: list[TimelineInterval]
    final_state: SensorState


def replay_trace(state: SensorState, trace: AccelTrace) -> ReplayResult:
    """Run the state machine over a full trace.

    Sample i is taken at time_s + dt + ... + dt (i + 1 terms), summed in
    order. Asleep or active, the node jumps to the first due sample (the
    first i with `times[i] + _TIME_EPS >= next_sample_at_s`), quantizes it
    on the current ranges (the lowest while asleep) and emits its frame.
    An active node then updates its inactivity timer and may fall asleep;
    a sleeping one wakes past the threshold or re-arms its wake tick; a
    node active after that steps its ranges and arms its next sample.
    `tests/sensor_reference.py` advances the same node one sample at a
    time and must give the same frames, intervals and final state.
    """
    n = len(trace)
    frames: list[tuple[float, SensorFrame]] = []
    intervals: list[TimelineInterval] = []
    if n == 0:
        return ReplayResult(frames=frames, intervals=intervals, final_state=state)
    dt = 1.0 / trace.rate_hz
    times = np.full(n + 1, dt)
    times[0] = state.time_s
    times = np.cumsum(times, out=times)[1:]
    # float64 in native byte order, the one layout a memoryview reads as Python floats
    columns = (times + _TIME_EPS, times, *(np.asarray(a, dtype=float) for a in (trace.ax, trace.ay, trace.az)))

    node_id, threshold = state.node_id, state.activation_threshold_g
    wake_period, window = state.wake_period_s, state.inactivity_window_s
    period = 1.0 / state.sample_rate_hz
    active = state.mode is SensorMode.ACTIVE
    r0, r1, r2 = (rng.code for rng in state.ranges)
    timer, seq = state.low_activity_timer_s, state.seq
    next_at, last = state.next_sample_at_s, state.last_sample_t_s
    seg_start = state.time_s
    # a sleeping node reads one sample per wake tick, an active one nearly every sample
    wake, t, ax, ay, az = (c.tolist() if active else memoryview(c) for c in columns)
    i = 0
    while i < n:
        if wake[i] < next_at:
            i = bisect_left(wake, next_at, i)
            continue
        now = t[i]
        cx, kx = _quantize(ax[i], r0)
        cy, ky = _quantize(ay[i], r1)
        cz, kz = _quantize(az[i], r2)
        vx, vy, vz = _dequantize(cx, r0, kx), _dequantize(cy, r1, ky), _dequantize(cz, r2, kz)
        frames.append((now, _frame(node_id, seq, now, (cx, cy, cz), (r0, r1, r2))))
        seq = (seq + 1) & 0xFFFF
        i += 1
        deviation = _deviation(vx, vy, vz)
        if active:
            # no clamp at the window: a timer that reaches it is reset below
            timer = timer + (now - last) if deviation < threshold else 0.0
            active = timer < window
            if not active:
                r0 = r1 = r2 = 0
                timer = 0.0
                next_at = now + wake_period
                intervals.append(TimelineInterval(seg_start, now, SensorMode.ACTIVE))
                seg_start = now
        elif deviation > threshold:
            active = True
            timer = 0.0
            intervals.append(TimelineInterval(seg_start, now, SensorMode.SLEEP))
            seg_start = now
            if isinstance(t, memoryview):
                wake, t, ax, ay, az = (c.tolist() for c in columns)
        else:
            next_tick = next_at + wake_period
            next_at = next_tick if next_tick > now + _TIME_EPS else now + wake_period
        last = now
        if active:
            r0, r1, r2 = _next_index(vx, r0, kx), _next_index(vy, r1, ky), _next_index(vz, r2, kz)
            next_at = now + period

    end = float(times[-1])
    mode = SensorMode.ACTIVE if active else SensorMode.SLEEP
    if end > seg_start:
        intervals.append(TimelineInterval(seg_start, end, mode))
    final_state = replace(
        state,
        mode=mode,
        ranges=(RANGE_LADDER[r0], RANGE_LADDER[r1], RANGE_LADDER[r2]),
        low_activity_timer_s=timer,
        seq=seq,
        time_s=end,
        next_sample_at_s=next_at,
        last_sample_t_s=last,
    )
    return ReplayResult(frames=frames, intervals=intervals, final_state=final_state)
