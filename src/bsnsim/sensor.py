"""Accelerometer node workflow: sleep/wake cycling, threshold activation,
per-axis adaptive range selection, and ADC quantization.

The node sleeps by default, waking once per wake period to take a single
low-range (+/-1.5 g) sample. A reading whose gravity-compensated magnitude
exceeds the activation threshold on any axis switches the node to continuous
sampling; each active sample re-selects the measurement range per axis for
the next sample. After the movement stays below the threshold for the full
inactivity window the node returns to sleep.

`replay_trace()` is the node's one state machine. It advances by one rule,
jumping to the next sample that is due (the wake tick while asleep, the
next sample instant while active), and runs a trace one mode stretch at a
time, in numpy. The two modes differ in three things only:

- which samples are due: asleep, the wake ticks, walked with the scalar
  rule; active, the chain of due samples (every sample from the first when
  the node samples at the trace rate);
- which ranges they are read on, in one call: asleep, the lowest; active,
  the ones each axis's range ladder gives;
- where the stretch ends: asleep, at the first reading past the threshold;
  active, where the inactivity timer, walked over the deviations, reaches
  the window.

One tail, shared by both modes, then checks and keeps the readings up to
that end, and either switches mode (the interval of the mode left is
recorded and the timer reset) or carries the ranges and the next due
sample into the stretch's next chunk. A stretch is taken in chunks that
double in size, so the work past a mode switch stays within the stretch's
own length.

Where samples are evaluated: a sleeping node reads only its wake ticks,
from the trace's parts through `AccelTrace._samples`, so a generated trace
evaluates its sway segments at those samples alone (see `motion`). The first
active read materialises the trace and indexes a float64 copy from then on.

`_read` is the one ADC model, elementwise: code, value read back and next
range index. The ladder needs history only above 1 g (`_SETTLED_G`);
`_ladder` reads those samples on all four ranges and walks them in order,
one lookup each. To advance one sample, replay a one-sample trace.
`tests/sensor_reference.py` holds a one-sample-at-a-time reference, with
its own scalar copy of the ADC model, that the tests require the kernel to
match frame for frame, interval for interval and in its final state.

The tail builds no frame: it keeps each chunk's times, ADC codes and packed
range bytes (0 asleep) up to the cut, and after the last chunk they are
copied into one (7, m) int64 field matrix, one column per frame: node id,
seq, timestamp, the three codes and the packed range byte. The sequence
numbers count up by one from the state's and the stamps come from the
times, both computed once per replay. `ReplayResult.frames` builds the
`(t, SensorFrame)` pairs with `frames._frames` on first access, unchecked,
because every field is in range by construction: `SensorState` checks the
node id against `frames.NODE_ID_MAX`; the sequence number and the
timestamp are masked with `frames.SEQ_MAX` and `frames.TIMESTAMP_MAX`,
their widths; `_read` clamps the codes to 0..65535; the range indices are
0..3.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .errors import ParameterError, finite_number, require_finite, require_integer, require_positive, require_type
from .frames import _RANGE_BYTE, NODE_ID_MAX, SEQ_MAX, TIMESTAMP_MAX, SensorFrame, _frames
from .motion import DEFAULT_RATE_HZ, RATE_HZ_MAX, RATE_HZ_MIN, AccelTrace, _require_finite_acceleration

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

_TOP = len(RANGE_LADDER) - 1
# Span and sensitivity (also in V/g) by range code for the elementwise ADC model, and the range one step up.
_SPAN = np.array([r.range_g for r in RANGE_LADDER])
_MV_PER_G = np.array([r.sensitivity_mv_per_g for r in RANGE_LADDER])
_V_PER_G = _MV_PER_G / 1000.0
_LADDER = np.arange(len(RANGE_LADDER))
_UP = np.minimum(_LADDER + 1, _TOP)
# A reading within 1 g comes back within 1.0002 g on every range (half an LSB
# is at most 1.3e-4 g), inside the lowest span: its next range is the lowest,
# whatever range it was read on. Only the ladder steps above it depend on history.
_SETTLED_G = 1.0
# Samples (asleep: wake ticks) in a stretch's first chunk; each further chunk
# doubles, so the work past a mode switch stays within the stretch's length.
_FIRST_CHUNK = 32


def _read(acc, r):
    """The ADC model, elementwise over accelerations `acc` (g) on range
    indices `r`: the ADC code (an integral float), the value read back and
    the next range index.

    The voltage V_REF/2 + a * sensitivity, clamped to [0, V_REF], reads as
    0..65535. A clipped reading (|a| beyond the span, whatever the ADC
    saturation) reads back as the span with the voltage's sign. A clipped
    reading, or a value read back beyond the span, steps up one range
    (saturating at +/-6 g); otherwise the smallest range covering the value wins.
    """
    span = _SPAN[r]
    volts = np.minimum(np.maximum(V_REF / 2.0 + acc * _MV_PER_G[r] / 1000.0, 0.0), V_REF)
    code = np.rint(volts / V_REF * ADC_FULL_SCALE)
    # the read-back voltage about mid-scale; a clipped reading at mid-scale counts as positive
    centred = code / ADC_FULL_SCALE * V_REF - V_REF / 2.0
    clipped = np.abs(acc) > span
    value = np.where(clipped, np.copysign(span, centred), centred / _V_PER_G[r])
    mag = np.abs(value)
    return code, value, np.where(clipped | (mag > span), _UP[r], np.searchsorted(_SPAN, mag))


def _ladder(acc, start) -> np.ndarray:
    """Range index of each axis (rows of `acc`) at each of its m samples and
    after the last, (3, m + 1), from the `start` ranges. Above `_SETTLED_G`
    the next range depends on the current one, so those samples are read on
    every range and walked in order, one table lookup each."""
    ranges = np.zeros((3, acc.shape[1] + 1), dtype=np.intp)
    ranges[:, 0] = start
    axes, ks = np.nonzero(np.abs(acc) > _SETTLED_G)
    if axes.size:
        table = _read(acc[axes, ks][:, None], _LADDER)[2].tolist()
        steps = []
        last_axis = last_k = -1
        for axis, k, row in zip(axes.tolist(), ks.tolist(), table):
            if axis != last_axis or k != last_k + 1:
                # the sample before was settled, or this is the axis's first
                r = int(start[axis]) if k == 0 else 0
            r = row[r]
            steps.append(r)
            last_axis, last_k = axis, k
        ranges[axes, ks + 1] = steps
    return ranges


def _deviation(values: np.ndarray) -> np.ndarray:
    """Largest gravity-compensated axis magnitude (1 g removed from z) per sample."""
    x, y, z = np.abs(values[0]), np.abs(values[1]), np.abs(values[2] - 1.0)
    return np.maximum(np.maximum(x, y), z)


class SensorMode(Enum):
    SLEEP = "sleep"
    ACTIVE = "active"


_SLEEP_RANGES = (MeasurementRange.G1_5, MeasurementRange.G1_5, MeasurementRange.G1_5)


@dataclass(frozen=True)
class SensorState:
    """Value-type node state; replay_trace() returns the state a trace leaves.

    `next_sample_at_s` defaults to one wake period after `time_s`: the first wake tick."""

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
    next_sample_at_s: float | None = None
    last_sample_t_s: float = 0.0

    def __post_init__(self):
        require_type("mode", self.mode, SensorMode)
        ranges = self.ranges
        if not (isinstance(ranges, tuple) and len(ranges) == 3
                and all(isinstance(r, MeasurementRange) for r in ranges)):
            raise ParameterError(f"ranges must be a tuple of three MeasurementRanges, got {ranges!r}")
        if self.mode is SensorMode.SLEEP and ranges != _SLEEP_RANGES:
            raise ParameterError("sleep mode requires the lowest range on all axes")
        require_finite("sample_rate_hz", self.sample_rate_hz, RATE_HZ_MIN, RATE_HZ_MAX)
        require_positive("wake_period_s", self.wake_period_s)
        if self.next_sample_at_s is None and finite_number(self.time_s):  # else time_s is refused below
            object.__setattr__(self, "next_sample_at_s", self.time_s + self.wake_period_s)
        for name in ("activation_threshold_g", "inactivity_window_s", "low_activity_timer_s", "time_s",
                     "next_sample_at_s", "last_sample_t_s"):
            require_finite(name, getattr(self, name))
        if not 0.0 <= self.low_activity_timer_s <= self.inactivity_window_s:
            raise ParameterError("low_activity_timer_s outside [0, inactivity_window]")
        # the widths of the frame's node id and sequence number
        require_integer("node_id", self.node_id, 0, NODE_ID_MAX)
        require_integer("seq", self.seq, 0, SEQ_MAX)


def initial_state(**kwargs) -> SensorState:
    """`SensorState(**kwargs)`: by default a sleeping node whose first wake tick lands one wake period in."""
    return SensorState(**kwargs)


@dataclass(frozen=True)
class TimelineInterval:
    t_start: float
    t_end: float
    mode: SensorMode

    def __post_init__(self):
        if not (finite_number(self.t_start) and finite_number(self.t_end) and self.t_end >= self.t_start):
            raise ParameterError(f"interval needs finite bounds with t_end >= t_start, "
                                 f"got [{self.t_start!r}, {self.t_end!r}]")
        require_type("mode", self.mode, SensorMode)


@dataclass(eq=False)
class ReplayResult:
    """Outcome of driving one node through a trace: the time of each frame,
    the frames' (7, m) int64 field matrix (see `frames._frames`), the mode
    intervals and the final state; two results are equal when all four are."""

    t: np.ndarray
    fields: np.ndarray
    intervals: list[TimelineInterval]
    final_state: SensorState

    @cached_property
    def frames(self) -> list[tuple[float, SensorFrame]]:
        """The (t, frame) pairs, built on first access."""
        return list(zip(self.t.tolist(), _frames(self.fields.tolist())))

    def __eq__(self, other):
        return (isinstance(other, ReplayResult) and np.array_equal(self.t, other.t)
                and np.array_equal(self.fields, other.fields)
                and (self.intervals, self.final_state) == (other.intervals, other.final_state))


def replay_trace(state: SensorState, trace: AccelTrace) -> ReplayResult:
    """Run the state machine over a full trace.

    Sample i is taken at time_s + dt + ... + dt (i + 1 terms), summed in
    order. Asleep or active, the node jumps to the first due sample (the
    first i with `times[i] + _TIME_EPS >= next_sample_at_s`), reads it on
    the current ranges (the lowest while asleep) and emits its frame.
    An active node then updates its inactivity timer and may fall asleep;
    a sleeping one wakes past the threshold or re-arms its wake tick; a
    node active after that steps its ranges and arms its next sample.

    The node runs one mode stretch at a time, each in chunks that double
    in size. In each chunk the mode's own part picks the due samples,
    reads them and finds where the stretch ends; the shared tail checks
    and keeps the readings up to there, then switches mode (closing the
    mode's interval, resetting the timer and starting a first chunk) or
    doubles the chunk. After the last chunk the kept readings become the
    result's `t` and `fields`; frames are built only when
    `ReplayResult.frames` is read. `tests/sensor_reference.py` advances the
    same node one sample at a time and must give the same frames,
    intervals and final state.
    """
    require_type("state", state, SensorState)
    require_type("trace", trace, AccelTrace)
    n = len(trace)
    intervals: list[TimelineInterval] = []
    if n == 0:
        return ReplayResult(np.empty(0), np.empty((7, 0), np.int64), intervals, state)
    dt = 1.0 / trace.rate_hz
    times = np.full(n + 1, dt)
    times[0] = state.time_s
    times = np.cumsum(times, out=times)[1:]
    wake = times + _TIME_EPS
    # the samples, float64 in native byte order, one row per axis: built at the first active read
    acc = None
    # the wake ticks and the due samples are walked on Python floats
    wake_at, t_at = memoryview(wake), memoryview(times)

    node_id, threshold = state.node_id, state.activation_threshold_g
    wake_period, window = state.wake_period_s, state.inactivity_window_s
    period = 1.0 / state.sample_rate_hz
    active = state.mode is SensorMode.ACTIVE
    ranges = np.array([rng.code for rng in state.ranges])
    timer, next_at, last = state.low_activity_timer_s, state.next_sample_at_s, state.last_sample_t_s
    seg_start = state.time_s
    i, size = 0, _FIRST_CHUNK
    # each chunk's times, ADC codes and packed range bytes (0 asleep) up to its cut; m frames in all
    chunks, m = [], 0
    while i < n:
        i = bisect_left(wake_at, next_at, i)
        if i == n:
            break
        # from the first due sample, each mode picks the samples due in this chunk (`idx`), reads
        # them, and cuts the stretch where it ends (`switch`); `nxt` is each reading's next range
        if active:
            # the node stays up at least until its timer has run the rest of the window
            stop = min(n, max(i + size, bisect_left(t_at, last + (window - timer), i)))
            # the sample due after each: the first one past the sample interval, and not itself
            after = np.arange(i + 1, stop + 1)
            due = np.maximum(np.searchsorted(wake, times[i:stop] + period), after)
            if np.array_equal(due, after):
                idx, i = np.arange(i, stop), stop
            else:
                due, chain, next_i = due.tolist(), [], i
                while next_i < stop:
                    chain.append(next_i)
                    next_i = due[next_i - i]
                idx, i = np.array(chain), next_i
            if acc is None:
                acc = np.array([trace.ax, trace.ay, trace.az], dtype=float)
            a = acc[:, idx]
            steps = _ladder(a, ranges)
            codes, values, _ = _read(a, steps[:, :-1])
            t, nxt = times[idx], steps[:, 1:]
            cut, switch = len(idx), False
            gaps = (t - np.concatenate(([last], t[:-1]))).tolist()
            for k, (gap, quiet) in enumerate(zip(gaps, (_deviation(values) < threshold).tolist())):
                # no clamp at the window: a timer that reaches it is reset below
                timer = timer + gap if quiet else 0.0
                if timer >= window:
                    cut, switch = k + 1, True
                    break
            range_byte = _RANGE_BYTE @ steps[:, :cut]
        else:
            # walk up to `size` wake ticks with the scalar rule
            idx = []
            while i < n and len(idx) < size:
                now = t_at[i]
                next_tick = next_at + wake_period
                next_at = next_tick if next_tick > now + _TIME_EPS else now + wake_period
                idx.append(i)
                i = bisect_left(wake_at, next_at, i + 1)
            a = trace._samples(idx)
            codes, values, nxt = _read(a, 0)
            t = times[idx]
            woke = np.flatnonzero(_deviation(values) > threshold)
            switch = woke.size > 0
            cut = int(woke[0]) + 1 if switch else len(idx)
            range_byte = 0
        # both modes: keep the readings up to the cut, then switch mode and start a new chunk, or double it
        _require_finite_acceleration(a[:, :cut])
        chunks.append((t[:cut], codes[:, :cut], range_byte))
        m += cut
        last = t_at[idx[cut - 1]]
        if switch:
            intervals.append(TimelineInterval(seg_start, last, SensorMode.ACTIVE if active else SensorMode.SLEEP))
            active, timer, seg_start = not active, 0.0, last
            i, size = int(idx[cut - 1]) + 1, _FIRST_CHUNK
        else:
            size *= 2
        if active:
            ranges, next_at = nxt[:, cut - 1], last + period
        elif switch:
            ranges, next_at = np.zeros_like(ranges), last + wake_period

    t_out, fields, k = np.empty(m), np.empty((7, m), np.int64), 0
    for t, codes, range_byte in chunks:
        t_out[k : k + len(t)], fields[3:6, k : k + len(t)], fields[6, k : k + len(t)] = t, codes, range_byte
        k += len(t)
    fields[0] = node_id
    np.bitwise_and(np.arange(state.seq, state.seq + m), SEQ_MAX, out=fields[1])
    # timestamps are taken modulo 2**32 while still floats, so they stay exact at any time the state allows
    np.mod(np.rint(t_out * 1000.0), TIMESTAMP_MAX + 1, out=fields[2], casting="unsafe")
    end = float(times[-1])
    mode = SensorMode.ACTIVE if active else SensorMode.SLEEP
    if end > seg_start:
        intervals.append(TimelineInterval(seg_start, end, mode))
    final_state = replace(
        state,
        mode=mode,
        ranges=tuple(RANGE_LADDER[r] for r in ranges.tolist()),
        low_activity_timer_s=timer,
        seq=(state.seq + m) & SEQ_MAX,
        time_s=end,
        next_sample_at_s=next_at,
        last_sample_t_s=last,
    )
    return ReplayResult(t_out, fields, intervals, final_state)
