"""Threshold-based activity classification and abnormal-event detection.

Two detection methods run side by side: (i) per-axis peak-to-peak change per
window (`_WINDOW_S`) against `_AXIS_DELTA_THRESHOLD_G`, and (ii) the total
acceleration against the band `_ABNORMAL_BAND_G`. Firings from either method
that fall within one window of each other merge into a single abnormal event.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError
from .motion import AccelTrace, sample_count


class ActivityClass(Enum):
    REST = "rest"
    SLOW_ACTIVITY = "slow_activity"
    FAST_ACTIVITY = "fast_activity"


class AbnormalTrigger(Enum):
    TOTAL_ACCEL_BOUND = "total_accel_bound"
    PER_AXIS_DELTA = "per_axis_delta"


_ABNORMAL_BAND_G = (0.9, 1.3)  # method (ii): a total outside this band fires
_WINDOW_S = 1.0  # method (i)'s window, and the gap that closes an event
_AXIS_DELTA_THRESHOLD_G = 2.0  # method (i): per-axis peak-to-peak change within one window
_REST_BAND_G = (0.95, 1.05)  # a rest window keeps every total inside this band
_REST_STD_BOUND_G = 0.05  # and every axis's standard deviation at or below this


@dataclass(frozen=True)
class AbnormalEvent:
    t_start: float
    t_end: float
    trigger: AbnormalTrigger
    peak_total_a: float


def classify_window(window: AccelTrace) -> ActivityClass:
    """Classify one window of samples as rest, slow, or fast activity.

    Order-invariant: every criterion depends only on per-axis extrema,
    variance, and the set of total-acceleration values.
    """
    if not isinstance(window, AccelTrace):
        raise ParameterError(f"window must be an AccelTrace, got {type(window).__name__}")
    if len(window) == 0:
        raise ParameterError("window holds no samples")
    ax, ay, az = window.ax, window.ay, window.az
    total = window.total()

    lo, hi = _REST_BAND_G
    in_rest_band = bool(total.min() >= lo and total.max() <= hi)
    quiet = all(float(np.std(a)) <= _REST_STD_BOUND_G for a in (ax, ay, az))
    if in_rest_band and quiet:
        return ActivityClass.REST

    low, high = _ABNORMAL_BAND_G
    out_of_band = bool(total.min() < low or total.max() > high)
    axis_delta = max(float(a.max() - a.min()) for a in (ax, ay, az))
    if out_of_band or axis_delta > _AXIS_DELTA_THRESHOLD_G:
        return ActivityClass.FAST_ACTIVITY
    return ActivityClass.SLOW_ACTIVITY


def detect_abnormal(trace: AccelTrace) -> list[AbnormalEvent]:
    """Find maximal regions where either detection method fires.

    Method (ii) is evaluated per sample; method (i) over half-overlapping
    sliding windows, marking every sample of a firing window. Firing runs
    separated by at most one window merge into one event.
    """
    if not isinstance(trace, AccelTrace):
        raise ParameterError(f"trace must be an AccelTrace, got {type(trace).__name__}")
    n = len(trace)
    if n == 0:
        raise ParameterError("trace holds no samples")
    total = trace.total()
    low, high = _ABNORMAL_BAND_G
    fire_total = (total < low) | (total > high)

    w = max(1, sample_count(_WINDOW_S, trace.rate_hz))
    fire = fire_total | _fire_axis(trace, w)
    idx = np.flatnonzero(fire)
    if idx.size == 0:
        return []

    runs = np.split(idx, np.flatnonzero(np.diff(idx) > w) + 1)  # a gap longer than one window closes a run
    return [_make_event(trace, total, fire_total, run[0], run[-1]) for run in runs]


def _fire_axis(trace: AccelTrace, w: int) -> np.ndarray:
    """Method (i): every sample of each window of `w` samples, starting every
    `max(1, w // 2)` samples up to the first window that reaches the trace's
    end, in which some axis's peak-to-peak change passes the threshold.

    Each axis is extended with its last sample repeated, which leaves every
    window's extrema unchanged, and one `reduceat` over the (start, start + w)
    bounds takes every window's maximum, another every minimum."""
    hop = max(1, w // 2)
    starts = np.arange(0, -(-max(0, len(trace) - w) // hop) * hop + 1, hop)
    bounds = np.column_stack([starts, starts + w]).ravel()
    fires = np.zeros(len(starts), dtype=bool)
    for arr in (trace.ax, trace.ay, trace.az):
        extended = np.concatenate([arr, np.repeat(arr[-1:], w + 1)])
        high, low = np.maximum.reduceat(extended, bounds)[::2], np.minimum.reduceat(extended, bounds)[::2]
        fires |= high - low > _AXIS_DELTA_THRESHOLD_G
    fire_axis = np.zeros(len(trace), dtype=bool)
    for start in starts[fires].tolist():
        fire_axis[start:start + w] = True
    return fire_axis


def _make_event(trace: AccelTrace, total, fire_total, start: int, end: int) -> AbnormalEvent:
    region = slice(start, end + 1)
    if fire_total[region].any():
        trigger = AbnormalTrigger.TOTAL_ACCEL_BOUND
        fired = np.flatnonzero(fire_total[region]) + start
    else:
        trigger = AbnormalTrigger.PER_AXIS_DELTA
        fired = np.arange(start, end + 1)
    peak_idx = fired[np.argmax(np.abs(total[fired] - 1.0))]
    return AbnormalEvent(
        t_start=float(start / trace.rate_hz),
        t_end=float(end / trace.rate_hz),
        trigger=trigger,
        peak_total_a=float(total[peak_idx]),
    )
