"""Synthetic triaxial acceleration traces for waist-mounted movement tests.

Axes follow the waist-mount convention: ax frontal, ay side, az vertical,
all in g units, so a standing subject reads roughly (0, 0, 1). Each activity
generator enforces a hard envelope by construction:

* Rest: total acceleration inside [0.95, 1.05] g, mean within 1 +/- 0.02 g.
* Sit-stand, left-right rotation, slow walk: total inside [0.9, 1.3] g with
  the dominant variation on the frontal/side axes.
* Run: vertical impact train; total exceeds 1.3 g at every footfall.
* Jump and fall: vertical peak-to-peak excursion above 2 g with total
  samples both below 0.9 g (freefall/descent) and above 1.3 g (impact).

Traces are deterministic for a fixed (kind, duration, rate, seed) tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import ParameterError

RATE_HZ_MIN = 10.0
RATE_HZ_MAX = 100.0
DEFAULT_RATE_HZ = 60.0


class ActivityKind(Enum):
    REST = "rest"
    SIT_STAND = "sit_stand"
    LEFT_RIGHT_ROTATION = "left_right_rotation"
    SLOW_WALK = "slow_walk"
    RUN = "run"
    JUMP = "jump"
    FALL = "fall"


@dataclass
class AccelTrace:
    """A uniformly sampled trace with per-sample ground-truth labels."""

    rate_hz: float
    t: np.ndarray
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray
    labels: list[ActivityKind]

    def __post_init__(self):
        _require_rate(self.rate_hz)
        n = len(self.t)
        if not (len(self.ax) == len(self.ay) == len(self.az) == len(self.labels) == n):
            raise ParameterError("trace arrays must share one length")
        if n and (self.t[0] < 0 or (n > 1 and not (np.diff(self.t) > 0).all())):
            raise ParameterError("timestamps must be non-negative and strictly increasing")
        for arr in (self.ax, self.ay, self.az):
            if not np.isfinite(arr).all():
                raise ParameterError("acceleration values must be finite")

    def __len__(self) -> int:
        return len(self.t)

    def total(self) -> np.ndarray:
        return np.sqrt(self.ax**2 + self.ay**2 + self.az**2)


def _require_rate(rate_hz: float) -> None:
    if not (RATE_HZ_MIN <= rate_hz <= RATE_HZ_MAX):
        raise ParameterError(f"rate_hz must be within [{RATE_HZ_MIN:g}, {RATE_HZ_MAX:g}] Hz, got {rate_hz}")


def _oscillation(rng: np.random.Generator, n: int, rate_hz: float, f_lo: float, f_hi: float, components: int = 6) -> np.ndarray:
    """Sum of random sinusoids in [f_lo, f_hi] Hz, normalized so |signal| <= 1."""
    t = np.arange(n) / rate_hz
    freqs = rng.uniform(f_lo, f_hi, components)
    phases = rng.uniform(0.0, 2.0 * np.pi, components)
    weights = rng.uniform(0.4, 1.0, components)
    sig = np.zeros(n)
    for f, p, w in zip(freqs, phases, weights):
        sig += w * np.sin(2.0 * np.pi * f * t + p)
    return sig / weights.sum()


def _noise(rng: np.random.Generator, n: int, sigma: float, bound: float) -> np.ndarray:
    """Zero-mean Gaussian noise hard-clipped to +/- bound."""
    return np.clip(rng.normal(0.0, sigma, n), -bound, bound)


def _impact_train(rng: np.random.Generator, n: int, rate_hz: float, f_lo: float, f_hi: float, width_s: float) -> np.ndarray:
    """Periodic unit-peak Gaussian bumps, each centered exactly on a sample.

    Snapping centers onto the sample grid guarantees the full bump amplitude
    is attained at any sampling rate in the supported band.
    """
    t = np.arange(n) / rate_hz
    period = 1.0 / rng.uniform(f_lo, f_hi)
    sig = np.zeros(n)
    center = rng.uniform(0.2, 0.8) * period
    first = True
    while True:
        i = int(round(center * rate_hz))
        if i >= n:
            if first:
                i = n - 1  # short trace still gets one full-amplitude impact
            else:
                break
        sig = np.maximum(sig, np.exp(-(((t - t[i]) / width_s) ** 2)))
        first = False
        center += period
    return sig


def _gen_rest(rng: np.random.Generator, n: int, rate_hz: float):
    ax = 0.006 * _oscillation(rng, n, rate_hz, 1.0, 3.0) + _noise(rng, n, 0.002, 0.006)
    ay = 0.006 * _oscillation(rng, n, rate_hz, 1.0, 3.0) + _noise(rng, n, 0.002, 0.006)
    az = 1.0 + 0.008 * _oscillation(rng, n, rate_hz, 1.0, 3.0) + _noise(rng, n, 0.002, 0.006)
    return ax, ay, az


# amp_x, amp_y, amp_z, oscillation band (Hz); amplitudes keep the total
# acceleration inside [0.9, 1.3] for any draw (see module docstring).
_SLOW_PROFILES = {
    ActivityKind.SIT_STAND: (0.30, 0.10, 0.08, (1.0, 2.0)),
    ActivityKind.LEFT_RIGHT_ROTATION: (0.10, 0.30, 0.06, (1.0, 2.5)),
    ActivityKind.SLOW_WALK: (0.24, 0.18, 0.09, (1.5, 3.5)),
}


def _gen_slow(rng: np.random.Generator, n: int, rate_hz: float, kind: ActivityKind):
    amp_x, amp_y, amp_z, (f_lo, f_hi) = _SLOW_PROFILES[kind]
    ax = amp_x * _oscillation(rng, n, rate_hz, f_lo, f_hi) + _noise(rng, n, 0.005, 0.015)
    ay = amp_y * _oscillation(rng, n, rate_hz, f_lo, f_hi) + _noise(rng, n, 0.005, 0.015)
    az = 1.02 + amp_z * _oscillation(rng, n, rate_hz, f_lo, f_hi) + _noise(rng, n, 0.004, 0.012)
    return ax, ay, az


def _gen_run(rng: np.random.Generator, n: int, rate_hz: float):
    train = _impact_train(rng, n, rate_hz, 2.4, 3.0, width_s=0.05)
    az = 0.78 + 0.97 * train + 0.04 * _oscillation(rng, n, rate_hz, 2.0, 6.0) + _noise(rng, n, 0.01, 0.03)
    ax = 0.25 * _oscillation(rng, n, rate_hz, 2.0, 6.0) + _noise(rng, n, 0.01, 0.03)
    ay = 0.18 * _oscillation(rng, n, rate_hz, 2.0, 6.0) + _noise(rng, n, 0.01, 0.03)
    return ax, ay, az


def _gen_jump(rng: np.random.Generator, n: int, rate_hz: float):
    ax = 0.08 * _oscillation(rng, n, rate_hz, 1.0, 4.0) + _noise(rng, n, 0.005, 0.015)
    ay = 0.08 * _oscillation(rng, n, rate_hz, 1.0, 4.0) + _noise(rng, n, 0.005, 0.015)
    az = 1.0 + 0.04 * _oscillation(rng, n, rate_hz, 1.0, 4.0) + _noise(rng, n, 0.005, 0.015)

    if n < 5:
        if n >= 2:  # degenerate segment: flight sample followed by impact
            az[n - 2] = 0.12
            az[n - 1] = 3.0
        return ax, ay, az

    k_crouch = max(1, int(round(0.15 * rate_hz)))
    k_flight = max(1, int(round(0.20 * rate_hz)))
    k_settle = max(1, int(round(0.12 * rate_hz)))
    event_len = k_crouch + 1 + k_flight + 1 + k_settle
    if n < event_len:
        # compress to the minimum that still spans flight and impact
        k_crouch = k_flight = k_settle = 1
        event_len = 5

    period = int(round(rng.uniform(1.2, 1.8) * rate_hz))
    start = min(max(0, int(round(0.1 * n))), max(0, n - event_len))
    placed = False
    i = start
    while i + 2 <= n:
        j = i
        end = min(n, i + event_len)
        # crouch
        for _ in range(k_crouch):
            if j < end:
                az[j] = 0.74 + float(rng.uniform(-0.03, 0.03))
                j += 1
        if j < end:
            az[j] = 2.55 + float(rng.uniform(-0.05, 0.05))  # launch
            j += 1
        for _ in range(k_flight):
            if j < end:
                az[j] = 0.12 + float(rng.uniform(-0.04, 0.04))
                ax[j] = float(rng.uniform(-0.08, 0.08))
                ay[j] = float(rng.uniform(-0.08, 0.08))
                j += 1
        if j < end:
            az[j] = 3.0 + float(rng.uniform(-0.05, 0.05))  # landing
            j += 1
        for s in range(k_settle):
            if j < end:
                az[j] = 0.85 + 0.15 * (s + 1) / k_settle + float(rng.uniform(-0.03, 0.03))
                j += 1
        placed = True
        i += max(period, event_len)
    if not placed and n >= 2:
        az[n - 2] = 0.12
        az[n - 1] = 3.0
    return ax, ay, az


def _gen_fall(rng: np.random.Generator, n: int, rate_hz: float):
    ax = _noise(rng, n, 0.004, 0.012)
    ay = _noise(rng, n, 0.004, 0.012)
    az = 1.0 + _noise(rng, n, 0.004, 0.012)

    lead = int(min(0.3 * n, 1.0 * rate_hz))
    # timing jitter staggers multi-node simulations that all start at t = 0
    lead = max(0, lead - int(rng.integers(0, max(1, lead // 2 + 1))))
    k_desc = max(1, int(round(0.30 * rate_hz)))
    k_settle = max(1, int(round(0.20 * rate_hz)))

    i_impact = min(lead + k_desc, n - 1)
    desc_lo = max(0, i_impact - k_desc)
    # descent: vertical support drops away, body tips forward
    for s, j in enumerate(range(desc_lo, i_impact)):
        frac = (s + 1) / max(1, i_impact - desc_lo)
        az[j] = 1.0 - 0.68 * frac + float(rng.uniform(-0.02, 0.02))
        ax[j] = 0.52 * frac + float(rng.uniform(-0.03, 0.03))
    az[i_impact] = 2.9 + float(rng.uniform(-0.05, 0.05))
    j = i_impact + 1
    if j < n:
        az[j] = 1.6 + float(rng.uniform(-0.1, 0.1))  # rebound
        j += 1
    for s in range(k_settle):
        if j >= n:
            break
        frac = (s + 1) / k_settle
        az[j] = 1.0 - 0.94 * frac + float(rng.uniform(-0.02, 0.02))
        ax[j] = 0.5 + 0.47 * frac + float(rng.uniform(-0.02, 0.02))
        j += 1
    if j < n:
        # lying on the front: gravity moves to the frontal axis
        m = n - j
        az[j:] = 0.06 + _noise(rng, m, 0.004, 0.012)
        ax[j:] = 0.97 + _noise(rng, m, 0.004, 0.012)
        ay[j:] = _noise(rng, m, 0.004, 0.012)
    return ax, ay, az


_GENERATORS = {
    ActivityKind.REST: _gen_rest,
    ActivityKind.RUN: _gen_run,
    ActivityKind.JUMP: _gen_jump,
    ActivityKind.FALL: _gen_fall,
}


def generate_trace(
    kind: ActivityKind,
    duration_s: float,
    rate_hz: float = DEFAULT_RATE_HZ,
    seed: int = 0,
) -> AccelTrace:
    """Generate one labeled activity trace.

    Deterministic for a fixed argument tuple. Raises ParameterError for a
    non-positive duration or a rate outside [10, 100] Hz.
    """
    if duration_s <= 0:
        raise ParameterError(f"duration_s must be positive, got {duration_s}")
    _require_rate(rate_hz)
    n = max(1, int(round(duration_s * rate_hz)))
    rng = np.random.default_rng(seed)
    if kind in _SLOW_PROFILES:
        ax, ay, az = _gen_slow(rng, n, rate_hz, kind)
    else:
        ax, ay, az = _GENERATORS[kind](rng, n, rate_hz)
    t = np.arange(n) / rate_hz
    return AccelTrace(rate_hz=rate_hz, t=t, ax=ax, ay=ay, az=az, labels=[kind] * n)


def compose_schedule(
    segments: Sequence[tuple[ActivityKind, float]],
    rate_hz: float = DEFAULT_RATE_HZ,
    seed: int = 0,
) -> AccelTrace:
    """Concatenate per-segment traces with continuous timestamps and labels.

    Segment i uses seed + i, so a single-segment schedule reproduces
    generate_trace exactly.
    """
    if not segments:
        raise ParameterError("schedule needs at least one segment")
    _require_rate(rate_hz)
    parts = []
    for i, (kind, duration_s) in enumerate(segments):
        if duration_s <= 0:
            raise ParameterError(f"segment {i} duration must be positive, got {duration_s}")
        parts.append(generate_trace(kind, duration_s, rate_hz, seed + i))
    ax = np.concatenate([p.ax for p in parts])
    ay = np.concatenate([p.ay for p in parts])
    az = np.concatenate([p.az for p in parts])
    labels: list[ActivityKind] = []
    for p in parts:
        labels.extend(p.labels)
    t = np.arange(len(labels)) / rate_hz
    return AccelTrace(rate_hz=rate_hz, t=t, ax=ax, ay=ay, az=az, labels=labels)
