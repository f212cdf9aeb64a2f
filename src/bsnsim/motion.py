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

import math
from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ParameterError, require_finite, require_positive, require_seed, require_type

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


@dataclass(eq=False)
class AccelTrace:
    """A uniformly sampled trace with per-sample ground-truth labels.

    The clock is the rate alone: sample i is at `t[i] = i / rate_hz` s.
    Two traces are equal when their rates, axes and label sequences are.
    """

    rate_hz: float
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray
    labels: list[ActivityKind]

    def __post_init__(self):
        require_finite("rate_hz", self.rate_hz, RATE_HZ_MIN, RATE_HZ_MAX)
        for name in ("ax", "ay", "az"):
            arr = getattr(self, name)
            if not (isinstance(arr, np.ndarray) and arr.ndim == 1 and arr.dtype.kind == "f"):
                got = f"a {arr.ndim}-D {arr.dtype} array" if isinstance(arr, np.ndarray) else type(arr).__name__
                raise ParameterError(f"trace axis {name} must be a 1-D numpy array of real floats, got {got}")
        require_type("labels", self.labels, (list, tuple))
        if not (len(self.ax) == len(self.ay) == len(self.az) == len(self.labels)):
            raise ParameterError("trace arrays must share one length")
        if not all(np.isfinite(arr).all() for arr in (self.ax, self.ay, self.az)):
            _require_finite_acceleration(np.array([self.ax, self.ay, self.az]))

    def __eq__(self, other):
        return (isinstance(other, AccelTrace) and self.rate_hz == other.rate_hz
                and np.array_equal(self.ax, other.ax) and np.array_equal(self.ay, other.ay)
                and np.array_equal(self.az, other.az) and list(self.labels) == list(other.labels))

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def t(self) -> np.ndarray:
        return np.arange(len(self)) / self.rate_hz

    def total(self) -> np.ndarray:
        return np.sqrt(self.ax**2 + self.ay**2 + self.az**2)


def _require_finite_acceleration(acc: np.ndarray) -> None:
    """Raise at the first non-finite reading of the (3, n) `acc`, in sample order, then x, y, z."""
    if not np.isfinite(acc).all():
        bad = ~np.isfinite(acc)
        k = int(bad.any(axis=0).argmax())
        raise ParameterError(f"acceleration must be finite, got {float(acc[int(bad[:, k].argmax()), k])}")


def sample_count(duration_s: float, rate_hz: float) -> int:
    """`round(duration_s * rate_hz)`; a product beyond the float range is a `ParameterError`."""
    count = duration_s * rate_hz
    if not math.isfinite(count):
        raise ParameterError(f"{duration_s} s at {rate_hz} Hz is more samples than a float can count")
    return int(round(count))


def _oscillation(rng: np.random.Generator, n: int, rate_hz: float, f_lo: float, f_hi: float) -> np.ndarray:
    """Sum of six random sinusoids in [f_lo, f_hi] Hz, normalized so |signal| <= 1."""
    t = np.arange(n) / rate_hz
    freqs = rng.uniform(f_lo, f_hi, 6)
    phases = rng.uniform(0.0, 2.0 * np.pi, 6)
    weights = rng.uniform(0.4, 1.0, 6)
    sig = np.zeros(n)
    for wave in weights[:, None] * np.sin((2.0 * np.pi * freqs)[:, None] * t + phases[:, None]):
        sig += wave
    return sig / weights.sum()


def _noise(rng: np.random.Generator, n: int, sigma: float, bound: float) -> np.ndarray:
    """Zero-mean Gaussian noise hard-clipped to +/- bound."""
    return np.clip(rng.normal(0.0, sigma, n), -bound, bound)


def _impact_train(rng: np.random.Generator, n: int, rate_hz: float, f_lo: float, f_hi: float,
                  width_s: float) -> np.ndarray:
    """Periodic unit-peak Gaussian bumps, each centered exactly on a sample.

    Snapping centers onto the sample grid guarantees the full bump amplitude
    is attained at any sampling rate in the supported band.
    """
    t = np.arange(n) / rate_hz
    period = 1.0 / rng.uniform(f_lo, f_hi)
    sig = np.zeros(n)
    center = rng.uniform(0.2, 0.8) * period
    i = min(int(round(center * rate_hz)), n - 1)  # a short trace still gets one full-amplitude impact
    while i < n:
        sig = np.maximum(sig, np.exp(-(((t - t[i]) / width_s) ** 2)))
        center += period
        i = int(round(center * rate_hz))
    return sig


# Per activity: the oscillation band (Hz), then per axis in draw order
# (offset g, amplitude g, noise sigma g, noise bound g). The axes are x, y, z,
# except for the run, which draws z first. The amplitudes keep every draw
# inside the activity's envelope (see module docstring).
_SWAY = {
    ActivityKind.REST: (
        (1.0, 3.0), ((0.0, 0.006, 0.002, 0.006), (0.0, 0.006, 0.002, 0.006), (1.0, 0.008, 0.002, 0.006))),
    ActivityKind.SIT_STAND: (
        (1.0, 2.0), ((0.0, 0.30, 0.005, 0.015), (0.0, 0.10, 0.005, 0.015), (1.02, 0.08, 0.004, 0.012))),
    ActivityKind.LEFT_RIGHT_ROTATION: (
        (1.0, 2.5), ((0.0, 0.10, 0.005, 0.015), (0.0, 0.30, 0.005, 0.015), (1.02, 0.06, 0.004, 0.012))),
    ActivityKind.SLOW_WALK: (
        (1.5, 3.5), ((0.0, 0.24, 0.005, 0.015), (0.0, 0.18, 0.005, 0.015), (1.02, 0.09, 0.004, 0.012))),
    ActivityKind.RUN: (
        (2.0, 6.0), ((0.78, 0.04, 0.01, 0.03), (0.0, 0.25, 0.01, 0.03), (0.0, 0.18, 0.01, 0.03))),
    ActivityKind.JUMP: (
        (1.0, 4.0), ((0.0, 0.08, 0.005, 0.015), (0.0, 0.08, 0.005, 0.015), (1.0, 0.04, 0.005, 0.015))),
}


def _sway(rng: np.random.Generator, n: int, rate_hz: float, band, axes) -> list[np.ndarray]:
    """Per axis in draw order: offset + amplitude * oscillation in band + clipped noise."""
    return [off + amp * _oscillation(rng, n, rate_hz, *band) + _noise(rng, n, sigma, bound)
            for off, amp, sigma, bound in axes]


def _write_event(rng: np.random.Generator, n: int, start: int, samples) -> int:
    """Write one event from sample `start` on, stopping at the trace end.

    Each sample is a list of (axis array, level g, jitter g) writes; each
    write adds a uniform jitter, drawn in list order in one call for the
    whole event. Returns the index after the last sample written.
    """
    written = samples[:max(0, n - start)]
    jitters = np.array([jitter for writes in written for _, _, jitter in writes])
    draws = iter(rng.uniform(-jitters, jitters).tolist())
    for j, writes in enumerate(written, start):
        for axis, level, _ in writes:
            axis[j] = level + next(draws)
    return min(n, start + len(samples))


def _gen_run(rng: np.random.Generator, n: int, rate_hz: float):
    train = _impact_train(rng, n, rate_hz, 2.4, 3.0, width_s=0.05)
    band, ((z_off, *z_rest), *xy) = _SWAY[ActivityKind.RUN]  # the footfall train rides on z's offset
    az, ax, ay = _sway(rng, n, rate_hz, band, [(z_off + 0.97 * train, *z_rest), *xy])
    return ax, ay, az


def _gen_jump(rng: np.random.Generator, n: int, rate_hz: float):
    ax, ay, az = _sway(rng, n, rate_hz, *_SWAY[ActivityKind.JUMP])
    if n < 5:
        if n >= 2:  # degenerate segment: flight sample followed by impact
            az[n - 2:] = 0.12, 3.0
        return ax, ay, az

    k_crouch, k_flight, k_settle = (max(1, int(round(s * rate_hz))) for s in (0.15, 0.20, 0.12))
    if n < k_crouch + 1 + k_flight + 1 + k_settle:
        # compress to the minimum that still spans flight and impact
        k_crouch = k_flight = k_settle = 1
    # crouch, launch, flight, landing, settle
    event = ([[(az, 0.74, 0.03)]] * k_crouch + [[(az, 2.55, 0.05)]]
             + [[(az, 0.12, 0.04), (ax, 0.0, 0.08), (ay, 0.0, 0.08)]] * k_flight + [[(az, 3.0, 0.05)]]
             + [[(az, 0.85 + 0.15 * (s + 1) / k_settle, 0.03)] for s in range(k_settle)])

    period = int(round(rng.uniform(1.2, 1.8) * rate_hz))
    start = min(int(round(0.1 * n)), n - len(event))
    for i in range(start, n - 1, max(period, len(event))):
        _write_event(rng, n, i, event)
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
    # descent (vertical support drops away, body tips forward), impact, rebound, settle
    descent = [(s + 1) / (i_impact - desc_lo) for s in range(i_impact - desc_lo)]
    settle = [(s + 1) / k_settle for s in range(k_settle)]
    j = _write_event(rng, n, desc_lo, [[(az, 1.0 - 0.68 * f, 0.02), (ax, 0.52 * f, 0.03)] for f in descent]
                     + [[(az, 2.9, 0.05)], [(az, 1.6, 0.1)]]
                     + [[(az, 1.0 - 0.94 * f, 0.02), (ax, 0.5 + 0.47 * f, 0.02)] for f in settle])
    if j < n:
        # lying on the front: gravity moves to the frontal axis
        m = n - j
        az[j:] = 0.06 + _noise(rng, m, 0.004, 0.012)
        ax[j:] = 0.97 + _noise(rng, m, 0.004, 0.012)
        ay[j:] = _noise(rng, m, 0.004, 0.012)
    return ax, ay, az


_GENERATORS = {
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
    kind that is not an ActivityKind, a duration that is not positive and
    finite, a rate outside [10, 100] Hz or a seed that is not an integer >= 0.
    """
    require_type("kind", kind, ActivityKind)
    require_positive("duration_s", duration_s)
    require_finite("rate_hz", rate_hz, RATE_HZ_MIN, RATE_HZ_MAX)
    require_seed(seed)
    n = max(1, sample_count(duration_s, rate_hz))
    rng = np.random.default_rng(seed)
    if kind in _GENERATORS:
        ax, ay, az = _GENERATORS[kind](rng, n, rate_hz)
    else:
        ax, ay, az = _sway(rng, n, rate_hz, *_SWAY[kind])
    return AccelTrace(rate_hz=rate_hz, ax=ax, ay=ay, az=az, labels=[kind] * n)


def compose_schedule(
    segments: Sequence[tuple[ActivityKind, float]],
    rate_hz: float = DEFAULT_RATE_HZ,
    seed: int = 0,
) -> AccelTrace:
    """Concatenate per-segment traces with continuous timestamps and labels.

    Segment i uses seed + i, so a single-segment schedule reproduces
    generate_trace exactly.
    """
    require_type("segments", segments, Sequence)
    if not segments:
        raise ParameterError("schedule needs at least one segment")
    require_seed(seed)  # here, not in `generate_trace`: `seed + i` raises a TypeError first
    parts = []
    for i, segment in enumerate(segments):
        try:
            kind, duration_s = segment
        except (TypeError, ValueError):
            raise ParameterError(f"segment {i} must be a (kind, duration_s) pair, got {segment!r}") from None
        require_positive(f"segment {i} duration", duration_s)
        parts.append(generate_trace(kind, duration_s, rate_hz, seed + i))
    ax = np.concatenate([p.ax for p in parts])
    ay = np.concatenate([p.ay for p in parts])
    az = np.concatenate([p.az for p in parts])
    labels: list[ActivityKind] = []
    for p in parts:
        labels.extend(p.labels)
    return AccelTrace(rate_hz=rate_hz, ax=ax, ay=ay, az=az, labels=labels)
