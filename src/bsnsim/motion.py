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

Where samples are evaluated: a sway segment (rest, sit-stand, left-right
rotation, slow walk) makes every random draw when it is generated, but
evaluates its sinusoids only at the samples that are read (`_Sway.at`).
The run, jump and fall are evaluated in full when generated. A trace is
immutable and holds its samples as parts: `AccelTrace._samples(idx)`
evaluates only the samples at `idx`, which is how a sleeping sensor node
reads its wake ticks, and the first read of `ax`, `ay` or `az` evaluates
every part of a generated or composed trace into one, checked finite.
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


_AXES = ("ax", "ay", "az")


@dataclass(frozen=True, eq=False)
class AccelTrace:
    """A uniformly sampled trace with per-sample ground-truth labels.

    The clock is the rate alone: sample i is at `t[i] = i / rate_hz` s.
    Two traces are equal when their rates, axes and label sequences are.
    A trace is immutable: `dataclasses.replace` makes a checked copy.

    Its samples have one home, its parts (see `_of_parts`). The constructor
    keeps its own stacked copy of the axes, mixed dtypes promoted, as its one
    part. A trace from `generate_trace` or `compose_schedule` holds its
    segments' parts, and the first read of `ax`, `ay` or `az` evaluates them
    into one (3, n) float64 part, with the constructor's finiteness check.
    The axes are that part's rows, so an in-place edit of a read axis
    reaches later reads, `_samples` included, and a replay checks them.
    """

    rate_hz: float
    ax: np.ndarray
    ay: np.ndarray
    az: np.ndarray
    labels: list[ActivityKind]

    def __post_init__(self):
        require_finite("rate_hz", self.rate_hz, RATE_HZ_MIN, RATE_HZ_MAX)
        for name in _AXES:
            arr = getattr(self, name)
            if not (isinstance(arr, np.ndarray) and arr.ndim == 1 and arr.dtype.kind == "f"):
                got = f"a {arr.ndim}-D {arr.dtype} array" if isinstance(arr, np.ndarray) else type(arr).__name__
                raise ParameterError(f"trace axis {name} must be a 1-D numpy array of real floats, got {got}")
        require_type("labels", self.labels, (list, tuple))
        if not (len(self.ax) == len(self.ay) == len(self.az) == len(self.labels)):
            raise ParameterError("trace arrays must share one length")
        self._hold(np.array([self.ax, self.ay, self.az]))

    @classmethod
    def _of_parts(cls, rate_hz: float, labels: list[ActivityKind], parts) -> AccelTrace:
        """A trace of `len(labels)` samples held as `parts`, unchecked: `(start, part)`
        pairs in sample order, each part a `_Sway` or a (3, m) array of its samples."""
        trace = object.__new__(cls)
        trace.__dict__.update(rate_hz=rate_hz, labels=labels, _parts=parts)
        return trace

    def _hold(self, acc: np.ndarray) -> None:
        """Check the (3, n) `acc` finite and keep it as the one part, its rows as the axes."""
        _require_finite_acceleration(acc)
        self.__dict__.update(zip(_AXES, acc), _parts=[(0, acc)])

    def __getattr__(self, name):
        # reached only for what the instance lacks: an axis not yet materialised
        if name not in _AXES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._hold(_evaluate(self._parts, np.arange(len(self))))
        return self.__dict__[name]

    def _samples(self, idx) -> np.ndarray:
        """The (3, len(idx)) float64 samples at the ascending indices `idx`, evaluating no others."""
        return _evaluate(self._parts, np.asarray(idx, dtype=np.intp))

    def _head(self, n: int) -> AccelTrace:
        """The first `n` samples, unchecked: this trace when it has no more, else a
        trace that shares its parts and, once they are materialised, views its axes."""
        if n >= len(self):
            return self
        head = AccelTrace._of_parts(self.rate_hz, self.labels[:n], self._parts)
        if "ax" in self.__dict__:
            head.__dict__.update(zip(_AXES, self._parts[0][1][:, :n]))
        return head

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


# Samples `_evaluate` passes to one `_Sway.at` call. A call holds its (18, m)
# float64 sines and numpy's broadcast buffers for them at once: about 110 KB
# at m = 256, about 300 KB at m = 1,200, where the sines alone pass glibc's
# 128 KiB mmap threshold and raise it for the rest of the process.
_BLOCK = 256


def _evaluate(parts, idx: np.ndarray) -> np.ndarray:
    """The (3, len(idx)) samples of `parts` (see `AccelTrace._of_parts`) at the
    ascending indices `idx`: each part at its own indices, at most `_BLOCK` at a time."""
    out = np.empty((3, len(idx)))
    cuts = np.searchsorted(idx, [start for start, _ in parts]).tolist() + [len(idx)]
    for (start, part), lo, hi in zip(parts, cuts, cuts[1:]):
        for a in range(lo, hi, _BLOCK):
            b = min(a + _BLOCK, hi)
            local = idx[a:b] - start
            out[:, a:b] = part[:, local] if isinstance(part, np.ndarray) else part.at(local)
    return out


def _noise(rng: np.random.Generator, n: int, sigma: float, bound: float) -> np.ndarray:
    """Zero-mean Gaussian noise hard-clipped to +/- bound."""
    draw = rng.normal(0.0, sigma, n)
    return np.minimum(np.maximum(draw, -bound, out=draw), bound, out=draw)


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


class _Sway:
    """One segment's sway, `offset + amplitude * oscillation + noise` per axis.

    Every random draw is made at construction, per axis in draw order: the
    oscillation's frequencies, phases and weights, then the noise. The
    oscillation is six random sinusoids in the band, weighted and normalised
    so |signal| <= 1. `at(idx)` evaluates the samples at indices `idx` only,
    one row per axis in draw order, with one `np.sin` for all three axes.
    """

    def __init__(self, rng: np.random.Generator, n: int, rate_hz: float, band, axes):
        self.rate_hz = rate_hz
        self.noise = np.empty((3, n))
        freqs, phases, weights = [], [], []
        for k, (_, _, sigma, bound) in enumerate(axes):
            freqs.append(rng.uniform(*band, 6))
            phases.append(rng.uniform(0.0, 2.0 * np.pi, 6))
            weights.append(rng.uniform(0.4, 1.0, 6))
            self.noise[k] = _noise(rng, n, sigma, bound)
        self.omega = (2.0 * np.pi * np.concatenate(freqs))[:, None]
        self.phase = np.concatenate(phases)[:, None]
        self.weight = np.concatenate(weights)[:, None]
        self.weight_sum = np.array([[w.sum()] for w in weights])
        self.amplitude = np.array([[amp] for _, amp, _, _ in axes])
        # one column of constant offsets, or one per sample: the run's z offset is its footfall train
        self.offset = np.array(np.broadcast_arrays(*(off for off, *_ in axes))).reshape(3, -1)

    def at(self, idx: np.ndarray) -> np.ndarray:
        # in place, one (18, len(idx)) temporary: each op is the formula's, in its order
        t = idx / self.rate_hz
        waves = self.omega * t
        waves += self.phase
        np.sin(waves, out=waves)
        waves *= self.weight
        sig = np.zeros((3, len(t)))
        for wave in waves.reshape(3, 6, -1).swapaxes(0, 1):
            sig += wave
        sig /= self.weight_sum
        sig *= self.amplitude
        sig += self.offset if self.offset.shape[1] == 1 else self.offset[:, idx]
        sig += self.noise[:, idx]
        return sig


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


def _gen_run(rng: np.random.Generator, n: int, rate_hz: float) -> np.ndarray:
    train = _impact_train(rng, n, rate_hz, 2.4, 3.0, width_s=0.05)
    band, ((z_off, *z_rest), *xy) = _SWAY[ActivityKind.RUN]  # the footfall train rides on z's offset
    sway = _Sway(rng, n, rate_hz, band, [(z_off + 0.97 * train, *z_rest), *xy])
    return _evaluate([(0, sway)], np.arange(n))[[1, 2, 0]]


def _gen_jump(rng: np.random.Generator, n: int, rate_hz: float) -> np.ndarray:
    acc = _evaluate([(0, _Sway(rng, n, rate_hz, *_SWAY[ActivityKind.JUMP]))], np.arange(n))
    ax, ay, az = acc
    if n < 5:
        if n >= 2:  # degenerate segment: flight sample followed by impact
            az[n - 2:] = 0.12, 3.0
        return acc

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
    return acc


def _gen_fall(rng: np.random.Generator, n: int, rate_hz: float) -> np.ndarray:
    ax, ay, az = acc = np.array([_noise(rng, n, 0.004, 0.012), _noise(rng, n, 0.004, 0.012),
                                 1.0 + _noise(rng, n, 0.004, 0.012)])

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
    return acc


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

    Deterministic for a fixed argument tuple. Every draw is made here; a
    sway kind's samples are evaluated where they are read, and the trace
    materialises its axes on their first read (see `AccelTrace`). Raises
    ParameterError for a kind that is not an ActivityKind, a duration that
    is not positive and finite, a rate outside [10, 100] Hz or a seed that
    is not an integer >= 0.
    """
    require_type("kind", kind, ActivityKind)
    require_positive("duration_s", duration_s)
    require_finite("rate_hz", rate_hz, RATE_HZ_MIN, RATE_HZ_MAX)
    require_seed(seed)
    n = max(1, sample_count(duration_s, rate_hz))
    rng = np.random.default_rng(seed)
    if kind in _GENERATORS:
        part = _GENERATORS[kind](rng, n, rate_hz)
    else:
        part = _Sway(rng, n, rate_hz, *_SWAY[kind])
    return AccelTrace._of_parts(rate_hz, [kind] * n, [(0, part)])


def compose_schedule(
    segments: Sequence[tuple[ActivityKind, float]],
    rate_hz: float = DEFAULT_RATE_HZ,
    seed: int = 0,
) -> AccelTrace:
    """Join per-segment traces with continuous timestamps and labels.

    Segment i uses seed + i, so a single-segment schedule reproduces
    generate_trace exactly. The segments are joined as parts, unjoined and
    unchecked until the trace is read (see `AccelTrace`).
    """
    require_type("segments", segments, Sequence)
    if not segments:
        raise ParameterError("schedule needs at least one segment")
    require_seed(seed)  # here, not in `generate_trace`: `seed + i` raises a TypeError first
    labels: list[ActivityKind] = []
    parts = []
    for i, segment in enumerate(segments):
        try:
            kind, duration_s = segment
        except (TypeError, ValueError):
            raise ParameterError(f"segment {i} must be a (kind, duration_s) pair, got {segment!r}") from None
        require_positive(f"segment {i} duration", duration_s)
        generated = generate_trace(kind, duration_s, rate_hz, seed + i)
        parts += [(len(labels) + start, part) for start, part in generated._parts]
        labels += generated.labels
    return AccelTrace._of_parts(rate_hz, labels, parts)
