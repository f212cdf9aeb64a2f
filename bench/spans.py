"""Span tracing for the bsnsim benchmark, recorded from outside the package.

`Tracer.patched()` replaces the public bsnsim names at the points where one
layer calls the next with wrappers that record a span per call, and restores
the originals on exit, also when a job raised. Each span records its name,
start, end, parent span and job id; spans stay in memory until the run ends,
when `layer_metrics` turns them into per-layer counts and self times. A
layer's self time is its spans' durations minus the time their child spans
cover. Calls made outside a job (the output checks) record nothing.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict, namedtuple
from contextlib import contextmanager
from typing import Any, Callable

# (owner, attribute, layer). The owner is the module, or module:class, whose
# attribute the caller looks up at call time; the layer is the bsnsim module
# whose work the call is. Top-level calls made by the jobs come first, then
# the layer-to-layer boundaries inside the package.
BOUNDARIES = (
    ("bsnsim.motion", "compose_schedule", "motion"),
    ("bsnsim.sensor", "replay_trace", "sensor"),
    ("bsnsim.linksim", "run_star_network", "linksim"),
    ("bsnsim.linksim:StarResult", "log_bytes", "linksim"),
    ("bsnsim.linksim", "read_frame_log", "linksim"),
    ("bsnsim.linksim", "run_echo_test", "linksim"),
    ("bsnsim.classify", "detect_abnormal", "classify"),
    ("bsnsim.energy", "simulate_energy", "energy"),
    ("bsnsim.scenario", "parse_scenario", "scenario"),
    ("bsnsim.selector", "scan", "selector"),
    ("bsnsim.selector", "select_channel", "selector"),
    ("bsnsim.selector", "adaptive_policy", "selector"),
    ("bsnsim.calibrate", "fit", "calibrate"),
    ("bsnsim.motion", "generate_trace", "motion"),
    ("bsnsim.linksim", "replay_trace", "sensor"),
    ("bsnsim.linksim", "encode_frame", "frames"),
    ("bsnsim.linksim", "direction_success_prob", "rf"),
    ("bsnsim.frames", "decode_frame", "frames"),
    ("bsnsim.rf", "crossed_obstacles", "rf"),
    ("bsnsim.selector", "echo_success_probs", "linksim"),
    ("bsnsim.calibrate", "predicted_mean_pct", "calibrate"),
    ("bsnsim.calibrate", "apply_overrides", "scenario"),
)


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


def span_name(path: str, attr: str) -> str:
    return f"{path.split(':')[-1].rsplit('.', 1)[-1]}.{attr}"


def wrapped_names() -> list[str]:
    """Boundary names that currently hold a tracing wrapper (empty once restored)."""
    return [span_name(p, a) for p, a, _ in BOUNDARIES if hasattr(getattr(_owner(p), a), "span_name")]


def _replay_info(args, result):
    active = sum(iv.t_end - iv.t_start for iv in result.intervals if iv.mode.value == "active")
    total = sum(iv.t_end - iv.t_start for iv in result.intervals)
    return len(args[1]), len(result.frames), active, total


# Counts taken at the boundary from a call's arguments and result.
_INFO: dict[str, Callable[[tuple, Any], Any]] = {
    "motion.generate_trace": lambda args, result: len(result),
    "sensor.replay_trace": _replay_info,
    "linksim.replay_trace": _replay_info,
    "linksim.run_star_network": lambda args, result: (
        sum(d.emitted for d in result.deliveries.values()),
        sum(d.delivered for d in result.deliveries.values()),
    ),
    "classify.detect_abnormal": lambda args, result: (len(args[0]), len(result)),
}


Span = namedtuple("Span", "job id parent name start end info error")


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._job: int | None = None
        self._next_id = 0

    def _record(self, name: str, fn: Callable, args: tuple, kwargs: dict):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        error = None
        result = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            info = _INFO[name](args, result) if name in _INFO and error is None else None
            self.spans.append(Span(self._job, span_id, parent, name, start, end, info, error))

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._job is None:
                return fn(*args, **kwargs)
            return self._record(name, fn, args, kwargs)

        traced.span_name = name
        return traced

    def run_job(self, job_id: int, kind: str, fn: Callable, *args):
        """Run fn as job `job_id`: a root span that every span inside shares the id of."""
        self._job = job_id
        self._stack = [-1]
        try:
            return self._record(f"job.{kind}", fn, args, {})
        finally:
            self._job = None

    @contextmanager
    def patched(self):
        """Wrap every boundary name; restore the originals on exit, even on error."""
        originals = []
        try:
            for path, attr, _ in BOUNDARIES:
                owner = _owner(path)
                fn = owner.__dict__[attr]
                originals.append((owner, attr, fn))
                setattr(owner, attr, self.wrap(span_name(path, attr), fn))
            yield self
        finally:
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


def layer_metrics(spans: list[Span], untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, as name -> (value, unit), from the traced passes.

    `untraced_s` and `traced_s` are the summed job times of the same jobs run
    without and with tracing; their ratio is the tracing overhead.
    """
    layer_of = {span_name(path, attr): layer for path, attr, layer in BOUNDARIES}
    children = defaultdict(float)
    for s in spans:
        children[s.parent] += s.end - s.start
    layer_self = defaultdict(float)
    by_name = defaultdict(list)
    job_s = 0.0
    for s in spans:
        by_name[s.name].append(s)
        if s.name in layer_of:
            layer_self[layer_of[s.name]] += s.end - s.start - children[s.id]
        elif s.parent == -1:
            job_s += s.end - s.start

    def count(*names):
        return sum(len(by_name[n]) for n in names)

    def busy(*names):
        return sum(s.end - s.start for n in names for s in by_name[n])

    def info(i, *names):
        return sum(s.info[i] for n in names for s in by_name[n] if s.info is not None)

    def per(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    replays = ("sensor.replay_trace", "linksim.replay_trace")
    motion_samples = sum(s.info for s in by_name["motion.generate_trace"] if s.info is not None)
    sensor_samples = info(0, *replays)
    classify_samples = info(0, "classify.detect_abnormal")
    scan_parents = {s.id for s in by_name["selector.adaptive_policy"]}
    m = {
        "motion.samples": (motion_samples, "count"),
        "motion.self_s": (layer_self["motion"], "s"),
        "motion.us_per_sample": (per(layer_self["motion"], motion_samples, 1e6), "us"),
        "sensor.samples": (sensor_samples, "count"),
        "sensor.frames": (info(1, *replays), "count"),
        "sensor.self_s": (layer_self["sensor"], "s"),
        "sensor.us_per_sample": (per(layer_self["sensor"], sensor_samples, 1e6), "us"),
        "sensor.frames_per_sample": (per(info(1, *replays), sensor_samples), "ratio"),
        "sensor.active_frac": (per(info(2, *replays), info(3, *replays)), "ratio"),
        "frames.encoded": (count("linksim.encode_frame"), "count"),
        "frames.us_per_encode": (per(busy("linksim.encode_frame"), count("linksim.encode_frame"), 1e6), "us"),
        "frames.decoded": (count("frames.decode_frame"), "count"),
        "frames.us_per_decode": (per(busy("frames.decode_frame"), count("frames.decode_frame"), 1e6), "us"),
        "frames.crc_errors": (sum(s.error == "FrameError" for s in by_name["frames.decode_frame"]), "count"),
        "linksim.star_calls": (count("linksim.run_star_network"), "count"),
        "linksim.star_self_s": (
            sum(s.end - s.start - children[s.id] for s in by_name["linksim.run_star_network"]), "s"),
        "linksim.delivery_ratio": (
            per(info(1, "linksim.run_star_network"), info(0, "linksim.run_star_network")), "ratio"),
        "linksim.echo_calls": (count("selector.echo_success_probs"), "count"),
        "linksim.us_per_echo": (
            per(busy("selector.echo_success_probs"), count("selector.echo_success_probs"), 1e6), "us"),
        "rf.link_evals": (count("linksim.direction_success_prob"), "count"),
        "rf.us_per_link_eval": (
            per(busy("linksim.direction_success_prob"), count("linksim.direction_success_prob"), 1e6), "us"),
        "rf.obstacle_queries": (count("rf.crossed_obstacles"), "count"),
        "rf.us_per_obstacle_query": (
            per(busy("rf.crossed_obstacles"), count("rf.crossed_obstacles"), 1e6), "us"),
        "scenario.parses": (count("scenario.parse_scenario"), "count"),
        "scenario.us_per_parse": (
            per(busy("scenario.parse_scenario"), count("scenario.parse_scenario"), 1e6), "us"),
        "scenario.overrides": (count("calibrate.apply_overrides"), "count"),
        "scenario.us_per_override": (
            per(busy("calibrate.apply_overrides"), count("calibrate.apply_overrides"), 1e6), "us"),
        "selector.scans": (count("selector.scan"), "count"),
        "selector.ms_per_scan": (per(busy("selector.scan"), count("selector.scan"), 1e3), "ms"),
        "selector.self_s": (layer_self["selector"], "s"),
        "selector.policy_rescans": (sum(s.parent in scan_parents for s in by_name["selector.scan"]), "count"),
        "calibrate.fits": (count("calibrate.fit"), "count"),
        "calibrate.ms_per_fit": (per(busy("calibrate.fit"), count("calibrate.fit"), 1e3), "ms"),
        "calibrate.residual_evals": (count("calibrate.predicted_mean_pct"), "count"),
        "calibrate.self_s": (layer_self["calibrate"], "s"),
        "classify.samples": (classify_samples, "count"),
        "classify.us_per_sample": (per(busy("classify.detect_abnormal"), classify_samples, 1e6), "us"),
        "classify.events": (info(1, "classify.detect_abnormal"), "count"),
        "energy.calls": (count("energy.simulate_energy"), "count"),
        "energy.us_per_call": (per(busy("energy.simulate_energy"), count("energy.simulate_energy"), 1e6), "us"),
        "trace.overhead_frac": (per(traced_s, untraced_s) - 1.0, "ratio"),
        "trace.unattributed_frac": (1.0 - per(sum(layer_self.values()), job_s), "ratio"),
    }
    return m
