#!/usr/bin/env python3
"""The bsnsim benchmark: one closed-loop client running seeded jobs back to back.

    python3 bench/run.py --workload ward_night --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
The seed fixes the job list; the run repeats whole passes over it until
`--seconds` have gone by, after a warm-up on its first jobs. Every execution
of a job is checked, and must give the same digest as its first execution.

`--trace 0` prints the end-to-end metrics: job and set-up times scaled for
the host's speed drift (see yardstick), and peak memory. `--trace 1` runs
the passes in pairs, one untraced and one with the bsnsim boundaries wrapped
(see spans.py), and prints the per-layer metrics. The last line of stdout is
the result as one JSON object; the line before it reports the digest, the
sample counts, raw host times and the workload's own figures. See
README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import struct
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DEFAULT_SEED = 1
SETUP_PROBES = 7
YARDSTICK_ITERATIONS = 250
# Scaled times are host times at the speed where one yardstick takes this
# long (on the 2-vCPU virtual machine of the baseline it takes 0.5-1.0 ms).
YARDSTICK_MS = 1.0
STICK_WINDOW = 4
# Yardsticks timed after each set-up probe.
SETUP_STICKS = 5
# Set-up time follows only part of the host's speed changes: fork, exec,
# page faults and file reads follow the yardstick less than interpreter work
# does. Over 60 baseline runs, log host set-up time fell with log yardstick
# speed at a slope of 0.59, so set-up probes are scaled by the square root
# of the speed factor (see README.md, "Host-speed scaling").
SETUP_SPEED_EXPONENT = 0.5

# Workload digest of DEFAULT_SEED with the default job count. A change that
# alters any simulated output byte changes it; update it only on purpose.
RECORDED_DIGESTS = {
    "ward_night": "3a0f66e44e6ce1b18401ed71fa0226340c1bde5eba03b7d58e1c833cbbe08392",
    "fall_drill": "31a5dbe9da2e4f98317ed37f4f92b2ea97f4f5cc8694705174b1123c7df33319",
    "channel_survey": "a6bd8327aa5f02eae8524f161f1bb7d04cf53d298f2e6a59003b03e4727c5cd2",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(RECORDED_DIGESTS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_jobs():
    """Import the benchmark's jobs module against the checkout's own src/."""
    if not (SRC / "bsnsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no bsnsim package under {SRC}; run from a full checkout")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import bsnsim
    import jobs

    if Path(bsnsim.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"error: imported bsnsim from {bsnsim.__file__}, not from {SRC}")
    return jobs


@dataclasses.dataclass(frozen=True)
class _Tick:
    t: float
    n: int


_PACK = struct.Struct(">HI")


def yardstick() -> float:
    """Fixed work that shares no code with bsnsim but mixes the same kinds of
    operation: frozen-dataclass replace, struct packing, float math and small
    numpy reductions.

    On a shared virtual machine the CPU speed can change by up to 2x from one
    second to the next, as other tenants come and go. The yardstick is timed
    between jobs (see time_yardstick), and each job time is scaled by the
    yardstick times around it (see run_pass), so the gated figures follow the
    program, not the host's speed of the moment.
    """
    tick = _Tick(0.0, 0)
    acc = 0.0
    packed = []
    arr = np.linspace(0.0, 1.0, 64)
    for i in range(YARDSTICK_ITERATIONS):
        tick = dataclasses.replace(tick, t=tick.t + 0.25, n=i)
        packed.append(_PACK.pack(i & 0xFFFF, tick.n))
        acc += math.sqrt(tick.t) + float(arr[i & 63])
        if i % 16 == 0:
            acc += float(np.abs(arr - 0.5).max())
    return acc


def time_yardstick() -> float:
    """Seconds one yardstick takes, with the garbage collector off.

    The first yardstick after a job runs 12-33 % slower than the next one,
    by an amount that depends on the job (its caches are cold), so one
    untimed yardstick runs first and the second is timed; see README.md,
    "Host-speed scaling".
    """
    gc.disable()
    try:
        yardstick()
        start = time.perf_counter()
        yardstick()
        return time.perf_counter() - start
    finally:
        gc.enable()


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median time from spawning a fresh interpreter to its first job being ready.

    Returns (scaled, host) seconds. Each probe is scaled by the speed factor
    of the yardsticks timed just before and just after it, to the power
    SETUP_SPEED_EXPONENT. This process, and so the probes, are pinned to one
    CPU meanwhile, so that the yardsticks measure the CPU the probes run on
    (see README.md).
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        sticks = [[time_yardstick() for _ in range(SETUP_STICKS)]]
        host, scaled = [], []
        for _ in range(SETUP_PROBES):
            start = time.perf_counter()
            with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.stdout.read()
            if proc.returncode != 0 or line.strip() != "ready":
                raise RuntimeError(f"setup probe failed (exit {proc.returncode}): {line!r}")
            sticks.append([time_yardstick() for _ in range(SETUP_STICKS)])
            host.append(elapsed)
            speed = YARDSTICK_MS / (1e3 * statistics.median(sticks[-2] + sticks[-1]))
            scaled.append(elapsed * speed**SETUP_SPEED_EXPONENT)
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.median(scaled), statistics.median(host)


class Session:
    """Runs and checks jobs, keeping each job's first digest as its reference."""

    def __init__(self, workload, job_list):
        self.workload = workload
        self.jobs = job_list
        self.first_digest: list[bytes | None] = [None] * len(job_list)
        self.work: list[dict | None] = [None] * len(job_list)
        self.attempted = 0
        self.failed = 0

    def execute(self, i: int, tracer=None) -> float | None:
        """Run job i once and check it; its time in seconds, or None if it failed."""
        job = self.jobs[i]
        self.attempted += 1
        try:
            start = time.perf_counter()
            if tracer is None:
                out = self.workload.run(job)
            else:
                out = tracer.run_job(self.attempted, job.kind, self.workload.run, job)
            elapsed = time.perf_counter() - start
            digest, self.work[i] = self.workload.check(job, out)
            if self.first_digest[i] is None:
                self.first_digest[i] = digest
            elif digest != self.first_digest[i]:
                raise RuntimeError("output differs from this job's first execution")
        except Exception:
            self.failed += 1
            print(f"job {i} ({job.kind}) failed:\n{traceback.format_exc()}", file=sys.stderr)
            return None
        return elapsed

    def run_pass(self, times: list[list[tuple[float, float]]], tracer=None) -> float:
        """Run every job once, with the yardstick timed between jobs.

        Appends (host seconds, scaled seconds) to times[i] for each job that
        passed, and returns the pass's median host speed. A job's speed is
        YARDSTICK_MS over the median of the STICK_WINDOW yardstick times on
        either side of it: near enough to follow the host's speed changes,
        wide enough that one disturbed yardstick does not move it.
        """
        sticks = [time_yardstick()]
        done = []
        for i in range(len(self.jobs)):
            elapsed = self.execute(i, tracer)
            sticks.append(time_yardstick())
            done.append((i, elapsed))
        speeds = []
        for i, elapsed in done:
            nearby = sticks[max(0, i + 1 - STICK_WINDOW) : i + 1 + STICK_WINDOW]
            speeds.append(YARDSTICK_MS / (1e3 * statistics.median(nearby)))
            if elapsed is not None:
                times[i].append((elapsed, elapsed * speeds[-1]))
        return statistics.median(speeds)

    def digest(self) -> str:
        """The workload digest: over every job's first digest, in list order."""
        if any(d is None for d in self.first_digest):
            return "incomplete"
        return hashlib.sha256(b"".join(self.first_digest)).hexdigest()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 1..99) as statistics.quantiles gives it."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def end_to_end(session: Session, times: list[list[tuple[float, float]]], setup: tuple[float, float]) -> tuple[dict, dict]:
    """End-to-end metrics (gated) and the workload's own figures (reported).

    Latency percentiles are over every timed execution, and throughputs are
    work over summed job time, all in scaled time (see yardstick), as is
    setup_s; the report line also gives the raw host times.
    """
    scaled = [1e3 * s for ts in times for _, s in ts]
    host = [1e3 * h for ts in times for h, _ in ts]
    busy = sum(scaled) / 1e3
    p90 = quantile(scaled, 90)
    metrics = {
        "setup_s": (setup[0], "s"),
        "job_ms_p50": (statistics.median(scaled), "ms"),
        "job_ms_p90": (p90, "ms"),
        "jobs_per_s": (len(scaled) / busy, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    work: dict[str, float] = {}
    for i, ts in enumerate(times):
        for key, value in session.work[i].items():
            work[key] = work.get(key, 0.0) + value * len(ts)
    figures = {
        "executions_timed": (len(scaled), "count"),
        "executions_beyond_p90": (sum(t > p90 for t in scaled), "count"),
        "host_job_ms_p50": (statistics.median(host), "ms"),
        "host_job_ms_p90": (quantile(host, 90), "ms"),
        "host_setup_s": (setup[1], "s"),
    }
    if "scans" in work:
        figures["scans_per_s"] = (work["scans"] / busy, "1/s")
    else:
        figures["sim_node_s_per_s"] = (work["sim_node_s"] / busy, "s/s")
        figures["frames_per_s"] = (work["frames"] / busy, "1/s")
    if hasattr(session.workload, "calib_err_pp"):
        figures["calib_err_pp"] = (session.workload.calib_err_pp, "pp")
    return metrics, figures


def main(argv=None) -> int:
    args = parse_args(argv)
    jobs = import_jobs()
    workload = jobs.WORKLOADS[args.workload]()
    job_list = workload.setup(args.seed, workload.default_jobs)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    session = Session(workload, job_list)
    for i in range(min(workload.warmup_jobs, len(job_list))):
        session.execute(i)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    untraced: list[list[tuple[float, float]]] = [[] for _ in job_list]
    traced: list[list[tuple[float, float]]] = [[] for _ in job_list]
    left: list[str] = []
    speeds = []
    start = time.perf_counter()
    while not speeds or time.perf_counter() - start < args.seconds:
        speeds.append(session.run_pass(untraced))
        if tracer is not None:
            try:
                with tracer.patched():
                    session.run_pass(traced, tracer)
            finally:
                left = spans.wrapped_names()
    digest = session.digest()
    report: dict = {"workload": args.workload, "seed": args.seed, "jobs": len(job_list), "passes": len(speeds),
                    "host_speed": statistics.median(speeds), "digest": digest,
                    "error_rate": session.failed / session.attempted}
    if not any(untraced):
        print(json.dumps(report), flush=True)
        print("error: every job failed", file=sys.stderr)
        return 1
    if tracer is None:
        metrics, figures = end_to_end(session, untraced, measure_setup(args.workload, args.seed))
        report.update({k: v for k, (v, _) in figures.items()})
    else:
        pairs = [(statistics.median(s for _, s in u), statistics.median(s for _, s in t))
                 for u, t in zip(untraced, traced) if u and t]
        metrics = spans.layer_metrics(tracer.spans, sum(u for u, _ in pairs), sum(t for _, t in pairs))
        report["spans"] = len(tracer.spans)
        report["wrapped_names_left"] = left
    correct = session.failed == 0 and digest != "incomplete"
    if left:
        print(f"error: wrapped names left in place: {left}", file=sys.stderr)
        correct = False
    if args.seed == DEFAULT_SEED and digest != RECORDED_DIGESTS[args.workload]:
        print(f"error: digest {digest} differs from the recorded {RECORDED_DIGESTS[args.workload]}", file=sys.stderr)
        correct = False
    print(json.dumps(report), flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
