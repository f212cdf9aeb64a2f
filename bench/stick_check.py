#!/usr/bin/env python3
"""Check that the yardstick's time does not depend on the job run before it.

    python3 bench/stick_check.py --seconds 40

Sets up all three workloads (seed 1) in one process and runs their jobs in
turn. After each job it times two yardsticks with run.time_yardstick: one
right after the job and one right after the first. Per workload it prints
the median of each and the median ratio; a ratio near 1.0 on every workload
means the job leaves nothing behind that slows the yardstick. See README.md,
"Host-speed scaling".
"""

import argparse
import statistics
import sys
import time

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args(argv)
    jobs = run.import_jobs()
    workloads = {name: cls() for name, cls in jobs.WORKLOADS.items()}
    lists = {name: w.setup(run.DEFAULT_SEED, w.default_jobs) for name, w in workloads.items()}
    for name, w in workloads.items():
        for job in lists[name][: w.warmup_jobs]:
            w.run(job)
    after_job = {name: [] for name in workloads}
    after_stick = {name: [] for name in workloads}
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < args.seconds:
        for name, w in workloads.items():
            w.run(lists[name][k % len(lists[name])])
            after_job[name].append(run.time_yardstick())
            after_stick[name].append(run.time_yardstick())
        k += 1
    for name in workloads:
        a, b = after_job[name], after_stick[name]
        ratio = statistics.median(x / y for x, y in zip(a, b))
        print(f"{name:15s} jobs {len(a):4d}  after job {1e3 * statistics.median(a):.4f} ms  "
              f"after yardstick {1e3 * statistics.median(b):.4f} ms  ratio {ratio:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
