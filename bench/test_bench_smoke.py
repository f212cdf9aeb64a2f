"""Smoke tests for the benchmark itself, on job lists of a few jobs each.

They check that a tiny run of each workload prints every metric named in
BENCHMARK.json with its unit and fails no job, that tracing changes no
output digest, that every wrapped name is restored (also when a job raises),
and that the benchmark refuses to run without the package sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
# Job-list lengths that still reach every job kind of the workload.
TINY = {"ward_night": 2, "fall_drill": 2, "channel_survey": 8}
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(capsys, monkeypatch, name, trace):
    """A zero-second run of the workload on its TINY job list, with one set-up probe."""
    monkeypatch.setattr(run.import_jobs().WORKLOADS[name], "default_jobs", TINY[name])
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    assert run.main(["--workload", name, "--seed", "3", "--seconds", "0", "--trace", str(trace)]) == 0
    report, result = (json.loads(line) for line in capsys.readouterr().out.strip().splitlines()[-2:])
    return report, result


def _originals():
    return {(path, attr): spans._owner(path).__dict__[attr] for path, attr, _ in spans.BOUNDARIES}


def test_spec_names_the_workloads_run_knows():
    assert sorted(WORKLOADS) == sorted(run.RECORDED_DIGESTS) == sorted(TINY)


@pytest.mark.parametrize("name", WORKLOADS)
def test_traced_run_prints_every_per_layer_metric(capsys, monkeypatch, name):
    before = _originals()
    report, result = _run(capsys, monkeypatch, name, trace=1)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert report["error_rate"] == 0.0 and report["wrapped_names_left"] == []
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert _originals() == before


@pytest.mark.parametrize("name", WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(capsys, monkeypatch, name):
    report, result = _run(capsys, monkeypatch, name, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert report["error_rate"] == 0.0
    figures = ("scans_per_s", "calib_err_pp") if name == "channel_survey" else ("sim_node_s_per_s", "frames_per_s")
    assert all(report[f] > 0 for f in figures)


@pytest.mark.parametrize("name", WORKLOADS)
def test_tracing_changes_no_digest(name):
    jobs = run.import_jobs()
    workload = jobs.WORKLOADS[name]()
    job_list = workload.setup(5, TINY[name])
    plain = [workload.check(job, workload.run(job))[0] for job in job_list]
    tracer = spans.Tracer()
    with tracer.patched():
        traced = [workload.check(job, tracer.run_job(k, job.kind, workload.run, job))[0]
                  for k, job in enumerate(job_list)]
    assert traced == plain
    assert {s.job for s in tracer.spans} == set(range(len(job_list)))
    assert spans.wrapped_names() == []


def test_names_restored_when_a_job_raises():
    run.import_jobs()
    before = _originals()
    tracer = spans.Tracer()

    def failing_job():
        import bsnsim.scenario

        bsnsim.scenario.parse_scenario("[node base]\nx = nope\n")

    with pytest.raises(ValueError):
        with tracer.patched():
            tracer.run_job(0, "bad", failing_job)
    assert spans.wrapped_names() == []
    assert _originals() == before
    assert [s.error for s in tracer.spans] == ["ScenarioError", "ScenarioError"]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "ward_night", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
