"""Channel scanning, argmin selection, and hysteresis policy."""

import math
import re

import numpy as np
import pytest

from bsnsim.cli import main
from bsnsim.errors import ParameterError
from bsnsim.scenario import load_scenario, parse_scenario
from bsnsim.selector import ScanReport, adaptive_policy, scan, select_channel

CLEAN = """
name = clean
channel = 20
tx_power_dbm = 0.0

[node base]
x = 0.0
y = 0.0

[node remote]
x = 2.0
y = 0.0
"""


def test_clean_environment_scores_zero():
    report = scan(parse_scenario(CLEAN))
    assert all(s == 0.0 for s in report.scores)


def test_apartment_ch12_worse_than_ch20():
    report = scan(load_scenario("apartment"))
    assert report.score(12) > report.score(20)


def test_oven_makes_ch20_worst_neighbor():
    report = scan(load_scenario("apartment_microwave"))
    assert report.score(20) > report.score(19)
    assert report.score(20) > report.score(21)


def test_select_all_zero_tie_breaks_to_11():
    report = ScanReport(scores=tuple([0.0] * 16))
    assert select_channel(report) == 11


def test_select_unique_minimum():
    scores = [1.0] * 16
    scores[22 - 11] = 0.01
    assert select_channel(ScanReport(scores=tuple(scores))) == 22


def test_apartment_selection_beats_ch12():
    report = scan(load_scenario("apartment"))
    best = select_channel(report)
    assert report.score(best) <= report.score(12)
    assert report.score(best) == min(report.scores)


def test_argmin_scale_invariance_1000_vectors():
    rng = np.random.default_rng(21)
    for _ in range(1000):
        scores = rng.uniform(0.0, 1.0, 16)
        factor = float(rng.uniform(0.01, 100.0))
        a = select_channel(ScanReport(scores=tuple(scores)))
        b = select_channel(ScanReport(scores=tuple(scores * factor)))
        assert a == b


def test_report_validation():
    with pytest.raises(ParameterError):
        ScanReport(scores=(0.0,) * 15)
    with pytest.raises(ParameterError):
        ScanReport(scores=(-0.1,) + (0.0,) * 15)


def test_scan_csv_shape(tmp_path):
    assert main(["run", "scan", "--scenario", "apartment", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert lines[0] == "channel,score"
    assert len(lines) == 17
    assert lines[1].startswith("11,")


def test_static_environment_never_switches_after_first():
    env = load_scenario("apartment")
    schedule = adaptive_policy([(0.0, env)], horizon_s=100.0, rescan_period_s=10.0)
    channels = [ch for _, ch in schedule]
    assert len(set(channels)) == 1
    # with a lossy initial channel, exactly one switch at the first epoch
    schedule = adaptive_policy([(0.0, env)], 100.0, 10.0, initial_channel=12)
    assert schedule[0][1] != 12
    switches = sum(1 for a, b in zip(schedule, schedule[1:]) if a[1] != b[1])
    assert switches == 0


def test_oven_toggle_switches_away_and_hysteresis_blocks_return():
    quiet = load_scenario("apartment_microwave").with_interferer_enabled("oven", False)
    loud = load_scenario("apartment_microwave")
    timeline = [(0.0, quiet), (35.0, loud)]
    schedule = adaptive_policy(timeline, horizon_s=80.0, rescan_period_s=10.0, initial_channel=20)
    by_time = dict(schedule)
    assert by_time[30.0] == 20  # quiet spectrum: stays put
    assert by_time[40.0] != 20  # first epoch after the oven turns on
    # oven off again: improvement below hysteresis keeps the new channel
    timeline = [(0.0, quiet), (35.0, loud), (55.0, quiet)]
    schedule = adaptive_policy(timeline, 100.0, 10.0, initial_channel=20)
    after = [ch for t, ch in schedule if t >= 60.0]
    assert all(ch == after[0] for ch in after)


def test_policy_parameter_errors():
    env = parse_scenario(CLEAN)
    with pytest.raises(ParameterError):
        adaptive_policy([(0.0, env)], 10.0, 0.0)
    with pytest.raises(ParameterError):
        adaptive_policy([], 10.0, 1.0)
    for period in (math.inf, math.nan, -1.0):
        with pytest.raises(ParameterError, match="rescan_period_s must be positive and finite"):
            adaptive_policy([(0.0, env)], 10.0, period)
    for horizon in (math.inf, math.nan, -math.inf):
        with pytest.raises(ParameterError, match=f"horizon_s must be a finite number, got {horizon}"):
            adaptive_policy([(0.0, env)], horizon, 1.0)


@pytest.mark.parametrize("horizon_s, period_s", [(1.0, 1e-300), (1e300, 1e-300), (2.0**53, 1.0), (2.0**52, 0.5)])
def test_policy_refuses_more_than_2_52_rescans(horizon_s, period_s):
    # beyond 2**52 periods `t += period` can stop moving t, and the loop would never end
    env = parse_scenario(CLEAN)
    with pytest.raises(ParameterError, match=re.escape(f"a {horizon_s} s horizon is more than 2**52 rescan "
                                                       f"periods of {period_s} s")):
        adaptive_policy([(0.0, env)], horizon_s, period_s)
    assert adaptive_policy([(0.0, env)], -horizon_s, period_s) == []


def test_policy_scans_each_timeline_entry_once(monkeypatch):
    quiet = load_scenario("apartment_microwave").with_interferer_enabled("oven", False)
    loud = load_scenario("apartment_microwave")
    timeline = [(0.0, quiet), (35.0, loud), (55.0, quiet)]
    scanned = []

    def counting_scan(scenario, calibration=None):
        scanned.append(scenario)
        return scan(scenario, calibration)

    monkeypatch.setattr("bsnsim.selector.scan", counting_scan)
    adaptive_policy(timeline, 100.0, 10.0, initial_channel=20)
    # 10 rescans over 3 entries; the two quiet entries share a scenario but are scanned apart
    assert [s is quiet for s in scanned] == [True, False, True]
