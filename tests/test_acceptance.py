"""Acceptance suite: every shipped claim at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line
per criterion with its runtime.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from bsnsim.calibrate import apply_overrides, fit
from bsnsim.classify import detect_abnormal
from bsnsim.energy import (
    CONTINUOUS_PROFILE,
    TEN_PERCENT_RADIO_PROFILE,
    BUTTON_CELL,
    PACK_BATTERY,
    battery_life_hours,
    paper_components,
)
from bsnsim.frames import read_frame_log
from bsnsim.linksim import (
    EchoTestConfig,
    run_echo_test,
    run_star_network,
    simulate_echo_runs,
)
from bsnsim.motion import AccelTrace, ActivityKind, compose_schedule, generate_trace
from bsnsim.rf import ChannelSpec, RadioPath, Reception
from bsnsim.scenario import load_scenario, parse_scenario
from bsnsim.selector import ScanReport, adaptive_policy, scan, select_channel
from bsnsim.sensor import RANGE_LADDER, SensorMode, SensorState, initial_state, replay_trace
from sensor_reference import _dequantize, _next_index, _quantize

SEED = 42


@contextmanager
def criterion(name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL [{name}] after {time.perf_counter() - start:.1f}s")
        raise
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"{name} exceeded its {budget_s:.0f}s runtime budget ({elapsed:.1f}s)"
    print(f"PASS [{name}] ({elapsed:.1f}s)")


@pytest.fixture(scope="module")
def calibration_result():
    return fit()


def test_criterion_1_energy_arithmetic():
    with criterion("1 energy arithmetic", 1.0):
        comps = paper_components()
        continuous = battery_life_hours(PACK_BATTERY, comps, CONTINUOUS_PROFILE)
        assert continuous == pytest.approx(128.7, abs=0.1)
        assert continuous > 120.0
        duty_cycled = battery_life_hours(PACK_BATTERY, comps, TEN_PERCENT_RADIO_PROFILE)
        assert duty_cycled == pytest.approx(611.1, abs=0.1)
        assert duty_cycled > 600.0
        assert battery_life_hours(BUTTON_CELL, comps, CONTINUOUS_PROFILE) == pytest.approx(4.48, abs=0.1)
        assert battery_life_hours(BUTTON_CELL, comps, TEN_PERCENT_RADIO_PROFILE) == pytest.approx(21.3, abs=0.1)


def test_criterion_2_channel_geometry():
    with criterion("2 channel geometry", 1.0):
        expected = {12: 2410.0, 19: 2445.0, 20: 2450.0, 21: 2455.0, 22: 2460.0}
        for index, center in expected.items():
            assert ChannelSpec.wpan(index).center_mhz == center
        victim, wlan1 = ChannelSpec.wpan(12), ChannelSpec.wlan(1)
        path = RadioPath(1.0, ())
        [(_, _, _, overlap_frac, _)] = Reception.bind(path, victim, 0.0, [(wlan1, path, 0.0)]).overlapping
        overlap = overlap_frac * victim.occupied_bw_mhz
        assert overlap == pytest.approx(2.0)
        assert overlap == victim.occupied_bw_mhz  # full containment
        assert abs(victim.center_mhz - wlan1.center_mhz) == pytest.approx(2.0)


def test_criterion_3_calibration_fit(calibration_result):
    with criterion("3 calibration fit", 30.0):
        result = calibration_result
        for target in result.targets:
            scenario = apply_overrides(load_scenario(target.scenario), result.interferer_overrides)
            cfg = EchoTestConfig(
                channel=ChannelSpec.wpan(target.channel),
                tx_power_dbm=target.tx_power_dbm,
                n_messages=1000,
                runs=10,
            )
            stats = run_echo_test(cfg, scenario, seed=SEED, calibration=result.calibration)
            measured_pct = stats.mean_ratio * 100.0
            tolerance = 0.5 if target.role == "fit" else 1.0
            assert abs(measured_pct - target.target_mean_pct) <= tolerance, (
                f"{target.scenario} ch{target.channel} {target.tx_power_dbm:+.0f} dBm "
                f"[{target.role}]: measured {measured_pct:.2f}%, target {target.target_mean_pct:.2f}%"
            )


def test_criterion_4_attenuation_outcomes():
    with criterion("4 attenuation outcomes", 10.0):
        def measured(preset: str) -> float:
            scenario = load_scenario(preset)
            cfg = EchoTestConfig(
                channel=ChannelSpec.wpan(scenario.channel), tx_power_dbm=scenario.tx_power_dbm
            )
            return run_echo_test(cfg, scenario, seed=SEED).mean_ratio

        assert measured("attenuation_aluminum") < 0.01
        assert measured("attenuation_brick_glass") > 0.995
        assert measured("attenuation_stove") < 0.75
        behind_plant = measured("attenuation_plant")
        offset_plant = measured("attenuation_plant_offset")
        assert behind_plant < 0.90  # noticeably degraded at 0 dBm
        assert offset_plant > 0.99
        assert offset_plant - behind_plant > 0.05


def test_criterion_5_sensor_state_machine_properties():
    with criterion("5 sensor state machine (10,000 cases)", 30.0):
        rng = np.random.default_rng(SEED)
        cases = 0

        # quantize/dequantize round trip within half an LSB (4,000 cases)
        for _ in range(4000):
            meas_range = RANGE_LADDER[rng.integers(0, 4)]
            a = float(rng.uniform(-meas_range.range_g, meas_range.range_g))
            half_lsb_g = (3.3 / 65535) / 2.0 / (meas_range.sensitivity_mv_per_g / 1000.0)
            code, clipped = _quantize(a, meas_range.code)
            assert abs(_dequantize(code, meas_range.code, clipped) - a) <= half_lsb_g
            cases += 1

        # range selection minimality (3,000 cases)
        for _ in range(3000):
            current = RANGE_LADDER[rng.integers(0, 4)]
            value = float(rng.uniform(-7.0, 7.0))
            chosen = RANGE_LADDER[_next_index(value, current.code, False)]
            if abs(value) > current.range_g:
                assert chosen is RANGE_LADDER[min(RANGE_LADDER.index(current) + 1, 3)]
            else:
                assert chosen is next(r for r in RANGE_LADDER if abs(value) <= r.range_g)
            cases += 1

        # per-axis independence of the kernel's range step, one active sample each (1,000 cases)
        def next_ranges(ranges, readings):
            ax, ay, az = (np.array([value]) for value in readings)
            trace = AccelTrace(rate_hz=60.0, ax=ax, ay=ay, az=az, labels=[ActivityKind.REST])
            state = SensorState(mode=SensorMode.ACTIVE, ranges=ranges, next_sample_at_s=0.0)
            return replay_trace(state, trace).final_state.ranges

        for _ in range(1000):
            current = tuple(RANGE_LADDER[i] for i in rng.integers(0, 4, size=3))
            readings = tuple(float(v) for v in rng.uniform(-7, 7, size=3))
            base = next_ranges(current, readings)
            axis = int(rng.integers(0, 3))
            perturbed = list(readings)
            perturbed[axis] = float(rng.uniform(-7, 7))
            out = next_ranges(current, perturbed)
            assert all(out[i] is base[i] for i in range(3) if i != axis)
            cases += 1

        # sleep-mode duty bound on rest traces (600 cases)
        for i in range(600):
            duration = float(rng.uniform(4.0, 10.0))
            trace = generate_trace(ActivityKind.REST, duration, 60.0, seed=int(rng.integers(1 << 30)))
            result = replay_trace(initial_state(), trace)
            assert result.final_state.mode is SensorMode.SLEEP
            assert len(result.frames) <= math.ceil(duration / 1.0)
            cases += 1

        # Sleep -> Active within one wake period of a fall spike (1,300 cases)
        for i in range(1300):
            trace = compose_schedule(
                [(ActivityKind.REST, 2.0), (ActivityKind.FALL, 2.0)],
                seed=int(rng.integers(1 << 30)),
            )
            result = replay_trace(initial_state(), trace)
            active = [iv for iv in result.intervals if iv.mode is SensorMode.ACTIVE]
            assert active, "fall spike missed"
            spike_t = float(trace.t[int(np.argmax(trace.az))])
            assert active[0].t_start <= spike_t + 1.0
            cases += 1

        # Active -> Sleep after the 300 s inactivity window (100 cases)
        for i in range(100):
            trace = compose_schedule(
                [(ActivityKind.FALL, 2.0), (ActivityKind.REST, 310.0)],
                rate_hz=10.0,
                seed=int(rng.integers(1 << 30)),
            )
            result = replay_trace(initial_state(sample_rate_hz=10.0), trace)
            assert result.final_state.mode is SensorMode.SLEEP
            cases += 1

        assert cases == 10_000


def test_criterion_6_classifier_statistical_contract():
    with criterion("6 classifier contract (100 seeds per activity)", 60.0):
        quiet_kinds = (
            ActivityKind.REST,
            ActivityKind.SIT_STAND,
            ActivityKind.LEFT_RIGHT_ROTATION,
            ActivityKind.SLOW_WALK,
        )
        for kind in quiet_kinds:
            for seed in range(100):
                trace = generate_trace(kind, 10.0, 60.0, seed=seed)
                events = detect_abnormal(trace)
                assert events == [], f"false positive on {kind.value} seed {seed}"

        for kind in (ActivityKind.FALL, ActivityKind.JUMP):
            for seed in range(100):
                trace = compose_schedule(
                    [(ActivityKind.REST, 3.0), (kind, 3.0), (ActivityKind.REST, 3.0)],
                    seed=seed,
                )
                events = detect_abnormal(trace)
                seg_start, seg_end = 3.0, 6.0
                assert any(
                    ev.t_start < seg_end and ev.t_end > seg_start for ev in events
                ), f"missed {kind.value} seed {seed}"


def test_criterion_7_channel_selector(calibration_result):
    with criterion("7 channel selector", 60.0):
        result = calibration_result
        scenario = apply_overrides(load_scenario("apartment"), result.interferer_overrides)
        report = scan(scenario, result.calibration)
        best = select_channel(report)

        measured = {}
        for index in range(11, 27):
            cfg = EchoTestConfig(channel=ChannelSpec.wpan(index), tx_power_dbm=scenario.tx_power_dbm)
            measured[index] = run_echo_test(cfg, scenario, seed=SEED, calibration=result.calibration).mean_ratio
        assert all(measured[best] >= measured[ch] for ch in measured), (
            f"channel {best} measured {measured[best]:.4f}, "
            f"best measured {max(measured.values()):.4f}"
        )

        rng = np.random.default_rng(SEED)
        for _ in range(1000):
            scores = rng.uniform(0.0, 1.0, 16)
            factor = float(rng.uniform(0.01, 100.0))
            assert select_channel(ScanReport(tuple(scores))) == select_channel(
                ScanReport(tuple(scores * factor))
            )

        for start in (11, 12, 20, 26):
            schedule = adaptive_policy(
                [(0.0, scenario)], horizon_s=120.0, rescan_period_s=10.0,
                initial_channel=start, calibration=result.calibration,
            )
            switches = sum(1 for a, b in zip(schedule, schedule[1:]) if a[1] != b[1])
            assert switches <= 1


def test_criterion_8_simulation_soundness():
    with criterion("8 simulation soundness", 30.0):
        cfg = EchoTestConfig(channel=ChannelSpec.wpan(20), tx_power_dbm=0.0)
        for p in (0.9, 0.99, 1.0):
            stats = simulate_echo_runs(p, p, cfg, seed=7)
            bound = 3.0 * math.sqrt(p * (1.0 - p) / (cfg.runs * cfg.n_messages))
            assert abs(stats.mean_ratio - p * p) <= max(bound, 1e-12)

        # identical seeds: bit-identical stats and logs
        scenario = parse_scenario(
            "name = star\nchannel = 20\ntx_power_dbm = 0.0\n"
            "[node base]\nx = 0.0\ny = 0.0\n[node remote]\nx = 2.0\ny = 0.0\n"
            "[node sensor_1]\nx = 1.0\ny = 1.0\n[node sensor_2]\nx = 1.5\ny = -1.0\n"
        )
        traces = {
            "sensor_1": compose_schedule([(ActivityKind.REST, 2.0), (ActivityKind.FALL, 4.0)], seed=1),
            "sensor_2": compose_schedule([(ActivityKind.REST, 3.0), (ActivityKind.JUMP, 3.0)], seed=2),
        }
        star_a = run_star_network(scenario, traces, 6.0, seed=SEED)
        star_b = run_star_network(scenario, traces, 6.0, seed=SEED)
        assert star_a.log_bytes() == star_b.log_bytes()
        stats_a = run_echo_test(cfg, scenario, seed=SEED)
        stats_b = run_echo_test(cfg, scenario, seed=SEED)
        assert stats_a == stats_b

        # frame log replays with zero CRC failures
        frames = read_frame_log(star_a.log_bytes())
        assert len(frames) == len(star_a.logged)
        assert frames == [f for _, _, f in star_a.logged]
