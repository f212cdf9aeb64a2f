"""The one number rule (`errors.finite_number`, `errors.integer`, `errors.require_positive`)
and the typed error every layer raises through it."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bsnsim.classify import ClassifierConfig, classify_window, detect_abnormal
from bsnsim.energy import Battery, ComponentCurrent, simulate_energy
from bsnsim.errors import FrameError, ParameterError, finite_number, integer, require_positive
from bsnsim.frames import SensorFrame, write_frame_log
from bsnsim.linksim import EchoTestConfig, run_echo_test, run_star_network
from bsnsim.motion import ActivityKind, compose_schedule, generate_trace
from bsnsim.rf import ChannelSpec, InterferenceCalibration
from bsnsim.scenario import load_scenario
from bsnsim.selector import ScanReport, adaptive_policy, scan
from bsnsim.sensor import SensorMode, SensorState, TimelineInterval, initial_state, replay_trace

REST = ActivityKind.REST


@pytest.mark.parametrize("value", [0, -3, 2.5, -0.0, np.float32(0.5), np.int64(7), Fraction(1, 3), 10**300],
                         ids=repr)
def test_finite_numbers(value):
    assert finite_number(value)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, np.float32("nan"), 10**400, True, np.bool_(False),
                                   "1", None, [1.0], 1j], ids=repr)
def test_not_finite_numbers(value):
    assert not finite_number(value)


def test_integers():
    assert all(map(integer, [0, -1, 2**70, np.int64(3), np.uint8(255)]))
    assert not any(map(integer, [True, np.bool_(True), 1.0, "1", np.float64(2.0), None]))


def test_require_positive_names_the_value():
    require_positive("x", 1e-300)
    for value in (0, -1.0, math.nan, math.inf, "5", True):
        with pytest.raises(ParameterError, match=f"^x must be positive and finite, got {value}$"):
            require_positive("x", value)


def _star(duration_s=1.0, seed=1, trace=None):
    trace = generate_trace(REST, 1.0) if trace is None else trace
    return run_star_network(load_scenario("apartment"), {"remote": trace}, duration_s, seed=seed)


def _echo(seed):
    return run_echo_test(EchoTestConfig(ChannelSpec.wpan(12), 0.0, n_messages=10, runs=1), load_scenario("apartment"),
                         seed)


# each seed reached numpy's generator, which raised TypeError or ValueError, before the seed rule
_SEED_CALLS = {
    "trace": lambda seed: generate_trace(REST, 1.0, seed=seed),
    "schedule": lambda seed: compose_schedule([(REST, 1.0)], seed=seed),
    "echo": _echo,
    "star": lambda seed: _star(seed=seed),
}


def _policy(horizon_s):
    return adaptive_policy([(0.0, load_scenario("apartment"))], horizon_s, 1.0)


def _detect(window_s):
    return detect_abnormal(generate_trace(REST, 1.0), ClassifierConfig(window_s=window_s))


_CALIBRATION_CALLS = {
    "scan": lambda calibration: scan(load_scenario("apartment"), calibration),
    "policy": lambda calibration: adaptive_policy([(0.0, load_scenario("apartment"))], 10.0, 5.0, None, calibration),
    "echo": lambda calibration: run_echo_test(EchoTestConfig(ChannelSpec.wpan(12), 0.0, n_messages=10, runs=1),
                                              load_scenario("apartment"), 1, calibration),
    "star": lambda calibration: run_star_network(load_scenario("apartment"), {"remote": generate_trace(REST, 1.0)},
                                                 1.0, 1, calibration),
}


# each raised an error outside the BsnsimError family (a TypeError, OverflowError, KeyError, AttributeError
# or bare ValueError), or was accepted, before it was checked where it enters
_HOLES = [
    ("trace_duration_str", lambda: generate_trace(REST, "x"), ParameterError, "duration_s must be positive"),
    ("trace_duration_int_beyond_float", lambda: generate_trace(REST, 10**400), ParameterError,
     "duration_s must be positive"),
    ("trace_duration_1e308", lambda: generate_trace(REST, 1e308), ParameterError, "more samples than a float"),
    ("segment_duration_str", lambda: compose_schedule([(REST, "x")]), ParameterError, "segment 0 duration"),
    ("trace_rate_str", lambda: generate_trace(REST, 1.0, rate_hz="x"), ParameterError, "rate_hz must be within"),
    ("state_rate_str", lambda: initial_state(sample_rate_hz="x"), ParameterError, "rate_hz must be within"),
    ("state_wake_period_str", lambda: initial_state(wake_period_s="x"), ParameterError, "wake_period_s"),
    ("state_node_id_bool", lambda: initial_state(node_id=True), ParameterError, "node_id must be an integer"),
    ("state_threshold_nan", lambda: initial_state(activation_threshold_g=math.nan), ParameterError,
     "activation_threshold_g must be finite"),
    ("star_duration_str", lambda: _star("5"), ParameterError, "duration_s must be positive"),
    ("star_duration_1e308", lambda: _star(1e308), ParameterError, "more samples than a float"),
    ("echo_channel_str", lambda: EchoTestConfig(channel="x", tx_power_dbm=0.0), ParameterError,
     "channel must be a ChannelSpec"),
    ("classifier_low_str", lambda: ClassifierConfig(low_threshold_g="x"), ParameterError, "need 0 < low < 1 < high"),
    ("classifier_window_str", lambda: ClassifierConfig(window_s="x"), ParameterError, "window_s must be positive"),
    ("classifier_window_1e308", lambda: _detect(1e308), ParameterError, "more samples than a float"),
    ("battery_str", lambda: Battery("x"), ParameterError, "capacity_mah must be positive"),
    ("component_str", lambda: ComponentCurrent("a", "x"), ParameterError, "active_ma < inf"),
    ("policy_horizon_str", lambda: _policy("x"), ParameterError, "horizon_s must be finite"),
    ("interval_str", lambda: TimelineInterval("a", "b", SensorMode.SLEEP), ParameterError, "finite bounds"),
    ("scan_report_str", lambda: ScanReport(("x",) * 16), ParameterError, "scores must be finite"),
    ("frame_node_id_bool", lambda: SensorFrame(True, 0, 0, (0, 0, 0), (0, 0, 0)), FrameError,
     "node_id must be an integer"),
    ("log_range_codes_float_bool", lambda: write_frame_log([(1, 0, 0, (0, 0, 0), (2.0, True, 0))]), FrameError,
     "bad range codes"),
    ("log_codes_pair", lambda: write_frame_log([(1, 0, 0, (0, 0), (0, 0, 0))]), FrameError, "bad ADC codes"),
    ("log_codes_int", lambda: write_frame_log([(1, 0, 0, 5, (0, 0, 0))]), FrameError, "bad ADC codes"),
    ("log_four_fields", lambda: write_frame_log([(1, 0, 0, (0, 0, 0))]), FrameError, "a frame has 5 fields"),
    ("calibration_scale_zero", lambda: InterferenceCalibration(logistic_scale_db=0.0), ParameterError,
     "logistic_scale_db must be positive and finite, got 0.0"),
    ("calibration_scale_negative", lambda: InterferenceCalibration(logistic_scale_db=-2.0), ParameterError,
     "logistic_scale_db must be positive and finite, got -2.0"),
    ("calibration_scale_str", lambda: InterferenceCalibration(logistic_scale_db="x"), ParameterError,
     "logistic_scale_db must be a finite number, got 'x'"),
    ("state_mode_str", lambda: initial_state(mode="x"), ParameterError, "mode must be a SensorMode"),
    ("state_ranges_str", lambda: SensorState(mode=SensorMode.ACTIVE, ranges="abc"), ParameterError,
     "ranges must be a tuple of three MeasurementRanges"),
    ("state_ranges_ints", lambda: SensorState(mode=SensorMode.ACTIVE, ranges=(1, 2, 3)), ParameterError,
     "ranges must be a tuple of three MeasurementRanges"),
    ("trace_kind_str", lambda: generate_trace("x", 1.0), ParameterError, "kind must be an ActivityKind"),
    ("segment_without_duration", lambda: compose_schedule([REST]), ParameterError,
     "segment 0 must be a \\(kind, duration_s\\) pair"),
    *((f"{name}_seed_{seed}", lambda call=call, seed=seed: call(seed), ParameterError,
       "seed must be a non-negative integer") for name, call in _SEED_CALLS.items() for seed in ("x", 1.5, -1)),
    ("replay_trace_list", lambda: replay_trace(initial_state(), [1, 2]), ParameterError,
     "replay_trace takes a SensorState and an AccelTrace"),
    ("replay_state_str", lambda: replay_trace("x", generate_trace(REST, 1.0)), ParameterError,
     "replay_trace takes a SensorState and an AccelTrace"),
    ("star_trace_list", lambda: _star(trace=[1, 2, 3]), ParameterError, "trace of node 'remote' must be an AccelTrace"),
    ("detect_list", lambda: detect_abnormal([1, 2]), ParameterError, "trace must be an AccelTrace"),
    ("energy_intervals_ints", lambda: simulate_energy([1, 2], 3), ParameterError,
     "intervals must be TimelineIntervals"),
    # each raised a TypeError or AttributeError before its entry point checked the argument's type
    ("schedule_int", lambda: compose_schedule(5, seed=1), ParameterError,
     "segments must be a sequence of \\(kind, duration_s\\) pairs, got int"),
    ("energy_intervals_int", lambda: simulate_energy(5, 3), ParameterError, "intervals must be TimelineIntervals"),
    ("energy_battery_str", lambda: simulate_energy([], 3, battery="x"), ParameterError,
     "battery must be a Battery, got str"),
    ("star_traces_list", lambda: run_star_network(load_scenario("apartment"), [generate_trace(REST, 1.0)], 1.0, 1),
     ParameterError, "run_star_network takes a Scenario and a mapping of node name to AccelTrace"),
    ("star_scenario_str", lambda: run_star_network("x", {"remote": generate_trace(REST, 1.0)}, 1.0, 1),
     ParameterError, "run_star_network takes a Scenario and a mapping of node name to AccelTrace"),
    ("detect_cfg_str", lambda: detect_abnormal(generate_trace(REST, 1.0), "x"), ParameterError,
     "cfg must be a ClassifierConfig, got str"),
    ("classify_window_list", lambda: classify_window([1, 2]), ParameterError, "window must be an AccelTrace, got list"),
    ("classify_window_cfg_str", lambda: classify_window(generate_trace(REST, 1.0), "x"), ParameterError,
     "cfg must be a ClassifierConfig, got str"),
    ("scan_str", lambda: scan("x"), ParameterError, "scenario must be a Scenario, got str"),
    ("echo_scenario_str", lambda: run_echo_test(EchoTestConfig(ChannelSpec.wpan(12), 0.0), "x", 1), ParameterError,
     "run_echo_test takes an EchoTestConfig and a Scenario"),
    ("echo_cfg_str", lambda: run_echo_test("x", load_scenario("apartment"), 1), ParameterError,
     "run_echo_test takes an EchoTestConfig and a Scenario"),
    # each returned another channel's score (5, 10, True), or raised an IndexError or TypeError (27, "x")
    *((f"score_{channel}", lambda channel=channel: ScanReport((0.0,) * 16).score(channel), ParameterError,
       message) for channel, message in [(5, "802.15.4 channel must be 11..26, got 5"),
                                         (10, "802.15.4 channel must be 11..26, got 10"),
                                         (27, "802.15.4 channel must be 11..26, got 27"),
                                         (True, "channel index must be an integer, got True"),
                                         ("x", "channel index must be an integer, got 'x'")]),
    ("policy_initial_channel_5", lambda: adaptive_policy([(0.0, load_scenario("apartment"))], 10.0, 5.0, 5),
     ParameterError, "802.15.4 channel must be 11..26, got 5"),
    # each raised an AttributeError, or ran with the default constants (0, None)
    *((f"{name}_calibration_{calibration}", lambda call=call, calibration=calibration: call(calibration),
       ParameterError, f"calibration must be an InterferenceCalibration, got {type(calibration).__name__}")
      for name, call in _CALIBRATION_CALLS.items() for calibration in ("x", 0, None)),
    # each raised a TypeError, or ran (a nan time)
    ("policy_timeline_int", lambda: adaptive_policy(5, 10.0, 1.0), ParameterError,
     "environment timeline must be a non-empty sequence of \\(time, Scenario\\) pairs"),
    ("policy_time_str", lambda: adaptive_policy([("x", load_scenario("apartment"))], 10.0, 1.0), ParameterError,
     "timeline entry 0 must be a \\(finite time, Scenario\\) pair"),
    ("policy_time_nan", lambda: adaptive_policy([(math.nan, load_scenario("apartment"))], 10.0, 1.0),
     ParameterError, "timeline entry 0 must be a \\(finite time, Scenario\\) pair"),
    ("policy_entry_scenario", lambda: adaptive_policy([load_scenario("apartment")], 10.0, 1.0), ParameterError,
     "timeline entry 0 must be a \\(finite time, Scenario\\) pair"),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in _HOLES], ids=[case[0] for case in _HOLES])
def test_a_bad_input_raises_a_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
