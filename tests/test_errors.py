"""The one number rule (`errors.finite_number`, `errors.integer`, `errors.require_positive`)
and the typed error every layer raises through it."""

import math
from fractions import Fraction

import numpy as np
import pytest

from bsnsim.calibrate import CalibrationTarget
from bsnsim.classify import classify_window, detect_abnormal
from bsnsim.energy import Battery, ComponentCurrent, simulate_energy
from bsnsim.errors import FrameError, ParameterError, finite_number, integer, require_positive
from bsnsim.frames import SensorFrame, encode_frame
from bsnsim.linksim import Direction, EchoTestConfig, run_echo_test, run_star_network
from bsnsim.motion import AccelTrace, ActivityKind, compose_schedule, generate_trace
from bsnsim.rf import DEFAULT_CALIBRATION, ChannelSpec, Disc, InterferenceCalibration, Material, Obstacle, Wall
from bsnsim.scenario import Scenario, load_scenario
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


_CALIBRATION_CALLS = {
    "scan": lambda calibration: scan(load_scenario("apartment"), calibration),
    "policy": lambda calibration: adaptive_policy([(0.0, load_scenario("apartment"))], 10.0, 5.0, None, calibration),
    "echo": lambda calibration: run_echo_test(EchoTestConfig(ChannelSpec.wpan(12), 0.0, n_messages=10, runs=1),
                                              load_scenario("apartment"), 1, calibration),
    "star": lambda calibration: run_star_network(load_scenario("apartment"), {"remote": generate_trace(REST, 1.0)},
                                                 1.0, 1, calibration),
}


def _bound_success_prob(calibration=DEFAULT_CALIBRATION, tx_power_dbm=-10.0):
    scenario = load_scenario("apartment")
    outbound = Direction.to(scenario, ["base"], "remote")[0]
    return outbound.reception(scenario, ChannelSpec.wpan(20)).success_prob(
        tx_power_dbm, tuple(scenario.interferers.values()), calibration)


def _labelled(labels):
    return AccelTrace(60.0, np.zeros(3), np.zeros(3), np.ones(3), labels)


_WALL = Wall(0.0, -1.0, 0.0, 1.0)
_NODES = {"base": (0.0, 0.0), "remote": (3.0, 4.0)}
_TARGET = {"scenario": "apartment", "channel": 12, "tx_power_dbm": 0.0, "target_mean_pct": 99.0, "role": "fit"}


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
    ("battery_str", lambda: Battery("x"), ParameterError, "capacity_mah must be positive"),
    ("component_str", lambda: ComponentCurrent("a", "x"), ParameterError, "active_ma < inf"),
    ("policy_horizon_str", lambda: _policy("x"), ParameterError, "horizon_s must be finite"),
    ("interval_str", lambda: TimelineInterval("a", "b", SensorMode.SLEEP), ParameterError, "finite bounds"),
    ("scan_report_str", lambda: ScanReport(("x",) * 16), ParameterError, "scores must be finite"),
    ("frame_node_id_bool", lambda: SensorFrame(True, 0, 0, (0, 0, 0), (0, 0, 0)), FrameError,
     "node_id must be an integer"),
    ("log_range_codes_float_bool", lambda: encode_frame((1, 0, 0, (0, 0, 0), (2.0, True, 0))), FrameError,
     "bad range codes"),
    ("log_codes_pair", lambda: encode_frame((1, 0, 0, (0, 0), (0, 0, 0))), FrameError, "bad ADC codes"),
    ("log_codes_int", lambda: encode_frame((1, 0, 0, 5, (0, 0, 0))), FrameError, "bad ADC codes"),
    ("log_four_fields", lambda: encode_frame((1, 0, 0, (0, 0, 0))), FrameError, "a frame has 5 fields"),
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
    ("classify_window_list", lambda: classify_window([1, 2]), ParameterError, "window must be an AccelTrace, got list"),
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
    # each ran with the default constants
    *((f"bound_success_prob_calibration_{type(calibration).__name__}",
       lambda calibration=calibration: _bound_success_prob(calibration),
       ParameterError, f"calibration must be an InterferenceCalibration, got {type(calibration).__name__}")
      for calibration in (0, "", None)),
    # each returned [] unchecked: a horizon of 0 s or less runs no rescan
    ("policy_no_rescan_initial_channel_5",
     lambda: adaptive_policy([(0.0, load_scenario("apartment"))], -1.0, 1.0, 5), ParameterError,
     "802.15.4 channel must be 11..26, got 5"),
    ("policy_no_rescan_calibration_str",
     lambda: adaptive_policy([(0.0, load_scenario("apartment"))], -1.0, 1.0, None, "x"), ParameterError,
     "calibration must be an InterferenceCalibration, got str"),
    # accepted, and simulate_energy counted the interval as sleep
    ("interval_mode_str", lambda: TimelineInterval(0.0, 10.0, "active"), ParameterError,
     "mode must be a SensorMode, got 'active'"),
    # each raised a TypeError
    ("trace_labels_int", lambda: _labelled(5), ParameterError, "labels must be a list or tuple, got int"),
    ("scan_report_int", lambda: ScanReport(5), ParameterError, "scores must be a tuple, got int"),
    # each was accepted, then raised a KeyError or bare ValueError in a scan, or was never crossed
    ("obstacle_material_str", lambda: Obstacle("brick", _WALL), ParameterError,
     "material must be a Material, got 'brick'"),
    ("obstacle_shape_tuple", lambda: Obstacle(Material.BRICK, (0.0, -1.0, 0.0, 1.0)), ParameterError,
     "shape must be a Wall or a Disc, got tuple"),
    ("wall_str", lambda: Wall("a", -1.0, 0.0, 1.0), ParameterError, "wall x1 must be a finite number, got 'a'"),
    ("wall_nan", lambda: Wall(0.0, -1.0, 0.0, math.nan), ParameterError, "wall y2 must be a finite number, got nan"),
    ("disc_radius_negative", lambda: Disc(0, 0, -1.0), ParameterError, "disc radius must be non-negative, got -1.0"),
    ("disc_inf", lambda: Disc(math.inf, 0.0, 1.0), ParameterError, "disc x must be a finite number, got inf"),
    ("obstacle_loss_nan", lambda: Obstacle(Material.BRICK, _WALL, loss_db=math.nan), ParameterError,
     "loss_db must be a finite number or None, got nan"),
    ("obstacle_near_field_negative", lambda: Obstacle(Material.PLANT_FOLIAGE, _WALL, near_field_m=-0.5),
     ParameterError, "near_field_m must be a non-negative finite number or None, got -0.5"),
    # scored every channel 0.0: a nan passed the sensitivity floor and the clamp read it as a clear link
    ("bound_success_prob_tx_power_nan", lambda: _bound_success_prob(tx_power_dbm=math.nan), ParameterError,
     "tx_power_dbm must be a finite number, got nan"),
    ("bound_success_prob_tx_power_str", lambda: _bound_success_prob(tx_power_dbm="x"), ParameterError,
     "tx_power_dbm must be a finite number, got 'x'"),
    # each was accepted, then raised an AttributeError or TypeError in a scan, or scored a nan as a clear link
    *((f"scenario_{name}", lambda fields=fields: Scenario("a", **{"nodes": _NODES, **fields}), ParameterError, message)
      for name, fields, message in [
          ("obstacle_int", {"obstacles": {"o": 5}}, "'o' must be an Obstacle, got int"),
          ("interferer_int", {"interferers": {"i": 5}}, "'i' must be an Interferer, got int"),
          ("node_str", {"nodes": {**_NODES, "remote": "ab"}},
           "node 'remote' must be an \\(x, y\\) tuple of finite numbers, got 'ab'"),
          ("node_nan", {"nodes": {**_NODES, "remote": (math.nan, 0.0)}}, "node 'remote' must be an \\(x, y\\)"),
          ("channel_5", {"channel": 5}, "802.15.4 channel must be 11..26, got 5"),
          ("tx_power_nan", {"tx_power_dbm": math.nan}, "tx_power_dbm must be a finite number, got nan"),
          ("material_str", {"material_loss": {"brick": 4.0}},
           "material_loss must map Materials to finite numbers, got 'brick': 4.0"),
          ("material_loss_inf", {"material_loss": {Material.BRICK: math.inf}},
           "material_loss must map Materials to finite numbers, got <Material.BRICK: 'brick'>: inf"),
      ]),
    # a nan target made the fit raise scipy's bare ValueError, a role in another case dropped the row from the fit,
    # and the rest were accepted until the fit bound a channel or scored a nan power as a clear link
    *((f"calibration_target_{name}", lambda fields=fields: CalibrationTarget(**{**_TARGET, **fields}), ParameterError,
       message) for name, fields, message in [
          ("target_nan", {"target_mean_pct": math.nan}, "target_mean_pct must be a finite number, got nan"),
          ("target_150", {"target_mean_pct": 150.0}, "target_mean_pct must lie in \\[0, 100\\], got 150.0"),
          ("role_capitalised", {"role": "Fit"}, "target role must be fit\\|holdout, got 'Fit'"),
          ("channel_5", {"channel": 5}, "802.15.4 channel must be 11..26, got 5"),
          ("tx_power_inf", {"tx_power_dbm": math.inf}, "tx_power_dbm must be a finite number, got inf"),
      ]),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in _HOLES], ids=[case[0] for case in _HOLES])
def test_a_bad_input_raises_a_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()
