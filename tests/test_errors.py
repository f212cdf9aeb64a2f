"""The one number rule (`errors.finite_number`, `errors.integer`), the helpers that word each
rule's typed error (`errors.require_*`), and the typed error every layer raises through them."""

import ast
import dataclasses
import importlib
import math
import pkgutil
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import bsnsim
from bsnsim.calibrate import CalibrationTarget, apply_overrides, fit, load_calibration_file, load_targets
from bsnsim.classify import classify_window, detect_abnormal
from bsnsim.energy import (CONTINUOUS_PROFILE, Battery, ComponentCurrent, average_current_ma, battery_life_hours,
                           paper_components, simulate_energy)
from bsnsim.errors import FrameError, ParameterError, finite_number, integer, require_positive
from bsnsim.frames import SensorFrame, decode_frame, encode_frame, read_frame_log
from bsnsim.linksim import (Direction, EchoTestConfig, direction_success_prob, echo_directions, echo_success_probs,
                            run_echo_test, run_star_network, simulate_echo_runs)
from bsnsim.motion import AccelTrace, ActivityKind, compose_schedule, generate_trace
from bsnsim.rf import (ChannelSpec, Disc, InterferenceCalibration, Interferer, Material, Obstacle, RadioPath,
                       Reception, Wall)
from bsnsim.scenario import Scenario, load_scenario, parse_scenario, serialize_scenario
from bsnsim.selector import ScanReport, adaptive_policy, scan, select_channel
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
        with pytest.raises(ParameterError, match=f"^x must be positive and finite, got {re.escape(repr(value))}$"):
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


def _bound_success_prob(calibration):
    scenario = load_scenario("apartment")
    outbound = Direction.to(scenario, ["base"], "remote")[0]
    return outbound.reception(scenario, ChannelSpec.wpan(20), -10.0).success_prob(
        tuple(scenario.interferers.values()), calibration)


def _labelled(labels):
    return AccelTrace(60.0, np.zeros(3), np.zeros(3), np.ones(3), labels)


_WALL = Wall(0.0, -1.0, 0.0, 1.0)
_NODES = {"base": (0.0, 0.0), "remote": (3.0, 4.0)}
_ECHO = EchoTestConfig(ChannelSpec.wpan(12), 0.0, n_messages=100, runs=2)
_TARGET = {"scenario": "apartment", "channel": 12, "tx_power_dbm": 0.0, "target_mean_pct": 99.0, "role": "fit"}


# each raised an error outside the BsnsimError family (a TypeError, OverflowError, KeyError, AttributeError
# or bare ValueError), or was accepted, before it was checked where it enters
_HOLES = [
    ("trace_duration_str", lambda: generate_trace(REST, "x"), ParameterError, "duration_s must be positive"),
    ("trace_duration_int_beyond_float", lambda: generate_trace(REST, 10**400), ParameterError,
     "duration_s must be positive"),
    ("trace_duration_1e308", lambda: generate_trace(REST, 1e308), ParameterError, "more samples than a float"),
    ("segment_duration_str", lambda: compose_schedule([(REST, "x")]), ParameterError, "segment 0 duration"),
    ("trace_rate_str", lambda: generate_trace(REST, 1.0, rate_hz="x"), ParameterError,
     "rate_hz must be a finite number in \\[10, 100\\], got 'x'"),
    ("state_rate_str", lambda: initial_state(sample_rate_hz="x"), ParameterError,
     "sample_rate_hz must be a finite number in \\[10, 100\\], got 'x'"),
    ("state_wake_period_str", lambda: initial_state(wake_period_s="x"), ParameterError, "wake_period_s"),
    ("state_node_id_bool", lambda: initial_state(node_id=True), ParameterError, "node_id must be an integer"),
    ("state_threshold_nan", lambda: initial_state(activation_threshold_g=math.nan), ParameterError,
     "activation_threshold_g must be a finite number, got nan"),
    ("star_duration_str", lambda: _star("5"), ParameterError, "duration_s must be positive"),
    ("star_duration_1e308", lambda: _star(1e308), ParameterError, "more samples than a float"),
    ("echo_channel_str", lambda: EchoTestConfig(channel="x", tx_power_dbm=0.0), ParameterError,
     "channel must be a ChannelSpec"),
    ("battery_str", lambda: Battery("x"), ParameterError, "capacity_mah must be positive"),
    ("component_str", lambda: ComponentCurrent("a", "x"), ParameterError, "active_ma < inf"),
    ("policy_horizon_str", lambda: _policy("x"), ParameterError, "horizon_s must be a finite number, got 'x'"),
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
     "trace must be an AccelTrace, got list"),
    ("replay_state_str", lambda: replay_trace("x", generate_trace(REST, 1.0)), ParameterError,
     "state must be a SensorState, got str"),
    ("star_trace_list", lambda: _star(trace=[1, 2, 3]), ParameterError, "trace of node 'remote' must be an AccelTrace"),
    ("detect_list", lambda: detect_abnormal([1, 2]), ParameterError, "trace must be an AccelTrace"),
    ("energy_intervals_ints", lambda: simulate_energy([1, 2], 3), ParameterError,
     "interval 0 must be a TimelineInterval, got int"),
    # each raised a TypeError or AttributeError before its entry point checked the argument's type
    ("schedule_int", lambda: compose_schedule(5, seed=1), ParameterError,
     "segments must be a Sequence, got int"),
    ("energy_intervals_int", lambda: simulate_energy(5, 3), ParameterError, "intervals must be a Sequence, got int"),
    ("energy_battery_str", lambda: simulate_energy([], 3, battery="x"), ParameterError,
     "battery must be a Battery, got str"),
    ("star_traces_list", lambda: run_star_network(load_scenario("apartment"), [generate_trace(REST, 1.0)], 1.0, 1),
     ParameterError, "traces must be a Mapping, got list"),
    ("star_scenario_str", lambda: run_star_network("x", {"remote": generate_trace(REST, 1.0)}, 1.0, 1),
     ParameterError, "scenario must be a Scenario, got str"),
    ("classify_window_list", lambda: classify_window([1, 2]), ParameterError, "window must be an AccelTrace, got list"),
    ("scan_str", lambda: scan("x"), ParameterError, "scenario must be a Scenario, got str"),
    ("echo_scenario_str", lambda: run_echo_test(EchoTestConfig(ChannelSpec.wpan(12), 0.0), "x", 1), ParameterError,
     "scenario must be a Scenario, got str"),
    ("echo_cfg_str", lambda: run_echo_test("x", load_scenario("apartment"), 1), ParameterError,
     "cfg must be an EchoTestConfig, got str"),
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
     "mode must be a SensorMode, got str"),
    # each raised a TypeError
    ("trace_labels_int", lambda: _labelled(5), ParameterError, "labels must be a list or tuple, got int"),
    ("scan_report_int", lambda: ScanReport(5), ParameterError, "scores must be a tuple, got int"),
    # each was accepted, then raised a KeyError or bare ValueError in a scan, or was never crossed
    ("obstacle_material_str", lambda: Obstacle("brick", _WALL), ParameterError,
     "material must be a Material, got str"),
    ("obstacle_shape_tuple", lambda: Obstacle(Material.BRICK, (0.0, -1.0, 0.0, 1.0)), ParameterError,
     "shape must be a Wall or Disc, got tuple"),
    ("wall_str", lambda: Wall("a", -1.0, 0.0, 1.0), ParameterError, "wall x1 must be a finite number, got 'a'"),
    ("wall_nan", lambda: Wall(0.0, -1.0, 0.0, math.nan), ParameterError, "wall y2 must be a finite number, got nan"),
    ("disc_radius_negative", lambda: Disc(0, 0, -1.0), ParameterError,
     "disc radius must be a finite number in \\[0, inf\\], got -1.0"),
    ("disc_inf", lambda: Disc(math.inf, 0.0, 1.0), ParameterError, "disc x must be a finite number, got inf"),
    ("obstacle_loss_nan", lambda: Obstacle(Material.BRICK, _WALL, loss_db=math.nan), ParameterError,
     "loss_db must be a finite number, got nan"),
    ("obstacle_near_field_negative", lambda: Obstacle(Material.PLANT_FOLIAGE, _WALL, near_field_m=-0.5),
     ParameterError, "near_field_m must be a finite number in \\[0, inf\\], got -0.5"),
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
      ]),
    # a nan target made the fit raise scipy's bare ValueError, a role in another case dropped the row from the fit,
    # and the rest were accepted until the fit bound a channel or scored a nan power as a clear link
    *((f"calibration_target_{name}", lambda fields=fields: CalibrationTarget(**{**_TARGET, **fields}), ParameterError,
       message) for name, fields, message in [
          ("target_nan", {"target_mean_pct": math.nan},
           "target_mean_pct must be a finite number in \\[0, 100\\], got nan"),
          ("target_150", {"target_mean_pct": 150.0},
           "target_mean_pct must be a finite number in \\[0, 100\\], got 150.0"),
          ("role_capitalised", {"role": "Fit"}, "target role must be fit\\|holdout, got 'Fit'"),
          ("channel_5", {"channel": 5}, "802.15.4 channel must be 11..26, got 5"),
          ("tx_power_inf", {"tx_power_dbm": math.inf}, "tx_power_dbm must be a finite number, got inf"),
      ]),
    # each returned counts for a probability outside [0, 1] (nan: none delivered, 1.5: all), or raised numpy's
    # UFuncTypeError or an AttributeError
    *((f"echo_runs_{name}", lambda args=args: simulate_echo_runs(*args, 1), ParameterError, message)
      for name, args, message in [
          ("p_out_nan", (math.nan, 1.0, _ECHO), "p_out must be a finite number in \\[0, 1\\], got nan"),
          ("p_out_1.5", (1.5, 1.0, _ECHO), "p_out must be a finite number in \\[0, 1\\], got 1.5"),
          ("p_out_str", ("x", 1.0, _ECHO), "p_out must be a finite number in \\[0, 1\\], got 'x'"),
          ("p_in_negative", (1.0, -0.5, _ECHO), "p_in must be a finite number in \\[0, 1\\], got -0.5"),
          ("cfg_str", (1.0, 1.0, "x"), "cfg must be an EchoTestConfig, got str"),
      ]),
    # each raised a TypeError or AttributeError from the text, bytes, path or mapping it was handed
    ("read_frame_log_str", lambda: read_frame_log("BSLOG1"), ParameterError,
     "data must be a bytes or bytearray, got str"),
    ("read_frame_log_none", lambda: read_frame_log(None), ParameterError,
     "data must be a bytes or bytearray, got NoneType"),
    ("decode_frame_str", lambda: decode_frame("x" * 16), ParameterError, "buf must be a bytes or bytearray, got str"),
    ("decode_frame_none", lambda: decode_frame(None), ParameterError,
     "buf must be a bytes or bytearray, got NoneType"),
    ("parse_scenario_none", lambda: parse_scenario(None), ParameterError, "text must be a str, got NoneType"),
    ("parse_scenario_bytes", lambda: parse_scenario(b"[node base]\nx = 0\ny = 0\n"), ParameterError,
     "text must be a str, got bytes"),
    ("load_scenario_none", lambda: load_scenario(None), ParameterError,
     "path_or_preset must be a str or PathLike, got NoneType"),
    ("load_scenario_int", lambda: load_scenario(5), ParameterError,
     "path_or_preset must be a str or PathLike, got int"),
    ("load_targets_int", lambda: load_targets(5), ParameterError, "path must be a str or PathLike, got int"),
    ("load_calibration_file_none", lambda: load_calibration_file(None), ParameterError,
     "path must be a str or PathLike, got NoneType"),
    ("apply_overrides_none", lambda: apply_overrides(load_scenario("apartment"), None), ParameterError,
     "overrides must be a Mapping, got NoneType"),
    ("apply_overrides_entry_int", lambda: apply_overrides(load_scenario("apartment"), {"neighbor_ch1_a": 5}),
     ParameterError, "override of interferer neighbor_ch1_a must be a Mapping, got int"),
    # each raised an AttributeError, or made a scenario that a scan failed on
    *((f"scenario_{name}_list", lambda name=name: Scenario("a", **{"nodes": _NODES, name: []}), ParameterError,
       f"{name} must be a Mapping, got list") for name in ("nodes", "interferers", "obstacles")),
    ("scenario_name_int", lambda: Scenario(5, nodes=_NODES), ParameterError, "name must be a str, got int"),
    # each raised an AttributeError or TypeError from the argument it was handed
    ("fit_int_target", lambda: fit([1]), ParameterError, "target 0 must be a CalibrationTarget, got int"),
    ("fit_str", lambda: fit("abc"), ParameterError, "target 0 must be a CalibrationTarget, got str"),
    ("select_channel_none", lambda: select_channel(None), ParameterError, "report must be a ScanReport, got NoneType"),
    ("select_channel_scores", lambda: select_channel((0.1,) * 16), ParameterError,
     "report must be a ScanReport, got tuple"),
    ("battery_life_none", lambda: battery_life_hours(None, paper_components(), CONTINUOUS_PROFILE), ParameterError,
     "battery must be a Battery, got NoneType"),
    ("average_current_int_component", lambda: average_current_ma([1], {}), ParameterError,
     "component 0 must be a ComponentCurrent, got int"),
    ("average_current_duty_none", lambda: average_current_ma(paper_components(), None), ParameterError,
     "duty must be a Mapping, got NoneType"),
    ("serialize_scenario_none", lambda: serialize_scenario(None), ParameterError,
     "scenario must be a Scenario, got NoneType"),
    ("apply_overrides_scenario_none", lambda: apply_overrides(None, {}), ParameterError,
     "scenario must be a Scenario, got NoneType"),
    # each was refused, but printed the string with str, so it read like an accepted number
    ("battery_number_str", lambda: Battery("100"), ParameterError, "^capacity_mah must be positive and finite, got '100'$"),
    ("component_current_str", lambda: ComponentCurrent("x", "1", "0"), ParameterError,
     "^x: need 0 <= sleep_ma <= active_ma < inf, got '0'/'1'$"),
    ("timeline_interval_str", lambda: TimelineInterval("0", "1", SensorMode.ACTIVE), ParameterError,
     re.escape("interval needs finite bounds with t_end >= t_start, got ['0', '1']")),
]


@pytest.mark.parametrize("call, error, message", [case[1:] for case in _HOLES], ids=[case[0] for case in _HOLES])
def test_a_bad_input_raises_a_typed_error(call, error, message):
    with pytest.raises(error, match=message):
        call()


_POWER_SCENARIO = Scenario("powers", nodes=_NODES)
_POWER_DIRECTION = Direction.to(_POWER_SCENARIO, ["base"], "remote")[0]
# Every public entry that takes a tx power, called with it. A nan power once passed the sensitivity
# floor and read as a clear link; a `Reception` checks the power it was bound with, not each evaluation.
_TX_POWER_ENTRIES = {
    "scenario": lambda power: Scenario("a", nodes=_NODES, tx_power_dbm=power),
    "echo_config": lambda power: EchoTestConfig(ChannelSpec.wpan(12), power),
    "calibration_target": lambda power: CalibrationTarget(**{**_TARGET, "tx_power_dbm": power}),
    "interferer": lambda power: Interferer(ChannelSpec.wlan(1), (0.0, 0.0), power, 0.5),
    "reception_bind": lambda power: Reception.bind(RadioPath(5.0, ()), ChannelSpec.wpan(12), power, []),
    "direction_reception": lambda power: _POWER_DIRECTION.reception(_POWER_SCENARIO, ChannelSpec.wpan(12), power),
    "direction_success_prob": lambda power: direction_success_prob(_POWER_SCENARIO, _POWER_DIRECTION,
                                                                   ChannelSpec.wpan(12), power),
    "echo_success_probs": lambda power: echo_success_probs(_POWER_SCENARIO, echo_directions(_POWER_SCENARIO),
                                                           ChannelSpec.wpan(12), power),
}


@pytest.mark.parametrize("power, shown", [(math.nan, "nan"), (-math.inf, "-inf"), ("0", "'0'"), (True, "True")],
                         ids=["nan", "-inf", "str", "bool"])
@pytest.mark.parametrize("entry", _TX_POWER_ENTRIES)
def test_every_tx_power_entry_refuses_a_bad_power(entry, power, shown):
    with pytest.raises(ParameterError, match=f"^tx_power_dbm must be a finite number, got {re.escape(shown)}$"):
        _TX_POWER_ENTRIES[entry](power)


def _calls(node, names) -> bool:
    return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in names


def _type_test(node) -> bool:
    """`isinstance(...)`, `all(isinstance(...) for ...)`, or an `and` of them: a type rule on one or more arguments."""
    if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
        return all(map(_type_test, node.values))
    if _calls(node, ("all",)) and isinstance(node.args[0], (ast.GeneratorExp, ast.ListComp)):
        return _calls(node.args[0].elt, ("isinstance",))
    return _calls(node, ("isinstance",))


def _names_its_file(message) -> bool:
    """A loader's message begins with its file's `{path}`, and keeps its own text."""
    first = message.values[0] if isinstance(message, ast.JoinedStr) else None
    return isinstance(first, ast.FormattedValue) and isinstance(first.value, ast.Name) and first.value.id == "path"


def _hand_written_rules(path: Path) -> list[str]:
    """Each `if not finite_number(...)`, `if not integer(...)` or `if not <type test>` (see `_type_test`) whose
    body is one `raise ParameterError(...)`, as "<file>:<line> in <function>"."""
    found = []
    for function in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        for node in ast.walk(function) if isinstance(function, ast.FunctionDef) else ():
            if (isinstance(node, ast.If) and isinstance(node.test, ast.UnaryOp) and isinstance(node.test.op, ast.Not)
                    and (_calls(node.test.operand, ("finite_number", "integer")) or _type_test(node.test.operand))
                    and len(node.body) == 1 and isinstance(node.body[0], ast.Raise)
                    and _calls(node.body[0].exc, ("ParameterError",))
                    and not _names_its_file(node.body[0].exc.args[0])):
                found.append(f"{path.name}:{node.lineno} in {function.name}")
    return found


def test_each_field_rule_is_stated_once_in_errors():
    """A single-rule check goes through `errors.require_finite`, `require_integer` or `require_type`, which
    word its message once."""
    found = [site for path in sorted(Path(bsnsim.__file__).parent.glob("*.py")) if path.name != "errors.py"
             for site in _hand_written_rules(path)]
    assert found == []


def test_every_checked_dataclass_is_frozen():
    """A dataclass that checks its fields in `__post_init__` is frozen, so no assignment gets round the check;
    `dataclasses.replace` is the checked way to change one."""
    thawed = []
    for info in pkgutil.iter_modules(bsnsim.__path__):
        module = importlib.import_module(f"bsnsim.{info.name}")
        for cls in vars(module).values():
            if (isinstance(cls, type) and cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)
                    and "__post_init__" in vars(cls) and not cls.__dataclass_params__.frozen):
                thawed.append(f"{info.name}.{cls.__name__}")
    assert thawed == []
