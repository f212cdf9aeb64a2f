"""Calibration fit: residuals, holdout, and file round trip."""

import json
import math
import re
import tempfile
from dataclasses import asdict, fields, replace
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsnsim import calibrate
from bsnsim.calibrate import (
    _OVERRIDE_FIELDS,
    apply_overrides,
    fit,
    load_calibration_file,
    load_targets,
)
from bsnsim.errors import BsnsimError, ParameterError
from bsnsim.rf import InterferenceCalibration, Interferer, Reception
from bsnsim.scenario import load_scenario
from test_golden import FIT_JSON


@pytest.fixture(scope="module")
def result():
    return fit()


def test_default_targets_table():
    targets = load_targets()
    assert len(targets) == 9
    assert sum(1 for t in targets if t.role == "holdout") == 1


def test_fit_residuals_within_half_point(result):
    for target in result.targets:
        if target.role == "fit":
            assert abs(result.residual_pp(target)) <= 0.5


def test_holdout_within_one_point(result):
    holdout = [t for t in result.targets if t.role == "holdout"]
    assert len(holdout) == 1
    assert abs(result.residual_pp(holdout[0])) <= 1.0


def test_fitted_constants_sane(result):
    c = result.calibration
    assert 0.0 < c.logistic_midpoint_db < 40.0
    assert 0.5 <= c.logistic_scale_db <= 15.0
    assert c.oven_slope_low_db_per_mhz > 0
    assert c.oven_slope_high_db_per_mhz > 0


def test_calibrated_scenario_applies_overrides(result):
    scen = apply_overrides(load_scenario("apartment"), result.interferer_overrides)
    fitted_af = result.interferer_overrides["neighbor_ch1_a"]["activity_factor"]
    assert scen.interferers["neighbor_ch1_a"].activity_factor == fitted_af


def test_override_of_unknown_field_rejected():
    with pytest.raises(ParameterError, match="interferer neighbor_ch1_a: activty_factor is not one of"):
        apply_overrides(load_scenario("apartment"), {"neighbor_ch1_a": {"activty_factor": 0.5}})


def test_override_out_of_range_rejected():
    with pytest.raises(ParameterError, match=re.escape("activity_factor must be in [0, 1], got 1.5")):
        apply_overrides(load_scenario("apartment"), {"neighbor_ch1_a": {"activity_factor": 1.5}})


@pytest.mark.parametrize("field, value, wanted", [
    ("activity_factor", "x", "a finite number, got 'x'"),
    ("tx_power_dbm", "x", "a finite number, got 'x'"),
    ("tx_power_dbm", math.nan, "a finite number, got nan"),
    ("tx_power_dbm", True, "a finite number, got True"),
    ("enabled", "no", "a bool, got 'no'"),
    ("position", (1.0, math.inf), "an (x, y) tuple of finite numbers, got (1.0, inf)"),
    ("channel", 6, "a ChannelSpec, got 6"),
    ("influence_radius_m", -1.0, "a non-negative finite number or None, got -1.0"),
])
def test_override_of_a_bad_value_names_interferer_and_field(field, value, wanted):
    message = f"override of interferer neighbor_ch1_a: {field} must be {wanted}"
    with pytest.raises(ParameterError, match=re.escape(message)):
        apply_overrides(load_scenario("apartment"), {"neighbor_ch1_a": {field: value}})


def test_every_interferer_field_has_an_override_check():
    assert tuple(calibrate._OVERRIDE_VALUES) == tuple(f.name for f in fields(Interferer))


def test_repeated_fits_identical():
    calibrate._placed_preset.cache_clear()  # the first fit parses and places, the second reuses
    assert fit().to_json() == fit().to_json() == FIT_JSON.rstrip("\n")


def test_fit_unmoved_by_a_mutated_loaded_preset():
    apartment = load_scenario("apartment")
    apartment.interferers.clear()
    apartment.nodes["remote"] = (30.0, 0.0)
    assert fit().to_json() == FIT_JSON.rstrip("\n")


def test_fit_rereads_a_scenario_file(tmp_path):
    scn, csv_path = tmp_path / "flat.scn", tmp_path / "targets.csv"
    package = resources.files("bsnsim")
    text = package.joinpath("presets/apartment.scn").read_text()
    csv_path.write_text(package.joinpath("data/calibration_targets.csv").read_text() + f"{scn},12,-10,50.0,holdout\n")
    key = (str(scn), 12, -10.0)
    scn.write_text(text)
    near = fit(load_targets(csv_path))
    scn.write_text(text.replace("[node remote]\nx = 9.0", "[node remote]\nx = 60.0"))
    far = fit(load_targets(csv_path))
    assert far.to_json() == near.to_json()  # a holdout row moves no fitted value
    assert far.achieved_pct[key] < near.achieved_pct[key]


def test_calibration_file_round_trip(result, tmp_path):
    path = tmp_path / "calibration.json"
    path.write_text(result.to_json())
    calib, overrides = load_calibration_file(path)
    assert calib == result.calibration
    assert overrides == result.interferer_overrides


def calibration_text(**changes):
    """A calibration file's text: the default constants with `changes` applied."""
    return json.dumps({**asdict(InterferenceCalibration()), **changes})


@pytest.mark.parametrize(
    "text, problem",
    [
        ('{"logistic_midpoint_db": 14.0, "logistic_scale_db": 2.0}', "missing key(s) oven_slope_low_db_per_mhz"),
        ('{"logistic_midpoint_db": 14.0,', "not valid JSON"),
        ("[14.0, 2.0]", "expected a JSON object"),
        (calibration_text(logistic_midpoint_db="abc"), "logistic_midpoint_db must be a finite number"),
        (calibration_text(logistic_scale_db=True), "logistic_scale_db must be a finite number"),
        (calibration_text(oven_slope_low_db_per_mhz=float("nan")), "oven_slope_low_db_per_mhz must be a finite"),
        (calibration_text(interferer_overrides=[1.0]), "interferer_overrides must map interferer names to objects"),
        (calibration_text(interferer_overrides={"oven": 3.0}), "interferer_overrides must map"),
        (calibration_text(interferer_overrides={"oven": {"tx_power_dbm": "hot"}}),
         "interferer_overrides.oven.tx_power_dbm must be a finite number"),
        (calibration_text(interferer_overrides={"oven": {"channel": 3.0}}),
         "interferer_overrides.oven.channel is not one of"),
        (calibration_text(interferer_overrides={"ovn": {"tx_power_dbm": 50.0}}),
         "interferer_overrides.ovn is not one of neighbor_ch1_a, neighbor_ch1_b, house_wlan, oven"),
        ("[" * 100_000, "not valid JSON (maximum recursion depth exceeded"),
    ],
    ids=["missing_key", "malformed_json", "not_an_object", "string_constant", "bool_constant", "nan_constant",
         "overrides_not_object", "override_not_object", "override_value_string", "override_unknown_field",
         "override_unknown_name", "nested_too_deeply"],
)
def test_bad_calibration_file_rejected(tmp_path, text, problem):
    path = tmp_path / "calibration.json"
    path.write_text(text)
    with pytest.raises(ParameterError) as err:
        load_calibration_file(path)
    assert str(path) in str(err.value)
    assert problem in str(err.value)


def test_bad_targets_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("scenario,channel\napartment,12\n")
    with pytest.raises(ParameterError):
        load_targets(path)
    path.write_text("scenario,channel,tx_power_dbm,target_mean_pct,role\napartment,12,0,99,maybe\n")
    with pytest.raises(ParameterError):
        load_targets(path)
    for pct in ("150.0", "-1.0"):
        path.write_text(f"scenario,channel,tx_power_dbm,target_mean_pct,role\napartment,12,0,{pct},fit\n")
        with pytest.raises(ParameterError, match=re.escape(f"{path}, line 2: target_mean_pct must lie in [0, 100]")):
            load_targets(path)
    header = "scenario,channel,tx_power_dbm,target_mean_pct,role\n"
    path.write_bytes(header.encode() + b"apartment,12,0,\xff,fit\n")
    with pytest.raises(ParameterError, match=re.escape(f"{path}: not UTF-8 text")):
        load_targets(path)
    path.write_text(header + "apartment,12,0,99.36,fit\n" + "apartment," + "9" * 131_073 + ",0,99,fit\n")
    with pytest.raises(ParameterError, match=re.escape(f"{path}, line 3: field larger than field limit")):
        load_targets(path)


def _load_allowing_only_bsnsim_errors(load, data: bytes, suffix: str) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"input{suffix}"
        path.write_bytes(data)
        try:
            load(path)
        except BsnsimError:
            pass


_json = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)
_DEFAULTS = asdict(InterferenceCalibration())
_overrides = st.dictionaries(
    st.sampled_from(["oven", "neighbor_ch1_a"]) | st.text(max_size=6),
    st.dictionaries(st.sampled_from(_OVERRIDE_FIELDS) | st.text(max_size=6), _json, max_size=3) | _json,
    max_size=3,
)
_payloads = st.one_of(
    _json,
    st.dictionaries(st.sampled_from(sorted(_DEFAULTS)), _json, max_size=3).map(lambda d: {**_DEFAULTS, **d}),
    _overrides.map(lambda o: {**_DEFAULTS, "interferer_overrides": o}),
)


@settings(max_examples=50)
@given(_payloads)
def test_arbitrary_calibration_json_raises_only_bsnsim_errors(payload):
    _load_allowing_only_bsnsim_errors(load_calibration_file, json.dumps(payload).encode(), ".json")


_words = ["apartment", "12", "0", "-10", "99.36", "fit", "holdout", "nan", "", '"a,b"']
_cell = st.sampled_from(_words) | st.text(max_size=6)
_rows = st.lists(st.lists(_cell, max_size=6).map(",".join), max_size=4).map("\n".join)


@settings(max_examples=50)
@given(st.one_of(st.text(max_size=80), _rows.map("scenario,channel,tx_power_dbm,target_mean_pct,role\n".__add__)))
def test_arbitrary_targets_csv_raises_only_bsnsim_errors(text):
    _load_allowing_only_bsnsim_errors(load_targets, text.encode(), ".csv")


def test_integer_constants_read_as_floats(tmp_path):
    path = tmp_path / "calibration.json"
    path.write_text(calibration_text(logistic_midpoint_db=14, interferer_overrides={"oven": {"tx_power_dbm": -5}}))
    calib, overrides = load_calibration_file(path)
    assert calib.logistic_midpoint_db == 14.0 and isinstance(calib.logistic_midpoint_db, float)
    assert overrides == {"oven": {"tx_power_dbm": -5.0}}


def test_fit_without_fit_rows_rejected():
    holdout_only = [replace(t, role="holdout") for t in load_targets()]
    with pytest.raises(ParameterError, match="no `fit` row"):
        fit(holdout_only)
    with pytest.raises(ParameterError, match="no `fit` row"):
        fit([])


def test_fit_binds_each_target_once_per_direction(monkeypatch):
    binds, evals = [], []
    bind, predict = Reception.bind.__func__, calibrate.predicted_mean_pct

    def counting_bind(cls, link, victim, interferers):
        binds.append(victim.index)
        return bind(cls, link, victim, interferers)

    def counting_predict(*args):
        evals.append(args[0])
        return predict(*args)

    monkeypatch.setattr(Reception, "bind", classmethod(counting_bind))
    monkeypatch.setattr(calibrate, "predicted_mean_pct", counting_predict)
    targets = load_targets()
    fit(targets)
    assert sorted(binds) == sorted(2 * [t.channel for t in targets])  # outbound and inbound, once each
    fit_rows = sum(t.role == "fit" for t in targets)
    assert len(evals) > 10 * fit_rows  # many residual calls, all on the receptions bound before them
    assert len({id(receptions) for receptions in evals}) == len(targets)


def test_fit_prints_nothing(capsys):
    fit(load_targets())
    assert capsys.readouterr().out == ""
