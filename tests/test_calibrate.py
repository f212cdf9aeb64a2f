"""Calibration fit: residuals, holdout, and file round trip."""

import pytest

from bsnsim.calibrate import (
    calibrated_scenario,
    fit,
    load_calibration_file,
    load_targets,
)
from bsnsim.errors import ParameterError


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
    scen = calibrated_scenario("apartment", result)
    fitted_af = result.interferer_overrides["neighbor_ch1_a"]["activity_factor"]
    assert scen.interferers["neighbor_ch1_a"].activity_factor == fitted_af


def test_calibration_file_round_trip(result, tmp_path):
    path = tmp_path / "calibration.json"
    path.write_text(result.to_json())
    calib, overrides = load_calibration_file(path)
    assert calib == result.calibration
    assert overrides == result.interferer_overrides


@pytest.mark.parametrize(
    "text, problem",
    [
        ('{"logistic_midpoint_db": 14.0, "logistic_scale_db": 2.0}', "missing key(s) oven_slope_low_db_per_mhz"),
        ('{"logistic_midpoint_db": 14.0,', "not valid JSON"),
        ("[14.0, 2.0]", "expected a JSON object"),
    ],
    ids=["missing_key", "malformed_json", "not_an_object"],
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
