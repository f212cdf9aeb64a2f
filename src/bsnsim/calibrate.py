"""Fit the interference-model constants against the published test tables.

Free parameters: the collision logistic (midpoint, scale), the two magnetron
spectral slopes, the apartment strong-neighbor airtime, the house WLAN
airtime, and the oven's effective in-band emission power. Targets marked
`holdout` are excluded from the fit and only verified afterwards.

The fit is fully analytic (no Monte Carlo inside the loop): each target's
predicted mean is the product of the two per-direction message probabilities.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields
from importlib import resources
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares

from .errors import ParameterError
from .linksim import echo_success_probs
from .rf import ChannelSpec, InterferenceCalibration
from .scenario import Scenario, apply_overrides, load_scenario


@dataclass(frozen=True)
class CalibrationTarget:
    scenario: str
    channel: int
    tx_power_dbm: float
    target_mean_pct: float
    role: str  # fit | holdout


@dataclass
class CalibrationResult:
    calibration: InterferenceCalibration
    interferer_overrides: dict[str, dict[str, float]]
    targets: list[CalibrationTarget]
    achieved_pct: dict[tuple[str, int, float], float]

    def residual_pp(self, target: CalibrationTarget) -> float:
        key = (target.scenario, target.channel, target.tx_power_dbm)
        return self.achieved_pct[key] - target.target_mean_pct

    def to_json(self) -> str:
        payload = {**asdict(self.calibration), "interferer_overrides": self.interferer_overrides}
        return json.dumps(payload, indent=2)


# Interferer fields a calibration file may override: the ones `fit` adjusts.
_OVERRIDE_FIELDS = ("activity_factor", "tx_power_dbm")


def load_calibration_file(path: str | Path) -> tuple[InterferenceCalibration, dict[str, dict[str, float]]]:
    """Read a `CalibrationResult.to_json` file back into constants and overrides.

    Every constant and override value must be a finite number; JSON integers
    are read as floats.
    """
    try:
        payload = json.loads(Path(path).read_text(), parse_int=float)
    except ValueError as exc:  # malformed JSON or text that is not UTF-8
        raise ParameterError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ParameterError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    names = [f.name for f in fields(InterferenceCalibration)]
    missing = [name for name in names if name not in payload]
    if missing:
        raise ParameterError(f"{path}: missing key(s) {', '.join(missing)}")

    def number(key: str, value) -> float:
        if not (isinstance(value, float) and math.isfinite(value)):
            raise ParameterError(f"{path}: {key} must be a finite number, got {value!r}")
        return value

    calib = InterferenceCalibration(**{name: number(name, payload[name]) for name in names})
    overrides = payload.get("interferer_overrides", {})
    if not isinstance(overrides, dict) or not all(isinstance(o, dict) for o in overrides.values()):
        raise ParameterError(f"{path}: interferer_overrides must map interferer names to objects")
    for name, override in overrides.items():
        for key, value in override.items():
            if key not in _OVERRIDE_FIELDS:
                raise ParameterError(f"{path}: interferer_overrides.{name}.{key} is not one of "
                                     f"{', '.join(_OVERRIDE_FIELDS)}")
            number(f"interferer_overrides.{name}.{key}", value)
    return calib, overrides


def default_targets_path():
    return resources.files("bsnsim").joinpath("data/calibration_targets.csv")


def load_targets(path: str | Path | None = None) -> list[CalibrationTarget]:
    """Read a targets CSV; a missing, non-numeric or non-finite value names its file and line."""
    source = default_targets_path() if path is None else Path(path)
    reader = csv.DictReader(source.read_text().splitlines())
    expected = [f.name for f in fields(CalibrationTarget)]
    if reader.fieldnames is None or not set(expected).issubset(reader.fieldnames):
        raise ParameterError(f"{source}: targets CSV needs columns {sorted(expected)}, got {reader.fieldnames}")
    targets = []
    for row in reader:
        where = f"{source}, line {reader.line_num}"
        cells = {key: (row[key] or "").strip() for key in expected}  # a short row leaves None
        values = {}
        for key, kind in (("channel", int), ("tx_power_dbm", float), ("target_mean_pct", float)):
            try:
                values[key] = kind(cells[key])
            except ValueError:
                values[key] = math.nan
            if not math.isfinite(values[key]):
                noun = "an integer" if kind is int else "a finite number"
                raise ParameterError(f"{where}: {key} must be {noun}, got {cells[key]!r}")
        if cells["role"].lower() not in ("fit", "holdout"):
            raise ParameterError(f"{where}: target role must be fit|holdout, got {cells['role']!r}")
        targets.append(CalibrationTarget(cells["scenario"], role=cells["role"].lower(), **values))
    if not targets:
        raise ParameterError(f"{source}: targets CSV holds no rows")
    return targets


def predicted_mean_pct(
    scenario: Scenario,
    channel: int,
    tx_power_dbm: float,
    calibration: InterferenceCalibration,
) -> float:
    p_out, p_in = echo_success_probs(scenario, ChannelSpec.wpan(channel), tx_power_dbm, calibration)
    return p_out * p_in * 100.0

# (interferer name, field) pairs the fit may adjust, with bounds and the
# parameter scale used inside the optimizer (activity factors move in log10).
_APARTMENT_STRONG = ("neighbor_ch1_a", "neighbor_ch1_b")
_HOUSE_WLAN = "house_wlan"
_OVEN = "oven"


def fit(targets: list[CalibrationTarget] | None = None, verbose: bool = False) -> CalibrationResult:
    """Least-squares fit of the model constants to the `fit` targets."""
    targets = targets or load_targets()
    fit_targets = [t for t in targets if t.role == "fit"]
    scenarios = {name: load_scenario(name) for name in {t.scenario for t in targets}}
    missing = [name for name in ("apartment", "single_house", "apartment_microwave") if name not in scenarios]
    if missing:
        raise ParameterError(f"the fit seeds its parameters from scenario(s) the targets lack: {', '.join(missing)}")

    seed_calib = InterferenceCalibration()
    seed_af_ap = scenarios["apartment"].interferers[_APARTMENT_STRONG[0]].activity_factor
    seed_af_house = scenarios["single_house"].interferers[_HOUSE_WLAN].activity_factor
    seed_oven = scenarios["apartment_microwave"].interferers[_OVEN].tx_power_dbm

    x0 = np.array(
        [
            seed_calib.logistic_midpoint_db,
            seed_calib.logistic_scale_db,
            math.log10(seed_af_ap),
            math.log10(seed_af_house),
            seed_oven,
            seed_calib.oven_slope_low_db_per_mhz,
            seed_calib.oven_slope_high_db_per_mhz,
        ]
    )
    lower = [0.0, 0.5, -5.0, -5.0, -80.0, 0.05, 0.05]
    upper = [40.0, 15.0, -0.7, -0.7, 20.0, 10.0, 10.0]

    def unpack(params):
        calib = InterferenceCalibration(
            logistic_midpoint_db=float(params[0]),
            logistic_scale_db=float(params[1]),
            oven_slope_low_db_per_mhz=float(params[5]),
            oven_slope_high_db_per_mhz=float(params[6]),
        )
        overrides = {
            _APARTMENT_STRONG[0]: {"activity_factor": 10.0 ** float(params[2])},
            _APARTMENT_STRONG[1]: {"activity_factor": 10.0 ** float(params[2])},
            _HOUSE_WLAN: {"activity_factor": 10.0 ** float(params[3])},
            _OVEN: {"tx_power_dbm": float(params[4])},
        }
        return calib, overrides

    def residuals(params):
        calib, overrides = unpack(params)
        res = []
        for target in fit_targets:
            scen = apply_overrides(scenarios[target.scenario], overrides)
            res.append(predicted_mean_pct(scen, target.channel, target.tx_power_dbm, calib) - target.target_mean_pct)
        return np.array(res)

    solution = least_squares(residuals, x0, bounds=(lower, upper), xtol=1e-12, ftol=1e-12)
    calib, overrides = unpack(solution.x)

    achieved = {}
    for target in targets:
        scen = apply_overrides(scenarios[target.scenario], overrides)
        achieved[(target.scenario, target.channel, target.tx_power_dbm)] = predicted_mean_pct(
            scen, target.channel, target.tx_power_dbm, calib
        )
    if verbose:
        for target in targets:
            key = (target.scenario, target.channel, target.tx_power_dbm)
            print(
                f"{target.scenario} ch{target.channel} {target.tx_power_dbm:+.0f} dBm "
                f"[{target.role}]: target {target.target_mean_pct:.2f}%, model {achieved[key]:.2f}%"
            )
    return CalibrationResult(
        calibration=calib,
        interferer_overrides=overrides,
        targets=targets,
        achieved_pct=achieved,
    )


def calibrated_scenario(name: str, result: CalibrationResult) -> Scenario:
    return apply_overrides(load_scenario(name), result.interferer_overrides)
