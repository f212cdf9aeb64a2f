"""Fit the interference-model constants against the published test tables.

The free parameters are the rows of `_FREE`, which also give their seeds,
their bounds and the overrides a calibration file may hold. Targets marked
`holdout` are excluded from the fit and only verified afterwards. The fit is
analytic (no Monte Carlo inside the loop): each target's predicted mean is the
product of the two per-direction message probabilities.

No free parameter moves a node, an obstacle or a channel, so `fit` places each
scenario and binds both directions of every target (`rf.Reception`) once,
before the optimizer runs. A bundled preset is parsed and placed once per
process and reused by every later fit; a scenario file is read and placed
again on every fit, so an edit to it is seen. Each residual call rebuilds
only the overridden interferers, not a whole scenario, and evaluates every
target's two receptions with them. A fitted result reaches a scenario,
as in the CLI's runs, through
`apply_overrides(load_scenario(name), result.interferer_overrides)`, which
applies the overrides through the same helper. scipy is imported by `fit`
alone, when its optimizer runs, so importing this module does not load it.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import ParameterError, finite_number
from .linksim import Direction, echo_directions
from .rf import ChannelSpec, InterferenceCalibration, Interferer, Reception
from .scenario import PRESET_NAMES, Scenario, load_scenario


@dataclass(frozen=True)
class CalibrationTarget:
    scenario: str
    channel: int
    tx_power_dbm: float
    target_mean_pct: float
    role: str  # fit | holdout

    def __post_init__(self):
        ChannelSpec.wpan(self.channel)
        for name in ("tx_power_dbm", "target_mean_pct"):
            if not finite_number(getattr(self, name)):
                raise ParameterError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if not 0.0 <= self.target_mean_pct <= 100.0:
            raise ParameterError(f"target_mean_pct must lie in [0, 100], got {self.target_mean_pct!r}")
        if self.role not in ("fit", "holdout"):
            raise ParameterError(f"target role must be fit|holdout, got {self.role!r}")


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


class _Free(NamedTuple):
    scenario: str | None  # seed scenario; None for an InterferenceCalibration constant
    interferers: tuple[str, ...]  # all take the fitted value; the seed is the first one's
    field: str
    lower: float  # bounds in optimizer scale
    upper: float
    log10: bool = False  # moves in log10


# The fit's free parameters, in optimizer order.
_FREE = (
    _Free(None, (), "logistic_midpoint_db", 0.0, 40.0),
    _Free(None, (), "logistic_scale_db", 0.5, 15.0),
    _Free("apartment", ("neighbor_ch1_a", "neighbor_ch1_b"), "activity_factor", -5.0, -0.7, log10=True),
    _Free("single_house", ("house_wlan",), "activity_factor", -5.0, -0.7, log10=True),
    _Free("apartment_microwave", ("oven",), "tx_power_dbm", -80.0, 20.0),
    _Free(None, (), "oven_slope_low_db_per_mhz", 0.05, 10.0),
    _Free(None, (), "oven_slope_high_db_per_mhz", 0.05, 10.0),
)
# Interferers and fields a calibration file may override: the ones `fit` adjusts.
_OVERRIDE_NAMES = tuple(dict.fromkeys(name for row in _FREE for name in row.interferers))
_OVERRIDE_FIELDS = tuple(dict.fromkeys(row.field for row in _FREE if row.interferers))


def load_calibration_file(path: str | Path) -> tuple[InterferenceCalibration, dict[str, dict[str, float]]]:
    """Read a `CalibrationResult.to_json` file back into constants and overrides.

    The constants are checked by `rf.InterferenceCalibration`, and every
    override value must be a finite number; JSON integers are read as
    floats. Overrides may name only the interferers and fields
    that `fit` adjusts, so a misspelt name is an error, not a no-op.
    """
    try:
        payload = json.loads(Path(path).read_text(), parse_int=float)
    except (ValueError, RecursionError) as exc:  # malformed, not UTF-8, or nested too deeply
        raise ParameterError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise ParameterError(f"{path}: expected a JSON object, got {type(payload).__name__}")
    names = [f.name for f in fields(InterferenceCalibration)]
    missing = [name for name in names if name not in payload]
    if missing:
        raise ParameterError(f"{path}: missing key(s) {', '.join(missing)}")

    try:
        calib = InterferenceCalibration(**{name: payload[name] for name in names})
    except ParameterError as exc:
        raise ParameterError(f"{path}: {exc}") from None
    overrides = payload.get("interferer_overrides", {})
    if not isinstance(overrides, dict) or not all(isinstance(o, dict) for o in overrides.values()):
        raise ParameterError(f"{path}: interferer_overrides must map interferer names to objects")
    for name, override in overrides.items():
        for key, value in override.items():
            if key not in _OVERRIDE_FIELDS:
                raise ParameterError(f"{path}: interferer_overrides.{name}.{key} is not one of "
                                     f"{', '.join(_OVERRIDE_FIELDS)}")
            if not finite_number(value):
                raise ParameterError(f"{path}: interferer_overrides.{name}.{key} must be a finite number, "
                                     f"got {value!r}")
        if name not in _OVERRIDE_NAMES:
            raise ParameterError(f"{path}: interferer_overrides.{name} is not one of {', '.join(_OVERRIDE_NAMES)}")
    return calib, overrides


def load_targets(path: str | Path | None = None) -> list[CalibrationTarget]:
    """Read a targets CSV; text that is not UTF-8 or not CSV, a missing or
    non-numeric value, or a row `CalibrationTarget` refuses, names its file
    (and line). A role is read in any letter case."""
    source = resources.files("bsnsim").joinpath("data/calibration_targets.csv") if path is None else Path(path)
    try:
        reader = csv.DictReader(source.read_text().splitlines())
        rows = [(reader.line_num, row) for row in reader]
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{source}: not UTF-8 text ({exc})") from None
    except csv.Error as exc:
        raise ParameterError(f"{source}, line {reader.line_num + 1}: {exc}") from None
    expected = [f.name for f in fields(CalibrationTarget)]
    if reader.fieldnames is None or not set(expected).issubset(reader.fieldnames):
        raise ParameterError(f"{source}: targets CSV needs columns {sorted(expected)}, got {reader.fieldnames}")
    targets = []
    for line, row in rows:
        where = f"{source}, line {line}"
        cells = {key: (row[key] or "").strip() for key in expected}  # a short row leaves None
        values = {}
        for key, kind in (("channel", int), ("tx_power_dbm", float), ("target_mean_pct", float)):
            try:
                values[key] = kind(cells[key])
            except ValueError:
                noun = "an integer" if kind is int else "a finite number"
                raise ParameterError(f"{where}: {key} must be {noun}, got {cells[key]!r}") from None
        try:
            targets.append(CalibrationTarget(cells["scenario"], role=cells["role"].lower(), **values))
        except ParameterError as exc:
            raise ParameterError(f"{where}: {exc}") from None
    if not targets:
        raise ParameterError(f"{source}: targets CSV holds no rows")
    return targets


def predicted_mean_pct(receptions: tuple[Reception, Reception], interferers: Sequence[Interferer],
                       tx_power_dbm: float, calibration: InterferenceCalibration) -> float:
    """One target's predicted mean in %: its (outbound, inbound) receptions
    with the scenario's interferers as overridden now."""
    outbound, inbound = receptions
    p_out = outbound.success_prob(tx_power_dbm, interferers, calibration)
    p_in = inbound.success_prob(tx_power_dbm, interferers, calibration)
    return p_out * p_in * 100.0


def _overridden(interferers: Mapping[str, Interferer],
                overrides: Mapping[str, Mapping[str, float]]) -> dict[str, Interferer]:
    """The interferers, in order, with the overrides ({interferer: {field: value}}) applied by name;
    each overridden one is rebuilt by one `Interferer` call, whose errors name it."""
    rebuilt = dict(interferers)
    for name, override in overrides.items():
        if name in rebuilt:
            try:
                rebuilt[name] = Interferer(**{**vars(rebuilt[name]), **override})
            except ParameterError as exc:
                raise ParameterError(f"override of interferer {name}: {exc}") from None
    return rebuilt


def apply_overrides(scenario: Scenario, overrides: Mapping[str, Mapping[str, float]]) -> Scenario:
    """Apply calibration overrides ({interferer: {field: value}}) by name.

    An override may hold only the fields `fit` adjusts, so it moves nothing
    placed, and `rf.Interferer` checks each value; a bad field or value raises
    a `ParameterError` naming the interferer. An interferer the scenario lacks
    is skipped: one fit result holds the overrides of every fitted scenario."""
    for name, override in overrides.items():
        for key in override:
            if key not in _OVERRIDE_FIELDS:
                raise ParameterError(f"override of interferer {name}: {key} is not one of "
                                     f"{', '.join(_OVERRIDE_FIELDS)}")
    return replace(scenario, interferers=_overridden(scenario.interferers, overrides))


def _placed(name: str) -> tuple[Scenario, tuple[Direction, Direction]]:
    """A target's scenario, read, and its echo directions, placed."""
    scenario = load_scenario(name)
    return scenario, echo_directions(scenario)


# Bundled presets, parsed and placed once per process. The scenario holds
# mutable dicts, so `fit` only reads it and hands it to no caller.
_placed_preset = lru_cache(maxsize=len(PRESET_NAMES))(_placed)


def fit(targets: list[CalibrationTarget] | None = None) -> CalibrationResult:
    """Least-squares fit of the model constants to the `fit` targets."""
    targets = load_targets() if targets is None else targets
    if not any(t.role == "fit" for t in targets):
        raise ParameterError("the targets hold no `fit` row, so there is nothing to fit")
    scenarios, directions = {}, {}
    for name in {t.scenario for t in targets}:
        scenarios[name], directions[name] = (_placed_preset if name in PRESET_NAMES else _placed)(name)
    missing = [name for name in dict.fromkeys(row.scenario for row in _FREE if row.scenario) if name not in scenarios]
    if missing:
        raise ParameterError(f"the fit seeds its parameters from scenario(s) the targets lack: {', '.join(missing)}")
    # Overrides move nothing placed and no channel, so each target's two
    # directions are bound once, before the optimizer runs.
    bound = [(t, tuple(d.reception(scenarios[t.scenario], ChannelSpec.wpan(t.channel)) for d in directions[t.scenario]))
             for t in targets]
    fit_bound = [(t, receptions) for t, receptions in bound if t.role == "fit"]

    x0 = []
    for row in _FREE:
        owner = scenarios[row.scenario].interferers[row.interferers[0]] if row.scenario else InterferenceCalibration()
        value = getattr(owner, row.field)
        x0.append(math.log10(value) if row.log10 else value)

    def unpack(params):
        constants, overrides = {}, {}
        for row, x in zip(_FREE, params):
            value = 10.0 ** float(x) if row.log10 else float(x)
            if row.scenario is None:
                constants[row.field] = value
            for name in row.interferers:
                overrides.setdefault(name, {})[row.field] = value
        return InterferenceCalibration(**constants), overrides

    def predictions(chosen, params):
        calib, overrides = unpack(params)
        interferers = {name: tuple(_overridden(scen.interferers, overrides).values())
                       for name, scen in scenarios.items()}
        return [predicted_mean_pct(receptions, interferers[t.scenario], t.tx_power_dbm, calib)
                for t, receptions in chosen]

    def residuals(params):
        return np.array([p - t.target_mean_pct for p, (t, _) in zip(predictions(fit_bound, params), fit_bound)])

    from scipy.optimize import least_squares  # here, not at module level: see the module docstring

    bounds = ([row.lower for row in _FREE], [row.upper for row in _FREE])
    solution = least_squares(residuals, np.array(x0), bounds=bounds, xtol=1e-12, ftol=1e-12)
    calib, overrides = unpack(solution.x)
    achieved = {(t.scenario, t.channel, t.tx_power_dbm): p for (t, _), p in zip(bound, predictions(bound, solution.x))}
    return CalibrationResult(calib, overrides, targets, achieved)
