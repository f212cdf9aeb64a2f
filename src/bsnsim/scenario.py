"""Scenario files: a line-oriented, diffable description of one deployment.

Grammar (one `key = value` pair per line, `#` starts a comment):

    name = apartment            # top-level keys before any section
    channel = 12                # default 802.15.4 channel
    tx_power_dbm = -10.0

    [node base]                 # one section per named node
    x = 0.0
    y = 0.0

    [interferer router]
    standard = wlan             # wlan | wpan | oven
    channel = 6                 # ignored for oven
    x = 3.0
    y = 4.0
    tx_power_dbm = 15.0
    activity_factor = 0.02
    enabled = true              # optional, default true
    influence_radius_m = 2.0    # optional

    [obstacle west_wall]
    material = brick            # see rf.Material values
    shape = wall                # wall | disc
    x1 = -6.0                   # wall: x1 y1 x2 y2; disc: x y radius
    y1 = -4.0
    x2 = -6.0
    y2 = 4.0
    loss_db = 5.0               # optional per-obstacle override
    near_field_m = 0.5          # optional

    [materials]                 # optional loss-table overrides
    brick = 4.0

Every number must be finite (`nan` and `inf` are rejected). `radius`,
`near_field_m` and `influence_radius_m` must be non-negative, and
`activity_factor` must lie in [0, 1]. Scenarios must define at least the
`base` and `remote` nodes. Errors raise `ScenarioError` naming the line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path
from typing import Mapping

from .errors import ParameterError, ScenarioError
from .rf import (
    DEFAULT_MATERIAL_LOSS_DB,
    ChannelSpec,
    Disc,
    Interferer,
    Material,
    Obstacle,
    Point,
    RadioStandard,
    Wall,
    WPAN_INDEX_RANGE,
)

PRESET_NAMES = (
    "apartment",
    "single_house",
    "apartment_microwave",
    "attenuation_aluminum",
    "attenuation_brick_glass",
    "attenuation_stove",
    "attenuation_plant",
    "attenuation_plant_offset",
)


@dataclass
class Scenario:
    name: str
    nodes: dict[str, Point] = field(default_factory=dict)
    interferers: dict[str, Interferer] = field(default_factory=dict)
    obstacles: dict[str, Obstacle] = field(default_factory=dict)
    channel: int = 12
    tx_power_dbm: float = -10.0
    material_loss: dict[Material, float] = field(default_factory=dict)

    def material_table(self) -> dict[Material, float]:
        table = dict(DEFAULT_MATERIAL_LOSS_DB)
        table.update(self.material_loss)
        return table

    def node(self, name: str) -> Point:
        if name not in self.nodes:
            raise ScenarioError(f"scenario {self.name!r} has no node {name!r}")
        return self.nodes[name]

    def with_interferer_enabled(self, name: str, enabled: bool) -> "Scenario":
        if name not in self.interferers:
            raise ScenarioError(f"scenario {self.name!r} has no interferer {name!r}")
        interferers = dict(self.interferers)
        interferers[name] = replace(interferers[name], enabled=enabled)
        return replace(self, interferers=interferers)

    def validate(self) -> None:
        for required in ("base", "remote"):
            if required not in self.nodes:
                raise ScenarioError(f"scenario {self.name!r} is missing node {required!r}")
        if self.channel not in WPAN_INDEX_RANGE:
            raise ScenarioError(f"scenario channel must be 11..26, got {self.channel}")


_STANDARDS = {
    "wlan": RadioStandard.WLAN_80211,
    "wpan": RadioStandard.WPAN_154,
    "oven": RadioStandard.MICROWAVE_OVEN,
}


class _Section:
    def __init__(self, kind: str, name: str, line: int):
        self.kind = kind
        self.name = name
        self.line = line
        self.fields: dict[str, tuple[str, int]] = {}


def _number(value: str, key: str, line: int) -> float:
    try:
        number = float(value)
    except ValueError:
        raise ScenarioError(f"field {key!r} must be a number, got {value!r}", line) from None
    if not math.isfinite(number):
        raise ScenarioError(f"field {key!r} must be finite, got {value!r}", line)
    return number


def _parse_float(section: _Section, key: str, optional: bool = False, non_negative: bool = False) -> float | None:
    """A finite number; an absent optional field gives None."""
    if key not in section.fields:
        if optional:
            return None
        raise ScenarioError(f"[{section.kind} {section.name}] is missing field {key!r}", section.line)
    value, line = section.fields[key]
    number = _number(value, key, line)
    if non_negative and number < 0:
        raise ScenarioError(f"field {key!r} must be non-negative, got {value!r}", line)
    return number


def _parse_int(section: _Section, key: str) -> int:
    if key not in section.fields:
        raise ScenarioError(f"[{section.kind} {section.name}] is missing field {key!r}", section.line)
    value, line = section.fields[key]
    try:
        return int(value)
    except ValueError:
        raise ScenarioError(f"field {key!r} must be an integer, got {value!r}", line) from None


def _parse_bool(section: _Section, key: str, default: bool) -> bool:
    if key not in section.fields:
        return default
    value, line = section.fields[key]
    if value.lower() in ("true", "yes", "1"):
        return True
    if value.lower() in ("false", "no", "0"):
        return False
    raise ScenarioError(f"field {key!r} must be true/false, got {value!r}", line)


def _build_interferer(section: _Section) -> Interferer:
    std_raw, std_line = section.fields.get("standard", ("", section.line))
    standard = _STANDARDS.get(std_raw.lower())
    if standard is None:
        raise ScenarioError(f"unknown interferer standard {std_raw!r} (wlan|wpan|oven)", std_line)
    if standard is RadioStandard.MICROWAVE_OVEN:
        channel = ChannelSpec.microwave_oven()
    else:
        index = _parse_int(section, "channel")
        _, ch_line = section.fields["channel"]
        try:
            channel = ChannelSpec.wlan(index) if standard is RadioStandard.WLAN_80211 else ChannelSpec.wpan(index)
        except Exception as exc:
            raise ScenarioError(str(exc), ch_line) from None
    try:
        return Interferer(
            channel=channel,
            position=(_parse_float(section, "x"), _parse_float(section, "y")),
            tx_power_dbm=_parse_float(section, "tx_power_dbm"),
            activity_factor=_parse_float(section, "activity_factor"),
            enabled=_parse_bool(section, "enabled", True),
            influence_radius_m=_parse_float(section, "influence_radius_m", optional=True, non_negative=True),
        )
    except ParameterError as exc:  # Interferer rejects an activity_factor outside [0, 1]
        raise ScenarioError(str(exc), section.fields["activity_factor"][1]) from None


def _parse_material(raw: str, line: int) -> Material:
    try:
        return Material(raw.lower())
    except ValueError:
        valid = ", ".join(m.value for m in Material)
        raise ScenarioError(f"unknown material {raw!r} (expected one of: {valid})", line) from None


def _build_obstacle(section: _Section) -> Obstacle:
    mat_raw, mat_line = section.fields.get("material", ("", section.line))
    material = _parse_material(mat_raw, mat_line)
    shape_raw, shape_line = section.fields.get("shape", ("wall", section.line))
    if shape_raw == "wall":
        shape: Wall | Disc = Wall(
            _parse_float(section, "x1"),
            _parse_float(section, "y1"),
            _parse_float(section, "x2"),
            _parse_float(section, "y2"),
        )
    elif shape_raw == "disc":
        radius = _parse_float(section, "radius", non_negative=True)
        shape = Disc(_parse_float(section, "x"), _parse_float(section, "y"), radius)
    else:
        raise ScenarioError(f"unknown obstacle shape {shape_raw!r} (wall|disc)", shape_line)
    return Obstacle(
        material=material,
        shape=shape,
        loss_db=_parse_float(section, "loss_db", optional=True),
        near_field_m=_parse_float(section, "near_field_m", optional=True, non_negative=True),
    )


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse scenario text, reporting the offending line on error."""
    top: dict[str, tuple[str, int]] = {}
    sections: list[_Section] = []
    current: _Section | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError(f"unterminated section header {raw.strip()!r}", lineno)
            parts = line[1:-1].split()
            if len(parts) == 1 and parts[0] == "materials":
                current = _Section("materials", "", lineno)
            elif len(parts) == 2 and parts[0] in ("node", "interferer", "obstacle"):
                current = _Section(parts[0], parts[1], lineno)
            else:
                raise ScenarioError(f"bad section header {line!r}", lineno)
            sections.append(current)
            continue
        if "=" not in line:
            raise ScenarioError(f"expected `key = value`, got {raw.strip()!r}", lineno)
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ScenarioError("empty key", lineno)
        target = current.fields if current is not None else top
        if key in target:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        target[key] = (value, lineno)

    if not top and not sections:
        raise ScenarioError(f"{source}: scenario file is empty")

    scenario = Scenario(name=top.get("name", (Path(source).stem, 0))[0])
    if "channel" in top:
        value, lineno = top["channel"]
        try:
            scenario.channel = int(value)
        except ValueError:
            raise ScenarioError(f"channel must be an integer, got {value!r}", lineno) from None
    if "tx_power_dbm" in top:
        value, lineno = top["tx_power_dbm"]
        scenario.tx_power_dbm = _number(value, "tx_power_dbm", lineno)

    for section in sections:
        if section.kind == "node":
            if section.name in scenario.nodes:
                raise ScenarioError(f"duplicate node {section.name!r}", section.line)
            scenario.nodes[section.name] = (_parse_float(section, "x"), _parse_float(section, "y"))
        elif section.kind == "interferer":
            if section.name in scenario.interferers:
                raise ScenarioError(f"duplicate interferer {section.name!r}", section.line)
            scenario.interferers[section.name] = _build_interferer(section)
        elif section.kind == "obstacle":
            if section.name in scenario.obstacles:
                raise ScenarioError(f"duplicate obstacle {section.name!r}", section.line)
            scenario.obstacles[section.name] = _build_obstacle(section)
        else:  # materials
            for key, (value, lineno) in section.fields.items():
                scenario.material_loss[_parse_material(key, lineno)] = _number(value, key, lineno)

    scenario.validate()
    return scenario


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to its file form (parse round-trips exactly)."""
    out = [f"name = {scenario.name}", f"channel = {scenario.channel}", f"tx_power_dbm = {scenario.tx_power_dbm!r}", ""]
    for name, (x, y) in scenario.nodes.items():
        out += [f"[node {name}]", f"x = {x!r}", f"y = {y!r}", ""]
    for name, it in scenario.interferers.items():
        out += [f"[interferer {name}]", f"standard = {it.channel.standard.value}"]
        if it.channel.standard is not RadioStandard.MICROWAVE_OVEN:
            out.append(f"channel = {it.channel.index}")
        out += [
            f"x = {it.position[0]!r}",
            f"y = {it.position[1]!r}",
            f"tx_power_dbm = {it.tx_power_dbm!r}",
            f"activity_factor = {it.activity_factor!r}",
            f"enabled = {'true' if it.enabled else 'false'}",
        ]
        if it.influence_radius_m is not None:
            out.append(f"influence_radius_m = {it.influence_radius_m!r}")
        out.append("")
    for name, ob in scenario.obstacles.items():
        out += [f"[obstacle {name}]", f"material = {ob.material.value}"]
        if isinstance(ob.shape, Wall):
            out += [
                "shape = wall",
                f"x1 = {ob.shape.x1!r}",
                f"y1 = {ob.shape.y1!r}",
                f"x2 = {ob.shape.x2!r}",
                f"y2 = {ob.shape.y2!r}",
            ]
        else:
            out += [
                "shape = disc",
                f"x = {ob.shape.x!r}",
                f"y = {ob.shape.y!r}",
                f"radius = {ob.shape.radius!r}",
            ]
        if ob.loss_db is not None:
            out.append(f"loss_db = {ob.loss_db!r}")
        if ob.near_field_m is not None:
            out.append(f"near_field_m = {ob.near_field_m!r}")
        out.append("")
    if scenario.material_loss:
        out.append("[materials]")
        for material, loss in scenario.material_loss.items():
            out.append(f"{material.value} = {loss!r}")
        out.append("")
    return "\n".join(out)


def load_scenario(path_or_preset: str | Path) -> Scenario:
    """Load a scenario from a file path or a built-in preset name."""
    name = str(path_or_preset)
    if name in PRESET_NAMES:
        text = resources.files("bsnsim").joinpath(f"presets/{name}.scn").read_text()
        return parse_scenario(text, source=f"{name}.scn")
    path = Path(path_or_preset)
    if not path.exists():
        raise ScenarioError(f"no scenario file or preset named {name!r}")
    return parse_scenario(path.read_text(), source=str(path))


def apply_overrides(scenario: Scenario, overrides: Mapping[str, Mapping[str, float]]) -> Scenario:
    """Apply calibration overrides ({interferer: {field: value}}) by name."""
    interferers = dict(scenario.interferers)
    for name, fields in overrides.items():
        if name not in interferers:
            continue
        interferers[name] = replace(interferers[name], **fields)
    return replace(scenario, interferers=interferers)
