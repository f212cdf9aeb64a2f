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
    channel = 6                 # wlan | wpan only; ignored for oven
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

Each section takes only the keys shown for its kind (a wall only x1 y1 x2
y2, a disc only x y radius); any other key is an error. Every number must be
finite (`nan` and `inf` are rejected). `radius`, `near_field_m` and
`influence_radius_m` must be non-negative, and `activity_factor` must lie in
[0, 1]. Scenarios must define at least the `base` and `remote` nodes. Errors
raise `ScenarioError` naming the line.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from enum import Enum
from importlib import resources
from numbers import Integral
from os import PathLike
from pathlib import Path
from types import MappingProxyType
from typing import Any, Callable, Iterable

from .errors import ParameterError, ScenarioError, finite_number, finite_point, require_finite, require_type
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


@dataclass(frozen=True)
class Scenario:
    """A deployment, checked when made (`dataclasses.replace` too): each field's type, and the numbers
    no entry type checks. Its mappings are stored as read-only copies, so it cannot be edited in place."""

    name: str
    nodes: Mapping[str, Point] = field(default_factory=dict)
    interferers: Mapping[str, Interferer] = field(default_factory=dict)
    obstacles: Mapping[str, Obstacle] = field(default_factory=dict)
    channel: int = 12
    tx_power_dbm: float = -10.0
    material_loss: Mapping[Material, float] = field(default_factory=dict)

    def __post_init__(self):
        require_type("name", self.name, str)
        for name in ("nodes", "interferers", "obstacles", "material_loss"):
            require_type(name, getattr(self, name), Mapping)
            object.__setattr__(self, name, MappingProxyType(dict(getattr(self, name))))
        ChannelSpec.wpan(self.channel)
        require_finite("tx_power_dbm", self.tx_power_dbm)
        for name, point in self.nodes.items():
            if not finite_point(point):
                raise ParameterError(f"node {name!r} must be an (x, y) tuple of finite numbers, got {point!r}")
        for kind, entries in ((Interferer, self.interferers), (Obstacle, self.obstacles)):
            for name, entry in entries.items():
                if not isinstance(entry, kind):  # repr(name) only for the error: a scenario holds dozens
                    require_type(repr(name), entry, kind)
        for material, loss in self.material_loss.items():
            if not (isinstance(material, Material) and finite_number(loss)):
                raise ParameterError(f"material_loss must map Materials to finite numbers, got {material!r}: {loss!r}")

    def __reduce__(self):  # pickled and deep-copied by its fields as dicts: a read-only mapping does not pickle
        return type(self), tuple(dict(v) if isinstance(v, MappingProxyType) else v for v in vars(self).values())

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


# A reader turns a field's text into its value or raises a ScenarioError on
# the field's line.
Reader = Callable[[str, str, int], Any]
Fields = dict[str, tuple[str, int]]  # key -> (text, line)
Table = dict[str, tuple[Reader, bool]]  # key -> (reader, optional), in file order


def _text(text: str, key: str, line: int) -> str:
    return text


def _finite(low: float = -math.inf, high: float = math.inf) -> Reader:
    """A finite number in [low, high]."""

    def read(text: str, key: str, line: int) -> float:
        try:
            number = float(text)
        except ValueError:
            raise ScenarioError(f"field {key!r} must be a number, got {text!r}", line) from None
        if not math.isfinite(number):
            raise ScenarioError(f"field {key!r} must be finite, got {text!r}", line)
        if not low <= number <= high:
            raise ScenarioError(f"field {key!r} must lie in [{low:g}, {high:g}], got {text!r}", line)
        return number

    return read


_number, _non_negative, _fraction = _finite(), _finite(0.0), _finite(0.0, 1.0)


def _integer(text: str, key: str, line: int) -> int:
    try:
        return int(text)
    except ValueError:
        raise ScenarioError(f"field {key!r} must be an integer, got {text!r}", line) from None


def _choice(options: Mapping[str, Any]) -> Reader:
    """One of the option words, in any letter case."""

    def read(text: str, key: str, line: int) -> Any:
        try:
            return options[text.lower()]
        except KeyError:
            raise ScenarioError(f"field {key!r} must be one of {', '.join(options)}, got {text!r}", line) from None

    return read


_bool = _choice({"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False})
_material = _choice({m.value: m for m in Material})
_REQUIRED, _OPTIONAL = False, True

_TOP: Table = {"name": (_text, _OPTIONAL), "channel": (_integer, _OPTIONAL), "tx_power_dbm": (_number, _OPTIONAL)}
_NODE: Table = {"x": (_number, _REQUIRED), "y": (_number, _REQUIRED)}
_INTERFERER: Table = {
    "standard": (_choice({s.value: s for s in RadioStandard}), _REQUIRED),
    "channel": (_integer, _OPTIONAL),  # required unless the standard is oven
    "x": (_number, _REQUIRED),
    "y": (_number, _REQUIRED),
    "tx_power_dbm": (_number, _REQUIRED),
    "activity_factor": (_fraction, _REQUIRED),
    "enabled": (_bool, _OPTIONAL),
    "influence_radius_m": (_non_negative, _OPTIONAL),
}
# shape keyword -> (geometry class, its keys in field order)
_SHAPES: dict[str, tuple[type, Table]] = {
    "wall": (Wall, {key: (_number, _REQUIRED) for key in ("x1", "y1", "x2", "y2")}),
    "disc": (Disc, {"x": (_number, _REQUIRED), "y": (_number, _REQUIRED), "radius": (_non_negative, _REQUIRED)}),
}
_OBSTACLE: dict[str, Table] = {
    shape: {
        "material": (_material, _REQUIRED),
        "shape": (_text, _OPTIONAL),
        **geometry,
        "loss_db": (_number, _OPTIONAL),
        "near_field_m": (_non_negative, _OPTIONAL),
    }
    for shape, (_, geometry) in _SHAPES.items()
}


def _read(fields: Fields, table: Table, where: str, line: int | None) -> dict[str, Any]:
    """The typed values of the keys present; an unknown or missing required key is an error."""
    if not fields.keys() <= table.keys():
        key, (text, key_line) = next((k, v) for k, v in fields.items() if k not in table)
        raise ScenarioError(f"{where}: unknown key {key!r} = {text!r} (known: {', '.join(table)})", key_line)
    values = {}
    for key, (reader, optional) in table.items():
        field = fields.get(key)
        if field is not None:
            values[key] = reader(field[0], key, field[1])
        elif not optional:
            raise ScenarioError(f"{where} is missing field {key!r}", line)
    return values


def _node(fields: Fields, where: str, line: int) -> Point:
    values = _read(fields, _NODE, where, line)
    return (values["x"], values["y"])


def _channel(plan: Callable[[int], ChannelSpec], fields: Fields, index: int) -> ChannelSpec:
    """`plan(index)`, the channel that the `channel` field of `fields` names; the plan's error names that line."""
    try:
        return plan(index)
    except ParameterError as exc:
        raise ScenarioError(str(exc), fields["channel"][1]) from None


def _interferer(fields: Fields, where: str, line: int) -> Interferer:
    values = _read(fields, _INTERFERER, where, line)
    standard, index = values.pop("standard"), values.pop("channel", None)
    if standard is RadioStandard.MICROWAVE_OVEN:
        channel = ChannelSpec.microwave_oven()
    elif index is None:
        raise ScenarioError(f"{where} is missing field 'channel'", line)
    else:
        plan = ChannelSpec.wlan if standard is RadioStandard.WLAN_80211 else ChannelSpec.wpan
        channel = _channel(plan, fields, index)
    return Interferer(channel, (values.pop("x"), values.pop("y")), **values)


def _obstacle(fields: Fields, where: str, line: int) -> Obstacle:
    shape, shape_line = fields.get("shape", ("wall", line))
    if shape not in _SHAPES:
        raise ScenarioError(f"unknown obstacle shape {shape!r} (wall|disc)", shape_line)
    geometry_class, geometry = _SHAPES[shape]
    values = _read(fields, _OBSTACLE[shape], where, line)
    return Obstacle(
        values["material"],
        geometry_class(*[values[key] for key in geometry]),
        values.get("loss_db"),
        values.get("near_field_m"),
    )


_BUILDERS = {"node": _node, "interferer": _interferer, "obstacle": _obstacle}


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse scenario text, reporting the offending line on error."""
    require_type("text", text, str)
    top: Fields = {}
    sections: list[tuple[str, str, int, Fields]] = []  # (kind, name, header line, fields)
    target = top

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.partition("#")[0] if "#" in raw else raw).strip()
        if not line:
            continue
        if line[0] == "[":
            if not line.endswith("]"):
                raise ScenarioError(f"unterminated section header {raw.strip()!r}", lineno)
            parts = line[1:-1].split()
            if parts == ["materials"]:
                parts.append("")
            elif len(parts) != 2 or parts[0] not in _BUILDERS:
                raise ScenarioError(f"bad section header {line!r}", lineno)
            target = {}
            sections.append((parts[0], parts[1], lineno, target))
            continue
        key, equals, value = line.partition("=")
        if not equals:
            raise ScenarioError(f"expected `key = value`, got {raw.strip()!r}", lineno)
        key = key.strip()
        if not key:
            raise ScenarioError("empty key", lineno)
        if key in target:
            raise ScenarioError(f"duplicate key {key!r}", lineno)
        target[key] = (value.strip(), lineno)

    if not top and not sections:
        raise ScenarioError(f"{source}: scenario file is empty")

    values = {"name": Path(source).stem, **_read(top, _TOP, "top level", None)}
    if "channel" in values:
        _channel(ChannelSpec.wpan, top, values["channel"])
    entries = {"node": {}, "interferer": {}, "obstacle": {}}
    material_loss = {}
    for kind, name, line, fields in sections:
        if kind == "materials":
            for key, (value, lineno) in fields.items():
                material = _material(key, "material", lineno)
                if material in material_loss:
                    raise ScenarioError(f"duplicate material {key!r} = {value!r}", lineno)
                material_loss[material] = _number(value, key, lineno)
            continue
        if name in entries[kind]:
            raise ScenarioError(f"duplicate {kind} {name!r}", line)
        entries[kind][name] = _BUILDERS[kind](fields, f"[{kind} {name}]", line)

    for required in ("base", "remote"):
        if required not in entries["node"]:
            raise ScenarioError(f"scenario {values['name']!r} is missing node {required!r}")
    return Scenario(**values, nodes=entries["node"], interferers=entries["interferer"], obstacles=entries["obstacle"],
                    material_loss=material_loss)


def _format(value: Any, header: str, key: str) -> str:
    if type(value) is float:  # tested first: most values are plain floats
        return repr(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, str):
        return value
    if float(value) != value:  # read back as a float, it would change (a channel, at most 26, reads back exactly)
        raise ParameterError(f"{header or 'scenario'} {key} = {value!r} cannot be written: "
                             f"it reads back as {float(value)!r}")
    return repr(int(value) if isinstance(value, Integral) else float(value))  # an int or numpy number: plain text


def _block(header: str, keys: Iterable[str], values: Mapping[str, Any]) -> list[str]:
    """One section of the file: `key = value` lines in `keys` order, absent (None) values left out."""
    lines = [f"{key} = {_format(value, header, key)}" for key in keys if (value := values.get(key)) is not None]
    return [header, *lines, ""] if header else [*lines, ""]


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario back to its file form (parse round-trips exactly). A name or number
    the file cannot hold is a `ParameterError`: an entry name must be a non-empty str without
    whitespace or `#`, the scenario's name one line without `#` or surrounding whitespace, and
    a number one that reads back equal as a float (not 2**53 + 1 or `Fraction(1, 3)`)."""
    require_type("scenario", scenario, Scenario)
    if "#" in scenario.name or scenario.name != scenario.name.strip() or len(scenario.name.splitlines()) > 1:
        raise ParameterError(f"scenario {scenario.name!r} cannot be written: its name must be one line without '#' "
                             "or surrounding whitespace")
    for kind in ("node", "interferer", "obstacle"):
        for entry in getattr(scenario, f"{kind}s"):  # split() as the parser splits a section header
            if not (isinstance(entry, str) and entry.split() == [entry] and "#" not in entry):
                raise ParameterError(f"{kind} {entry!r} cannot be written: its name must be non-empty text "
                                     "without whitespace or '#'")
    out = _block("", _TOP, vars(scenario))
    for name, (x, y) in scenario.nodes.items():
        out += _block(f"[node {name}]", _NODE, {"x": x, "y": y})
    for name, it in scenario.interferers.items():
        oven = it.channel.standard is RadioStandard.MICROWAVE_OVEN
        values = {**vars(it), "standard": it.channel.standard, "channel": None if oven else it.channel.index,
                  "x": it.position[0], "y": it.position[1]}
        out += _block(f"[interferer {name}]", _INTERFERER, values)
    for name, ob in scenario.obstacles.items():
        shape = "wall" if isinstance(ob.shape, Wall) else "disc"
        out += _block(f"[obstacle {name}]", _OBSTACLE[shape], {**vars(ob), "shape": shape, **vars(ob.shape)})
    if scenario.material_loss:
        losses = {material.value: loss for material, loss in scenario.material_loss.items()}
        out += _block("[materials]", losses, losses)
    return "\n".join(out)


def load_scenario(path_or_preset: str | Path) -> Scenario:
    """Load a scenario from a file path or a built-in preset name."""
    require_type("path_or_preset", path_or_preset, (str, PathLike))
    name = str(path_or_preset)
    if name in PRESET_NAMES:
        text = resources.files("bsnsim").joinpath(f"presets/{name}.scn").read_text()
        return parse_scenario(text, source=f"{name}.scn")
    path = Path(path_or_preset)
    if not path.exists():
        raise ScenarioError(f"no scenario file or preset named {name!r}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_scenario(text, source=str(path))

