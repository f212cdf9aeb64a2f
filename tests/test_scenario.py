"""Scenario file parsing, presets, and round-trip serialization."""

import copy
import math
import pickle
import re
from dataclasses import replace
from fractions import Fraction
from importlib import resources

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bsnsim.errors import BsnsimError, ParameterError, ScenarioError
from bsnsim.rf import ChannelSpec, Disc, Interferer, Material, Obstacle, RadioStandard, Wall
from bsnsim.scenario import (
    PRESET_NAMES,
    Scenario,
    load_scenario,
    parse_scenario,
    serialize_scenario,
)
from bsnsim.selector import scan

MINIMAL = """
name = tiny
channel = 15
tx_power_dbm = -5.0

[node base]
x = 0.0
y = 0.0

[node remote]
x = 3.0
y = 4.0
"""


def test_minimal_scenario_parses():
    s = parse_scenario(MINIMAL)
    assert s.name == "tiny"
    assert s.channel == 15
    assert s.nodes["remote"] == (3.0, 4.0)


def test_all_presets_load_and_validate():
    for name in PRESET_NAMES:
        s = load_scenario(name)
        assert "base" in s.nodes and "remote" in s.nodes


def test_apartment_strongest_interference_on_wlan_1():
    s = load_scenario("apartment")
    ch1 = [i for i in s.interferers.values()
           if i.channel.standard is RadioStandard.WLAN_80211 and i.channel.index == 1]
    strongest = max(s.interferers.values(), key=lambda i: i.activity_factor)
    assert strongest in ch1
    assert sum(1 for i in ch1 if i.activity_factor == strongest.activity_factor) == 2


def test_single_house_geometry():
    s = load_scenario("single_house")
    wlan11 = [i for i in s.interferers.values()
              if i.channel.standard is RadioStandard.WLAN_80211 and i.channel.index == 11]
    internal = max(wlan11, key=lambda i: i.activity_factor)
    assert internal.activity_factor > 0.001
    bx, by = s.nodes["base"]
    rx, ry = s.nodes["remote"]
    assert math.hypot(rx - bx, ry - by) == pytest.approx(6.0, abs=0.5)


def test_empty_file_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("")


WALL = "\n[obstacle thing]\nmaterial = {material}\nshape = wall\nx1=0\ny1=0\nx2=1\ny2=1\n"
LILY = "\n[obstacle lily]\nmaterial = plant_foliage\nshape = disc\nx = 1.0\ny = 1.0\n{fields}\n"
ROUTER = ("\n[interferer router]\nstandard = wlan\nchannel = 6\nx = 3.0\ny = 4.0\n"
          "tx_power_dbm = 15.0\n{fields}\n")


MATERIALS = "drywall, plywood, glass, brick, concrete, aluminum_siding, metal_appliance, plant_foliage"


@pytest.mark.parametrize(
    "text, bad_line, message",
    [
        (MINIMAL + WALL.format(material="stone"), "material = stone",
         f"line 15: field 'material' must be one of {MATERIALS}, got 'stone'"),
        (MINIMAL.replace("x = 3.0", "x = nan"), "x = nan", "line 11: field 'x' must be finite, got 'nan'"),
        (MINIMAL.replace("tx_power_dbm = -5.0", "tx_power_dbm = inf"), "tx_power_dbm = inf",
         "line 4: field 'tx_power_dbm' must be finite, got 'inf'"),
        (MINIMAL + WALL.format(material="brick") + "loss_db = -inf\n", "loss_db = -inf",
         "line 21: field 'loss_db' must be finite, got '-inf'"),
        (MINIMAL + LILY.format(fields="radius = 0.3\nnear_field_m = inf"), "near_field_m = inf",
         "line 20: field 'near_field_m' must be finite, got 'inf'"),
        (MINIMAL + LILY.format(fields="radius = 0.3\nnear_field_m = -0.5"), "near_field_m = -0.5",
         "line 20: field 'near_field_m' must lie in [0, inf], got '-0.5'"),
        (MINIMAL + LILY.format(fields="radius = -0.3"), "radius = -0.3",
         "line 19: field 'radius' must lie in [0, inf], got '-0.3'"),
        (MINIMAL + ROUTER.format(fields="activity_factor = 0.1\ninfluence_radius_m = -2"), "influence_radius_m = -2",
         "line 21: field 'influence_radius_m' must lie in [0, inf], got '-2'"),
        (MINIMAL + ROUTER.format(fields="activity_factor = 1.5"), "activity_factor = 1.5",
         "line 20: field 'activity_factor' must lie in [0, 1], got '1.5'"),
        (MINIMAL + "\n[materials]\nbrick = nan\n", "brick = nan", "line 15: field 'brick' must be finite, got 'nan'"),
        (MINIMAL.replace("channel = 15", "chanel = 20"), "chanel = 20",
         "line 3: top level: unknown key 'chanel' = '20' (known: name, channel, tx_power_dbm)"),
        (MINIMAL + ROUTER.format(fields="activity_factor = 0.1\nenabeld = false"), "enabeld = false",
         "line 21: [interferer router]: unknown key 'enabeld' = 'false' (known: standard, channel, x, y, "
         "tx_power_dbm, activity_factor, enabled, influence_radius_m)"),
        (MINIMAL + LILY.format(fields="raduis = 0.3"), "raduis = 0.3",
         "line 19: [obstacle lily]: unknown key 'raduis' = '0.3' (known: material, shape, x, y, radius, loss_db, "
         "near_field_m)"),
        (MINIMAL + WALL.format(material="brick") + "radius = 0.3\n", "radius = 0.3",
         "line 21: [obstacle thing]: unknown key 'radius' = '0.3' (known: material, shape, x1, y1, x2, y2, "
         "loss_db, near_field_m)"),
        (MINIMAL + "\n[materials]\nbrick = 4.0\nBrick = 9.5\n", "Brick = 9.5",
         "line 16: duplicate material 'Brick' = '9.5'"),
        (MINIMAL + "\n[materials]\nstone = 4.0\n", "stone = 4.0",
         f"line 15: field 'material' must be one of {MATERIALS}, got 'stone'"),
        (MINIMAL + "\n[materials]\nbrick = 4.0\n\n[materials]\nbrick = 9.5\n", "brick = 9.5",
         "line 18: duplicate material 'brick' = '9.5'"),
        (MINIMAL + "\n[node extra\nx = 1\ny = 1\n", "[node extra",
         "line 14: unterminated section header '[node extra'"),
        (MINIMAL + "\n[room kitchen]\nx = 1\n", "[room kitchen]", "line 14: bad section header '[room kitchen]'"),
        (MINIMAL + "\n[node a b]\nx = 1\n", "[node a b]", "line 14: bad section header '[node a b]'"),
        (MINIMAL.replace("y = 4.0", "y = 4.0\ny = 5.0"), "y = 5.0", "line 13: duplicate key 'y'"),
        (MINIMAL + "\n[node base]\nx = 1\ny = 1\n", "[node base]", "line 14: duplicate node 'base'"),
        (MINIMAL + ROUTER.format(fields=""), "[interferer router]",
         "line 14: [interferer router] is missing field 'activity_factor'"),
        (MINIMAL + ROUTER.replace("channel = 6\n", "").format(fields="activity_factor = 0.1"), "[interferer router]",
         "line 14: [interferer router] is missing field 'channel'"),
        (MINIMAL + ROUTER.replace("channel = 6", "channel = 12").format(fields="activity_factor = 0.1"),
         "channel = 12", "line 16: 802.11 channel must be 1..11, got 12"),
        (MINIMAL.lstrip().replace("channel = 15", "channel = 5"), "channel = 5",
         "line 2: 802.15.4 channel must be 11..26, got 5"),
        (MINIMAL + "\nnot a kv line\n", "not a kv line", "line 14: expected `key = value`, got 'not a kv line'"),
        (MINIMAL + "\n= 5\n", "= 5", "line 14: empty key"),
    ],
    ids=[
        "unknown_material", "nan_coordinate", "inf_tx_power", "inf_loss", "inf_near_field",
        "negative_near_field", "negative_radius", "negative_influence_radius",
        "activity_factor_out_of_range", "nan_material_loss", "unknown_top_level_key",
        "unknown_interferer_key", "unknown_disc_key", "disc_key_on_wall", "material_repeated_in_other_case",
        "unknown_listed_material", "material_listed_in_two_blocks",
        "unterminated_section_header", "unknown_section_kind", "section_header_with_three_words", "duplicate_key",
        "duplicate_section", "missing_field", "missing_channel", "wlan_channel_out_of_range",
        "scenario_channel_out_of_range", "not_key_value", "empty_key",
    ],
)
def test_parse_error_carries_line_number(text, bad_line, message):
    """Each error names its line (the last one with the bad text) and its full message."""
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    lines = text.splitlines()
    assert err.value.line == len(lines) - lines[::-1].index(bad_line)
    assert str(err.value) == message


def test_missing_required_node():
    with pytest.raises(ScenarioError):
        parse_scenario("name = x\n[node base]\nx = 0\ny = 0\n")


def test_bad_channel_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario(MINIMAL.replace("channel = 15", "channel = 9"))


def test_duplicate_section_rejected():
    dup = MINIMAL + "\n[node base]\nx = 1\ny = 1\n"
    with pytest.raises(ScenarioError):
        parse_scenario(dup)


def test_bad_key_value_line():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "\nnot a kv line\n")
    assert "line" in str(err.value)


def _preset_text(name):
    return resources.files("bsnsim").joinpath(f"presets/{name}.scn").read_text()


# brick and glass have obstacles in attenuation_brick_glass, concrete has none, and plywood is not listed
LISTED = "\n[materials]\nbrick = 9.0\nglass = 0.25\nconcrete = 1.5\n"


def test_materials_block_reads_as_each_obstacles_own_loss():
    text = _preset_text("attenuation_brick_glass")
    listed = parse_scenario(text + LISTED)
    explicit = parse_scenario(text.replace("material = brick\n", "material = brick\nloss_db = 9.0\n")
                              .replace("material = glass\n", "material = glass\nloss_db = 0.25\n"))
    assert listed == explicit
    assert [ob.effective_loss_db() for ob in listed.obstacles.values()] == [9.0, 0.25, 0.5]
    assert listed.obstacles["interior_wall"].loss_db is None
    assert scan(listed) == scan(explicit) != scan(load_scenario("attenuation_brick_glass"))
    written = serialize_scenario(listed)
    assert "[materials]" not in written and parse_scenario(written) == listed
    assert serialize_scenario(parse_scenario(written)) == written


def test_an_obstacles_own_loss_wins_over_its_listed_material():
    # the block may come before the obstacles it sets
    text = MINIMAL + "\n[materials]\nbrick = 9.0\n" + WALL.format(material="brick") + "loss_db = 2.0\n"
    assert parse_scenario(text).obstacles["thing"] == Obstacle(Material.BRICK, Wall(0.0, 0.0, 1.0, 1.0), 2.0)
    unset = parse_scenario(MINIMAL + "\n[materials]\nbrick = 9.0\n" + WALL.format(material="brick"))
    assert unset.obstacles["thing"] == Obstacle(Material.BRICK, Wall(0.0, 0.0, 1.0, 1.0), 9.0)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_a_listed_material_without_an_obstacle_changes_nothing(name):
    listed = parse_scenario(_preset_text(name) + "\n[materials]\nconcrete = 1.5\n", source=f"{name}.scn")
    assert listed == load_scenario(name)


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_round_trip_all_presets(name):
    s = load_scenario(name)
    again = parse_scenario(serialize_scenario(s))
    assert again == s
    # read-only mappings do not pickle, so a scenario pickles and deep-copies by its fields
    assert pickle.loads(pickle.dumps(s)) == copy.deepcopy(s) == s


# every name the file can hold: an entry's, a section header's second word, has no whitespace and no
# '#'; the scenario's, a top-level value, is one line without '#' or surrounding whitespace
_names = st.text(st.characters(exclude_characters="#"), min_size=1, max_size=8).filter(
    lambda name: not any(c.isspace() for c in name))
_scenario_names = st.text(st.characters(exclude_characters="#"), max_size=8).filter(
    lambda name: name == name.strip() and "".join(name.splitlines()) == name)
# numpy numbers too: each is written as the plain number
_finite = st.floats(allow_nan=False, allow_infinity=False) | st.floats(allow_nan=False, allow_infinity=False).map(
    np.float64)
_non_negative = st.floats(min_value=0.0, allow_infinity=False)
_points = st.tuples(_finite, _finite)
_channels = st.one_of(
    st.builds(ChannelSpec.wlan, st.integers(1, 11)),
    st.builds(ChannelSpec.wpan, st.integers(11, 26)),
    st.just(ChannelSpec.microwave_oven()),
)
_interferers = st.builds(
    Interferer, _channels, _points, _finite, st.floats(0.0, 1.0), st.booleans(), st.none() | _non_negative
)
_shapes = st.builds(Wall, _finite, _finite, _finite, _finite) | st.builds(Disc, _finite, _finite, _non_negative)
_obstacles = st.builds(Obstacle, st.sampled_from(Material), _shapes, st.none() | _finite, st.none() | _non_negative)
_scenarios = st.builds(
    Scenario,
    name=_scenario_names,
    nodes=st.builds(lambda base, remote, extra: {**extra, "base": base, "remote": remote},
                    _points, _points, st.dictionaries(_names, _points, max_size=3)),
    interferers=st.dictionaries(_names, _interferers, max_size=4),
    obstacles=st.dictionaries(_names, _obstacles, max_size=4),
    channel=st.integers(11, 26) | st.integers(11, 26).map(np.int64),
    tx_power_dbm=_finite,
)


@given(_scenarios)
def test_serialize_parse_round_trip(scenario):
    text = serialize_scenario(scenario)
    again = parse_scenario(text)
    assert again == scenario
    assert serialize_scenario(again) == text


def test_numpy_numbers_are_written_as_plain_numbers():
    scenario = Scenario(
        "np", nodes={"base": (np.float32(0.5), np.int64(0)), "remote": (np.float64(3.0), np.int32(4))},
        interferers={"router": Interferer(ChannelSpec.wlan(np.int64(6)), (np.float64(3.0), np.float16(4.0)),
                                          np.float32(15.0), np.float64(0.02), influence_radius_m=np.uint8(2))},
        obstacles={"wall": Obstacle(Material.BRICK, Wall(np.int64(-6), np.float64(-4.0), -6.0, 4.0),
                                    np.float64(5.0), np.float32(0.5))},
        channel=np.int64(15), tx_power_dbm=np.float32(-3.5))
    text = serialize_scenario(scenario)
    assert "np." not in text and "channel = 15\n" in text
    assert parse_scenario(text) == scenario


_NODES = {"base": (0.0, 0.0), "remote": (1.0, 1.0)}
_ROUTER = Interferer(ChannelSpec.wlan(6), (3.0, 4.0), 15.0, 0.02)
_WALL = Obstacle(Material.BRICK, Wall(0.0, 0.0, 1.0, 1.0))


@pytest.mark.parametrize("scenario, message", [
    (Scenario("ab", _NODES, tx_power_dbm=2**53 + 1),
     "scenario tx_power_dbm = 9007199254740993 cannot be written: it reads back as 9007199254740992.0"),
    (Scenario("ab", _NODES, tx_power_dbm=2**60 + 1), "scenario tx_power_dbm = 1152921504606846977 cannot be written"),
    (Scenario("ab", _NODES, tx_power_dbm=Fraction(1, 3)),
     "scenario tx_power_dbm = Fraction(1, 3) cannot be written: it reads back as 0.3333333333333333"),
    (Scenario("ab", {**_NODES, "a": (2**60 + 1, 0.0)}), "[node a] x = 1152921504606846977 cannot be written"),
    (Scenario("ab", _NODES, interferers={"router": replace(_ROUTER, tx_power_dbm=Fraction(1, 3))}),
     "[interferer router] tx_power_dbm = Fraction(1, 3) cannot be written"),
], ids=["int_2_53_plus_1", "int_2_60_plus_1", "fraction_third", "node_x_2_60_plus_1", "interferer_fraction"])
def test_serialize_refuses_a_number_that_reads_back_changed(scenario, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
        serialize_scenario(scenario)


@pytest.mark.parametrize("value", [2**53, -(2**60), 7, Fraction(1, 4)], ids=repr)
def test_serialize_writes_a_number_that_reads_back_equal(value):
    scenario = Scenario("ab", {**_NODES, "a": (value, 0.0)}, tx_power_dbm=value)
    again = parse_scenario(serialize_scenario(scenario))
    assert again == scenario and again.tx_power_dbm == value and again.nodes["a"] == (value, 0.0)


@pytest.mark.parametrize("scenario, message", [
    (Scenario("a#b", _NODES), "scenario 'a#b' cannot be written: its name must be one line without '#' "
                              "or surrounding whitespace"),
    (Scenario(" ab", _NODES), "scenario ' ab' cannot be written"),
    (Scenario("ab\t", _NODES), "scenario 'ab\\t' cannot be written"),
    (Scenario("a\nb", _NODES), "scenario 'a\\nb' cannot be written"),
    (Scenario("a\u2028b", _NODES), "scenario 'a\\u2028b' cannot be written"),
    (Scenario("ab", {**_NODES, "a b": (2.0, 2.0)}), "node 'a b' cannot be written: its name must be non-empty "
                                                     "text without whitespace or '#'"),
    (Scenario("ab", {**_NODES, 5: (2.0, 2.0)}), "node 5 cannot be written"),
    (Scenario("ab", {**_NODES, "": (2.0, 2.0)}), "node '' cannot be written"),
    (Scenario("ab", _NODES, interferers={"wifi#2": _ROUTER}), "interferer 'wifi#2' cannot be written"),
    (Scenario("ab", _NODES, interferers={"a\x1cb": _ROUTER}), "interferer 'a\\x1cb' cannot be written"),
    (Scenario("ab", _NODES, obstacles={"west wall": _WALL}), "obstacle 'west wall' cannot be written"),
    (Scenario("ab", _NODES, obstacles={("w", 1): _WALL}), "obstacle ('w', 1) cannot be written"),
], ids=["hash_in_name", "leading_space_in_name", "trailing_tab_in_name", "newline_in_name",
        "line_separator_in_name", "space_in_node", "int_node", "empty_node", "hash_in_interferer",
        "file_separator_in_interferer", "space_in_obstacle", "tuple_obstacle"])
def test_serialize_refuses_a_name_the_file_cannot_hold(scenario, message):
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
        serialize_scenario(scenario)


# scenario text: grammar-shaped lines built from real keys and headers, mixed with junk
_keys = st.sampled_from(["name", "channel", "tx_power_dbm", "x", "y", "standard", "enabled", "activity_factor",
                         "influence_radius_m", "material", "shape", "x1", "y1", "x2", "y2", "radius", "loss_db",
                         "near_field_m", "brick", "Brick"]) | _names
_values = (st.sampled_from(["0", "12", "-1", "1e400", "nan", "-inf", "true", "maybe", "wlan", "oven", "wall",
                            "disc", "brick", ""])
           | st.floats().map(repr) | st.integers().map(str) | st.text(max_size=8))
_headers = st.builds("[{} {}]".format, st.sampled_from(["node", "interferer", "obstacle", "materials", "bogus"]),
                     st.sampled_from(["base", "remote", "router", ""]) | _names)
_lines = st.one_of(st.builds("{} = {}".format, _keys, _values), _headers, st.just("[materials]"), st.text(max_size=20))


@given(st.booleans(), st.lists(_lines, max_size=12))
def test_parse_arbitrary_lines_raises_only_bsnsim_errors(start_minimal, lines):
    text = (MINIMAL if start_minimal else "") + "\n".join(lines)
    try:
        scenario = parse_scenario(text)
    except BsnsimError:
        return
    assert isinstance(scenario, Scenario)


def test_unknown_preset_or_path():
    with pytest.raises(ScenarioError):
        load_scenario("never_heard_of_it")


def test_non_utf8_file_names_the_file(tmp_path):
    path = tmp_path / "bad.scn"
    path.write_bytes(b"channel = 12\n\xff\xfe\n")
    with pytest.raises(ScenarioError, match=re.escape(f"{path}: not UTF-8 text")):
        load_scenario(path)


@pytest.mark.parametrize("enabled", ["no", 0, None])
def test_with_interferer_enabled_takes_only_a_bool(enabled):
    scenario = load_scenario("apartment_microwave")
    with pytest.raises(ParameterError, match=re.escape(f"enabled must be a bool, got {type(enabled).__name__}")):
        scenario.with_interferer_enabled("oven", enabled)
