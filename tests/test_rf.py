"""Channel geometry, path loss, and the interference model."""

import math
import re
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rf_reference
from bsnsim.errors import ParameterError
from bsnsim.rf import (
    ChannelSpec,
    Disc,
    DEFAULT_CALIBRATION,
    DEFAULT_MATERIAL_LOSS_DB,
    RECEIVER_SENSITIVITY_DBM,
    InterferenceCalibration,
    Interferer,
    Material,
    Obstacle,
    RadioPath,
    Reception,
    WLAN_INDEX_RANGE,
    WPAN_INDEX_RANGE,
    Wall,
    crossed_obstacles,
    radio_paths,
)


def _placed(channel, path):
    """An interferer as placement leaves it: (channel, path, path loss at the channel's centre)."""
    return channel, path, path.loss_db(channel.center_mhz)


def _radio_path(p1, p2, obstacles, table=DEFAULT_MATERIAL_LOSS_DB):
    [path] = radio_paths([p1], p2, obstacles, table)
    return path


def _overlap_fraction(victim, channel):
    """The overlap / victim bandwidth that `Reception.bind` stores for one interferer, or None for no entry."""
    path = RadioPath(1.0, ())
    entries = Reception.bind(path, victim, 0.0, [_placed(channel, path)]).overlapping
    return entries[0][3] if entries else None


def _bind_then_evaluate(tx_power_dbm, link, victim, pairs):
    reception = Reception.bind(link, victim, tx_power_dbm, [_placed(it.channel, path) for it, path in pairs])
    return reception.success_prob([it for it, _ in pairs])


class TestChannelGeometry:
    @pytest.mark.parametrize(
        "index,center",
        [(12, 2410.0), (19, 2445.0), (20, 2450.0), (21, 2455.0), (22, 2460.0)],
    )
    def test_cited_wpan_centers(self, index, center):
        assert ChannelSpec.wpan(index).center_mhz == center

    def test_all_wpan_centers(self):
        for index in range(11, 27):
            assert ChannelSpec.wpan(index).center_mhz == 2405 + 5 * (index - 11)

    def test_wlan_centers(self):
        assert ChannelSpec.wlan(1).center_mhz == 2412.0
        assert ChannelSpec.wlan(6).center_mhz == 2437.0
        assert ChannelSpec.wlan(11).center_mhz == 2462.0

    def test_index_range_errors(self):
        with pytest.raises(ParameterError, match="^802.15.4 channel must be 11..26, got 10$"):
            ChannelSpec.wpan(10)
        with pytest.raises(ParameterError, match="^802.15.4 channel must be 11..26, got 27$"):
            ChannelSpec.wpan(27)
        with pytest.raises(ParameterError, match="^802.11 channel must be 1..11, got 0$"):
            ChannelSpec.wlan(0)
        with pytest.raises(ParameterError, match="^802.11 channel must be 1..11, got 12$"):
            ChannelSpec.wlan(12)

    def test_constructors_share_one_spec_per_channel(self):
        assert ChannelSpec.wpan(12) is ChannelSpec.wpan(12)
        assert ChannelSpec.wlan(6) is ChannelSpec.wlan(6)
        assert ChannelSpec.microwave_oven() is ChannelSpec.microwave_oven()
        numpy_index = ChannelSpec.wpan(np.int64(13))
        assert numpy_index is ChannelSpec.wpan(13) and type(numpy_index.index) is int
        for _ in range(2):  # an index out of range raises every time: nothing was cached for it
            with pytest.raises(ParameterError, match="802.15.4 channel must be 11..26, got 27"):
                ChannelSpec.wpan(27)

    @pytest.mark.parametrize("make, index", [(ChannelSpec.wpan, 12.0), (ChannelSpec.wpan, True),
                                             (ChannelSpec.wlan, True), (ChannelSpec.wpan, np.float64(12))])
    def test_channel_index_must_be_a_plain_integer(self, make, index):
        ChannelSpec.wlan(1), ChannelSpec.wpan(12)  # cached first, so a hash-equal index would find them
        with pytest.raises(ParameterError, match="channel index must be an integer, got "):
            make(index)
        assert type(ChannelSpec.wlan(1).index) is type(ChannelSpec.wpan(12).index) is int

    def test_overlap_full_containment(self):
        # [2409, 2411] inside [2399.5, 2424.5]
        assert _overlap_fraction(ChannelSpec.wpan(12), ChannelSpec.wlan(1)) == 1.0

    def test_overlap_partial(self):
        # [2449, 2451] vs [2424.5, 2449.5]: 0.5 of 2 MHz
        assert _overlap_fraction(ChannelSpec.wpan(20), ChannelSpec.wlan(6)) == 0.25

    def test_self_overlap_is_bandwidth(self):
        ch = ChannelSpec.wpan(15)
        assert _overlap_fraction(ch, ch) == 1.0

    def test_overlap_symmetric_and_disjoint(self):
        # [2404, 2406] vs [2449.5, 2474.5]; two adjacent 802.15.4 channels miss each other either way round
        assert _overlap_fraction(ChannelSpec.wpan(11), ChannelSpec.wlan(11)) is None
        a, b = ChannelSpec.wpan(11), ChannelSpec.wpan(12)
        assert _overlap_fraction(a, b) is _overlap_fraction(b, a) is None


class TestPathLoss:
    def test_friis_10m(self):
        assert RadioPath(10.0, ()).loss_db(2450.0) == pytest.approx(60.2, abs=0.1)

    def test_friis_1m(self):
        assert RadioPath(1.0, ()).loss_db(2450.0) == pytest.approx(40.2, abs=0.1)

    def test_monotone_in_distance(self):
        losses = [RadioPath(d, ()).loss_db(2450.0) for d in (1, 2, 5, 10, 20, 50)]
        assert losses == sorted(losses)

    def test_additive_in_obstacles(self):
        base = RadioPath(10.0, ()).loss_db(2450.0)
        assert RadioPath(10.0, (5.0,)).loss_db(2450.0) == pytest.approx(base + 5.0)
        assert RadioPath(10.0, (5.0, 5.0)).loss_db(2450.0) == pytest.approx(base + 10.0)

    def test_distance_clamped_at_5cm(self):
        at_5cm = RadioPath(0.05, ()).loss_db(2450.0)
        assert RadioPath(0.0, ()).loss_db(2450.0) == RadioPath(0.01, ()).loss_db(2450.0) == at_5cm
        assert RadioPath(0.0, ()).distance_m == 0.0  # the clamp applies to the loss, not the distance

    def test_radio_path_losses_in_obstacle_order(self):
        brick = Obstacle(Material.BRICK, Wall(2, -1, 2, 1))
        glass = Obstacle(Material.GLASS, Wall(4, -1, 4, 1), loss_db=7.0)
        far = Obstacle(Material.CONCRETE, Wall(20, -1, 20, 1))
        assert _radio_path((0, 0), (3, 4), []) == RadioPath(5.0, ())
        paths = radio_paths([(0, 0), (10, 3), (3, 0)], (10, 0), [glass, far, brick],
                            {**DEFAULT_MATERIAL_LOSS_DB, Material.BRICK: 4.0})
        assert paths == [RadioPath(10.0, (7.0, 4.0)), RadioPath(3.0, ()), RadioPath(7.0, (7.0,))]
        assert radio_paths([], (10, 0), [glass, far, brick], DEFAULT_MATERIAL_LOSS_DB) == []

    def test_aluminum_kills_link(self):
        wall = Obstacle(Material.ALUMINUM_SIDING, Wall(-5, -5, -5, 5))
        link = _radio_path((0, 0), (-10, 0), [wall])
        assert -10.0 - link.loss_db(2450.0) < -92.0
        assert _bind_then_evaluate(-10.0, link, ChannelSpec.wpan(20), []) == 0.0


class TestGeometry:
    def test_wall_crossing(self):
        wall = Obstacle(Material.DRYWALL, Wall(5, -5, 5, 5))
        assert crossed_obstacles([(0, 0), (4, 0), (10, 6)], (10, 0), [wall]) == [[wall], [wall], []]
        assert crossed_obstacles([(0, 0)], (4, 0), [wall]) == [[]]
        assert crossed_obstacles([(0, 6)], (10, 6), [wall]) == [[]]

    def test_disc_crossing(self):
        disc = Obstacle(Material.METAL_APPLIANCE, Disc(5, 0, 1.0))
        assert crossed_obstacles([(0, 0), (0, 2)], (10, 0), [disc]) == [[disc], [disc]]
        assert crossed_obstacles([(0, 2)], (10, 2), [disc]) == [[]]

    def test_plant_near_field_rule(self):
        plant = Obstacle(Material.PLANT_FOLIAGE, Disc(5, 0, 0.3))
        # endpoint within 0.5 m of the foliage: counts
        assert crossed_obstacles([(0, 0)], (5.5, 0), [plant]) == [[plant]]
        # same crossing geometry but both endpoints far away: ignored
        assert crossed_obstacles([(0, 0)], (10, 0), [plant]) == [[]]


_MATERIALS = st.sampled_from([Material.DRYWALL, Material.BRICK, Material.PLANT_FOLIAGE])
_NEAR_FIELDS = st.none() | st.floats(0.0, 3.0)
_COORDS = st.floats(-20.0, 20.0)
_POINTS = st.tuples(_COORDS, _COORDS)
_SHAPES = st.builds(Wall, _COORDS, _COORDS, _COORDS, _COORDS) | st.builds(Disc, _COORDS, _COORDS, st.floats(0.0, 3.0))
_GRID = st.tuples(st.integers(-3, 3).map(float), st.integers(-3, 3).map(float))


@st.composite
def _grid_cases(draw):
    """Paths to one receiver and obstacles with every coordinate on an integer
    grid (or half-way between two grid points, still exact), so orientations
    are exactly 0 as often as not: walls through and ending at the nodes,
    walls ending half-way along a path, zero-length walls and walls collinear
    with a path, each with its ends in either order."""
    rx = draw(_GRID)
    sources = draw(st.lists(_GRID, max_size=4))
    nodes = [rx, *sources]
    obstacles = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["free", "from_node", "on_path", "zero_length", "through_node", "collinear",
                                     "disc"]))
        node, a, b = draw(st.sampled_from(nodes)), draw(_GRID), draw(_GRID)
        if kind == "from_node":
            a = node
        elif kind == "on_path":
            a = ((node[0] + rx[0]) / 2.0, (node[1] + rx[1]) / 2.0)
        elif kind == "zero_length":
            a = b = draw(st.sampled_from([a, node]))
        elif kind == "through_node":
            a, b = (node[0] - a[0], node[1] - a[1]), (node[0] + a[0], node[1] + a[1])
        elif kind == "collinear":  # two points on the line through a node and the receiver
            s, t = draw(st.integers(-2, 3)), draw(st.integers(-2, 3))
            a = (node[0] + s * (rx[0] - node[0]), node[1] + s * (rx[1] - node[1]))
            b = (node[0] + t * (rx[0] - node[0]), node[1] + t * (rx[1] - node[1]))
        if draw(st.booleans()):
            a, b = b, a
        shape = Disc(*a, float(draw(st.integers(0, 2)))) if kind == "disc" else Wall(*a, *b)
        obstacles.append(Obstacle(draw(_MATERIALS), shape, near_field_m=draw(_NEAR_FIELDS)))
    return sources, rx, obstacles


class TestCrossingMatchesReference:
    """Every path to a receiver must cross the obstacles the scalar reference finds, in obstacle order."""

    @staticmethod
    def _check(sources, rx, obstacles):
        got = crossed_obstacles(sources, rx, obstacles)
        expected = [rf_reference.crossed_obstacles(p, rx, obstacles) for p in sources]
        assert [[id(ob) for ob in hits] for hits in got] == [[id(ob) for ob in hits] for hits in expected]

    @settings(max_examples=200, deadline=None)
    @given(sources=st.lists(_POINTS, max_size=5), rx=_POINTS,
           obstacles=st.lists(st.builds(Obstacle, _MATERIALS, _SHAPES, st.none(), _NEAR_FIELDS), max_size=8))
    def test_random_floats(self, sources, rx, obstacles):
        self._check(sources, rx, obstacles)

    @settings(max_examples=400, deadline=None)
    @given(case=_grid_cases())
    @example(case=([], (0.0, 0.0), []))
    @example(case=([(1.0, 0.0)], (0.0, 0.0), []))
    @example(case=([(1.0, 0.0)], (0.0, 0.0), [Obstacle(Material.DRYWALL, Wall(2.0, 0.0, -1.0, 0.0))]))
    @example(case=([(1.0, 1.0)], (0.0, 0.0), [Obstacle(Material.DRYWALL, Wall(1.0, 1.0, 1.0, 1.0))]))
    @example(case=([(1.0, 1.0)], (0.0, 0.0), [Obstacle(Material.DRYWALL, Wall(2.0, 2.0, 3.0, 3.0))]))
    # a path that only touches a wall: from inside it, into it, or with a wall's end on the path
    @example(case=([(0.0, 0.0)], (1.0, 0.0), [Obstacle(Material.DRYWALL, Wall(0.0, -1.0, 0.0, 1.0))]))
    @example(case=([(1.0, 0.0)], (0.0, 0.0), [Obstacle(Material.DRYWALL, Wall(0.0, -1.0, 0.0, 1.0))]))
    @example(case=([(0.0, 0.0)], (2.0, 0.0), [Obstacle(Material.DRYWALL, Wall(1.0, -1.0, 1.0, 0.0))]))
    @example(case=([(0.0, 0.0)], (2.0, 0.0), [Obstacle(Material.DRYWALL, Wall(1.0, 0.0, 1.0, -1.0))]))
    def test_integer_grid(self, case):
        self._check(*case)


class TestMessageSuccess:
    LINK = RadioPath(5.0, ())  # (0, 0) -> (5, 0) in the open
    RX = (5.0, 0.0)

    def test_clean_channel_is_exactly_one(self):
        assert _bind_then_evaluate(0.0, self.LINK, ChannelSpec.wpan(20), []) == 1.0

    def test_negative_margin_is_zero(self):
        link = RadioPath(1.0, (100.0,))
        assert -10.0 - link.loss_db(2450.0) < -92.0
        assert _bind_then_evaluate(-10.0, link, ChannelSpec.wpan(20), []) == 0.0

    def test_requires_wpan_victim(self):
        with pytest.raises(ParameterError):
            _bind_then_evaluate(0.0, self.LINK, ChannelSpec.wlan(6), [])

    def _interferer(self, af=0.5, power=15.0, pos=(5.0, 1.0), enabled=True):
        it = Interferer(ChannelSpec.wlan(6), pos, power, af, enabled=enabled)
        return it, _radio_path(it.position, self.RX, [])

    def test_monotone_in_activity_factor(self):
        victim = ChannelSpec.wpan(17)
        last = 1.1
        for af in (0.1, 0.3, 0.5, 0.9):
            p = _bind_then_evaluate(0.0, self.LINK, victim, [self._interferer(af)])
            assert p < last
            last = p

    def test_monotone_in_tx_power(self):
        victim = ChannelSpec.wpan(17)
        interferer = self._interferer()
        p_low = _bind_then_evaluate(-10.0, self.LINK, victim, [interferer])
        p_high = _bind_then_evaluate(0.0, self.LINK, victim, [interferer])
        assert p_high >= p_low

    def test_disabled_equals_removed(self):
        victim = ChannelSpec.wpan(17)
        p_disabled = _bind_then_evaluate(0.0, self.LINK, victim, [self._interferer(enabled=False)])
        p_removed = _bind_then_evaluate(0.0, self.LINK, victim, [])
        assert p_disabled == p_removed == 1.0

    def test_no_spectral_overlap_no_effect(self):
        p = _bind_then_evaluate(0.0, self.LINK, ChannelSpec.wpan(11), [self._interferer()])
        assert p == 1.0  # wlan 6 does not reach 2405 MHz

    def test_influence_radius(self):
        oven = Interferer(ChannelSpec.microwave_oven(), (20.0, 0.0), 0.0, 0.5, influence_radius_m=2.0)
        path = _radio_path(oven.position, self.RX, [])
        p = _bind_then_evaluate(0.0, self.LINK, ChannelSpec.wpan(20), [(oven, path)])
        assert p == 1.0

    def test_influence_radius_tests_the_unclamped_distance(self):
        oven = Interferer(ChannelSpec.microwave_oven(), self.RX, 0.0, 0.5, influence_radius_m=0.01)
        inside, outside = RadioPath(0.0, ()), RadioPath(0.02, ())
        assert inside.loss_db(2450.0) == outside.loss_db(2450.0)  # both clamped to 5 cm
        victim = ChannelSpec.wpan(20)
        assert _bind_then_evaluate(0.0, self.LINK, victim, [(oven, inside)]) < 1.0
        assert _bind_then_evaluate(0.0, self.LINK, victim, [(oven, outside)]) == 1.0

    def test_oven_peaks_at_2450(self):
        oven = Interferer(ChannelSpec.microwave_oven(), (5.2, 0.0), -30.0, 0.5, influence_radius_m=2.0)
        pair = (oven, _radio_path(oven.position, self.RX, []))
        probs = {ch: _bind_then_evaluate(-10.0, self.LINK, ChannelSpec.wpan(ch), [pair]) for ch in (19, 20, 21)}
        assert probs[20] < probs[19]
        assert probs[20] < probs[21]

    def test_probability_bounds(self):
        heavy = [self._interferer(af=1.0, power=30.0) for _ in range(8)]
        p = _bind_then_evaluate(0.0, self.LINK, ChannelSpec.wpan(17), heavy)
        assert 0.0 <= p <= 1.0


_WLAN = st.integers(1, 11).map(ChannelSpec.wlan)
_CHANNELS = st.one_of(_WLAN, _WLAN, st.just(ChannelSpec.microwave_oven()), st.integers(11, 26).map(ChannelSpec.wpan))
# Up to 80 dB of obstacles, so links also fall below the sensitivity floor; 0 m is clamped to 5 cm.
_PATHS = st.builds(RadioPath, st.floats(0.0, 30.0), st.lists(st.floats(0.0, 40.0), max_size=2).map(tuple))
# Anywhere within the fit's bounds, or the defaults.
_CALIBRATIONS = st.just(DEFAULT_CALIBRATION) | st.builds(
    InterferenceCalibration, st.floats(0.0, 40.0), st.floats(0.5, 15.0), st.floats(0.05, 10.0), st.floats(0.05, 10.0)
)


@st.composite
def _settings(draw, channels):
    """Interferers on the given channels, with what may change after binding drawn anew."""
    return [
        Interferer(
            channel,
            (0.0, 0.0),
            draw(st.floats(-40.0, 30.0)),
            draw(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0)),
            enabled=draw(st.booleans()),
            influence_radius_m=draw(st.none() | st.floats(0.0, 50.0)),
        )
        for channel in channels
    ]


class TestReceptionMatchesReference:
    """The two stages must give the one-call reference's probability bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), victim=st.integers(11, 26).map(ChannelSpec.wpan), link=_PATHS,
           channels=st.lists(_CHANNELS, min_size=1, max_size=6))
    def test_bind_once_evaluate_many(self, data, victim, link, channels):
        paths = [data.draw(_PATHS) for _ in channels]
        tx_power_dbm = data.draw(st.floats(-40.0, 30.0))
        reception = Reception.bind(link, victim, tx_power_dbm,
                                   [_placed(channel, path) for channel, path in zip(channels, paths)])
        for _ in range(3):  # one binding serves every setting, as in the calibration fit
            interferers = data.draw(_settings(channels))
            calibration = data.draw(_CALIBRATIONS)
            pairs = list(zip(interferers, paths))
            expected = rf_reference.message_success_prob(tx_power_dbm, link, victim, pairs, calibration)
            assert reception.success_prob(interferers, calibration) == expected

    def test_every_channel_pair_alone(self):
        # One strong interferer at a time keeps the low bits of its power factor in the result.
        link = RadioPath(6.0, (3.0,))
        channels = [ChannelSpec.wlan(i) for i in WLAN_INDEX_RANGE] + [ChannelSpec.microwave_oven()]
        channels += [ChannelSpec.wpan(i) for i in WPAN_INDEX_RANGE]
        calibrations = (DEFAULT_CALIBRATION, InterferenceCalibration(9.5, 4.25, 0.37, 2.9))
        for victim in (ChannelSpec.wpan(i) for i in WPAN_INDEX_RANGE):
            for k, channel in enumerate(channels):
                path = RadioPath(0.5 + 0.37 * k, (0.5,) * (k % 3))
                reception = Reception.bind(link, victim, -3.0, [_placed(channel, path)])
                for power in range(-30, 31, 4):
                    for af in (1.0, 0.61):
                        it = Interferer(channel, (0.0, 0.0), power + 0.1 * k, af)
                        for calibration in calibrations:
                            expected = rf_reference.message_success_prob(-3.0, link, victim, [(it, path)], calibration)
                            assert reception.success_prob([it], calibration) == expected

    def test_reference_reaches_every_branch(self):
        # a link below the floor, a disabled, an idle, a distant and a live interferer
        victim, wlan = ChannelSpec.wpan(12), ChannelSpec.wlan(1)
        near, far = RadioPath(1.0, ()), RadioPath(30.0, (5.0,))
        live = Interferer(wlan, (0.0, 0.0), 15.0, 0.5, influence_radius_m=10.0)
        pairs = [(replace(live, enabled=False), near), (replace(live, activity_factor=0.0), near), (live, far),
                 (live, near)]
        for tx_power_dbm, link in ((0.0, RadioPath(5.0, ())), (-10.0, RadioPath(1.0, (100.0,)))):
            expected = rf_reference.message_success_prob(tx_power_dbm, link, victim, pairs)
            reception = Reception.bind(link, victim, tx_power_dbm, [_placed(it.channel, path) for it, path in pairs])
            assert reception.success_prob([it for it, _ in pairs]) == expected
        assert 0.0 < rf_reference.message_success_prob(0.0, RadioPath(5.0, ()), victim, pairs) < 1.0

    def test_floor_and_radius_edges(self):
        victim, link = ChannelSpec.wpan(20), RadioPath(5.0, ())
        oven = Interferer(ChannelSpec.microwave_oven(), (0.0, 0.0), -20.0, 0.5, influence_radius_m=2.0)
        pairs = [(oven, RadioPath(2.0, ()))]  # exactly at the influence radius: it counts
        placed = [_placed(oven.channel, RadioPath(2.0, ()))]
        tx_power_dbm = link.loss_db(victim.center_mhz) + RECEIVER_SENSITIVITY_DBM
        for _ in range(3):
            tx_power_dbm = math.nextafter(tx_power_dbm, -math.inf)
        probs = []
        for _ in range(6):  # ulp by ulp across the sensitivity floor, one binding per power
            expected = rf_reference.message_success_prob(tx_power_dbm, link, victim, pairs)
            probs.append(Reception.bind(link, victim, tx_power_dbm, placed).success_prob([oven]))
            assert probs[-1] == expected
            tx_power_dbm = math.nextafter(tx_power_dbm, math.inf)
        assert probs[0] == 0.0 and 0.0 < probs[-1] < 1.0

    def test_interferer_on_another_channel_rejected(self):
        bound = Reception.bind(RadioPath(5.0, ()), ChannelSpec.wpan(12), 0.0,
                               [_placed(ChannelSpec.wlan(1), RadioPath(3.0, ()))])
        equal = Interferer(ChannelSpec.wlan(1), (0.0, 0.0), 15.0, 0.5)  # an equal channel, not the bound object
        assert bound.success_prob([equal]) == rf_reference.message_success_prob(
            0.0, RadioPath(5.0, ()), ChannelSpec.wpan(12), [(equal, RadioPath(3.0, ()))])
        with pytest.raises(ParameterError, match="interferer on wlan channel 2 was bound on wlan channel 1"):
            bound.success_prob([replace(equal, channel=ChannelSpec.wlan(2))])
        with pytest.raises(ParameterError, match="bound with 1 interferer"):
            bound.success_prob([equal, equal])


_OVEN = {"channel": ChannelSpec.microwave_oven(), "position": (0.0, 0.0), "tx_power_dbm": 0.0, "activity_factor": 0.5}


# Per case: (id, field, value, the message). Every `Interferer` field has at least one.
_BAD_FIELDS = [
    ("channel-int", "channel", 6, "channel must be a ChannelSpec, got int"),
    ("position-inf", "position", (1.0, math.inf), "position must be an (x, y) tuple of finite numbers, got (1.0, inf)"),
    ("position-str", "position", "ab", "position must be an (x, y) tuple of finite numbers, got 'ab'"),
    ("position-triple", "position", (1.0, 2.0, 3.0),
     "position must be an (x, y) tuple of finite numbers, got (1.0, 2.0, 3.0)"),
    ("activity-str", "activity_factor", "x", "activity_factor must be a finite number in [0, 1], got 'x'"),
    ("activity-bool", "activity_factor", True, "activity_factor must be a finite number in [0, 1], got True"),
    ("activity-nan", "activity_factor", math.nan, "activity_factor must be a finite number in [0, 1], got nan"),
    ("enabled-str", "enabled", "no", "enabled must be a bool, got str"),
    ("enabled-int", "enabled", 1, "enabled must be a bool, got int"),
    ("power-nan", "tx_power_dbm", math.nan, "tx_power_dbm must be a finite number, got nan"),
    ("power-inf", "tx_power_dbm", -math.inf, "tx_power_dbm must be a finite number, got -inf"),
    ("power-str", "tx_power_dbm", "0", "tx_power_dbm must be a finite number, got '0'"),
    ("power-bool", "tx_power_dbm", True, "tx_power_dbm must be a finite number, got True"),
    ("radius-negative", "influence_radius_m", -1.0, "influence_radius_m must be a finite number in [0, inf], got -1.0"),
    ("radius-nan", "influence_radius_m", math.nan, "influence_radius_m must be a finite number in [0, inf], got nan"),
    ("radius-inf", "influence_radius_m", math.inf, "influence_radius_m must be a finite number in [0, inf], got inf"),
    ("radius-str", "influence_radius_m", "2", "influence_radius_m must be a finite number in [0, inf], got '2'"),
]


@pytest.mark.parametrize("field, value, message", [case[1:] for case in _BAD_FIELDS],
                         ids=[case[0] for case in _BAD_FIELDS])
def test_interferer_rejects_a_bad_field(field, value, message):
    # a nan oven power, put in apartment_microwave, read as no oven: delivery 1.0 on channel 20
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        Interferer(**{**_OVEN, field: value})
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        replace(Interferer(**_OVEN), **{field: value})


def test_bad_field_cases_cover_every_interferer_field():
    assert {field for _, field, _, _ in _BAD_FIELDS} == {f.name for f in fields(Interferer)}


def test_interferer_takes_edge_values():
    for field, value in (("enabled", False), ("tx_power_dbm", -200), ("influence_radius_m", 0.0),
                         ("influence_radius_m", 0), ("influence_radius_m", None)):
        assert getattr(Interferer(**{**_OVEN, field: value}), field) == value
