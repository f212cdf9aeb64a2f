"""Channel geometry, path loss, and the interference model."""

import pytest

from bsnsim.errors import ParameterError
from bsnsim.rf import (
    ChannelSpec,
    Disc,
    DEFAULT_MATERIAL_LOSS_DB,
    Interferer,
    Material,
    Obstacle,
    RadioPath,
    RadioStandard,
    Wall,
    channel_center_freq,
    crossed_obstacles,
    message_success_prob,
    radio_path,
    spectral_overlap,
)


class TestChannelGeometry:
    @pytest.mark.parametrize(
        "index,center",
        [(12, 2410.0), (19, 2445.0), (20, 2450.0), (21, 2455.0), (22, 2460.0)],
    )
    def test_cited_wpan_centers(self, index, center):
        assert channel_center_freq(RadioStandard.WPAN_154, index) == center

    def test_all_wpan_centers(self):
        for index in range(11, 27):
            assert channel_center_freq(RadioStandard.WPAN_154, index) == 2405 + 5 * (index - 11)

    def test_wlan_centers(self):
        assert channel_center_freq(RadioStandard.WLAN_80211, 1) == 2412.0
        assert channel_center_freq(RadioStandard.WLAN_80211, 6) == 2437.0
        assert channel_center_freq(RadioStandard.WLAN_80211, 11) == 2462.0

    def test_index_range_errors(self):
        with pytest.raises(ParameterError):
            channel_center_freq(RadioStandard.WPAN_154, 10)
        with pytest.raises(ParameterError):
            channel_center_freq(RadioStandard.WPAN_154, 27)
        with pytest.raises(ParameterError):
            channel_center_freq(RadioStandard.WLAN_80211, 0)
        with pytest.raises(ParameterError):
            channel_center_freq(RadioStandard.WLAN_80211, 12)

    def test_overlap_full_containment(self):
        # [2409, 2411] inside [2399.5, 2424.5]
        assert spectral_overlap(ChannelSpec.wpan(12), ChannelSpec.wlan(1)) == pytest.approx(2.0)

    def test_overlap_partial(self):
        # [2449, 2451] vs [2424.5, 2449.5]
        assert spectral_overlap(ChannelSpec.wpan(20), ChannelSpec.wlan(6)) == pytest.approx(0.5)

    def test_self_overlap_is_bandwidth(self):
        ch = ChannelSpec.wpan(15)
        assert spectral_overlap(ch, ch) == pytest.approx(2.0)

    def test_overlap_symmetric_and_disjoint(self):
        a, b = ChannelSpec.wpan(11), ChannelSpec.wlan(11)
        assert spectral_overlap(a, b) == spectral_overlap(b, a) == 0.0


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
        path = radio_path((0, 0), (3, 4), [], DEFAULT_MATERIAL_LOSS_DB)
        assert path == RadioPath(5.0, ())
        path = radio_path((0, 0), (10, 0), [glass, far, brick], {**DEFAULT_MATERIAL_LOSS_DB, Material.BRICK: 4.0})
        assert path == RadioPath(10.0, (7.0, 4.0))

    def test_aluminum_kills_link(self):
        wall = Obstacle(Material.ALUMINUM_SIDING, Wall(-5, -5, -5, 5))
        link = radio_path((0, 0), (-10, 0), [wall], DEFAULT_MATERIAL_LOSS_DB)
        assert -10.0 - link.loss_db(2450.0) < -92.0
        assert message_success_prob(-10.0, link, ChannelSpec.wpan(20), []) == 0.0


class TestGeometry:
    def test_wall_crossing(self):
        wall = Obstacle(Material.DRYWALL, Wall(5, -5, 5, 5))
        assert crossed_obstacles((0, 0), (10, 0), [wall]) == [wall]
        assert crossed_obstacles((0, 0), (4, 0), [wall]) == []
        assert crossed_obstacles((0, 6), (10, 6), [wall]) == []

    def test_disc_crossing(self):
        disc = Obstacle(Material.METAL_APPLIANCE, Disc(5, 0, 1.0))
        assert crossed_obstacles((0, 0), (10, 0), [disc]) == [disc]
        assert crossed_obstacles((0, 2), (10, 2), [disc]) == []

    def test_plant_near_field_rule(self):
        plant = Obstacle(Material.PLANT_FOLIAGE, Disc(5, 0, 0.3))
        # endpoint within 0.5 m of the foliage: counts
        assert crossed_obstacles((0, 0), (5.5, 0), [plant]) == [plant]
        # same crossing geometry but both endpoints far away: ignored
        assert crossed_obstacles((0, 0), (10, 0), [plant]) == []


class TestMessageSuccess:
    LINK = RadioPath(5.0, ())  # (0, 0) -> (5, 0) in the open
    RX = (5.0, 0.0)

    def test_clean_channel_is_exactly_one(self):
        assert message_success_prob(0.0, self.LINK, ChannelSpec.wpan(20), []) == 1.0

    def test_negative_margin_is_zero(self):
        link = RadioPath(1.0, (100.0,))
        assert -10.0 - link.loss_db(2450.0) < -92.0
        assert message_success_prob(-10.0, link, ChannelSpec.wpan(20), []) == 0.0

    def test_requires_wpan_victim(self):
        with pytest.raises(ParameterError):
            message_success_prob(0.0, self.LINK, ChannelSpec.wlan(6), [])

    def _interferer(self, af=0.5, power=15.0, pos=(5.0, 1.0), enabled=True):
        it = Interferer(ChannelSpec.wlan(6), pos, power, af, enabled=enabled)
        return it, radio_path(it.position, self.RX, [], DEFAULT_MATERIAL_LOSS_DB)

    def test_monotone_in_activity_factor(self):
        victim = ChannelSpec.wpan(17)
        last = 1.1
        for af in (0.1, 0.3, 0.5, 0.9):
            p = message_success_prob(0.0, self.LINK, victim, [self._interferer(af)])
            assert p < last
            last = p

    def test_monotone_in_tx_power(self):
        victim = ChannelSpec.wpan(17)
        interferer = self._interferer()
        p_low = message_success_prob(-10.0, self.LINK, victim, [interferer])
        p_high = message_success_prob(0.0, self.LINK, victim, [interferer])
        assert p_high >= p_low

    def test_disabled_equals_removed(self):
        victim = ChannelSpec.wpan(17)
        p_disabled = message_success_prob(0.0, self.LINK, victim, [self._interferer(enabled=False)])
        p_removed = message_success_prob(0.0, self.LINK, victim, [])
        assert p_disabled == p_removed == 1.0

    def test_no_spectral_overlap_no_effect(self):
        p = message_success_prob(0.0, self.LINK, ChannelSpec.wpan(11), [self._interferer()])
        assert p == 1.0  # wlan 6 does not reach 2405 MHz

    def test_influence_radius(self):
        oven = Interferer(ChannelSpec.microwave_oven(), (20.0, 0.0), 0.0, 0.5, influence_radius_m=2.0)
        path = radio_path(oven.position, self.RX, [], DEFAULT_MATERIAL_LOSS_DB)
        p = message_success_prob(0.0, self.LINK, ChannelSpec.wpan(20), [(oven, path)])
        assert p == 1.0

    def test_influence_radius_tests_the_unclamped_distance(self):
        oven = Interferer(ChannelSpec.microwave_oven(), self.RX, 0.0, 0.5, influence_radius_m=0.01)
        inside, outside = RadioPath(0.0, ()), RadioPath(0.02, ())
        assert inside.loss_db(2450.0) == outside.loss_db(2450.0)  # both clamped to 5 cm
        victim = ChannelSpec.wpan(20)
        assert message_success_prob(0.0, self.LINK, victim, [(oven, inside)]) < 1.0
        assert message_success_prob(0.0, self.LINK, victim, [(oven, outside)]) == 1.0

    def test_oven_peaks_at_2450(self):
        oven = Interferer(ChannelSpec.microwave_oven(), (5.2, 0.0), -30.0, 0.5, influence_radius_m=2.0)
        pair = (oven, radio_path(oven.position, self.RX, [], DEFAULT_MATERIAL_LOSS_DB))
        probs = {ch: message_success_prob(-10.0, self.LINK, ChannelSpec.wpan(ch), [pair]) for ch in (19, 20, 21)}
        assert probs[20] < probs[19]
        assert probs[20] < probs[21]

    def test_probability_bounds(self):
        heavy = [self._interferer(af=1.0, power=30.0) for _ in range(8)]
        p = message_success_prob(0.0, self.LINK, ChannelSpec.wpan(17), heavy)
        assert 0.0 <= p <= 1.0
