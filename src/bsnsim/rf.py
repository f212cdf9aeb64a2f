"""2.4 GHz spectrum model: channel geometry, radio paths with material
attenuation, and per-message success probability under interference.

Placement and channel are kept apart. A `RadioPath` holds what placement
alone decides, the distance and the crossed obstacles' losses, and gives its
loss at any frequency. `radio_paths` places every path to one receiver in one
call: `crossed_obstacles` tests all of them against every wall at once, as
numpy arrays. A channel is judged in two stages: `Reception.bind` fixes the
victim channel and the link's tx power against the link's path and each
interferer as placed (its channel, its path to the receiver and that path's
loss at its own centre), and checks the tx power, once per binding.
`Reception.success_prob` applies what can still change: enabled flags,
activity factors, interferer powers, influence radii and the calibration
constants. A scan or an echo test binds each channel once; the calibration
fit binds each target once and evaluates it per optimizer step.

The interferers must be the ones placed, in the same order and on the same
channels. `linksim.Direction.reception` binds them by name, and
`Reception.success_prob`, on every call (the fit's too), is the one channel
check. Positions are not checked: a moved interferer needs a new placement.

Channel plans
    802.15.4: channels 11..26, center 2405 + 5*(index-11) MHz, 2 MHz occupied.
    802.11b/g: channels 1..11, center 2412 + 5*(index-1) MHz, 25 MHz occupied.
    Microwave oven: fixed 2450 MHz emission, 20 MHz wide.
The plan's one home is three tables built at import, `_WPAN_CHANNELS`,
`_WLAN_CHANNELS` and `_OVEN_CHANNEL`. `ChannelSpec.wpan`, `.wlan` and
`.microwave_oven` return their instance, so equal channels are usually the
same object.

A message on a clear link always succeeds while the received power stays
above the -92 dBm sensitivity floor. Each active interferer then knocks out
messages independently with probability

    activity_factor * (spectral overlap / victim bandwidth) * power_factor

where the power factor is a logistic function of the interferer-to-signal
power ratio seen at the receiver, evaluated with a per-standard spectral
mask so off-center interferer energy counts at reduced weight. The logistic
midpoint/scale and the oven spectral slopes are calibration constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import ParameterError, finite_point, integer, require_finite, require_positive, require_type

Point = tuple[float, float]

RECEIVER_SENSITIVITY_DBM = -92.0
WPAN_INDEX_RANGE = range(11, 27)
WLAN_INDEX_RANGE = range(1, 12)


class RadioStandard(Enum):
    WPAN_154 = "wpan"
    WLAN_80211 = "wlan"
    MICROWAVE_OVEN = "oven"


@dataclass(frozen=True)
class ChannelSpec:
    standard: RadioStandard
    index: int
    center_mhz: float
    occupied_bw_mhz: float

    @classmethod
    def wpan(cls, index: int) -> "ChannelSpec":
        return _planned(_WPAN_CHANNELS, "802.15.4", index)

    @classmethod
    def wlan(cls, index: int) -> "ChannelSpec":
        return _planned(_WLAN_CHANNELS, "802.11", index)

    @classmethod
    def microwave_oven(cls) -> "ChannelSpec":
        return _OVEN_CHANNEL


_WPAN_CHANNELS = {i: ChannelSpec(RadioStandard.WPAN_154, i, 2405.0 + 5.0 * (i - 11), 2.0) for i in WPAN_INDEX_RANGE}
_WLAN_CHANNELS = {i: ChannelSpec(RadioStandard.WLAN_80211, i, 2412.0 + 5.0 * (i - 1), 25.0) for i in WLAN_INDEX_RANGE}
_OVEN_CHANNEL = ChannelSpec(RadioStandard.MICROWAVE_OVEN, 0, 2450.0, 20.0)


def _planned(channels: Mapping[int, ChannelSpec], plan: str, index: int) -> ChannelSpec:
    """The one place a channel number becomes a channel; a non-integer, a bool too, or one outside the plan raises."""
    if integer(index):
        try:
            return channels[index]
        except KeyError:
            raise ParameterError(f"{plan} channel must be {min(channels)}..{max(channels)}, got {index}") from None
    raise ParameterError(f"channel index must be an integer, got {index!r}")


class Material(Enum):
    DRYWALL = "drywall"
    PLYWOOD = "plywood"
    GLASS = "glass"
    BRICK = "brick"
    CONCRETE = "concrete"
    ALUMINUM_SIDING = "aluminum_siding"
    METAL_APPLIANCE = "metal_appliance"
    PLANT_FOLIAGE = "plant_foliage"


# Per-traversal attenuation. Drywall/plywood/glass/brick/concrete follow the
# NIST construction-material figures; the appliance and foliage entries are
# fitted so the qualitative home-test outcomes emerge. An obstacle's own
# `loss_db` overrides its material's entry; a scenario file's `[materials]`
# block sets it.
DEFAULT_MATERIAL_LOSS_DB: dict[Material, float] = {
    Material.DRYWALL: 0.5,
    Material.PLYWOOD: 0.5,
    Material.GLASS: 3.0,
    Material.BRICK: 5.0,
    Material.CONCRETE: 30.0,
    Material.ALUMINUM_SIDING: 40.0,
    Material.METAL_APPLIANCE: 12.0,
    Material.PLANT_FOLIAGE: 15.0,
}

# Foliage scatters only in the near field: the loss applies when an endpoint
# of the path sits within this distance of the obstacle.
DEFAULT_NEAR_FIELD_M: dict[Material, float] = {
    Material.PLANT_FOLIAGE: 0.5,
}


@dataclass(frozen=True)
class Wall:
    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        require_finite("wall x1", self.x1)
        require_finite("wall y1", self.y1)
        require_finite("wall x2", self.x2)
        require_finite("wall y2", self.y2)


@dataclass(frozen=True)
class Disc:
    x: float
    y: float
    radius: float

    def __post_init__(self):
        require_finite("disc x", self.x)
        require_finite("disc y", self.y)
        require_finite("disc radius", self.radius, 0.0)


@dataclass(frozen=True)
class Obstacle:
    """A wall or disc of one material. Every construction checks every field,
    the same rules the scenario parser applies to a file."""

    material: Material
    shape: Wall | Disc
    loss_db: float | None = None          # None: use the material default
    near_field_m: float | None = None     # None: use the material default

    def __post_init__(self):
        require_type("material", self.material, Material)
        require_type("shape", self.shape, (Wall, Disc))
        if self.loss_db is not None:
            require_finite("loss_db", self.loss_db)
        if self.near_field_m is not None:
            require_finite("near_field_m", self.near_field_m, 0.0)

    def effective_loss_db(self) -> float:
        return DEFAULT_MATERIAL_LOSS_DB[self.material] if self.loss_db is None else self.loss_db

    def effective_near_field_m(self) -> float | None:
        return DEFAULT_NEAR_FIELD_M.get(self.material) if self.near_field_m is None else self.near_field_m


def _point_segment_distance(p: Point, a: Point, b: Point) -> float:
    abx, aby = b[0] - a[0], b[1] - a[1]
    apx, apy = p[0] - a[0], p[1] - a[1]
    denom = abx * abx + aby * aby
    if denom == 0.0:
        return math.hypot(apx, apy)
    t = min(1.0, max(0.0, (apx * abx + apy * aby) / denom))
    return math.hypot(p[0] - (a[0] + t * abx), p[1] - (a[1] + t * aby))


def _endpoint_distance(shape: Wall | Disc, p: Point) -> float:
    if isinstance(shape, Wall):
        return _point_segment_distance(p, (shape.x1, shape.y1), (shape.x2, shape.y2))
    return max(0.0, math.hypot(p[0] - shape.x, p[1] - shape.y) - shape.radius)


def _crossed_walls(sources: Sequence[Point], rx: Point, walls: Sequence[Wall]) -> list[tuple[int, int]]:
    """(source, wall) index pairs whose path source -> rx intersects the wall,
    collinear touches included, in row-major order.

    Each orientation is (b0 - a0) * (c1 - a1) - (b1 - a1) * (c0 - a0) and
    each bounding-box test uses <=, as elementwise float64 operations, so every
    result matches the same test run one pair at a time in Python floats.
    """
    s = np.array(sources, dtype=float).reshape(-1, 2)
    sx, sy = s[:, :1], s[:, 1:]  # one row per source
    ax, ay, bx, by = np.array([(w.x1, w.y1, w.x2, w.y2) for w in walls], dtype=float).T  # one column per wall
    rx0, rx1 = rx
    wx, wy = bx - ax, by - ay  # each wall's b - a
    px, py = rx0 - sx, rx1 - sy  # each path's b - a
    d1 = wx * (sy - ay) - wy * (sx - ax)  # the source against the wall
    d2 = wx * (rx1 - ay) - wy * (rx0 - ax)  # the receiver against the wall
    d3 = px * (ay - sy) - py * (ax - sx)  # the wall's ends against the path
    d4 = px * (by - sy) - py * (bx - sx)
    hit = ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))
    z1, z2, z3, z4 = d1 == 0, d2 == 0, d3 == 0, d4 == 0
    if z1.any() or z2.any() or z3.any() or z4.any():
        # collinear touches count as a crossing: a zero orientation whose point lies in the other segment's box
        wx0, wx1, wy0, wy1 = np.minimum(ax, bx), np.maximum(ax, bx), np.minimum(ay, by), np.maximum(ay, by)
        px0, px1, py0, py1 = np.minimum(sx, rx0), np.maximum(sx, rx0), np.minimum(sy, rx1), np.maximum(sy, rx1)
        hit |= z1 & (wx0 <= sx) & (sx <= wx1) & (wy0 <= sy) & (sy <= wy1)
        hit |= z2 & (wx0 <= rx0) & (rx0 <= wx1) & (wy0 <= rx1) & (rx1 <= wy1)
        hit |= z3 & (px0 <= ax) & (ax <= px1) & (py0 <= ay) & (ay <= py1)
        hit |= z4 & (px0 <= bx) & (bx <= px1) & (py0 <= by) & (by <= py1)
    rows, cols = np.nonzero(hit)
    return list(zip(rows.tolist(), cols.tolist()))


def crossed_obstacles(sources: Sequence[Point], rx: Point, obstacles: Sequence[Obstacle]) -> list[list[Obstacle]]:
    """Per source, the obstacles whose geometry intersects the straight path
    source -> rx, in obstacle order.

    Every path is tested against every wall at once; discs are tested one
    path at a time. Near-field-only materials count only when an endpoint
    lies within their near-field distance of the obstacle.
    """
    hits: list[set[int]] = [set() for _ in sources]
    walls = [k for k, ob in enumerate(obstacles) if isinstance(ob.shape, Wall)]
    if walls and sources:
        for i, w in _crossed_walls(sources, rx, [obstacles[k].shape for k in walls]):
            hits[i].add(walls[w])
    for k, ob in enumerate(obstacles):
        shape = ob.shape
        if isinstance(shape, Disc):
            for p, hit in zip(sources, hits):
                if _point_segment_distance((shape.x, shape.y), p, rx) <= shape.radius:
                    hit.add(k)
    crossed = []
    for p, hit in zip(sources, hits):
        kept = []
        for k in sorted(hit):
            ob = obstacles[k]
            near = ob.effective_near_field_m()
            if near is not None and min(_endpoint_distance(ob.shape, p), _endpoint_distance(ob.shape, rx)) > near:
                continue
            kept.append(ob)
        crossed.append(kept)
    return crossed


@dataclass(frozen=True)
class RadioPath:
    """The straight path from a transmitter to a receiver, without a channel."""

    distance_m: float  # unclamped, so an influence radius can test it
    losses_db: tuple[float, ...]  # the crossed obstacles' losses, in obstacle order

    def loss_db(self, freq_mhz: float) -> float:
        """Free-space loss 20*log10(d) + 20*log10(f) - 27.55, d at least 5 cm,
        plus the obstacle losses."""
        loss = 20.0 * math.log10(max(self.distance_m, 0.05)) + 20.0 * math.log10(freq_mhz) - 27.55
        for obstacle_loss in self.losses_db:
            loss += obstacle_loss
        return loss


def radio_paths(sources: Sequence[Point], rx: Point, obstacles: Sequence[Obstacle]) -> list[RadioPath]:
    """The path from each source to rx through the obstacles, with each crossed
    obstacle's effective loss, placed in one `crossed_obstacles` call."""
    crossed = crossed_obstacles(sources, rx, obstacles)
    return [RadioPath(math.hypot(rx[0] - p[0], rx[1] - p[1]), tuple(ob.effective_loss_db() for ob in hit))
            for p, hit in zip(sources, crossed)]


@dataclass(frozen=True)
class Interferer:
    """A transmitter on another channel, at a position. Every construction
    checks every field (`dataclasses.replace` included), its numbers by
    `errors.require_finite`, and nothing else checks them again."""

    channel: ChannelSpec
    position: Point
    tx_power_dbm: float
    activity_factor: float
    enabled: bool = True
    influence_radius_m: float | None = None

    def __post_init__(self):
        require_type("channel", self.channel, ChannelSpec)
        if not finite_point(self.position):
            raise ParameterError(f"position must be an (x, y) tuple of finite numbers, got {self.position!r}")
        require_finite("tx_power_dbm", self.tx_power_dbm)
        require_finite("activity_factor", self.activity_factor, 0.0, 1.0)
        require_type("enabled", self.enabled, bool)
        if self.influence_radius_m is not None:
            require_finite("influence_radius_m", self.influence_radius_m, 0.0)


@dataclass(frozen=True)
class InterferenceCalibration:
    """Constants of the collision model, fitted against the home test tables.
    Each is a finite number, and the logistic's scale is above zero."""

    logistic_midpoint_db: float = 14.128051
    logistic_scale_db: float = 2.085178
    oven_slope_low_db_per_mhz: float = 0.829670
    oven_slope_high_db_per_mhz: float = 1.030789

    def __post_init__(self):
        for name, value in vars(self).items():
            require_finite(name, value)
        require_positive("logistic_scale_db", self.logistic_scale_db)


DEFAULT_CALIBRATION = InterferenceCalibration()


def spectral_weight_db(standard: RadioStandard, delta_mhz: float, calib: InterferenceCalibration) -> float:
    """In-band weighting of interferer power at a victim offset from its center.

    802.11 uses a flat main lobe with a steep shoulder; the magnetron
    emission falls off linearly per MHz with independent slopes below and
    above its 2450 MHz peak.
    """
    if standard is RadioStandard.WLAN_80211:
        d = abs(delta_mhz)
        if d <= 9.0:
            return 0.0
        if d <= 11.0:
            return -20.0 * (d - 9.0) / 2.0
        if d <= 22.0:
            return -20.0 - 25.0 * (d - 11.0) / 11.0
        return -45.0
    if standard is RadioStandard.MICROWAVE_OVEN:
        if delta_mhz < 0:
            return -calib.oven_slope_low_db_per_mhz * (-delta_mhz)
        return -calib.oven_slope_high_db_per_mhz * delta_mhz
    return 0.0


def interference_power_factor(isr_db: float, calib: InterferenceCalibration) -> float:
    """Collision effectiveness in [0, 1] as a logistic of the I/S ratio in dB (exp never overflows)."""
    x = (isr_db - calib.logistic_midpoint_db) / calib.logistic_scale_db
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


@dataclass(frozen=True)
class Reception:
    """One victim channel received over a link at one tx power, with each
    interferer's channel and path bound. What the interferers' settings and the
    calibration cannot change is computed once: the link's received power at
    the victim centre and, per interferer that overlaps the victim, its overlap
    fraction and offset. Each interferer's path loss at its own centre comes
    computed at placement, once for every victim channel."""

    rx_power_dbm: float  # the link's tx power less its loss at the victim centre
    channels: tuple[ChannelSpec, ...]  # every bound interferer's channel, in order
    # Per interferer that overlaps the victim, in order: (index among the
    # bound interferers, unclamped path distance, path loss at its own centre,
    # overlap / victim occupied bandwidth, victim centre - its centre).
    overlapping: tuple[tuple[int, float, float, float, float], ...]

    @classmethod
    def bind(cls, link: RadioPath, victim: ChannelSpec, tx_power_dbm: float,
             interferers: Sequence[tuple[ChannelSpec, RadioPath, float]]) -> "Reception":
        """Bind the link, sent at tx_power_dbm, and each interferer to the victim
        channel. An interferer comes as placed: (its channel, its path to the
        receiver, that path's loss at the channel's centre)."""
        if victim.standard is not RadioStandard.WPAN_154:
            raise ParameterError("victim channel must be an 802.15.4 channel")
        require_finite("tx_power_dbm", tx_power_dbm)  # a nan would pass the floor and read as a clear link
        center, width = victim.center_mhz, victim.occupied_bw_mhz
        low, high = center - width / 2.0, center + width / 2.0
        overlapping = []
        for index, (channel, path, loss_db) in enumerate(interferers):
            # the occupied intervals' overlap, conditionals for min and max (same floats): bind runs per scan channel
            half = channel.occupied_bw_mhz / 2.0
            top, bottom = channel.center_mhz + half, channel.center_mhz - half
            overlap = (top if top < high else high) - (bottom if bottom > low else low)
            if overlap > 0.0:
                overlapping.append((index, path.distance_m, loss_db, overlap / width, center - channel.center_mhz))
        return cls(tx_power_dbm - link.loss_db(center), tuple([c for c, _, _ in interferers]), tuple(overlapping))

    def success_prob(self, interferers: Sequence[Interferer],
                     calibration: InterferenceCalibration = DEFAULT_CALIBRATION) -> float:
        """Probability that one message is delivered, with the interferers set as
        given, in the order and on the channels they were bound with. Scans,
        echo tests, star runs and the fit all evaluate here, so this is the
        one calibration check.

        Zero below the sensitivity floor; otherwise the product over active
        interferers of their independent per-message survival terms.
        """
        require_type("calibration", calibration, InterferenceCalibration)
        if len(interferers) != len(self.channels):
            raise ParameterError(f"reception was bound with {len(self.channels)} interferer(s), got {len(interferers)}")
        for it, channel in zip(interferers, self.channels):
            if it.channel is not channel and it.channel != channel:
                raise ParameterError(f"interferer on {it.channel.standard.value} channel {it.channel.index} "
                                     f"was bound on {channel.standard.value} channel {channel.index}")
        rx_power_dbm = self.rx_power_dbm
        if rx_power_dbm - RECEIVER_SENSITIVITY_DBM < 0:
            return 0.0
        p = 1.0
        for index, distance_m, loss_db, overlap_frac, delta_mhz in self.overlapping:
            it = interferers[index]
            if not it.enabled or it.activity_factor <= 0.0:
                continue
            if it.influence_radius_m is not None and distance_m > it.influence_radius_m:
                continue
            i_rx = it.tx_power_dbm - loss_db + spectral_weight_db(it.channel.standard, delta_mhz, calibration)
            isr = i_rx - rx_power_dbm
            pf = interference_power_factor(isr, calibration)
            # min and max below as conditionals, the same floats as min(1.0, a) and max(0.0, min(1.0, p))
            activity = it.activity_factor
            p *= 1.0 - (activity if activity < 1.0 else 1.0) * overlap_frac * pf
        p = p if p < 1.0 else 1.0
        return p if p > 0.0 else 0.0
