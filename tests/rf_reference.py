"""Scalar references of the RF model, the oracles that `bsnsim.rf` is checked
against.

`crossed_obstacles` tests one path against one obstacle at a time, with the
segment test as plain float arithmetic: `_orient`, `_segments_intersect` and
`_on_segment`. `bsnsim.rf.crossed_obstacles` tests every path to a receiver
against every wall at once and must give the same obstacles. Discs and the
near-field rule come from `bsnsim.rf`, which keeps them scalar.

`message_success_prob` judges one victim channel against the link's path and
each (interferer, path) pair in a single pass, as directly as the model reads:
the oracle that the two-stage `bsnsim.rf.Reception` (bind, then evaluate) is
checked against. It keeps its own `spectral_overlap`, the intersection that
`Reception.bind` computes inline, and shares the path loss, spectral mask and
logistic of `bsnsim.rf`, so the differential tests compare what is computed
when and in which order, not two copies of one formula.
"""

from __future__ import annotations

from typing import Sequence

from bsnsim.errors import ParameterError
from bsnsim.rf import (
    DEFAULT_CALIBRATION,
    RECEIVER_SENSITIVITY_DBM,
    ChannelSpec,
    InterferenceCalibration,
    Interferer,
    Obstacle,
    Point,
    RadioPath,
    RadioStandard,
    Wall,
    _endpoint_distance,
    _point_segment_distance,
    interference_power_factor,
    spectral_weight_db,
)


def spectral_overlap(a: ChannelSpec, b: ChannelSpec) -> float:
    """Width in MHz of the intersection of two occupied-frequency intervals."""
    lo = max(a.center_mhz - a.occupied_bw_mhz / 2.0, b.center_mhz - b.occupied_bw_mhz / 2.0)
    hi = min(a.center_mhz + a.occupied_bw_mhz / 2.0, b.center_mhz + b.occupied_bw_mhz / 2.0)
    return max(0.0, hi - lo)


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)):
        return True
    # collinear touches count as a crossing
    for d, a, b, c in ((d1, q1, q2, p1), (d2, q1, q2, p2), (d3, p1, p2, q1), (d4, p1, p2, q2)):
        if d == 0 and _on_segment(a, b, c):
            return True
    return False


def _on_segment(a: Point, b: Point, c: Point) -> bool:
    return min(a[0], b[0]) <= c[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= c[1] <= max(a[1], b[1])


def crossed_obstacles(p1: Point, p2: Point, obstacles: Sequence[Obstacle]) -> list[Obstacle]:
    """Obstacles whose geometry intersects the straight path p1 -> p2, in
    obstacle order; near-field-only materials count only when an endpoint lies
    within their near-field distance of the obstacle."""
    hit = []
    for ob in obstacles:
        shape = ob.shape
        if isinstance(shape, Wall):
            crosses = _segments_intersect(p1, p2, (shape.x1, shape.y1), (shape.x2, shape.y2))
        else:
            crosses = _point_segment_distance((shape.x, shape.y), p1, p2) <= shape.radius
        if not crosses:
            continue
        near = ob.effective_near_field_m()
        if near is not None:
            if min(_endpoint_distance(ob.shape, p1), _endpoint_distance(ob.shape, p2)) > near:
                continue
        hit.append(ob)
    return hit


def message_success_prob(
    tx_power_dbm: float,
    link: RadioPath,
    victim: ChannelSpec,
    interferers: Sequence[tuple[Interferer, RadioPath]],
    calibration: InterferenceCalibration = DEFAULT_CALIBRATION,
) -> float:
    """Probability that one message on the victim channel is delivered over
    the link, with each interferer reaching the receiver over its path.

    Zero below the sensitivity floor; otherwise the product over active
    interferers of their independent per-message survival terms.
    """
    if victim.standard is not RadioStandard.WPAN_154:
        raise ParameterError("victim channel must be an 802.15.4 channel")
    rx_power_dbm = tx_power_dbm - link.loss_db(victim.center_mhz)
    if rx_power_dbm - RECEIVER_SENSITIVITY_DBM < 0:
        return 0.0
    p = 1.0
    for it, path in interferers:
        if not it.enabled or it.activity_factor <= 0.0:
            continue
        overlap = spectral_overlap(victim, it.channel)
        if overlap <= 0.0:
            continue
        if it.influence_radius_m is not None and path.distance_m > it.influence_radius_m:
            continue
        i_rx = (
            it.tx_power_dbm
            - path.loss_db(it.channel.center_mhz)
            + spectral_weight_db(it.channel.standard, victim.center_mhz - it.channel.center_mhz, calibration)
        )
        isr = i_rx - rx_power_dbm
        pf = interference_power_factor(isr, calibration)
        p *= 1.0 - min(1.0, it.activity_factor) * (overlap / victim.occupied_bw_mhz) * pf
    return max(0.0, min(1.0, p))
