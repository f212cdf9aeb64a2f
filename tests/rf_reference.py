"""One-call reference of the per-message success probability, the oracle that
the two-stage `bsnsim.rf.Reception` (bind, then evaluate) is checked against.

`message_success_prob` judges one victim channel against the link's path and
each (interferer, path) pair in a single pass, as directly as the model reads.
It shares the overlap (which `Reception.bind` inlines), path loss, spectral
mask and logistic of `bsnsim.rf`, so the differential tests compare what is
computed when and in which order, not two copies of one formula.
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
    RadioPath,
    RadioStandard,
    interference_power_factor,
    spectral_overlap,
    spectral_weight_db,
)


def message_success_prob(
    tx_power_dbm: float,
    link: RadioPath,
    victim: ChannelSpec,
    interferers: Sequence[tuple[Interferer, RadioPath]],
    calibration: InterferenceCalibration | None = None,
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
    calib = calibration or DEFAULT_CALIBRATION
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
            + spectral_weight_db(it.channel.standard, victim.center_mhz - it.channel.center_mhz, calib)
        )
        isr = i_rx - rx_power_dbm
        pf = interference_power_factor(isr, calib)
        p *= 1.0 - min(1.0, it.activity_factor) * (overlap / victim.occupied_bw_mhz) * pf
    return max(0.0, min(1.0, p))
