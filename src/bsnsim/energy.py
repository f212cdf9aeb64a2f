"""Battery-life arithmetic from component currents and duty cycles.

Two component sets ship with the package: `paper_components()` mirrors the
prototype's worst-case arithmetic (standby draw treated as zero, the style
used for the published lifetime figures), while `default_components()`
carries small nonzero standby currents for honest timeline integration.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import (ParameterError, UndefinedBatteryLifeError, finite_number, require_finite, require_integer,
                     require_positive, require_type)
from .linksim import FRAME_AIRTIME_S
from .sensor import SensorMode, TimelineInterval

ACCELEROMETER = "accelerometer"
MICROCONTROLLER = "microcontroller"
RADIO = "radio"


@dataclass(frozen=True)
class ComponentCurrent:
    name: str
    active_ma: float
    sleep_ma: float = 0.0

    def __post_init__(self):
        sleep, active = self.sleep_ma, self.active_ma
        if not (finite_number(sleep) and finite_number(active) and 0.0 <= sleep <= active):
            raise ParameterError(f"{self.name}: need 0 <= sleep_ma <= active_ma < inf, got {sleep}/{active}")


@dataclass(frozen=True)
class Battery:
    capacity_mah: float

    def __post_init__(self):
        require_positive("capacity_mah", self.capacity_mah)


PACK_BATTERY = Battery(6600.0)       # Li-Ion 18650 pack
BUTTON_CELL = Battery(230.0)         # LIR3048 button cell


def paper_components() -> tuple[ComponentCurrent, ...]:
    """Typical currents of the wearable unit with standby treated as zero."""
    return (ComponentCurrent(ACCELEROMETER, 0.5), ComponentCurrent(MICROCONTROLLER, 5.8),
            ComponentCurrent(RADIO, 45.0))


def default_components() -> tuple[ComponentCurrent, ...]:
    """The paper's actives with honest standby draws (accelerometer sleep 3 uA)."""
    standby_ma = {ACCELEROMETER: 0.003, MICROCONTROLLER: 0.1, RADIO: 0.05}
    return tuple(ComponentCurrent(c.name, c.active_ma, standby_ma[c.name]) for c in paper_components())


CONTINUOUS_PROFILE: dict[str, float] = {ACCELEROMETER: 1.0, MICROCONTROLLER: 1.0, RADIO: 1.0}
TEN_PERCENT_RADIO_PROFILE: dict[str, float] = {ACCELEROMETER: 1.0, MICROCONTROLLER: 1.0, RADIO: 0.1}


def average_current_ma(components: Sequence[ComponentCurrent], duty: Mapping[str, float]) -> float:
    """Duty-weighted current sum over all components."""
    require_type("components", components, Sequence)
    require_type("duty", duty, Mapping)
    total = 0.0
    for i, comp in enumerate(components):
        require_type(f"component {i}", comp, ComponentCurrent)
        if comp.name not in duty:
            raise ParameterError(f"missing duty entry for component {comp.name!r}")
        frac = duty[comp.name]
        require_finite(f"duty for {comp.name!r}", frac, 0.0, 1.0)
        total += frac * comp.active_ma + (1.0 - frac) * comp.sleep_ma
    return total


def battery_life_hours(
    battery: Battery,
    components: Sequence[ComponentCurrent],
    duty: Mapping[str, float],
) -> float:
    """Hours until the pack is drained at the profile's average current."""
    require_type("battery", battery, Battery)
    avg = average_current_ma(components, duty)
    if avg <= 0.0:
        raise UndefinedBatteryLifeError("average current is zero; battery life is unbounded")
    return battery.capacity_mah / avg


@dataclass(frozen=True)
class EnergyReport:
    duration_h: float
    consumed_mah: float
    per_component_mah: dict[str, float]
    per_component_duty: dict[str, float]
    projected_remaining_h: float
    over_capacity: bool


def simulate_energy(
    intervals: Sequence[TimelineInterval],
    n_frames: int,
    battery: Battery | None = None,
) -> EnergyReport:
    """Integrate component currents over a sensor-node mode timeline.

    The accelerometer and microcontroller draw their active current during
    Active intervals and their sleep current otherwise; the radio is active
    only for the airtime of the frames actually transmitted.
    """
    require_integer("n_frames", n_frames, 0)
    require_type("intervals", intervals, Sequence)
    for i, interval in enumerate(intervals):
        require_type(f"interval {i}", interval, TimelineInterval)
    battery = PACK_BATTERY if battery is None else battery
    require_type("battery", battery, Battery)
    by_name = {c.name: c for c in default_components()}

    active_h = sum((iv.t_end - iv.t_start) for iv in intervals if iv.mode is SensorMode.ACTIVE) / 3600.0
    total_h = sum(iv.t_end - iv.t_start for iv in intervals) / 3600.0
    sleep_h = max(0.0, total_h - active_h)
    tx_h = min(total_h, n_frames * FRAME_AIRTIME_S / 3600.0)

    consumed: dict[str, float] = {}
    duty: dict[str, float] = {}
    for name, on_h in ((ACCELEROMETER, active_h), (MICROCONTROLLER, active_h), (RADIO, tx_h)):
        comp = by_name[name]
        off_h = total_h - on_h if name == RADIO else sleep_h
        consumed[name] = comp.active_ma * on_h + comp.sleep_ma * off_h
        duty[name] = on_h / total_h if total_h > 0 else 0.0

    total_mah = sum(consumed.values())
    if total_h > 0 and total_mah > 0:
        remaining = max(0.0, battery.capacity_mah - total_mah)
        projected = remaining / (total_mah / total_h)
    else:
        projected = float("inf")
    return EnergyReport(
        duration_h=total_h,
        consumed_mah=total_mah,
        per_component_mah=consumed,
        per_component_duty=duty,
        projected_remaining_h=projected,
        over_capacity=total_mah > battery.capacity_mah,
    )
