"""Battery-life arithmetic from component currents and duty cycles.

Two component sets ship with the package: `paper_components()` mirrors the
prototype's worst-case arithmetic (standby draw treated as zero, the style
used for the published lifetime figures), while `default_components()`
carries small nonzero standby currents for honest timeline integration.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import ParameterError, UndefinedBatteryLifeError
from .frames import FRAME_LEN
from .linksim import TX_OVERHEAD_MS, TX_RATE_BPS
from .sensor import SensorMode, TimelineInterval

ACCELEROMETER = "accelerometer"
MICROCONTROLLER = "microcontroller"
RADIO = "radio"

# Seconds on air per frame. Written in seconds rather than as
# linksim.FRAME_AIRTIME_MS / 1000, which rounds to a different float
# (0.001512 instead of 0.0015119999999999999) and so changes the reports.
FRAME_AIRTIME_S = FRAME_LEN * 8 / TX_RATE_BPS + TX_OVERHEAD_MS / 1000.0


@dataclass(frozen=True)
class ComponentCurrent:
    name: str
    active_ma: float
    sleep_ma: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.sleep_ma <= self.active_ma:
            raise ParameterError(
                f"{self.name}: need 0 <= sleep_ma <= active_ma, got {self.sleep_ma}/{self.active_ma}"
            )


@dataclass(frozen=True)
class Battery:
    capacity_mah: float
    nominal_v: float = 3.7

    def __post_init__(self):
        if self.capacity_mah <= 0:
            raise ParameterError(f"capacity_mah must be positive, got {self.capacity_mah}")


PACK_BATTERY = Battery(6600.0)       # Li-Ion 18650 pack
BUTTON_CELL = Battery(230.0)         # LIR3048 button cell


def paper_components() -> tuple[ComponentCurrent, ...]:
    """Typical currents of the wearable unit with standby treated as zero."""
    return (
        ComponentCurrent(ACCELEROMETER, 0.5, 0.0),
        ComponentCurrent(MICROCONTROLLER, 5.8, 0.0),
        ComponentCurrent(RADIO, 45.0, 0.0),
    )


def default_components() -> tuple[ComponentCurrent, ...]:
    """Same actives with honest standby draws (accelerometer sleep 3 uA)."""
    return (
        ComponentCurrent(ACCELEROMETER, 0.5, 0.003),
        ComponentCurrent(MICROCONTROLLER, 5.8, 0.1),
        ComponentCurrent(RADIO, 45.0, 0.05),
    )


CONTINUOUS_PROFILE: dict[str, float] = {ACCELEROMETER: 1.0, MICROCONTROLLER: 1.0, RADIO: 1.0}
TEN_PERCENT_RADIO_PROFILE: dict[str, float] = {ACCELEROMETER: 1.0, MICROCONTROLLER: 1.0, RADIO: 0.1}


def average_current_ma(components: Sequence[ComponentCurrent], duty: Mapping[str, float]) -> float:
    """Duty-weighted current sum over all components."""
    total = 0.0
    for comp in components:
        if comp.name not in duty:
            raise ParameterError(f"missing duty entry for component {comp.name!r}")
        frac = duty[comp.name]
        if not 0.0 <= frac <= 1.0:
            raise ParameterError(f"duty for {comp.name!r} must be in [0, 1], got {frac}")
        total += frac * comp.active_ma + (1.0 - frac) * comp.sleep_ma
    return total


def battery_life_hours(
    battery: Battery,
    components: Sequence[ComponentCurrent],
    duty: Mapping[str, float],
) -> float:
    """Hours until the pack is drained at the profile's average current."""
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

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["component", "duty", "avg_ma", "mah_consumed"])
        for name, mah in self.per_component_mah.items():
            duty = self.per_component_duty[name]
            avg = mah / self.duration_h if self.duration_h > 0 else 0.0
            writer.writerow([name, f"{duty:.6g}", f"{avg:.6g}", f"{mah:.6g}"])
        return buf.getvalue()


def simulate_energy(
    intervals: Sequence[TimelineInterval],
    n_frames: int,
    components: Sequence[ComponentCurrent] | None = None,
    battery: Battery | None = None,
) -> EnergyReport:
    """Integrate component currents over a sensor-node mode timeline.

    The accelerometer and microcontroller draw their active current during
    Active intervals and their sleep current otherwise; the radio is active
    only for the airtime of the frames actually transmitted.
    """
    components = components or default_components()
    battery = battery or PACK_BATTERY
    by_name = {c.name: c for c in components}
    for required in (ACCELEROMETER, MICROCONTROLLER, RADIO):
        if required not in by_name:
            raise ParameterError(f"component set must include {required!r}")

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
