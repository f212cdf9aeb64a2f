"""Battery-life arithmetic and timeline energy integration."""

import math
import re

import numpy as np
import pytest

from bsnsim.energy import (
    ACCELEROMETER,
    CONTINUOUS_PROFILE,
    MICROCONTROLLER,
    RADIO,
    TEN_PERCENT_RADIO_PROFILE,
    Battery,
    BUTTON_CELL,
    ComponentCurrent,
    PACK_BATTERY,
    average_current_ma,
    battery_life_hours,
    default_components,
    paper_components,
    simulate_energy,
)
from bsnsim.errors import ParameterError, UndefinedBatteryLifeError
from bsnsim.motion import ActivityKind, compose_schedule, generate_trace
from bsnsim.sensor import SensorMode, TimelineInterval, initial_state, replay_trace


class TestAverageCurrent:
    def test_continuous_sum(self):
        assert average_current_ma(paper_components(), CONTINUOUS_PROFILE) == pytest.approx(51.3)

    def test_all_idle_zero(self):
        duty = {ACCELEROMETER: 0.0, MICROCONTROLLER: 0.0, RADIO: 0.0}
        assert average_current_ma(paper_components(), duty) == 0.0

    def test_ten_percent_radio(self):
        assert average_current_ma(paper_components(), TEN_PERCENT_RADIO_PROFILE) == pytest.approx(10.8)

    def test_missing_duty_entry(self):
        with pytest.raises(ParameterError):
            average_current_ma(paper_components(), {RADIO: 1.0})

    @pytest.mark.parametrize("frac", ["x", True, None, float("nan"), 1.5, -0.1], ids=repr)
    def test_bad_duty_rejected(self, frac):
        duty = {ACCELEROMETER: frac, MICROCONTROLLER: 0.0, RADIO: 0.0}
        message = "duty for 'accelerometer' must be a finite number in \\[0, 1\\], got "
        with pytest.raises(ParameterError, match=message):
            average_current_ma(paper_components(), duty)

    def test_numpy_duty_accepted(self):
        duty = {ACCELEROMETER: np.float32(0.5), MICROCONTROLLER: np.float64(1.0), RADIO: 0}
        assert average_current_ma(paper_components(), duty) == pytest.approx(6.05)

    def test_linearity_in_duty(self):
        comps = paper_components()
        lo = average_current_ma(comps, {ACCELEROMETER: 0.0, MICROCONTROLLER: 0.0, RADIO: 0.2})
        hi = average_current_ma(comps, {ACCELEROMETER: 0.0, MICROCONTROLLER: 0.0, RADIO: 0.8})
        mid = average_current_ma(comps, {ACCELEROMETER: 0.0, MICROCONTROLLER: 0.0, RADIO: 0.5})
        assert mid == pytest.approx((lo + hi) / 2)


class TestBatteryLife:
    def test_pack_continuous(self):
        hours = battery_life_hours(PACK_BATTERY, paper_components(), CONTINUOUS_PROFILE)
        assert hours == pytest.approx(128.7, abs=0.1)
        assert hours > 120.0

    def test_pack_ten_percent(self):
        hours = battery_life_hours(PACK_BATTERY, paper_components(), TEN_PERCENT_RADIO_PROFILE)
        assert hours == pytest.approx(611.1, abs=0.1)
        assert hours > 600.0

    def test_button_cell(self):
        assert battery_life_hours(BUTTON_CELL, paper_components(), CONTINUOUS_PROFILE) == pytest.approx(4.48, abs=0.1)
        assert battery_life_hours(BUTTON_CELL, paper_components(), TEN_PERCENT_RADIO_PROFILE) == pytest.approx(21.3, abs=0.1)

    def test_zero_current_is_undefined(self):
        duty = {ACCELEROMETER: 0.0, MICROCONTROLLER: 0.0, RADIO: 0.0}
        with pytest.raises(UndefinedBatteryLifeError):
            battery_life_hours(PACK_BATTERY, paper_components(), duty)

    def test_homogeneity(self):
        base = battery_life_hours(PACK_BATTERY, paper_components(), CONTINUOUS_PROFILE)
        doubled_cap = battery_life_hours(Battery(2 * PACK_BATTERY.capacity_mah), paper_components(), CONTINUOUS_PROFILE)
        assert doubled_cap == pytest.approx(2 * base)
        doubled_current = tuple(
            ComponentCurrent(c.name, 2 * c.active_ma, 2 * c.sleep_ma) for c in paper_components()
        )
        assert battery_life_hours(PACK_BATTERY, doubled_current, CONTINUOUS_PROFILE) == pytest.approx(base / 2)

    def test_default_components_are_the_paper_actives_with_standby_draws(self):
        assert default_components() == (ComponentCurrent(ACCELEROMETER, 0.5, 0.003),
                                         ComponentCurrent(MICROCONTROLLER, 5.8, 0.1),
                                         ComponentCurrent(RADIO, 45.0, 0.05))
        assert paper_components() == tuple(ComponentCurrent(c.name, c.active_ma, 0.0) for c in default_components())

    def test_component_validation(self):
        with pytest.raises(ParameterError):
            ComponentCurrent("x", 1.0, 2.0)
        with pytest.raises(ParameterError):
            Battery(0.0)
        for value in (float("nan"), float("inf")):
            with pytest.raises(ParameterError, match="capacity_mah must be positive and finite"):
                Battery(value)
            with pytest.raises(ParameterError, match="active_ma < inf"):
                ComponentCurrent("x", value)
            with pytest.raises(ParameterError, match="active_ma < inf"):
                ComponentCurrent("x", value, value)


class TestSimulateEnergy:
    def test_sleep_cheaper_than_active(self):
        hour_sleep = [TimelineInterval(0.0, 3600.0, SensorMode.SLEEP)]
        hour_active = [TimelineInterval(0.0, 3600.0, SensorMode.ACTIVE)]
        sleep = simulate_energy(hour_sleep, n_frames=3600)
        active = simulate_energy(hour_active, n_frames=216000)
        assert sleep.consumed_mah < active.consumed_mah

    def test_negative_frame_count_rejected(self):
        hour_sleep = [TimelineInterval(0.0, 3600.0, SensorMode.SLEEP)]
        with pytest.raises(ParameterError, match=re.escape("n_frames must be an integer in [0, inf], got -1000")):
            simulate_energy(hour_sleep, n_frames=-1000)

    @pytest.mark.parametrize("n_frames", [2.5, True, "3", None, math.nan, math.inf, -1], ids=repr)
    def test_bad_frame_count_rejected(self, n_frames):
        # 2.5 used to bill two and a half frames of airtime, True one frame, "3" a bare TypeError
        message = f"n_frames must be an integer in [0, inf], got {n_frames!r}"
        with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
            simulate_energy([TimelineInterval(0.0, 60.0, SensorMode.ACTIVE)], n_frames)

    def test_numpy_frame_count_accepted(self):
        timeline = [TimelineInterval(0.0, 60.0, SensorMode.ACTIVE)]
        assert simulate_energy(timeline, np.int64(300)) == simulate_energy(timeline, 300)

    @pytest.mark.parametrize("t_start, t_end", [(10.0, 0.0), (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf),
                                                (-math.inf, 0.0)])
    def test_reversed_or_non_finite_interval_rejected(self, t_start, t_end):
        # a reversed interval used to report negative mAh, a NaN bound NaN mAh
        with pytest.raises(ParameterError, match="interval needs finite bounds with t_end >= t_start"):
            simulate_energy([TimelineInterval(t_start, t_end, SensorMode.ACTIVE)], 0)

    def test_empty_timeline(self):
        report = simulate_energy([], n_frames=0)
        assert report.consumed_mah == 0.0

    def test_rest_day_cheaper_than_run_day(self):
        rest = generate_trace(ActivityKind.REST, 60.0, 10.0, seed=0)
        run = compose_schedule([(ActivityKind.FALL, 1.0), (ActivityKind.RUN, 59.0)], rate_hz=10.0, seed=0)
        rest_replay = replay_trace(initial_state(sample_rate_hz=10.0), rest)
        run_replay = replay_trace(initial_state(sample_rate_hz=10.0), run)
        rest_report = simulate_energy(rest_replay.intervals, len(rest_replay.frames))
        run_report = simulate_energy(run_replay.intervals, len(run_replay.frames))
        assert rest_report.consumed_mah < run_report.consumed_mah

    def test_over_capacity_flag(self):
        week_active = [TimelineInterval(0.0, 7 * 24 * 3600.0, SensorMode.ACTIVE)]
        report = simulate_energy(week_active, n_frames=10**6, battery=BUTTON_CELL)
        assert report.over_capacity
