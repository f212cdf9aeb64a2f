"""Adaptive channel selection: scan all 16 802.15.4 channels, score each by
expected round-trip message loss, and hop only past a hysteresis margin."""

from __future__ import annotations

import bisect
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import ParameterError, finite_number, require_finite, require_positive, require_type
from .linksim import echo_directions, echo_success_probs
from .rf import DEFAULT_CALIBRATION, ChannelSpec, InterferenceCalibration, WPAN_INDEX_RANGE
from .scenario import Scenario

DEFAULT_HYSTERESIS = 0.001


@dataclass(frozen=True)
class ScanReport:
    """Interference score (expected loss per message) per channel 11..26."""

    scores: tuple[float, ...]

    def __post_init__(self):
        require_type("scores", self.scores, tuple)
        if len(self.scores) != len(WPAN_INDEX_RANGE):
            raise ParameterError(f"scan report needs {len(WPAN_INDEX_RANGE)} entries")
        if any(not finite_number(s) or s < 0 for s in self.scores):
            raise ParameterError("scores must be finite and non-negative")

    def score(self, channel: int) -> float:
        return self.scores[ChannelSpec.wpan(channel).index - WPAN_INDEX_RANGE.start]


def scan(scenario: Scenario, calibration: InterferenceCalibration = DEFAULT_CALIBRATION) -> ScanReport:
    """Score every channel at the scenario's power as 1 - round-trip success probability."""
    require_type("scenario", scenario, Scenario)
    directions = echo_directions(scenario)
    scores = []
    for index in WPAN_INDEX_RANGE:
        p_out, p_in = echo_success_probs(scenario, directions, ChannelSpec.wpan(index), scenario.tx_power_dbm,
                                         calibration)
        scores.append(1.0 - p_out * p_in)
    return ScanReport(scores=tuple(scores))


def select_channel(report: ScanReport) -> int:
    """Channel index with the minimal score; ties break toward channel 11."""
    require_type("report", report, ScanReport)
    best = min(range(len(report.scores)), key=lambda i: (report.scores[i], i))
    return WPAN_INDEX_RANGE.start + best


def adaptive_policy(
    timeline: Sequence[tuple[float, Scenario]],
    horizon_s: float,
    rescan_period_s: float,
    initial_channel: int | None = None,
    calibration: InterferenceCalibration = DEFAULT_CALIBRATION,
) -> list[tuple[float, int]]:
    """Rescan on a fixed period over a piecewise-constant environment.

    Each timeline entry is scanned once, at the first rescan that falls in
    it, and later rescans in the same entry reuse that report. The channel
    changes only when the scan's best channel beats the current channel's
    score by more than the DEFAULT_HYSTERESIS margin. A horizon of more than
    2**52 periods is refused: up to there, each `t += rescan_period_s` moves `t`.
    """
    require_finite("horizon_s", horizon_s)
    require_positive("rescan_period_s", rescan_period_s)
    if horizon_s / rescan_period_s > 2**52:
        raise ParameterError(f"a {horizon_s} s horizon is more than 2**52 rescan periods of {rescan_period_s} s")
    if not (isinstance(timeline, Sequence) and timeline):
        raise ParameterError("environment timeline must be a non-empty sequence of (time, Scenario) pairs")
    for i, entry in enumerate(timeline):
        if not (isinstance(entry, Sequence) and len(entry) == 2 and finite_number(entry[0])
                and isinstance(entry[1], Scenario)):
            raise ParameterError(f"timeline entry {i} must be a (finite time, Scenario) pair")
    # checked here too, since a horizon of 0 s or less runs no rescan
    if initial_channel is not None:
        ChannelSpec.wpan(initial_channel)
    require_type("calibration", calibration, InterferenceCalibration)
    changes = sorted(timeline, key=lambda item: item[0])
    change_times = [t_change for t_change, _ in changes]
    reports: dict[int, ScanReport] = {}  # scan is deterministic: one per timeline entry

    current = initial_channel
    schedule: list[tuple[float, int]] = []
    t = 0.0
    while t < horizon_s:
        # the last change at or before t; the earliest environment before the first change
        entry = max(0, bisect.bisect_right(change_times, t) - 1)
        if entry not in reports:
            reports[entry] = scan(changes[entry][1], calibration)
        report = reports[entry]
        best = select_channel(report)
        if current is None:
            current = best
        elif report.score(best) < report.score(current) - DEFAULT_HYSTERESIS:
            current = best
        schedule.append((t, current))
        t += rescan_period_s
    return schedule
