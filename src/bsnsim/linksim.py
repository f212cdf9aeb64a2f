"""Echo-test and star-network simulation over the interference model.

The echo protocol mirrors the two-module test bed: the base sends fixed
32-character messages, the remote loops each one back, and a message counts
as delivered only when the echoed copy returns before the timeout. Message
airtime is 250 kbps plus 1 ms of fixed overhead; a lost round trip consumes
exactly the timeout before the next message goes out.

Placement is one `rf.radio_paths` call per receiver: a `Direction` places
its link with every interferer's path, and a star run places every uplink to
the base in one `Direction.to` call, whose directions share those paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Sequence

import numpy as np

from .errors import ParameterError, ScenarioError
# unused here, but bench/spans.py wraps linksim.encode_frame and linksim.read_frame_log
from .frames import FRAME_LEN, SensorFrame, encode_frame, read_frame_log, write_frame_log
from .motion import AccelTrace
from .rf import ChannelSpec, InterferenceCalibration, RadioPath, Reception, radio_paths
from .scenario import Scenario
from .sensor import ReplayResult, initial_state, replay_trace

TX_RATE_BPS = 250_000
TX_OVERHEAD_MS = 1.0
MAC_CAPACITY = 0.9  # carrier-sense MAC defers cleanly below this offered load
MESSAGE_LEN_CHARS = 32  # echo-test message length
TIMEOUT_MS = 100.0  # a lost echo round trip costs exactly this
FRAME_AIRTIME_S = FRAME_LEN * 8 / TX_RATE_BPS + TX_OVERHEAD_MS / 1000.0


def message_airtime_ms(n_chars: int) -> float:
    return n_chars * 8 / TX_RATE_BPS * 1000.0 + TX_OVERHEAD_MS


@dataclass(frozen=True)
class EchoTestConfig:
    channel: ChannelSpec
    tx_power_dbm: float
    n_messages: int = 1000
    runs: int = 10

    def __post_init__(self):
        if self.n_messages <= 0 or self.runs <= 0:
            raise ParameterError("n_messages and runs must be positive")


@dataclass(frozen=True)
class RunStats:
    per_run_success: tuple[int, ...]
    n_messages: int
    mean_ratio: float
    std_ratio: float
    per_run_elapsed_ms: tuple[float, ...] = ()

    @classmethod
    def from_counts(cls, counts, n_messages: int, elapsed_ms=()) -> "RunStats":
        ratios = np.asarray(counts, dtype=float) / n_messages
        std = float(np.std(ratios, ddof=1)) if len(ratios) > 1 else 0.0
        return cls(
            per_run_success=tuple(int(c) for c in counts),
            n_messages=n_messages,
            mean_ratio=float(np.mean(ratios)),
            std_ratio=std,
            per_run_elapsed_ms=tuple(float(e) for e in elapsed_ms),
        )


@dataclass(frozen=True)
class Direction:
    """One tx -> rx direction of a link as placed: the link's path and, by
    name, each interferer's channel, path to the receiver and that path's loss
    at the channel's centre. Overrides and enabled flags move nothing placed,
    so they reuse it; an interferer moved to another channel needs a new one."""

    link: RadioPath
    interferers: dict[str, tuple[ChannelSpec, RadioPath, float]]

    @classmethod
    def of(cls, scenario: Scenario, tx_node: str, rx_node: str) -> "Direction":
        return cls.to(scenario, [tx_node], rx_node)[0]

    @classmethod
    def to(cls, scenario: Scenario, tx_nodes: Sequence[str], rx_node: str) -> list["Direction"]:
        """The direction from each tx node to one rx node, placed in one call;
        they share the interferers' paths."""
        rx_pos = scenario.node(rx_node)
        sources = [scenario.node(name) for name in tx_nodes] + [it.position for it in scenario.interferers.values()]
        paths = radio_paths(sources, rx_pos, tuple(scenario.obstacles.values()), scenario.material_table())
        interferers = {name: (it.channel, path, path.loss_db(it.channel.center_mhz))
                       for (name, it), path in zip(scenario.interferers.items(), paths[len(tx_nodes):])}
        return [cls(link, interferers) for link in paths[:len(tx_nodes)]]

    def reception(self, scenario: Scenario, channel: ChannelSpec) -> Reception:
        """This direction bound to a victim channel, with the scenario's
        interferers in scenario order, each on the channel it was placed on."""
        placed = []
        for name, it in scenario.interferers.items():
            if name not in self.interferers:
                raise ParameterError(f"direction has no path for interferer {name!r}")
            entry = self.interferers[name]
            placed_on = entry[0]
            if it.channel is not placed_on and it.channel != placed_on:
                raise ParameterError(f"interferer {name!r} is on {it.channel.standard.value} channel "
                                     f"{it.channel.index} but was placed on {placed_on.standard.value} channel "
                                     f"{placed_on.index}")
            placed.append(entry)
        return Reception.bind(self.link, channel, placed)


def direction_success_prob(
    scenario: Scenario,
    direction: Direction,
    channel: ChannelSpec,
    tx_power_dbm: float,
    calibration: InterferenceCalibration | None = None,
) -> float:
    """Per-message delivery probability for one direction of a link, with the
    scenario's interferers as they are set now."""
    reception = direction.reception(scenario, channel)
    return reception.success_prob(tx_power_dbm, tuple(scenario.interferers.values()), calibration)


def echo_directions(scenario: Scenario) -> tuple[Direction, Direction]:
    """(outbound, inbound) directions of the base<->remote pair."""
    return Direction.of(scenario, "base", "remote"), Direction.of(scenario, "remote", "base")


def echo_success_probs(
    scenario: Scenario,
    directions: tuple[Direction, Direction],
    channel: ChannelSpec,
    tx_power_dbm: float,
    calibration: InterferenceCalibration | None = None,
) -> tuple[float, float]:
    """(outbound, inbound) per-message probabilities for the base<->remote pair."""
    outbound, inbound = directions
    p_out = direction_success_prob(scenario, outbound, channel, tx_power_dbm, calibration)
    p_in = direction_success_prob(scenario, inbound, channel, tx_power_dbm, calibration)
    return p_out, p_in


def simulate_echo_runs(p_out: float, p_in: float, cfg: EchoTestConfig, seed: int) -> RunStats:
    """Monte Carlo echo runs with pinned per-direction probabilities."""
    rng = np.random.default_rng(seed)
    airtime = message_airtime_ms(MESSAGE_LEN_CHARS)
    counts = []
    elapsed = []
    for _ in range(cfg.runs):
        ok = (rng.random(cfg.n_messages) < p_out) & (rng.random(cfg.n_messages) < p_in)
        n_ok = int(ok.sum())
        counts.append(n_ok)
        elapsed.append(n_ok * 2.0 * airtime + (cfg.n_messages - n_ok) * TIMEOUT_MS)
    return RunStats.from_counts(counts, cfg.n_messages, elapsed)


def run_echo_test(
    cfg: EchoTestConfig,
    scenario: Scenario,
    seed: int,
    calibration: InterferenceCalibration | None = None,
) -> RunStats:
    """The full echo experiment: probabilities from the scenario, then runs."""
    p_out, p_in = echo_success_probs(scenario, echo_directions(scenario), cfg.channel, cfg.tx_power_dbm, calibration)
    return simulate_echo_runs(p_out, p_in, cfg, seed)


@dataclass
class NodeDelivery:
    node: str
    emitted: int
    delivered: int
    stats: RunStats


@dataclass
class StarResult:
    deliveries: dict[str, NodeDelivery]
    logged: list[tuple[float, str, SensorFrame]] = field(default_factory=list)

    def log_bytes(self) -> bytes:
        return write_frame_log([frame for _, _, frame in self.logged])


def run_star_network(
    scenario: Scenario,
    traces: dict[str, AccelTrace],
    duration_s: float,
    seed: int,
    calibration: InterferenceCalibration | None = None,
) -> StarResult:
    """Drive each sensor node's state machine and transport its frames.

    Sensor nodes share the channel via carrier sensing: below the MAC
    capacity every frame gets airtime; above it the excess offered load is
    dropped at random. Surviving frames face the per-link interference
    probability independently. The logger, node `base`, records deliveries
    in emission order (ties broken by node name).
    """
    if not traces:
        raise ParameterError("star network needs at least one sensor node trace")
    if not 0 < duration_s < math.inf:
        raise ParameterError(f"duration_s must be positive and finite, got {duration_s}")
    if "base" not in scenario.nodes:
        raise ScenarioError(f"scenario {scenario.name!r} has no logger node 'base'")
    channel = ChannelSpec.wpan(scenario.channel)
    rng = np.random.default_rng(seed)

    emissions: dict[str, ReplayResult] = {}
    for idx, name in enumerate(sorted(traces)):
        if name not in scenario.nodes:
            raise ScenarioError(f"scenario {scenario.name!r} has no node {name!r}")
        trace = traces[name]
        n_keep = min(len(trace), int(round(duration_s * trace.rate_hz)))
        clipped = AccelTrace(rate_hz=trace.rate_hz, ax=trace.ax[:n_keep], ay=trace.ay[:n_keep],
                             az=trace.az[:n_keep], labels=trace.labels[:n_keep])
        state = initial_state(node_id=idx + 1, sample_rate_hz=trace.rate_hz)
        emissions[name] = replay_trace(state, clipped)

    offered = sum(len(r.frames) for r in emissions.values()) * FRAME_AIRTIME_S / duration_s
    drop_prob = 0.0 if offered <= MAC_CAPACITY else 1.0 - MAC_CAPACITY / offered

    deliveries: dict[str, NodeDelivery] = {}
    logged: list[tuple[float, str, SensorFrame]] = []
    uplinks = Direction.to(scenario, sorted(emissions), "base")
    for name, uplink in zip(sorted(emissions), uplinks):
        frames = emissions[name].frames
        p_link = direction_success_prob(scenario, uplink, channel, scenario.tx_power_dbm, calibration)
        p = p_link * (1.0 - drop_prob)
        keep = rng.random(len(frames)) < p
        delivered = [(t, name, frame) for (t, frame), ok in zip(frames, keep) if ok]
        logged.extend(delivered)
        deliveries[name] = NodeDelivery(
            node=name,
            emitted=len(frames),
            delivered=len(delivered),
            stats=RunStats.from_counts([len(delivered)], max(1, len(frames))),
        )
    logged.sort(key=itemgetter(0, 1))
    return StarResult(deliveries=deliveries, logged=logged)

