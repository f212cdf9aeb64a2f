"""Echo-test and star-network simulation over the interference model.

The echo protocol mirrors the two-module test bed: the base sends fixed
32-character messages, the remote loops each one back, and a message counts
as delivered only when the echoed copy returns before the timeout. Message
airtime is 250 kbps plus 1 ms of fixed overhead; a lost round trip consumes
exactly the timeout before the next message goes out.

Placement is one `rf.radio_paths` call per receiver: a `Direction` places
its link with every interferer's path, and a star run places every uplink to
the base in one `Direction.to` call, whose directions share those paths.

A star run keeps its delivered frames as the columns it sorts them in: their
times and their (7, k) int64 field matrix (see `frames._frames`). The log,
equality and the CLI's frame table read those columns; `StarResult.logged`
builds `(t, node, SensorFrame)` triples only when it is read.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ParameterError, require_finite, require_integer, require_positive, require_seed, require_type
# unused here, but bench/spans.py wraps linksim.encode_frame and linksim.read_frame_log
from .frames import FRAME_LEN, LOG_MAGIC, NODE_ID_MAX, SensorFrame, _frames, _pack, encode_frame, read_frame_log
from .motion import AccelTrace, sample_count
from .rf import DEFAULT_CALIBRATION, ChannelSpec, InterferenceCalibration, RadioPath, Reception, radio_paths
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
        require_type("channel", self.channel, ChannelSpec)
        require_finite("tx_power_dbm", self.tx_power_dbm)
        require_integer("n_messages", self.n_messages, 1)
        require_integer("runs", self.runs, 1)


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
    so they reuse it. Only the channel is checked on reuse
    (`Reception.success_prob`): an interferer moved to another channel is an
    error, and one moved to another position needs a new `Direction`."""

    link: RadioPath
    interferers: dict[str, tuple[ChannelSpec, RadioPath, float]]

    @classmethod
    def to(cls, scenario: Scenario, tx_nodes: Sequence[str], rx_node: str) -> list["Direction"]:
        """The direction from each tx node to one rx node, placed in one call;
        they share the interferers' paths."""
        rx_pos = scenario.node(rx_node)
        sources = [scenario.node(name) for name in tx_nodes] + [it.position for it in scenario.interferers.values()]
        paths = radio_paths(sources, rx_pos, tuple(scenario.obstacles.values()))
        interferers = {name: (it.channel, path, path.loss_db(it.channel.center_mhz))
                       for (name, it), path in zip(scenario.interferers.items(), paths[len(tx_nodes):])}
        return [cls(link, interferers) for link in paths[:len(tx_nodes)]]

    def reception(self, scenario: Scenario, channel: ChannelSpec, tx_power_dbm: float) -> Reception:
        """This direction bound to a victim channel and tx power, with the
        scenario's interferers as placed, by name in scenario order (one without
        a path is an error); `Reception.success_prob` checks their channels."""
        entries = self.interferers
        try:
            placed = [entries[name] for name in scenario.interferers]
        except KeyError as exc:
            raise ParameterError(f"direction has no path for interferer {exc.args[0]!r}") from None
        return Reception.bind(self.link, channel, tx_power_dbm, placed)


def direction_success_prob(
    scenario: Scenario,
    direction: Direction,
    channel: ChannelSpec,
    tx_power_dbm: float,
    calibration: InterferenceCalibration = DEFAULT_CALIBRATION,
) -> float:
    """Per-message delivery probability for one direction of a link, with the
    scenario's interferers as they are set now; `Reception.bind` checks the tx
    power and `Reception.success_prob` the calibration."""
    reception = direction.reception(scenario, channel, tx_power_dbm)
    return reception.success_prob(tuple(scenario.interferers.values()), calibration)


def echo_directions(scenario: Scenario) -> tuple[Direction, Direction]:
    """(outbound, inbound) directions of the base<->remote pair."""
    return Direction.to(scenario, ["base"], "remote")[0], Direction.to(scenario, ["remote"], "base")[0]


def echo_success_probs(
    scenario: Scenario,
    directions: tuple[Direction, Direction],
    channel: ChannelSpec,
    tx_power_dbm: float,
    calibration: InterferenceCalibration = DEFAULT_CALIBRATION,
) -> tuple[float, float]:
    """(outbound, inbound) per-message probabilities for the base<->remote pair."""
    outbound, inbound = directions
    p_out = direction_success_prob(scenario, outbound, channel, tx_power_dbm, calibration)
    p_in = direction_success_prob(scenario, inbound, channel, tx_power_dbm, calibration)
    return p_out, p_in


def simulate_echo_runs(p_out: float, p_in: float, cfg: EchoTestConfig, seed: int) -> RunStats:
    """Monte Carlo echo runs with pinned per-direction probabilities."""
    require_finite("p_out", p_out, 0.0, 1.0)
    require_finite("p_in", p_in, 0.0, 1.0)
    require_type("cfg", cfg, EchoTestConfig)
    require_seed(seed)
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
    calibration: InterferenceCalibration = DEFAULT_CALIBRATION,
) -> RunStats:
    """The full echo experiment: probabilities from the scenario, then runs."""
    require_type("cfg", cfg, EchoTestConfig)
    require_type("scenario", scenario, Scenario)
    p_out, p_in = echo_success_probs(scenario, echo_directions(scenario), cfg.channel, cfg.tx_power_dbm, calibration)
    return simulate_echo_runs(p_out, p_in, cfg, seed)


@dataclass
class NodeDelivery:
    node: str
    emitted: int
    delivered: int
    stats: RunStats


@dataclass(eq=False)
class StarResult:
    """The per-node deliveries of a star run and its delivered frames in log
    order: their times, their (7, k) field matrix and the node names by node
    id (node id i is `names[i - 1]`). Two results are equal when all four are."""

    deliveries: dict[str, NodeDelivery]
    t: np.ndarray
    fields: np.ndarray
    names: tuple[str, ...]

    @cached_property
    def logged(self) -> list[tuple[float, str, SensorFrame]]:
        """The (t, node, frame) triples, built on first access."""
        columns = self.fields.tolist()
        return list(zip(self.t.tolist(), [self.names[node_id - 1] for node_id in columns[0]], _frames(columns)))

    def log_bytes(self) -> bytes:
        return LOG_MAGIC + _pack(self.fields)

    def __eq__(self, other):
        return (isinstance(other, StarResult) and self.deliveries == other.deliveries and self.names == other.names
                and np.array_equal(self.t, other.t) and np.array_equal(self.fields, other.fields))


def run_star_network(
    scenario: Scenario,
    traces: dict[str, AccelTrace],
    duration_s: float,
    seed: int,
    calibration: InterferenceCalibration = DEFAULT_CALIBRATION,
) -> StarResult:
    """Drive each sensor node's state machine and transport its frames.

    Sensor nodes share the channel via carrier sensing: below the MAC
    capacity every frame gets airtime; above it the excess offered load is
    dropped at random. Surviving frames face the per-link interference
    probability independently. The logger, node `base`, records deliveries
    in emission order (ties broken by node name).
    """
    require_type("scenario", scenario, Scenario)
    require_type("traces", traces, Mapping)
    require_integer("sensor node count", len(traces), 1, NODE_ID_MAX)  # node ids 1.., each a frame byte
    require_positive("duration_s", duration_s)
    require_seed(seed)
    channel = ChannelSpec.wpan(scenario.channel)
    rng = np.random.default_rng(seed)

    emissions: dict[str, ReplayResult] = {}
    for idx, name in enumerate(sorted(traces)):
        trace = traces[name]
        require_type(f"trace of node {name!r}", trace, AccelTrace)
        n_keep = min(len(trace), sample_count(duration_s, trace.rate_hz))
        clipped = AccelTrace(rate_hz=trace.rate_hz, ax=trace.ax[:n_keep], ay=trace.ay[:n_keep],
                             az=trace.az[:n_keep], labels=trace.labels[:n_keep])
        state = initial_state(node_id=idx + 1, sample_rate_hz=trace.rate_hz)
        emissions[name] = replay_trace(state, clipped)

    offered = sum(len(r.t) for r in emissions.values()) * FRAME_AIRTIME_S / duration_s
    drop_prob = 0.0 if offered <= MAC_CAPACITY else 1.0 - MAC_CAPACITY / offered

    deliveries: dict[str, NodeDelivery] = {}
    names = sorted(emissions)
    keeps = []
    for name, uplink in zip(names, Direction.to(scenario, names, "base")):
        emitted = len(emissions[name].t)
        p_link = direction_success_prob(scenario, uplink, channel, scenario.tx_power_dbm, calibration)
        keeps.append(rng.random(emitted) < p_link * (1.0 - drop_prob))
        delivered = int(np.count_nonzero(keeps[-1]))
        deliveries[name] = NodeDelivery(name, emitted, delivered, RunStats.from_counts([delivered], max(1, emitted)))
    # Nodes are concatenated in name order and each node's times increase, so a
    # stable sort on time alone breaks ties by name; node ids count from 1 in name order.
    keep = np.concatenate(keeps)
    t = np.concatenate([emissions[name].t for name in names])[keep]
    order = np.argsort(t, kind="stable")
    fields = np.concatenate([emissions[name].fields for name in names], axis=1)[:, keep][:, order]
    return StarResult(deliveries, t[order], fields, tuple(names))

