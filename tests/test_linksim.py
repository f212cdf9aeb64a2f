"""Echo-test statistics, timeout accounting, and the star network."""

import dataclasses
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import frames_reference
import rf_reference
from bsnsim import linksim
from bsnsim.errors import BsnsimError, ParameterError, ScenarioError
from bsnsim.frames import FRAME_LEN, LOG_MAGIC, NODE_ID_MAX, SensorFrame, read_frame_log
from bsnsim.linksim import (
    Direction,
    EchoTestConfig,
    MESSAGE_LEN_CHARS,
    TIMEOUT_MS,
    direction_success_prob,
    message_airtime_ms,
    run_echo_test,
    run_star_network,
    simulate_echo_runs,
)
from bsnsim.motion import ActivityKind, compose_schedule, generate_trace
from bsnsim.rf import WPAN_INDEX_RANGE, ChannelSpec, RadioPath, Wall
from bsnsim.scenario import PRESET_NAMES, load_scenario, parse_scenario
from bsnsim.selector import scan

CLEAN = """
name = clean
channel = 20
tx_power_dbm = 0.0

[node base]
x = 0.0
y = 0.0

[node remote]
x = 1.0
y = 0.0
"""

DEAD = """
name = dead
channel = 20
tx_power_dbm = -10.0

[node base]
x = 0.0
y = 0.0

[node remote]
x = -11.0
y = 0.0

[obstacle siding]
material = aluminum_siding
shape = wall
x1 = -5.0
y1 = -5.0
x2 = -5.0
y2 = 5.0
"""


def _cfg(channel=20, power=0.0, **kw):
    return EchoTestConfig(channel=ChannelSpec.wpan(channel), tx_power_dbm=power, **kw)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("tx_power_dbm", math.nan, "tx_power_dbm must be a finite number, got nan"),
        ("tx_power_dbm", math.inf, "tx_power_dbm must be a finite number, got inf"),
        ("tx_power_dbm", True, "tx_power_dbm must be a finite number, got True"),
        ("tx_power_dbm", "0", "tx_power_dbm must be a finite number, got '0'"),
        ("n_messages", 10.5, "n_messages must be an integer in [1, inf], got 10.5"),
        ("n_messages", 0, "n_messages must be an integer in [1, inf], got 0"),
        ("n_messages", True, "n_messages must be an integer in [1, inf], got True"),
        ("runs", True, "runs must be an integer in [1, inf], got True"),
        ("runs", -1, "runs must be an integer in [1, inf], got -1"),
        ("runs", "3", "runs must be an integer in [1, inf], got '3'"),
    ],
)
def test_echo_config_rejects_a_bad_value(field, value, message):
    # a nan power read as delivery 1.0 on apartment_microwave channel 20
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}$"):
        EchoTestConfig(**{"channel": ChannelSpec.wpan(20), "tx_power_dbm": 0.0, field: value})


def test_clean_link_mean_100_std_0():
    stats = run_echo_test(_cfg(), parse_scenario(CLEAN), seed=1)
    assert stats.mean_ratio == 1.0
    assert stats.std_ratio == 0.0
    assert all(c == 1000 for c in stats.per_run_success)


def test_dead_link_zero():
    stats = run_echo_test(_cfg(power=-10.0), parse_scenario(DEAD), seed=1)
    assert stats.mean_ratio == 0.0


def test_missing_node_rejected():
    scenario = parse_scenario(CLEAN)
    broken = dataclasses.replace(scenario, nodes={"base": (0.0, 0.0)})
    with pytest.raises(ScenarioError):
        run_echo_test(_cfg(), broken, seed=1)


@pytest.mark.parametrize("missing", ["base", "sensor_1"])
def test_star_missing_node_rejected(missing):
    # the logger and every traced node are placed through Scenario.node
    scenario = parse_scenario(CLEAN)
    nodes = {name: p for name, p in {**scenario.nodes, "sensor_1": (1.0, 0.0)}.items() if name != missing}
    traces = {"sensor_1": generate_trace(ActivityKind.REST, 1.0)}
    with pytest.raises(ScenarioError, match=f"^scenario 'clean' has no node '{missing}'$"):
        run_star_network(dataclasses.replace(scenario, nodes=nodes), traces, 1.0, 1)


@pytest.mark.parametrize("count", [0, NODE_ID_MAX + 1])
def test_star_node_count_is_refused_before_any_node_is_replayed(monkeypatch, count):
    # node ids count from 1 and fill one frame byte; a count beyond it was refused only after every replay
    replayed = []
    monkeypatch.setattr(linksim, "replay_trace", lambda *args: replayed.append(args))
    trace = generate_trace(ActivityKind.REST, 1.0)
    traces = {f"sensor_{i + 1}": trace for i in range(count)}
    with pytest.raises(ParameterError, match=f"^sensor node count must be an integer in \\[1, 255\\], got {count}$"):
        run_star_network(parse_scenario(CLEAN), traces, 1.0, 1)
    assert replayed == []


def test_direction_depends_only_on_placement():
    scenario = load_scenario("apartment_microwave")
    outbound = Direction.to(scenario, ["base"], "remote")[0]
    assert set(outbound.interferers) == set(scenario.interferers)
    assert Direction.to(scenario.with_interferer_enabled("oven", False), ["base"], "remote")[0] == outbound
    assert Direction.to(scenario, ["remote"], "base")[0] != outbound


def test_direction_lacking_an_interferer_is_a_parameter_error():
    scenario = load_scenario("apartment_microwave")
    without_oven = {name: it for name, it in scenario.interferers.items() if name != "oven"}
    outbound = Direction.to(dataclasses.replace(scenario, interferers=without_oven), ["base"], "remote")[0]
    with pytest.raises(ParameterError, match="direction has no path for interferer 'oven'"):
        direction_success_prob(scenario, outbound, ChannelSpec.wpan(20), -10.0)


def test_direction_records_each_interferer_as_placed():
    scenario = load_scenario("apartment_microwave")
    outbound = Direction.to(scenario, ["base"], "remote")[0]
    rx = scenario.node("remote")
    obstacles = list(scenario.obstacles.values())
    for name, it in scenario.interferers.items():
        channel, path, loss_db = outbound.interferers[name]
        assert channel == it.channel
        losses = tuple(ob.effective_loss_db()
                       for ob in rf_reference.crossed_obstacles(it.position, rx, obstacles))
        assert path == RadioPath(math.hypot(rx[0] - it.position[0], rx[1] - it.position[1]), losses)
        assert loss_db == path.loss_db(it.channel.center_mhz)


def _crowded(preset):
    """A preset with sensor nodes on its interferers, on its obstacles' ends and centres, and on the base itself."""
    scenario = load_scenario(preset)
    spots = [it.position for it in scenario.interferers.values()] + [scenario.node("base")]
    for ob in scenario.obstacles.values():
        shape = ob.shape
        spots += [(shape.x1, shape.y1), (shape.x2, shape.y2)] if isinstance(shape, Wall) else [(shape.x, shape.y)]
    sensors = {f"sensor_{k}": spot for k, spot in enumerate(spots)}
    return dataclasses.replace(scenario, nodes={**scenario.nodes, **sensors})


@pytest.mark.parametrize("preset", PRESET_NAMES)
def test_batched_uplinks_equal_directions_placed_alone(preset):
    scenario = _crowded(preset)
    names = sorted(scenario.nodes)
    uplinks = Direction.to(scenario, names, "base")
    assert uplinks == [Direction.to(scenario, [name], "base")[0] for name in names]
    assert len({id(uplink.interferers) for uplink in uplinks}) == 1  # one placement of the interferers


def test_scan_computes_each_interferer_loss_once_per_direction(monkeypatch):
    scenario = load_scenario("apartment_microwave")
    calls = []
    loss_db = RadioPath.loss_db

    def counting_loss_db(path, freq_mhz):
        calls.append(freq_mhz)
        return loss_db(path, freq_mhz)

    monkeypatch.setattr(RadioPath, "loss_db", counting_loss_db)
    scan(scenario)
    # per direction: one per interferer at placement, then the link's loss at each of the 16 victim centres
    assert len(calls) == 2 * (len(scenario.interferers) + 16)


def test_direction_reused_with_an_interferer_on_another_channel_is_a_parameter_error():
    scenario = load_scenario("apartment")
    outbound = Direction.to(scenario, ["base"], "remote")[0]
    moved = dataclasses.replace(scenario.interferers["neighbor_ch1_a"], channel=ChannelSpec.wlan(6))
    retuned = dataclasses.replace(scenario, interferers={**scenario.interferers, "neighbor_ch1_a": moved})
    with pytest.raises(ParameterError, match="interferer on wlan channel 6 was bound on wlan channel 1"):
        direction_success_prob(retuned, outbound, ChannelSpec.wpan(12), -10.0)
    [replaced] = Direction.to(retuned, ["base"], "remote")
    assert direction_success_prob(retuned, replaced, ChannelSpec.wpan(12), -10.0) > 0


def test_direction_reused_on_reordered_interferers_matches_a_fresh_placement():
    scenario = load_scenario("apartment")
    outbound = Direction.to(scenario, ["base"], "remote")[0]
    reordered = dataclasses.replace(scenario, interferers=dict(reversed(scenario.interferers.items())))
    fresh = Direction.to(reordered, ["base"], "remote")[0]
    assert list(reordered.interferers) != list(outbound.interferers)  # so binding takes the entries by name
    for index in WPAN_INDEX_RANGE:
        reused = direction_success_prob(reordered, outbound, ChannelSpec.wpan(index), -10.0)
        placed = direction_success_prob(reordered, fresh, ChannelSpec.wpan(index), -10.0)
        assert struct.pack("<d", reused) == struct.pack("<d", placed)


def test_determinism():
    scenario = load_scenario("apartment")
    a = run_echo_test(_cfg(12, -10.0), scenario, seed=99)
    b = run_echo_test(_cfg(12, -10.0), scenario, seed=99)
    assert a == b
    c = run_echo_test(_cfg(12, -10.0), scenario, seed=100)
    assert a != c


@pytest.mark.parametrize("p", [0.9, 0.99, 1.0])
def test_pinned_probability_soundness(p):
    cfg = _cfg()
    stats = simulate_echo_runs(p, p, cfg, seed=7)
    bound = 3 * math.sqrt(p * (1 - p) / (cfg.runs * cfg.n_messages))
    assert abs(stats.mean_ratio - p * p) <= max(bound, 1e-12)


def test_timeout_consumes_exact_time():
    cfg = _cfg(runs=1)
    stats = simulate_echo_runs(0.5, 1.0, cfg, seed=3)
    n_ok = stats.per_run_success[0]
    n_fail = cfg.n_messages - n_ok
    expected_ms = n_ok * 2 * message_airtime_ms(MESSAGE_LEN_CHARS) + n_fail * TIMEOUT_MS
    assert stats.per_run_elapsed_ms[0] == pytest.approx(expected_ms)


def test_std_is_sample_std():
    stats = simulate_echo_runs(0.95, 0.95, _cfg(runs=10), seed=5)
    ratios = np.array(stats.per_run_success) / stats.n_messages
    assert stats.std_ratio == pytest.approx(float(np.std(ratios, ddof=1)))


def _star_scenario(n_sensors):
    nodes = {"base": (0.0, 0.0), "remote": (5.0, 0.0)}
    for i in range(n_sensors):
        nodes[f"sensor_{i + 1}"] = (1.0 + 0.5 * i, 1.0)
    scenario = parse_scenario(CLEAN)
    return dataclasses.replace(scenario, nodes=nodes)


class TestStarNetwork:
    def test_single_rest_node_duty_bound(self):
        scenario = _star_scenario(1)
        trace = generate_trace(ActivityKind.REST, 10.0, 60.0, seed=1)
        result = run_star_network(scenario, {"sensor_1": trace}, 10.0, seed=2)
        d = result.deliveries["sensor_1"]
        assert d.emitted <= 10  # sleep duty bound
        assert d.delivered == d.emitted  # clean channel delivers everything

    def test_dead_link_logs_nothing(self):
        scenario = _star_scenario(1)
        dead = dataclasses.replace(scenario, tx_power_dbm=-10.0,
                                   nodes={**scenario.nodes, "sensor_1": (300.0, 0.0)})
        trace = generate_trace(ActivityKind.RUN, 5.0, 60.0, seed=1)
        result = run_star_network(dead, {"sensor_1": trace}, 5.0, seed=2)
        assert result.deliveries["sensor_1"].delivered == 0
        assert result.logged == []

    def test_three_fall_nodes_no_gaps(self):
        scenario = _star_scenario(3)
        traces = {
            f"sensor_{i + 1}": compose_schedule(
                [(ActivityKind.REST, 2.0), (ActivityKind.FALL, 3.0), (ActivityKind.REST, 5.0)],
                seed=10 + i,
            )
            for i in range(3)
        }
        result = run_star_network(scenario, traces, 10.0, seed=4)
        for name, d in result.deliveries.items():
            assert d.emitted > 100  # fall burst emits continuously
            assert d.delivered == d.emitted
        # per-node seq numbers in the log are gap-free
        for name in traces:
            node_id = sorted(traces).index(name) + 1
            seqs = [f.seq for _, n, f in result.logged if n == name]
            assert seqs == list(range(seqs[0], seqs[0] + len(seqs)))

    def test_frame_conservation_and_order(self):
        scenario = _star_scenario(2)
        traces = {
            "sensor_1": generate_trace(ActivityKind.RUN, 5.0, 60.0, seed=3),
            "sensor_2": generate_trace(ActivityKind.JUMP, 5.0, 60.0, seed=4),
        }
        result = run_star_network(scenario, traces, 5.0, seed=5)
        times = [t for t, _, _ in result.logged]
        assert times == sorted(times)
        for name, d in result.deliveries.items():
            logged_n = sum(1 for _, n, _ in result.logged if n == name)
            assert logged_n == d.delivered <= d.emitted

    def test_equal_times_logged_in_node_name_order(self):
        # three nodes at one rate sample at the same instants: every tie must sit in name order
        scenario = _star_scenario(3)
        traces = {f"sensor_{i + 1}": generate_trace(ActivityKind.RUN, 3.0, 60.0, seed=20 + i) for i in (2, 0, 1)}
        result = run_star_network(scenario, traces, 3.0, seed=9)
        keys = [(t, name) for t, name, _ in result.logged]
        assert len(set(t for t, _ in keys)) < len(keys)  # ties exist
        assert keys == sorted(keys)

    def test_log_replays_without_crc_errors(self):
        scenario = _star_scenario(2)
        traces = {
            "sensor_1": generate_trace(ActivityKind.FALL, 4.0, 60.0, seed=6),
            "sensor_2": generate_trace(ActivityKind.FALL, 4.0, 60.0, seed=7),
        }
        result = run_star_network(scenario, traces, 4.0, seed=8)
        blob = result.log_bytes()
        assert blob.startswith(LOG_MAGIC)
        frames = read_frame_log(blob)
        assert len(frames) == len(result.logged)
        assert (len(blob) - len(LOG_MAGIC)) == FRAME_LEN * len(frames)

    def test_silent_node_next_to_one_that_emits(self):
        # sensor_1's trace ends at 0.5 s, before its first wake tick at 1 s: it emits nothing
        scenario = _star_scenario(2)
        traces = {
            "sensor_1": generate_trace(ActivityKind.FALL, 0.5, 60.0, seed=1),
            "sensor_2": compose_schedule([(ActivityKind.FALL, 1.0), (ActivityKind.RUN, 2.0)], seed=2),
        }
        result = run_star_network(scenario, traces, 3.0, seed=3)
        assert (result.deliveries["sensor_1"].emitted, result.deliveries["sensor_1"].delivered) == (0, 0)
        assert result.deliveries["sensor_2"].delivered == result.deliveries["sensor_2"].emitted > 100
        assert {name for _, name, _ in result.logged} == {"sensor_2"}
        assert {frame.node_id for _, _, frame in result.logged} == {2}
        assert read_frame_log(result.log_bytes()) == [frame for _, _, frame in result.logged]

    def test_only_silent_nodes_log_nothing(self):
        traces = {f"sensor_{i + 1}": generate_trace(ActivityKind.FALL, 0.5, 60.0, seed=i) for i in range(2)}
        result = run_star_network(_star_scenario(2), traces, 0.5, seed=3)
        assert [(d.emitted, d.delivered) for d in result.deliveries.values()] == [(0, 0), (0, 0)]
        assert result.logged == []
        assert result.log_bytes() == LOG_MAGIC

    def test_dead_link_node_next_to_a_live_one(self):
        scenario = _star_scenario(2)
        scenario = dataclasses.replace(scenario, tx_power_dbm=-10.0, nodes={**scenario.nodes, "sensor_1": (300.0, 0.0)})
        traces = {name: compose_schedule([(ActivityKind.FALL, 1.0), (ActivityKind.RUN, 2.0)], seed=k)
                  for k, name in enumerate(("sensor_1", "sensor_2"))}
        result = run_star_network(scenario, traces, 3.0, seed=4)
        dead, live = result.deliveries["sensor_1"], result.deliveries["sensor_2"]
        assert dead.emitted > 100 and dead.delivered == 0
        assert live.delivered == live.emitted > 100
        assert [(name, frame.node_id) for _, name, frame in result.logged] == [("sensor_2", 2)] * live.delivered
        times = [t for t, _, _ in result.logged]
        assert times == sorted(times)
        assert [frame.seq for _, _, frame in result.logged] == list(range(live.emitted))
        assert read_frame_log(result.log_bytes()) == [frame for _, _, frame in result.logged]

    @pytest.mark.parametrize("duration_s", [0.0, -1.0, math.nan, math.inf])
    def test_duration_must_be_positive_and_finite(self, duration_s):
        trace = generate_trace(ActivityKind.REST, 1.0, 60.0, seed=1)
        with pytest.raises(ParameterError, match="duration_s must be positive and finite"):
            run_star_network(_star_scenario(1), {"sensor_1": trace}, duration_s, seed=2)

    def test_star_determinism(self):
        scenario = _star_scenario(2)
        traces = {
            "sensor_1": generate_trace(ActivityKind.RUN, 3.0, 60.0, seed=1),
            "sensor_2": generate_trace(ActivityKind.REST, 3.0, 60.0, seed=2),
        }
        a = run_star_network(scenario, traces, 3.0, seed=9)
        b = run_star_network(scenario, traces, 3.0, seed=9)
        assert a.log_bytes() == b.log_bytes()
        assert {k: (d.emitted, d.delivered) for k, d in a.deliveries.items()} == {
            k: (d.emitted, d.delivered) for k, d in b.deliveries.items()
        }


_FOLLOW = (ActivityKind.FALL, ActivityKind.JUMP, ActivityKind.RUN, ActivityKind.SLOW_WALK)


def _drill(n_nodes, dead=None, silent=None, follow=0):
    """A 4 s drill of `n_nodes` sensors, each opening with a fall so that it emits a frame per
    sample from 1 s on (from 14 nodes the MAC drops frames); sensor `dead` sits out of range
    of the base, and sensor `silent`'s trace ends before its first wake tick."""
    scenario = _star_scenario(n_nodes)
    if dead is not None:
        scenario = dataclasses.replace(scenario, tx_power_dbm=-10.0,
                                       nodes={**scenario.nodes, f"sensor_{dead}": (300.0, 0.0)})
    traces = {f"sensor_{k}": compose_schedule([(ActivityKind.FALL, 2.0), (_FOLLOW[(follow + k) % 4], 2.0)],
                                              60.0, seed=follow + k)
              for k in range(1, n_nodes + 1)}
    if silent is not None:
        traces[f"sensor_{silent}"] = generate_trace(ActivityKind.FALL, 0.5, 60.0, seed=silent)
    return scenario, traces


@st.composite
def _crowds(draw):
    """(n_nodes, dead, silent): 1-16 sensors, maybe one with a dead link, maybe one that emits nothing."""
    n_nodes = draw(st.integers(1, 16))
    node = st.none() | st.integers(1, n_nodes)
    return n_nodes, draw(node), draw(node)


@settings(max_examples=25, deadline=None)
@given(crowd=_crowds(), follow=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
@example(crowd=(16, None, None), follow=0, seed=1)  # every node active: the MAC drops frames
@example(crowd=(3, 2, 3), follow=1, seed=2)  # a dead link beside a node that emits nothing
def test_star_log_is_packed_from_its_columns(crowd, follow, seed):
    scenario, traces = _drill(*crowd, follow=follow)
    result = run_star_network(scenario, traces, 4.0, seed)
    log = result.log_bytes()
    assert "logged" not in vars(result)
    frames = [frame for *_, frame in result.logged]
    assert log == frames_reference.write_frame_log(frames)
    assert read_frame_log(log) == frames
    assert [frame.node_id for _, _, frame in result.logged] == [sorted(traces).index(name) + 1
                                                                for _, name, _ in result.logged]
    keys = [(frame.timestamp_ms, frame.node_id) for frame in frames]
    assert keys == sorted(keys)  # in time order, ties in node name order
    for name, d in result.deliveries.items():
        seqs = [frame.seq for _, n, frame in result.logged if n == name]
        assert len(seqs) == d.delivered and seqs == sorted(set(seqs)) and set(seqs) <= set(range(d.emitted))


def test_star_results_compare_by_deliveries_and_frames():
    scenario, traces = _drill(16)  # the MAC drops frames, so the seed decides which are logged
    a, b, c = (run_star_network(scenario, traces, 4.0, seed) for seed in (1, 1, 2))
    assert a.deliveries["sensor_1"].delivered < a.deliveries["sensor_1"].emitted
    assert a == b and a.log_bytes() == b.log_bytes()
    assert a != c and a.log_bytes() != c.log_bytes()
    assert "logged" not in vars(a)  # compared by columns, without building frames
    assert a != a.log_bytes()


# a log body of whole records, each with a valid CRC, reaches the field checks of every record
_record = st.binary(min_size=FRAME_LEN - 2, max_size=FRAME_LEN - 2).map(
    lambda body: body + struct.pack(">H", frames_reference.crc16_ccitt_false(body))
)
_logs = st.one_of(
    st.binary(max_size=4 * FRAME_LEN),
    st.binary(max_size=4 * FRAME_LEN).map(LOG_MAGIC.__add__),
    st.lists(_record, max_size=4).map(lambda records: LOG_MAGIC + b"".join(records)),
)


@given(_logs)
def test_read_arbitrary_bytes_raises_only_bsnsim_errors(data):
    try:
        frames = read_frame_log(data)
    except BsnsimError:
        return
    assert all(isinstance(frame, SensorFrame) for frame in frames)
