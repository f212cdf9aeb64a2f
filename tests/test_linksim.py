"""Echo-test statistics, timeout accounting, and the star network."""

import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import rf_reference
from bsnsim.errors import BsnsimError, ParameterError, ScenarioError
from bsnsim.frames import FRAME_LEN, LOG_MAGIC, SensorFrame, crc16_ccitt, read_frame_log
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
from bsnsim.rf import ChannelSpec, RadioPath, Wall
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


def test_direction_depends_only_on_placement():
    scenario = load_scenario("apartment_microwave")
    outbound = Direction.of(scenario, "base", "remote")
    assert set(outbound.interferers) == set(scenario.interferers)
    assert Direction.of(scenario.with_interferer_enabled("oven", False), "base", "remote") == outbound
    assert Direction.of(scenario, "remote", "base") != outbound


def test_direction_lacking_an_interferer_is_a_parameter_error():
    scenario = load_scenario("apartment_microwave")
    without_oven = {name: it for name, it in scenario.interferers.items() if name != "oven"}
    outbound = Direction.of(dataclasses.replace(scenario, interferers=without_oven), "base", "remote")
    with pytest.raises(ParameterError, match="direction has no path for interferer 'oven'"):
        direction_success_prob(scenario, outbound, ChannelSpec.wpan(20), -10.0)


def test_direction_records_each_interferer_as_placed():
    scenario = load_scenario("apartment_microwave")
    outbound = Direction.of(scenario, "base", "remote")
    rx = scenario.node("remote")
    obstacles = list(scenario.obstacles.values())
    for name, it in scenario.interferers.items():
        channel, path, loss_db = outbound.interferers[name]
        assert channel == it.channel
        losses = tuple(ob.effective_loss_db(scenario.material_table())
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
    assert uplinks == [Direction.of(scenario, name, "base") for name in names]
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
    outbound = Direction.of(scenario, "base", "remote")
    moved = dataclasses.replace(scenario.interferers["neighbor_ch1_a"], channel=ChannelSpec.wlan(6))
    retuned = dataclasses.replace(scenario, interferers={**scenario.interferers, "neighbor_ch1_a": moved})
    with pytest.raises(ParameterError, match="interferer 'neighbor_ch1_a' is on wlan channel 6 "
                                             "but was placed on wlan channel 1"):
        direction_success_prob(retuned, outbound, ChannelSpec.wpan(12), -10.0)
    assert direction_success_prob(retuned, Direction.of(retuned, "base", "remote"), ChannelSpec.wpan(12), -10.0) > 0


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


# a log body of whole records, each with a valid CRC, reaches the field checks of every record
_record = st.binary(min_size=FRAME_LEN - 2, max_size=FRAME_LEN - 2).map(
    lambda body: body + struct.pack(">H", crc16_ccitt(body))
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
