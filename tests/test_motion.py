"""Trace generator contracts: envelopes, determinism, scheduling."""

import dataclasses
import hashlib
from unittest import mock

import numpy as np
import pytest

from bsnsim import motion
from bsnsim.errors import ParameterError
from bsnsim.motion import _BLOCK, _SWAY, AccelTrace, ActivityKind, _Sway, compose_schedule, generate_trace, sample_count
from bsnsim.sensor import initial_state, replay_trace

SLOW = (ActivityKind.SIT_STAND, ActivityKind.LEFT_RIGHT_ROTATION, ActivityKind.SLOW_WALK)


def test_rest_total_band():
    trace = generate_trace(ActivityKind.REST, 10.0, 60.0, seed=1)
    total = trace.total()
    assert total.min() >= 0.95 and total.max() <= 1.05


@pytest.mark.parametrize("seed", range(25))
def test_rest_mean_near_gravity_every_window(seed):
    trace = generate_trace(ActivityKind.REST, 8.0, 60.0, seed=seed)
    total = trace.total()
    w = 60  # 1 s
    for start in range(0, len(trace) - w + 1, w // 2):
        assert abs(total[start : start + w].mean() - 1.0) <= 0.02


@pytest.mark.parametrize("kind", SLOW)
@pytest.mark.parametrize("seed", range(15))
def test_slow_modes_stay_in_band(kind, seed):
    trace = generate_trace(kind, 30.0, 60.0, seed=seed)
    total = trace.total()
    assert total.min() >= 0.9
    assert total.max() <= 1.3


@pytest.mark.parametrize("kind", SLOW)
def test_slow_modes_vary_mostly_in_plane(kind):
    trace = generate_trace(kind, 30.0, 60.0, seed=3)
    std_plane = max(trace.ax.std(), trace.ay.std())
    assert std_plane > trace.az.std()


@pytest.mark.parametrize("seed", range(15))
def test_run_exits_band_and_exceeds_slow_z_variation(seed):
    run = generate_trace(ActivityKind.RUN, 10.0, 60.0, seed=seed)
    walk = generate_trace(ActivityKind.SLOW_WALK, 10.0, 60.0, seed=seed)
    total = run.total()
    assert (total > 1.3).any() or (total < 0.9).any()
    assert run.az.std() > 2.0 * walk.az.std()


@pytest.mark.parametrize("kind", [ActivityKind.JUMP, ActivityKind.FALL])
@pytest.mark.parametrize("seed", range(15))
def test_event_kinds_z_span_and_band_exit(kind, seed):
    trace = generate_trace(kind, 5.0, 60.0, seed=seed)
    assert trace.az.max() - trace.az.min() > 2.0
    total = trace.total()
    assert (total < 0.9).any()
    assert (total > 1.3).any()


def test_fall_z_span_at_low_rate():
    trace = generate_trace(ActivityKind.FALL, 5.0, 10.0, seed=3)
    assert trace.az.max() - trace.az.min() > 2.0


def test_determinism_bit_identical():
    a = generate_trace(ActivityKind.SLOW_WALK, 7.0, 60.0, seed=9)
    b = generate_trace(ActivityKind.SLOW_WALK, 7.0, 60.0, seed=9)
    assert np.array_equal(a.ax, b.ax) and np.array_equal(a.ay, b.ay) and np.array_equal(a.az, b.az)
    c = generate_trace(ActivityKind.SLOW_WALK, 7.0, 60.0, seed=10)
    assert not np.array_equal(a.az, c.az)


def _trace(az, labels=None, rate_hz=60.0):
    az = np.asarray(az, dtype=float)
    return AccelTrace(rate_hz, np.zeros(len(az)), np.zeros(len(az)), az, labels or [ActivityKind.REST] * len(az))


def test_traces_compare_by_rate_axes_and_labels():
    a, b = generate_trace(ActivityKind.REST, 1.0, seed=1), generate_trace(ActivityKind.REST, 1.0, seed=1)
    assert a == b and not a != b
    # the labels compare as sequences
    assert a == AccelTrace(a.rate_hz, a.ax.copy(), a.ay.copy(), a.az.copy(), tuple(a.labels))
    assert a != generate_trace(ActivityKind.REST, 1.0, seed=2)
    one = _trace([1.0, 1.0])
    assert one == _trace([1.0, 1.0])
    assert one != _trace([1.0, 1.5])  # one sample differs
    assert one != _trace([1.0, 1.0, 1.0]) and one != _trace([1.0])  # another length
    assert one != _trace([1.0, 1.0], rate_hz=50.0)
    assert one != _trace([1.0, 1.0], [ActivityKind.REST, ActivityKind.FALL])
    assert one != (60.0, one.ax, one.ay, one.az, one.labels)
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_sample_spacing():
    trace = generate_trace(ActivityKind.REST, 3.0, 50.0, seed=0)
    assert np.allclose(np.diff(trace.t), 1.0 / 50.0)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        generate_trace(ActivityKind.REST, 0.0, 60.0)
    with pytest.raises(ParameterError):
        generate_trace(ActivityKind.REST, 1.0, 5.0)
    with pytest.raises(ParameterError):
        generate_trace(ActivityKind.REST, 1.0, 200.0)
    with pytest.raises(ParameterError):
        compose_schedule([])
    with pytest.raises(ParameterError):
        compose_schedule([(ActivityKind.REST, -1.0)])
    for duration_s in (float("nan"), float("inf")):
        with pytest.raises(ParameterError, match="duration_s must be positive and finite"):
            generate_trace(ActivityKind.REST, duration_s)
        with pytest.raises(ParameterError, match="segment 1 duration must be positive and finite"):
            compose_schedule([(ActivityKind.REST, 1.0), (ActivityKind.FALL, duration_s)])


@pytest.mark.parametrize("rate_hz", [0.0, float("nan"), float("inf"), -60.0, 5.0])
def test_trace_rejects_rate_outside_band(rate_hz):
    t = np.arange(3) / 60.0
    with pytest.raises(ParameterError, match="rate_hz must be a finite number in \\[10, 100\\]"):
        AccelTrace(rate_hz=rate_hz, ax=0 * t, ay=0 * t, az=1 + 0 * t, labels=[ActivityKind.REST] * 3)


def test_trace_names_its_first_non_finite_sample_as_a_replay_does():
    # sample order, then x, y, z: sample 1's y comes before its z and before sample 2
    ay, az = np.array([0.0, np.nan, 0.0]), np.array([1.0, np.inf, -np.inf])
    with pytest.raises(ParameterError, match="^acceleration must be finite, got nan$"):
        AccelTrace(rate_hz=60.0, ax=np.zeros(3), ay=ay, az=az, labels=[ActivityKind.REST] * 3)


@pytest.mark.parametrize(
    "axis, got",
    [
        ([0.0, 0.0, 0.0], "list"),
        (np.zeros((3, 1)), "a 2-D float64 array"),
        (np.zeros(3, dtype=np.int64), "a 1-D int64 array"),
        (np.zeros(3, dtype=np.complex128), "a 1-D complex128 array"),
    ],
    ids=["list", "two_dimensional", "integer", "complex"],
)
def test_trace_axes_must_be_1d_real_float_arrays(axis, got):
    # a list-built trace would otherwise fail later, outside the bsnsim errors, e.g. in detect_abnormal
    ok = np.zeros(3)
    with pytest.raises(ParameterError, match=f"trace axis ay must be a 1-D numpy array of real floats, got {got}$"):
        AccelTrace(rate_hz=60.0, ax=ok, ay=axis, az=ok + 1.0, labels=[ActivityKind.REST] * 3)


_REASSIGNMENTS = {
    "zero_rate": ("rate_hz", lambda trace: 0.0, "rate_hz must be a finite number in \\[10, 100\\]"),
    "megahertz_rate": ("rate_hz", lambda trace: 1e6, "rate_hz must be a finite number in \\[10, 100\\]"),
    "short_labels": ("labels", lambda trace: trace.labels[:10], "trace arrays must share one length"),
    "list_axis": ("ax", lambda trace: trace.ax.tolist(),
                  "trace axis ax must be a 1-D numpy array of real floats, got list"),
    "five_sample_axis": ("ax", lambda trace: np.zeros(5), "trace arrays must share one length"),
}


@pytest.mark.parametrize("made", [lambda: generate_trace(ActivityKind.REST, 1.0, seed=1), lambda: _trace(np.ones(60))],
                         ids=["generated", "constructed"])
@pytest.mark.parametrize("field, value, message", _REASSIGNMENTS.values(), ids=_REASSIGNMENTS)
def test_a_trace_refuses_assignment_and_replace_checks_the_change(made, field, value, message):
    # an assigned field would escape the constructor's checks: a zero rate divides by zero in a
    # replay, shortened labels replay 0 frames, a 5-sample axis raises an IndexError
    trace = made()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(trace, field, value(trace))
    assert trace == made()
    with pytest.raises(ParameterError, match=f"^{message}"):
        dataclasses.replace(trace, **{field: value(trace)})


def test_single_segment_schedule_matches_generate():
    single = compose_schedule([(ActivityKind.REST, 2.0)], seed=4)
    direct = generate_trace(ActivityKind.REST, 2.0, seed=4)
    assert np.array_equal(single.az, direct.az)
    assert single.labels == direct.labels


def test_schedule_concatenation_boundary():
    trace = compose_schedule([(ActivityKind.REST, 2.0), (ActivityKind.FALL, 1.0)], seed=0)
    assert len(trace) / trace.rate_hz == pytest.approx(3.0)
    assert np.allclose(np.diff(trace.t), 1.0 / 60.0)
    boundary = 120  # 2 s at 60 Hz
    assert all(l is ActivityKind.REST for l in trace.labels[:boundary])
    assert all(l is ActivityKind.FALL for l in trace.labels[boundary:])
    assert trace.t[boundary] == pytest.approx(2.0)


def test_schedule_walk_then_run_envelope():
    trace = compose_schedule([(ActivityKind.SLOW_WALK, 10.0), (ActivityKind.RUN, 10.0)], seed=7)
    half = len(trace) // 2
    total = trace.total()
    first, second = total[:half], total[half:]
    assert ((first >= 0.9) & (first <= 1.3)).all()
    assert ((second > 1.3) | (second < 0.9)).any()


# SHA-256 of the ax, ay and az bytes of generate_trace(kind, duration_s,
# rate_hz, seed), fixed when every event jitter was its own rng.uniform call.
# The 0.5 s falls and 2.0 s jumps have an event cut short at the trace end;
# the 0.3 s jump at 10 Hz is a 3-sample segment, below the 5-sample event.
# The sway kinds and the run were pinned later, from the eager sway formula,
# to hold the on-demand evaluator to its bits.
MOTION_SHA256 = {
    (ActivityKind.FALL, 4.0, 10.0, 3): "13947cbd9cfcf4c50d427056547c740a2539920db2e7a115d3f70e2d9921d772",
    (ActivityKind.FALL, 0.5, 10.0, 5): "317106fe55c367cac2568d3814432dfc845709144d344c2219c778966648bd6b",
    (ActivityKind.FALL, 4.0, 60.0, 3): "56abfec90427805481a9fd3beca8625e1df4c4d402d9d3293947148d5ae3544a",
    (ActivityKind.FALL, 0.5, 60.0, 5): "12142657cc0f1fb346a411349adcb7fb37fb36ea3c9d01e5cc3f8816debd8ced",
    (ActivityKind.FALL, 4.0, 100.0, 3): "009d0a145181572c5b90bba034fdaebfa8b47a48e4b6bc1bf498ffc1effc7195",
    (ActivityKind.FALL, 0.5, 100.0, 5): "afd6c08c7d1878db60c963b713875e90a3e373dc1c0da2d860f45cf133120e85",
    (ActivityKind.JUMP, 6.3, 10.0, 3): "9753614642c46879c6daf358dd340a8ca9c015836ef1b185dcf8649e223f8321",
    (ActivityKind.JUMP, 2.0, 10.0, 8): "3e195d4f5fa81f69eb6ff04e846a8ea9fe8c31f03c0b00d700761551e7d7eafe",
    (ActivityKind.JUMP, 6.3, 60.0, 3): "061cda23183bcb2dadb34ff2b7b476067d635ccb847665b6e3d26bea660e6658",
    (ActivityKind.JUMP, 2.0, 60.0, 8): "cb3cb5702d025f4a04b1e8c710d25d376f9db2365ca4f5603d880daf48cdeb92",
    (ActivityKind.JUMP, 6.3, 100.0, 3): "0b7ccaf5c5cc1b9a1949397b2cbe45fc61cc1984f1813a153f3d2ea1b9834c49",
    (ActivityKind.JUMP, 2.0, 100.0, 8): "01f32f552dd5903d860991adb90347c31a49fc536e4d2c13043ea89e1ad78777",
    (ActivityKind.JUMP, 0.3, 10.0, 4): "2425728e24ad6d7d02d349d3815e95736a840d48e438694015d71eb7c026c9ad",
    (ActivityKind.REST, 20.0, 10.0, 3): "7a409d6dbc70f8fe02871cd5bb154af1168c3104ea93362d94925435998fe001",
    (ActivityKind.REST, 0.5, 10.0, 5): "9c0df59c1cbc714b4894fa5849de95f4f9ab569deaf7a22894f4f962fa5eb2dc",
    (ActivityKind.REST, 20.0, 60.0, 3): "d7e48492318c5dd111900a5fbfcdc01aabe39afe0fb2253610e3d5c4b8e10d42",
    (ActivityKind.REST, 0.5, 60.0, 5): "135f36a345e3e3075e9b6033c3e51f68b90d0021bcf7d7e16d42b2b340888c52",
    (ActivityKind.REST, 20.0, 100.0, 3): "393f604c3b58c595490ba78047601b22c1c5d75d71ed0946354ddf3395ede00b",
    (ActivityKind.REST, 0.5, 100.0, 5): "c1f9347c669cda4940eef3a77463e95e777baf9af96f999fcb2d0c384d8ed7af",
    (ActivityKind.SIT_STAND, 6.3, 10.0, 3): "333a58c8d2aafff2fc9383e119df00b84f828f3bfd135240aa9d211ee131a907",
    (ActivityKind.SIT_STAND, 2.0, 10.0, 8): "f90d375ecaf8203dd946c4b573b58a9fd4208789ea52f934132f8e9313c0285a",
    (ActivityKind.SIT_STAND, 6.3, 60.0, 3): "44d41d87220e740087b7dc138c25c8b7e30bde17f4fd6fd4491750fd773a49b0",
    (ActivityKind.SIT_STAND, 2.0, 60.0, 8): "25936eaf662670fc662d69c0b27d17088525f0e143db18e1bfd7910ba8520413",
    (ActivityKind.SIT_STAND, 6.3, 100.0, 3): "ced43934a2e5f4c39593826b0a68cb05df74ed88f41951eeb54cee0d8c504bc8",
    (ActivityKind.SIT_STAND, 2.0, 100.0, 8): "45a0fc6552d4478e9dbeccd8995890d5b166e4f7b0502ded8f8d0f27a8820b08",
    (ActivityKind.LEFT_RIGHT_ROTATION, 6.3, 10.0, 3): "91cdc1d486ab426a82871cc001a39aeca7847975d680d47c37f8153d42373e43",
    (ActivityKind.LEFT_RIGHT_ROTATION, 2.0, 10.0, 8): "7492ddf422cae7fbb0b5d281528bbc3b407a84b097cc3996c9013e9236387f26",
    (ActivityKind.LEFT_RIGHT_ROTATION, 6.3, 60.0, 3): "039c68c192bad1db0c521541d3948b7f62749f7fc22fc19c366d1ffdd6382ce7",
    (ActivityKind.LEFT_RIGHT_ROTATION, 2.0, 60.0, 8): "1545fcd6e0bbf9dcc6f968fda6f1482e08b4bdcd20b72b3826081d65ae12549e",
    (ActivityKind.LEFT_RIGHT_ROTATION, 6.3, 100.0, 3): "431403575780e078cfeaf8af602570bd48655c4ba600e4e60784a60eb7438c89",
    (ActivityKind.LEFT_RIGHT_ROTATION, 2.0, 100.0, 8): "f7f3dd7b7ecd1cdedf068b668a32a5ed799a00ced85668c6c9c6c4f8b3bbef10",
    (ActivityKind.SLOW_WALK, 6.3, 10.0, 3): "151a4bbf7bb8b5cdcef1584b4612104fbca2ee0a13657bc0e362d523c1917a31",
    (ActivityKind.SLOW_WALK, 2.0, 10.0, 8): "82177f088c96aae1fe1f29626ffdb52654f8eee8b27a35df1aa21b497a16fa2e",
    (ActivityKind.SLOW_WALK, 6.3, 60.0, 3): "1ff5b8990750bdbf51cc7fdcbaad02afb826ab3b198c85b063e4622f05029f0f",
    (ActivityKind.SLOW_WALK, 2.0, 60.0, 8): "7476989808ac1abcd06a4b5899d1e9dc20cc544d092e518cadcc4c60c848aecb",
    (ActivityKind.SLOW_WALK, 6.3, 100.0, 3): "5831e159414f3ea1477f63fa85b6962d41814a87bf084194c7ad9c1474a745bd",
    (ActivityKind.SLOW_WALK, 2.0, 100.0, 8): "558a90bab7c79712ab556c909a01124d7905034158eb1228272bd177d5746242",
    (ActivityKind.RUN, 6.3, 10.0, 3): "3e9f30e5fd0eeab2d73c320c861d0a45bb844bb634dcc3a7f6382d7227cd7272",
    (ActivityKind.RUN, 2.0, 10.0, 8): "8a58224a41e7c12171773ed28fdb311ee49a5780c9de0a437ca55dcd9b261678",
    (ActivityKind.RUN, 6.3, 60.0, 3): "0b53d97d7a9adb059c2b3ebe04aed354e1453515c31ff103977229d4dc6a1e63",
    (ActivityKind.RUN, 2.0, 60.0, 8): "dbc9275b2b36153e4c5b7cdcabc78d86d5d435c21f2249540472b03a715350a8",
    (ActivityKind.RUN, 6.3, 100.0, 3): "dce072c47654e23d05fc6b22abe00a31bc00fc87ef84b54d8a1523d9e8e59c75",
    (ActivityKind.RUN, 2.0, 100.0, 8): "3a6a8b2cb1b8d3e9b9bf21d64e7a48bdf59eeb4a7c3bd77a72c036d3dc4b2100",
}


@pytest.mark.parametrize("kind, duration_s, rate_hz, seed", MOTION_SHA256, ids=lambda v: getattr(v, "name", v))
def test_event_traces_match_golden_bytes(kind, duration_s, rate_hz, seed):
    trace = generate_trace(kind, duration_s, rate_hz, seed=seed)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in (trace.ax, trace.ay, trace.az))).hexdigest()
    assert digest == MOTION_SHA256[kind, duration_s, rate_hz, seed]


# On-demand samples against the materialised trace, bit for bit. The sway
# kinds evaluate `np.sin` on the indices a reader asks for; a host whose SIMD
# `sin` rounds a short call differently from the full-length one fails here.
# Segment lengths in samples: 1-4 sample segments, and counts that are not
# integers (duration_s * rate_hz = 4.4 rounds to 4, 37.6 to 38, 601.5 to 602).
DIFF_SAMPLES = (1, 2, 3, 4, 4.4, 37.6, 142.2, 601.5)
DIFF_SEEDS = (0, 7, 123)


def _bits(acc) -> bytes:
    return np.ascontiguousarray(acc, dtype=float).tobytes()


def _sleeping_reads(trace, wake_period_s=1.0):
    """The index lists a replay that never wakes reads through `trace._samples`, in order."""
    reads, samples = [], AccelTrace._samples

    def record(self, idx):
        reads.append(list(idx))
        return samples(self, idx)

    with mock.patch.object(AccelTrace, "_samples", record):
        replay_trace(initial_state(sample_rate_hz=trace.rate_hz, wake_period_s=wake_period_s,
                                   activation_threshold_g=10.0), trace)
    return reads


def _index_sets(n, rng):
    yield from ([0], [n - 1], list(range(n)))
    for size in (1, 2, 5, n // 2):
        if 0 < size <= n:
            yield np.sort(rng.choice(n, size=size, replace=False))


def _assert_on_demand_matches(lazy, full, index_sets):
    acc = np.array([full.ax, full.ay, full.az])
    for idx in index_sets:
        assert _bits(lazy._samples(idx)) == _bits(acc[:, idx]), list(idx)
    assert not {"ax", "ay", "az"} & lazy.__dict__.keys()  # no read above materialised


@pytest.mark.parametrize("rate_hz", [10.0, 60.0, 100.0])
@pytest.mark.parametrize("kind", list(ActivityKind), ids=lambda k: k.name)
def test_on_demand_samples_match_materialised_bits(kind, rate_hz):
    rng = np.random.default_rng(0)
    for seed in DIFF_SEEDS:
        for samples in DIFF_SAMPLES:
            args = (kind, samples / rate_hz, rate_hz, seed)
            lazy, full = generate_trace(*args), generate_trace(*args)
            reads = _sleeping_reads(lazy) + _sleeping_reads(lazy, wake_period_s=0.25)
            assert reads or len(full) < rate_hz / 4  # every trace of a quarter second has a wake tick
            _assert_on_demand_matches(lazy, full, [*reads, *_index_sets(len(full), rng)])


@pytest.mark.parametrize("rate_hz", [10.0, 60.0, 100.0])
@pytest.mark.parametrize("seed", DIFF_SEEDS)
def test_on_demand_schedule_samples_match_across_segment_boundaries(rate_hz, seed):
    rng = np.random.default_rng(seed)
    kinds = list(ActivityKind)
    for _ in range(4):
        segments = [(kinds[int(k)], float(rng.choice(DIFF_SAMPLES)) / rate_hz)
                    for k in rng.integers(len(kinds), size=int(rng.integers(2, 7)))]
        lazy, full = compose_schedule(segments, rate_hz, seed), compose_schedule(segments, rate_hz, seed)
        counts = [max(1, sample_count(duration_s, rate_hz)) for _, duration_s in segments]
        n, starts = len(full), np.cumsum([0, *counts[:-1]])
        # each boundary's neighbours, and index sets that span several segments
        around = [np.unique(np.clip([s - 1, s, s + 1], 0, n - 1)) for s in starts]
        spans = [np.unique(np.clip(np.concatenate([starts - 1, starts]), 0, n - 1)), list(range(n))]
        reads = _sleeping_reads(lazy, wake_period_s=0.1)
        _assert_on_demand_matches(lazy, full, [*reads, *around, *spans, *_index_sets(n, rng)])
        # a whole replay, on demand against a materialised trace
        state = initial_state(sample_rate_hz=rate_hz, wake_period_s=0.1)
        assert replay_trace(state, lazy) == replay_trace(state, full)


def test_an_unread_trace_keeps_the_public_contracts():
    def made():
        return compose_schedule([(ActivityKind.REST, 2.5), (ActivityKind.FALL, 1.5)], seed=4)

    full = made()
    acc = np.array([full.ax, full.ay, full.az])
    assert len(made()) == 240 and np.array_equal(made().t, full.t)
    assert np.array_equal(made().total(), full.total())
    assert made() == full and dataclasses.replace(made()) == full
    relabelled = dataclasses.replace(made(), labels=[ActivityKind.RUN] * 240)
    assert np.array_equal(relabelled.ax, full.ax) and relabelled != full
    # an axis once read is the array later reads see, so an edit reaches the node
    trace = made()
    trace.ax[30] = np.nan
    assert np.isnan(trace._samples([30])[0, 0])
    with pytest.raises(AttributeError):
        trace.wx
    # a head shares the samples and clips the labels
    head = made()._head(100)
    assert len(head) == 100 and _bits([head.ax, head.ay, head.az]) == _bits(acc[:, :100])
    assert head.labels == full.labels[:100]


def test_a_materialised_trace_is_checked_finite():
    trace = generate_trace(ActivityKind.REST, 1.0, seed=1)
    trace._parts[0][1].noise[1, 5] = np.inf
    with pytest.raises(ParameterError, match="^acceleration must be finite, got inf$"):
        trace.az


# SHA-256 of the ax, ay and az bytes of compose_schedule(segments, rate_hz,
# seed), fixed while every segment was its own part: a ward_night-like
# rest/slow-walk/rest, a rest/fall/rest, and sway segments of 1-4 samples
# (durations given in samples, divided by the rate).
COMPOSE_SCHEDULES = {
    "rest_walk_rest": ([(ActivityKind.REST, 7.0), (ActivityKind.SLOW_WALK, 3.0), (ActivityKind.REST, 8.5)], 11),
    "rest_fall_rest": ([(ActivityKind.REST, 11.0), (ActivityKind.FALL, 3.0), (ActivityKind.REST, 2.0)], 5),
    "short_sway": ([(ActivityKind.REST, 1), (ActivityKind.SIT_STAND, 2), (ActivityKind.LEFT_RIGHT_ROTATION, 3),
                    (ActivityKind.SLOW_WALK, 4), (ActivityKind.REST, 1)], 3),
}
COMPOSE_SHA256 = {
    ("rest_walk_rest", 10.0): "c5a2736d7bb3b3cdd18ab8d86c910fac76adf3f7b89a2b7bfca420b2609e51db",
    ("rest_walk_rest", 60.0): "4191411b2190ae0e9e11dfe8cd9b45b5cd831d94da057530ffe8a6778ab29ac7",
    ("rest_walk_rest", 100.0): "81acbede51398dbcf0eed04b8352131814e7518cfc4cf710959d07ebc0f03c4e",
    ("rest_fall_rest", 10.0): "3ca881c8da2711625e5cc176c0cd71464668b1a08a5d470f8bf6271728eebaff",
    ("rest_fall_rest", 60.0): "4c5ffc7a36fdb5e5e822707baa80c4ef64dac06f537055d5adee33a3a7e7b409",
    ("rest_fall_rest", 100.0): "b663ff195ed2f6b95ccffbb63bb9ef31d58fff555c8991f3c24ef5c78c9f1ed5",
    ("short_sway", 10.0): "2d5f035cdee3be4091d86bad682d23765872f4b13712b2a3445281a1e234bd4b",
    ("short_sway", 60.0): "4570e66982ce7526165a944ff8740e518956fe17c22cb693066076117c230e11",
    ("short_sway", 100.0): "2553c827794ddaaedf5acd82e0cbe9cd75b1f242b349b2b3accd9c8f7bb8a5db",
}


def _schedule(name, rate_hz):
    segments, seed = COMPOSE_SCHEDULES[name]
    if name == "short_sway":
        segments = [(kind, samples / rate_hz) for kind, samples in segments]
    return compose_schedule(segments, rate_hz, seed)


@pytest.mark.parametrize("name, rate_hz", COMPOSE_SHA256)
def test_composed_schedules_match_golden_bytes(name, rate_hz):
    trace = _schedule(name, rate_hz)
    digest = hashlib.sha256(b"".join(a.tobytes() for a in (trace.ax, trace.ay, trace.az))).hexdigest()
    assert digest == COMPOSE_SHA256[name, rate_hz]


def test_adjacent_sway_segments_share_one_part():
    sway = _schedule("short_sway", 60.0)
    assert [start for start, _ in sway._parts] == [0] and isinstance(sway._parts[0][1], _Sway)
    assert sway._parts[0][1].starts.tolist() == [0, 1, 3, 6, 10]
    fall = _schedule("rest_fall_rest", 60.0)
    assert [(start, type(part)) for start, part in fall._parts] == [(0, _Sway), (660, np.ndarray), (840, _Sway)]
    # the run, jump and fall are evaluated when generated and never joined
    run = compose_schedule([(ActivityKind.REST, 1.0), (ActivityKind.RUN, 1.0), (ActivityKind.SLOW_WALK, 1.0)])
    assert [type(part) for _, part in run._parts] == [_Sway, np.ndarray, _Sway]


def test_a_schedule_generates_each_segment_through_the_module_generate_trace(monkeypatch):
    # the benchmark's tracer (bench/spans.py) counts motion samples where `compose_schedule` calls
    # `motion.generate_trace`: a schedule built around that name keeps its bytes but reads 0 there
    lengths, generate = [], motion.generate_trace

    def counting(*args):
        segment = generate(*args)
        lengths.append(len(segment))
        return segment

    monkeypatch.setattr(motion, "generate_trace", counting)
    trace = _schedule("rest_fall_rest", 60.0)
    assert lengths == [660, 180, 120] and sum(lengths) == len(trace)


def _counting_sway_at():
    calls, at = [], _Sway.at

    def record(self, idx):
        calls.append(len(idx))
        return at(self, idx)

    return calls, mock.patch.object(_Sway, "at", record)


@pytest.mark.parametrize("rate_hz", [10.0, 60.0, 100.0])
def test_a_sleeping_read_is_one_sway_call(rate_hz):
    trace = _schedule("rest_walk_rest", rate_hz)
    calls, patch = _counting_sway_at()
    with patch:
        reads = _sleeping_reads(trace)
    # the 18 wake ticks of the 18.5 s rest, walk and rest, read in one `_Sway.at` call per `_samples` call
    assert len(calls) == len(reads) and sum(calls) == sum(map(len, reads)) == 18
    (_, sway), = trace._parts
    assert set(np.searchsorted(sway.starts, np.concatenate(reads), side="right")) == {1, 2, 3}


def test_materialising_a_joined_trace_passes_at_most_a_block_per_sway_call():
    trace = _schedule("rest_walk_rest", 100.0)
    calls, patch = _counting_sway_at()
    with patch:
        trace.ax
    assert max(calls) == _BLOCK and sum(calls) == len(trace) == 1850


# (low, span) of every `_SWAY` band, the phase range and the weight range
_DRAW_SCALES = sorted({(lo, span) for low, spans, *_ in _SWAY.values() for lo, span in zip(low[:, 0], spans[:, 0])})


@pytest.mark.parametrize("lo, span", _DRAW_SCALES)
def test_uniform_draws_are_the_scaled_unit_draws(lo, span):
    # `_Sway.draw` scales `rng.random` as numpy's `uniform` does; a numpy release that
    # changes `uniform`'s arithmetic fails here, naming the cause the byte pins would not
    hi = lo + span
    assert hi - lo == span
    for seed in range(8):
        drawn = np.random.default_rng(seed).uniform(lo, hi, 6)
        assert _bits(drawn) == _bits(lo + (hi - lo) * np.random.default_rng(seed).random(6))


def test_draw_scales_cover_every_band_the_phase_and_the_weight():
    bands = {(1.0, 3.0), (1.0, 2.0), (1.0, 2.5), (1.5, 3.5), (2.0, 6.0), (1.0, 4.0)}
    assert {(lo, lo + span) for lo, span in _DRAW_SCALES} == bands | {(0.0, 2.0 * np.pi), (0.4, 1.0)}


@pytest.mark.parametrize("made", [lambda: compose_schedule([(ActivityKind.REST, 2.5), (ActivityKind.FALL, 1.5)], seed=4),
                                  lambda: _trace(np.ones(240))], ids=["composed", "constructed"])
def test_a_trace_holds_its_labels_as_a_tuple(made):
    # an in-place edit of the labels would escape the length check: an appended label made a
    # replay raise IndexError, and deleted ones made it replay 10 samples and 0 frames
    trace = made()
    with pytest.raises(AttributeError):
        trace.labels.append(ActivityKind.REST)
    with pytest.raises(TypeError):
        del trace.labels[10:]
    assert trace == made() and len(trace) == 240
    labels = [ActivityKind.REST] * 3
    constructed = _trace(np.ones(3), labels)
    labels.append(ActivityKind.FALL)
    assert constructed.labels == (ActivityKind.REST,) * 3
