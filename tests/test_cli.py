"""CLI surface: experiment outputs, exit codes, table export."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import types
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bsnsim
from bsnsim import cli, linksim
from bsnsim.cli import export_table, main
from bsnsim.frames import LOG_MAGIC, SensorFrame, encode_frame
from bsnsim.linksim import RunStats
from bsnsim.rf import InterferenceCalibration
from bsnsim.scenario import PRESET_NAMES


def test_export_table_format():
    rows = [
        (0.0, 12, RunStats((994, 993), 1000, 0.9935, 0.00070710678)),
        (-10.0, 12, RunStats((992,), 1000, 0.992, 0.0)),
        (-10.0, 20, RunStats((1000,), 1000, 1.0, 0.0)),
    ]
    text = export_table(rows)
    lines = text.strip().splitlines()
    assert lines[0] == "power_dbm,channel,mean_pct,std_pct"
    assert lines[1] == "0,12,99.35,0.07"
    assert lines[2] == "-10,12,99.20,0.00"
    assert lines[3] == "-10,20,100.00,0.00"
    assert len(lines) == 4


def test_export_table_empty():
    assert export_table([]) == "power_dbm,channel,mean_pct,std_pct\n"


def test_export_table_microwave_on_off_grid():
    # three channels with the oven on and off, like the microwave test table
    from bsnsim.linksim import EchoTestConfig, run_echo_test
    from bsnsim.rf import ChannelSpec
    from bsnsim.scenario import load_scenario

    scenario = load_scenario("apartment_microwave")
    rows = []
    for enabled in (True, False):
        scen = scenario.with_interferer_enabled("oven", enabled)
        for channel in (20, 19, 21):
            cfg = EchoTestConfig(channel=ChannelSpec.wpan(channel), tx_power_dbm=-10.0)
            rows.append((-10.0, channel, run_echo_test(cfg, scen, seed=1)))
    lines = export_table(rows).strip().splitlines()
    assert len(lines) == 7  # header + 3 channels x on/off
    on_ch20 = float(lines[1].split(",")[2])
    off_ch20 = float(lines[4].split(",")[2])
    assert on_ch20 < off_ch20


def test_run_echo_writes_outputs(tmp_path, capsys):
    code = main([
        "run", "echo", "--scenario", "apartment", "--channel", "12",
        "--power", "-10", "--seed", "5", "--out", str(tmp_path),
    ])
    assert code == 0
    table = (tmp_path / "echo_table.csv").read_text().strip().splitlines()
    assert table[0] == "power_dbm,channel,mean_pct,std_pct"
    assert len(table) == 2
    payload = json.loads((tmp_path / "echo_result.json").read_text())
    assert payload["seed"] == 5
    assert payload["config"]["channel"] == 12
    assert len(payload["result"]["per_run_success"]) == 10


def test_run_echo_reproducible(tmp_path):
    main(["run", "echo", "--scenario", "apartment", "--seed", "3", "--out", str(tmp_path / "a")])
    main(["run", "echo", "--scenario", "apartment", "--seed", "3", "--out", str(tmp_path / "b")])
    assert (tmp_path / "a/echo_result.json").read_bytes() == (tmp_path / "b/echo_result.json").read_bytes()


def test_run_scan_writes_16_rows(tmp_path):
    assert main(["run", "scan", "--scenario", "apartment", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "scan.csv").read_text().strip().splitlines()
    assert len(lines) == 17


def test_run_energy(tmp_path, capsys):
    assert main(["run", "energy", "--profile", "continuous", "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "128.7" in out


def test_run_classify(tmp_path):
    assert main(["run", "classify", "--activity", "fall", "--duration", "6",
                 "--seed", "2", "--out", str(tmp_path)]) == 0
    events = (tmp_path / "events.csv").read_text().strip().splitlines()
    assert len(events) == 2  # header plus the single fall event


@pytest.mark.parametrize("nodes", ["0", "256"])
def test_star_node_count_is_refused_before_a_trace_is_made(tmp_path, capsys, monkeypatch, nodes):
    made, replayed = [], []
    monkeypatch.setattr(cli, "compose_schedule", lambda *args, **kwargs: made.append(args))
    monkeypatch.setattr(linksim, "replay_trace", lambda *args: replayed.append(args))
    assert main(["run", "star", "--nodes", nodes, "--duration", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"error: --nodes must be an integer in [1, 255], got {nodes}\n"
    assert made == replayed == []


def test_star_then_replay_log(tmp_path, capsys):
    assert main(["run", "star", "--scenario", "apartment", "--nodes", "2",
                 "--duration", "12", "--seed", "4", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["replay-log", str(tmp_path / "frames.log")]) == 0
    out = capsys.readouterr().out
    lines = [l for l in out.splitlines() if l]
    assert lines[0].startswith("node_id,seq,")
    assert len(lines) > 1
    assert main(["replay-log", str(tmp_path / "frames.log"), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "replay.csv").read_text() == out
    # row for row, both hold node_id,seq,timestamp_ms,code_x,code_y,code_z: fields 3-8 of one, 1-6 of the other
    logged = [row.split(",")[2:8] for row in (tmp_path / "frames.csv").read_text().splitlines()]
    assert logged == [row.split(",")[:6] for row in lines]


# SHA-256 of the files of the README star command with seed 1 and of its replay-log
STAR_README_SHA256 = {
    "frames.log": "961a15d2912d7cbcece3c2b3b86295bdcf1ad39cdf5deda120c0a36a5002b237",
    "frames.csv": "e451a2b9ae6306905cec4d2fdfc43df6a5467f179e2e50c619b2abc175e50e68",
    "replay.csv": "d9ce89a3dc570e3cbb3b3ae9f75ba7726cb065c005650044dfeddc7af4ae8028",
}


def test_star_frame_log_matches_golden_bytes(tmp_path, capsys):
    assert main(["run", "star", "--scenario", "apartment", "--nodes", "3", "--duration", "30",
                 "--seed", "1", "--out", str(tmp_path)]) == 0
    assert main(["replay-log", str(tmp_path / "frames.log"), "--out", str(tmp_path)]) == 0
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in STAR_README_SHA256}
    assert digests == STAR_README_SHA256


def test_calibrate_command(tmp_path, capsys):
    assert main(["calibrate", "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "calibration.json").read_text())
    assert "logistic_midpoint_db" in payload
    report = (tmp_path / "fit_report.csv").read_text().strip().splitlines()
    assert len(report) == 10
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == 10
    for line, row in zip(printed, report[1:]):
        scenario, channel, power, role, target, model, _ = row.split(",")
        assert line == (f"{scenario} ch{channel} {float(power):+.0f} dBm [{role}]: "
                        f"target {target}%, model {model}%")
    assert printed[5] == "single_house ch20 -10 dBm [holdout]: target 99.91%, model 100.00%"
    assert printed[-1] == f"calibration written to {tmp_path / 'calibration.json'}"
    # the fitted file applied to runs, through calibrate.apply_overrides' one src caller
    calibration = str(tmp_path / "calibration.json")
    assert main(["run", "scan", "--calibration", calibration, "--out", str(tmp_path / "scan")]) == 0
    assert main(["run", "echo", "--calibration", calibration, "--runs", "2", "--messages", "10",
                 "--out", str(tmp_path / "echo")]) == 0
    assert capsys.readouterr().err == ""


_SCIPY_PROBE = """
import contextlib, io, sys
import bsnsim, bsnsim.cli
out = sys.argv[1]
with contextlib.redirect_stdout(io.StringIO()):
    scan_code = bsnsim.cli.main(["run", "scan", "--out", out + "/scan"])
    after_scan = "scipy" in sys.modules
    calibrate_code = bsnsim.cli.main(["calibrate", "--out", out + "/calibrate"])
print(scan_code, after_scan, calibrate_code, "scipy" in sys.modules)
"""


def test_scipy_loads_only_when_a_fit_runs(tmp_path):
    # a fresh interpreter: this session has loaded scipy already
    env = {**os.environ, "PYTHONPATH": str(Path(bsnsim.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "False", "0", "True"]
    assert (tmp_path / "calibrate" / "calibration.json").is_file()


def test_unknown_scenario_exit_code(tmp_path, capsys):
    assert main(["run", "echo", "--scenario", "nope", "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_bad_channel_exit_code(tmp_path, capsys):
    assert main(["run", "echo", "--scenario", "apartment", "--channel", "35",
                 "--out", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_replay_log_rejects_garbage(tmp_path, capsys):
    bad = tmp_path / "junk.log"
    bad.write_bytes(b"this is not a log")
    assert main(["replay-log", str(bad)]) == 2


def test_run_rejects_flags_of_other_experiments(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "classify", "--nodes", "3", "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "--nodes" in capsys.readouterr().err


def _flipped_log(tmp_path):
    log = bytearray(LOG_MAGIC + encode_frame(SensorFrame(1, 2, 3, (4, 5, 6), (1, 2, 3))))
    log[len(LOG_MAGIC) + 4] ^= 0x01
    path = tmp_path / "flipped.log"
    path.write_bytes(bytes(log))
    return ["replay-log", str(path)]


def _bad_calibration(text, experiment=("echo", "--runs", "1", "--messages", "10")):
    def argv(tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text(text)
        return ["run", *experiment, "--calibration", str(path), "--out", str(tmp_path)]
    return argv


def _calibration_text(**changes):
    return json.dumps({**asdict(InterferenceCalibration()), **changes})


def _bad_targets(*rows):
    def argv(tmp_path):
        path = tmp_path / "targets.csv"
        path.write_text("\n".join(["scenario,channel,tx_power_dbm,target_mean_pct,role", *rows]) + "\n")
        return ["calibrate", "--targets", str(path), "--out", str(tmp_path)]
    return argv


@pytest.mark.parametrize(
    "make_argv",
    [
        _flipped_log,
        lambda tmp_path: ["run", "star", "--nodes", "256", "--duration", "1", "--out", str(tmp_path)],
        # refused before a sample is allocated: the sample count is not a finite float
        lambda tmp_path: ["run", "classify", "--duration", "1e308", "--out", str(tmp_path)],
        lambda tmp_path: ["run", "star", "--duration", "1e308", "--out", str(tmp_path)],
        # numpy refuses each allocation outright (hundreds of PiB, or 7 PiB), so no memory is used
        lambda tmp_path: ["run", "classify", "--duration", "1e15", "--out", str(tmp_path)],
        lambda tmp_path: ["run", "star", "--duration", "1e15", "--nodes", "1", "--out", str(tmp_path)],
        lambda tmp_path: ["run", "echo", "--messages", "1000000000000000", "--runs", "1", "--out", str(tmp_path)],
        _bad_calibration('{"logistic_midpoint_db": 14.0}'),
        _bad_calibration("{not json"),
        _bad_calibration(_calibration_text(logistic_midpoint_db="abc"), ("scan",)),
        _bad_calibration(_calibration_text(logistic_scale_db=True), ("scan",)),
        _bad_calibration(_calibration_text(interferer_overrides={"oven": 3.0}), ("scan",)),
        # an override may name only a fitted field
        _bad_calibration(_calibration_text(interferer_overrides={"oven": {"position": [1.0, 2.0]}})),
        # refused by the file's own check, whether or not the scenario run holds the interferer
        *(_bad_calibration(_calibration_text(interferer_overrides={"neighbor_ch1_a": {"activity_factor": 1.5}}),
                           ("scan", "--scenario", scenario)) for scenario in ("single_house", "apartment")),
        _bad_targets("apartment,twelve,0,99.36,fit"),
        _bad_targets("apartment,12,0"),
        _bad_targets("apartment,12,0,nan,fit"),
        _bad_targets("apartment,12,0,99.36,fit", "apartment_microwave,20,-10,96.85,fit"),
        _bad_targets("apartment,12,0,99.36,holdout", "single_house,22,0,99.89,holdout",
                     "apartment_microwave,20,-10,96.85,holdout"),
    ],
    ids=["flipped_log_byte", "node_id_over_255", "classify_duration_1e308", "star_duration_1e308",
         "classify_unallocatable", "star_unallocatable", "echo_unallocatable",
         "calibration_missing_key", "calibration_malformed", "calibration_string_constant",
         "calibration_bool_constant", "calibration_override_not_object", "calibration_override_position",
         "calibration_override_out_of_range_single_house", "calibration_override_out_of_range_apartment",
         "targets_channel_not_a_number", "targets_short_row", "targets_nan_target", "targets_without_single_house",
         "targets_without_fit_rows"],
)
def test_bad_input_exits_2_with_one_error_line(tmp_path, capsys, make_argv):
    argv = make_argv(tmp_path)
    if make_argv is _flipped_log:
        # one case through the real entry point in a fresh interpreter, where an
        # uncaught exception would show as a traceback on stderr
        env = {**os.environ, "PYTHONPATH": str(Path(bsnsim.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-m", "bsnsim.cli", *argv],
                              capture_output=True, text=True, env=env, timeout=120)
        code, stderr = proc.returncode, proc.stderr
    else:
        # the rest in-process, without an interpreter start-up each: an exception escaping main fails the test
        code = main(argv)
        stderr = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in stderr
    lines = stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    if "--calibration" in argv:  # a bad calibration file is named
        assert lines[0].startswith(f"error: {argv[argv.index('--calibration') + 1]}: ")


@pytest.mark.parametrize(
    "text",
    ["[" * 100_000, *(_calibration_text(interferer_overrides={f"ov{br}en": {f"bogus{br}key": 1.0}})
                      for br in ("\n", "\r\n", "\u2028")),
     # a zero scale once divided by zero in the logistic, after the file was read
     _calibration_text(logistic_scale_db=0.0)],
    ids=["nested_too_deeply", "newline_in_names", "crlf_in_names", "line_separator_in_names", "zero_logistic_scale"],
)
def test_calibration_error_prints_one_line(tmp_path, capsys, text):
    # in-process: an uncaught exception fails the test instead of showing a traceback
    path = tmp_path / "calibration.json"
    path.write_text(text)
    assert main(["run", "scan", "--calibration", str(path), "--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {path}: ")


def test_no_table_the_cli_writes_holds_a_carriage_return(tmp_path, capsys):
    # every text file of every command, and replay-log's stdout: each line ends in a bare "\n"
    for argv in (["run", "echo", "--runs", "2", "--messages", "10"], ["run", "scan"],
                 ["run", "star", "--nodes", "2", "--duration", "3"], ["run", "classify", "--duration", "4"],
                 ["run", "energy"], ["calibrate"], ["replay-log", str(tmp_path / "frames.log")]):
        assert main([*argv, "--out", str(tmp_path)]) == 0
    assert main(["replay-log", str(tmp_path / "frames.log")]) == 0
    written = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.name != "frames.log"}
    assert {"scan.csv", "events.csv", "replay.csv", "fit_report.csv"} <= set(written)
    assert [name for name, data in written.items() if b"\r" in data] == []
    assert "\r" not in capsys.readouterr().out


def test_misspelt_override_name_is_one_error_line(tmp_path, capsys):
    path = tmp_path / "calibration.json"
    path.write_text(_calibration_text(interferer_overrides={"ovn": {"tx_power_dbm": 50.0}}))
    assert main(["run", "scan", "--calibration", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: interferer_overrides.ovn is not one of "
                                       "neighbor_ch1_a, neighbor_ch1_b, house_wlan, oven\n")
    assert not (tmp_path / "scan.csv").exists()


def test_error_line_escapes_only_line_breaks(tmp_path, capsys):
    path = tmp_path / "calibration.json"
    path.write_text(_calibration_text(interferer_overrides={"ov\nen": {"bogus\tkey": 1.0}}))
    assert main(["run", "scan", "--calibration", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: override of interferer ov\\nen: bogus\tkey is not one of "
                                       "activity_factor, tx_power_dbm\n")


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["run", "star", "--duration", "nan"], "--duration"),
        (["run", "classify", "--duration", "nan"], "--duration"),
        (["run", "star", "--duration", "inf"], "--duration"),
        (["run", "star", "--duration", "0"], "--duration"),
        (["run", "classify", "--duration", "-2"], "--duration"),
        (["run", "echo", "--power", "nan"], "--power"),
        (["run", "star", "--seed", "-1"], "--seed"),
        (["run", "echo", "--seed", "-1"], "--seed"),
        (["run", "classify", "--seed", "-1"], "--seed"),
    ],
    ids=["star_nan_duration", "classify_nan_duration", "star_inf_duration", "star_zero_duration",
         "classify_negative_duration", "echo_nan_power", "star_negative_seed", "echo_negative_seed",
         "classify_negative_seed"],
)
def test_bad_number_flag_is_usage_error(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out", str(tmp_path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"error: argument {flag}:" in err.splitlines()[-1]
    assert not any(tmp_path.iterdir())


# per input file the CLI reads: its argv ({} is the file) and a valid start for the fuzzed bytes
_FILE_INPUTS = {
    "scenario": (["run", "scan", "--scenario", "{}"], b"channel = 12\n[node base]\nx = 0\ny = 0\n"
                 b"[node remote]\nx = 3\ny = 4\n"),
    "calibration": (["run", "scan", "--calibration", "{}"], json.dumps(asdict(InterferenceCalibration())).encode()),
    "targets": (["calibrate", "--targets", "{}"], b"scenario,channel,tx_power_dbm,target_mean_pct,role\n"),
    "frame_log": (["replay-log", "{}"], LOG_MAGIC),
}


@pytest.mark.parametrize("which", sorted(_FILE_INPUTS))
@settings(max_examples=30, deadline=None)
@given(data=st.binary(max_size=64), after_valid_start=st.booleans())
def test_arbitrary_input_file_exits_0_or_2_with_one_error_line(which, data, after_valid_start):
    # in-process: an uncaught exception fails the test instead of showing a traceback
    argv, valid_start = _FILE_INPUTS[which]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input"
        path.write_bytes(valid_start + data if after_valid_start else data)
        argv = [arg.format(path) for arg in argv] + ["--out", str(Path(tmp) / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    lines = err.getvalue().splitlines()
    assert code == 0 and not lines or code == 2 and len(lines) == 1 and lines[0].startswith("error:")


def _commands(parser, prefix=()):
    """Each runnable subcommand of `parser`: its argv prefix and its actions, help aside."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _commands(sub, (*prefix, name))
            return
    yield prefix, [action for action in parser._actions if not isinstance(action, argparse._HelpAction)]


_COMMANDS = list(_commands(cli.build_parser()))
# Every flag value is one of these or a small valid value. No count above 16 and no duration above
# 5 s is drawn, since a run allocates or loops that many times; 1e308 is refused before any allocation.
_BAD_TOKENS = ["nan", "inf", "-1", "0", "1e308", "x", ""]
_VALID_BY_TYPE = {int: ["1", "3", "16"], cli._seed: ["1", "3", "16"], cli._positive_float: ["0.5", "2", "5"],
                  cli._finite_float: ["-10", "0", "2.5"]}


def _values(action):
    """The tokens drawn for one flag or positional: its choices, or the small valid values of
    its type (a preset for --scenario; none for a file path), then every bad token."""
    valid = action.choices or _VALID_BY_TYPE.get(action.type) or (PRESET_NAMES if action.dest == "scenario" else [])
    return [*valid, *_BAD_TOKENS]


@st.composite
def _argv(draw):
    prefix, actions = draw(st.sampled_from(_COMMANDS))
    argv = list(prefix)
    for action in actions:
        if not action.option_strings:  # a positional is always given
            argv.append(draw(st.sampled_from(_values(action))))
        elif action.dest != "out" and draw(st.booleans()):
            argv.append(action.option_strings[0])
            if action.nargs != 0:
                argv.append(draw(st.sampled_from(_values(action))))
    if any(action.dest == "out" for action in actions):
        argv += ["--out", "out"]
    return argv


def test_the_drawn_commands_are_every_subcommand():
    runs = {("run", kind) for kind in ("echo", "scan", "star", "classify", "energy")}
    assert {prefix for prefix, _ in _COMMANDS} == runs | {("calibrate",), ("replay-log",)}


@settings(max_examples=100, deadline=None)
@given(argv=_argv())
def test_any_argv_exits_0_or_2_without_a_traceback(argv):
    # in-process, in an empty directory (a drawn file name names no file): an uncaught exception fails the test
    err = io.StringIO()
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse refused the argv: usage, then one error line
                    code, usage = exc.code, True
                else:
                    usage = False
        finally:
            os.chdir(cwd)
    lines = err.getvalue().splitlines()
    assert "Traceback" not in err.getvalue()
    if usage:
        assert code == 2 and ": error: " in lines[-1]
    else:
        assert code == 0 or code == 2 and len(lines) == 1 and lines[0].startswith("error:")


def test_png_is_written_through_atomic_write(tmp_path, monkeypatch):
    saved_to = []

    class Figure:
        def savefig(self, target, **kwargs):
            saved_to.append(target)
            target.write(b"\x89PNG stub")

        def tight_layout(self):
            pass

    class Axes:
        def __getattr__(self, name):
            return lambda *args, **kwargs: None

    pyplot = types.ModuleType("matplotlib.pyplot")
    pyplot.subplots = lambda **kwargs: (Figure(), Axes())
    pyplot.close = lambda fig: None
    matplotlib = types.ModuleType("matplotlib")
    matplotlib.use = lambda backend: None
    matplotlib.pyplot = pyplot
    monkeypatch.setitem(sys.modules, "matplotlib", matplotlib)
    monkeypatch.setitem(sys.modules, "matplotlib.pyplot", pyplot)

    written = []
    atomic_write = cli.atomic_write

    def recording_write(path, data):
        written.append(path)
        atomic_write(path, data)

    monkeypatch.setattr(cli, "atomic_write", recording_write)
    assert main(["run", "scan", "--png", "--out", str(tmp_path)]) == 0
    assert len(saved_to) == 1 and not isinstance(saved_to[0], (str, os.PathLike))
    assert (tmp_path / "scan.png").read_bytes() == b"\x89PNG stub"
    assert sorted(tmp_path.iterdir()) == sorted(written)
