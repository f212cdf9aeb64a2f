"""Command-line front end.

    bsn-sim run echo --scenario apartment --channel 12 --power -10 --seed 1 --runs 10 --out out/
    bsn-sim run scan --scenario apartment --out out/
    bsn-sim run star --scenario apartment --nodes 3 --duration 30 --out out/
    bsn-sim run classify --activity fall --duration 10 --seed 3 --out out/
    bsn-sim run energy --profile ten_percent_radio --out out/
    bsn-sim calibrate --targets tables.csv --out out/
    bsn-sim replay-log out/frames.log

Every `run` experiment writes a result JSON recording the experiment, the
scenario's name, the seed and the experiment's own settings. It does not
record a scenario file's contents or the `--calibration` file, so it alone
does not rerun an experiment (ROADMAP item 7). File writes are atomic
(write-temp-then-rename).
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterable, Sequence

from . import calibrate as calibrate_mod
from .classify import detect_abnormal
from .energy import (
    CONTINUOUS_PROFILE,
    TEN_PERCENT_RADIO_PROFILE,
    PACK_BATTERY,
    battery_life_hours,
    paper_components,
)
from .errors import BsnsimError, finite_number, require_integer, valid_seed
from .frames import NODE_ID_MAX, read_frame_log
from .linksim import EchoTestConfig, RunStats, run_echo_test, run_star_network
from .motion import ActivityKind, compose_schedule, generate_trace
from .rf import DEFAULT_CALIBRATION, ChannelSpec, WPAN_INDEX_RANGE
from .scenario import load_scenario
from .selector import scan as scan_channels
from .selector import select_channel

ENERGY_PROFILES = {
    "continuous": CONTINUOUS_PROFILE,
    "ten_percent_radio": TEN_PERCENT_RADIO_PROFILE,
}


def atomic_write(path: Path, data: str | bytes) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    mode = "wb" if isinstance(data, bytes) else "w"
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, mode) as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _lines(header: str, rows: Iterable[str]) -> str:
    """Every table the CLI writes: the header line, then one line per row, each ending in a bare newline."""
    return "".join(f"{line}\n" for line in (header, *rows))


def export_table(rows: Sequence[tuple[float, int, RunStats]]) -> str:
    """Success-ratio table: one row per (power, channel), two decimals."""
    return _lines("power_dbm,channel,mean_pct,std_pct",
                  (f"{power:g},{channel},{stats.mean_ratio * 100:.2f},{stats.std_ratio * 100:.2f}"
                   for power, channel, stats in rows))


def gnuplot_dat(header: Sequence[str], rows: Sequence[Sequence[float]]) -> str:
    """Whitespace-separated data block with a commented header row."""
    return _lines("# " + " ".join(header), (" ".join(f"{v:g}" for v in row) for row in rows))


def _maybe_png(args, path: Path, title: str, xlabel: str, ylabel: str, xs, ys) -> None:
    if not args.png:
        return
    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not installed; skipping PNG output", file=sys.stderr)
        return
    fig, ax = plt.subplots(figsize=(7, 4))
    ax.bar(xs, ys, width=0.8)
    ax.set_title(title)
    ax.set_xlabel(xlabel)
    ax.set_ylabel(ylabel)
    fig.tight_layout()
    png = io.BytesIO()
    fig.savefig(png, format="png", dpi=120)
    plt.close(fig)
    atomic_write(path, png.getvalue())


def _result_json(out: Path, kind: str, scenario_name: str, seed: int, config: dict, payload: dict) -> None:
    atomic_write(out / f"{kind}_result.json", json.dumps(
        {"experiment": kind, "scenario": scenario_name, "seed": seed, "config": config, "result": payload},
        indent=2,
        default=str,
    ))


def _scenario_for(args):
    calib, overrides = DEFAULT_CALIBRATION, {}
    if args.calibration:
        calib, overrides = calibrate_mod.load_calibration_file(args.calibration)
    scenario = load_scenario(args.scenario)
    if overrides:
        scenario = calibrate_mod.apply_overrides(scenario, overrides)
    return scenario, calib


def _cmd_run_echo(args, out: Path) -> int:
    scenario, calib = _scenario_for(args)
    channel = args.channel if args.channel is not None else scenario.channel
    power = args.power if args.power is not None else scenario.tx_power_dbm
    cfg = EchoTestConfig(
        channel=ChannelSpec.wpan(channel),
        tx_power_dbm=power,
        n_messages=args.messages,
        runs=args.runs,
    )
    stats = run_echo_test(cfg, scenario, args.seed, calib)
    table = export_table([(power, channel, stats)])
    atomic_write(out / "echo_table.csv", table)
    ratios = [count / cfg.n_messages * 100 for count in stats.per_run_success]
    atomic_write(out / "echo_runs.dat",
                 gnuplot_dat(("run", "success_pct"), [(i + 1, r) for i, r in enumerate(ratios)]))
    _maybe_png(args, out / "echo_runs.png", f"{scenario.name} ch{channel} {power:+g} dBm",
               "run", "success %", range(1, len(ratios) + 1), ratios)
    _result_json(
        out,
        "echo",
        scenario.name,
        args.seed,
        {"channel": channel, "tx_power_dbm": power, "n_messages": cfg.n_messages, "runs": cfg.runs},
        {
            "per_run_success": list(stats.per_run_success),
            "mean_pct": stats.mean_ratio * 100,
            "std_pct": stats.std_ratio * 100,
        },
    )
    print(f"echo {scenario.name} ch{channel} {power:+g} dBm: "
          f"mean {stats.mean_ratio * 100:.2f}% std {stats.std_ratio * 100:.2f}%")
    return 0


def _cmd_run_scan(args, out: Path) -> int:
    scenario, calib = _scenario_for(args)
    report = scan_channels(scenario, calib)
    best = select_channel(report)
    channels = list(WPAN_INDEX_RANGE)
    rows = list(zip(channels, report.scores))
    atomic_write(out / "scan.csv", _lines("channel,score", (f"{channel},{score:.8g}" for channel, score in rows)))
    atomic_write(out / "scan.dat", gnuplot_dat(("channel", "score"), rows))
    _maybe_png(args, out / "scan.png", f"{scenario.name} interference scan",
               "802.15.4 channel", "expected loss per message", channels, report.scores)
    _result_json(out, "scan", scenario.name, args.seed, {"tx_power_dbm": scenario.tx_power_dbm},
                 {"scores": list(report.scores), "selected_channel": best})
    print(f"scan {scenario.name}: best channel {best}")
    return 0


def _cmd_run_star(args, out: Path) -> int:
    require_integer("--nodes", args.nodes, 1, NODE_ID_MAX)  # refused before a trace is made
    scenario, calib = _scenario_for(args)
    # synthesize one trace per sensor node around the logger
    traces = {}
    nodes = dict(scenario.nodes)
    for i in range(args.nodes):
        name = f"sensor_{i + 1}"
        nodes.setdefault(name, (1.0 + i, 1.0))
        schedule = [(ActivityKind.REST, args.duration / 2), (ActivityKind.FALL, 2.0),
                    (ActivityKind.REST, max(1.0, args.duration / 2 - 2.0))]
        traces[name] = compose_schedule(schedule, seed=args.seed + i)
    scenario = dataclasses.replace(scenario, nodes=nodes)
    result = run_star_network(scenario, traces, args.duration, args.seed, calib)
    atomic_write(out / "frames.log", result.log_bytes())
    atomic_write(out / "frames.csv", _lines(
        "t,node,node_id,seq,timestamp_ms,code_x,code_y,code_z",
        (f"{t:.6g},{result.names[node_id - 1]},{node_id},{seq},{stamp},{x},{y},{z}"
         for t, node_id, seq, stamp, x, y, z in zip(result.t.tolist(), *result.fields[:6].tolist()))))
    deliveries = sorted(result.deliveries.items())
    atomic_write(out / "delivery.csv",
                 _lines("node,emitted,delivered", (f"{name},{d.emitted},{d.delivered}" for name, d in deliveries)))
    _result_json(out, "star", scenario.name, args.seed, {"nodes": args.nodes, "duration_s": args.duration},
                 {name: {"emitted": d.emitted, "delivered": d.delivered} for name, d in deliveries})
    print(f"star {scenario.name}: {sum(d.delivered for d in result.deliveries.values())} frames logged")
    return 0


def _cmd_run_classify(args, out: Path) -> int:
    kind = ActivityKind(args.activity)
    trace = generate_trace(kind, args.duration, seed=args.seed)
    events = detect_abnormal(trace)
    atomic_write(out / "events.csv", _lines(
        "t_start,t_end,trigger,peak_total_a",
        (f"{ev.t_start:.6g},{ev.t_end:.6g},{ev.trigger.value},{ev.peak_total_a:.6g}" for ev in events)))
    _result_json(out, "classify", "-", args.seed, {"activity": kind.value, "duration_s": args.duration},
                 {"n_events": len(events)})
    print(f"classify {kind.value}: {len(events)} abnormal event(s)")
    return 0


def _cmd_run_energy(args, out: Path) -> int:
    duty = ENERGY_PROFILES[args.profile]
    components = paper_components()
    hours = battery_life_hours(PACK_BATTERY, components, duty)
    atomic_write(out / "energy.csv", _lines("profile,battery_mah,life_hours",
                                            [f"{args.profile},{PACK_BATTERY.capacity_mah:g},{hours:.1f}"]))
    _result_json(out, "energy", "-", args.seed, {"profile": args.profile},
                 {"battery_mah": PACK_BATTERY.capacity_mah, "life_hours": hours})
    print(f"energy {args.profile}: {hours:.1f} h on {PACK_BATTERY.capacity_mah:g} mAh")
    return 0


def _cmd_calibrate(args, out: Path) -> int:
    targets = calibrate_mod.load_targets(args.targets)
    result = calibrate_mod.fit(targets)
    report = []
    for t in result.targets:
        model = result.achieved_pct[(t.scenario, t.channel, t.tx_power_dbm)]
        print(f"{t.scenario} ch{t.channel} {t.tx_power_dbm:+.0f} dBm [{t.role}]: "
              f"target {t.target_mean_pct:.2f}%, model {model:.2f}%")
        report.append(f"{t.scenario},{t.channel},{t.tx_power_dbm:g},{t.role},"
                      f"{t.target_mean_pct:.2f},{model:.2f},{result.residual_pp(t):+.3f}")
    atomic_write(out / "calibration.json", result.to_json())
    atomic_write(out / "fit_report.csv",
                 _lines("scenario,channel,tx_power_dbm,role,target_pct,model_pct,residual_pp", report))
    print(f"calibration written to {out / 'calibration.json'}")
    return 0


def _cmd_replay_log(args, out: Path | None) -> int:
    data = Path(args.logfile).read_bytes()
    frames = read_frame_log(data)
    text = _lines("node_id,seq,timestamp_ms,code_x,code_y,code_z,range_x,range_y,range_z",
                  (f"{f.node_id},{f.seq},{f.timestamp_ms},{f.codes[0]},{f.codes[1]},{f.codes[2]},"
                   f"{f.range_codes[0]},{f.range_codes[1]},{f.range_codes[2]}" for f in frames))
    if out is not None:
        atomic_write(out / "replay.csv", text)
    else:
        sys.stdout.write(text)
    return 0


def _flag_number(parse, valid, description: str):
    """An argparse type: the flag's text read by `parse`, refused unless `valid` holds for it."""
    def convert(text: str):
        try:
            value = parse(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"not {description}: {text!r}")
        return value
    return convert


_finite_float = _flag_number(float, finite_number, "a finite number")
_positive_float = _flag_number(float, lambda value: finite_number(value) and value > 0, "a positive finite number")
_seed = _flag_number(int, valid_seed, "a non-negative integer")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bsn-sim", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    # flag groups shared by the `run` experiments that use them
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=_seed, default=0, help="non-negative integer")
    common.add_argument("--out", type=Path, default="out")
    scenario = argparse.ArgumentParser(add_help=False)
    scenario.add_argument("--scenario", default="apartment", help="preset name or scenario file path")
    scenario.add_argument("--calibration", default=None, help="calibration JSON from `calibrate`")
    png = argparse.ArgumentParser(add_help=False)
    png.add_argument("--png", action="store_true", help="also render PNG plots (needs matplotlib)")
    duration = argparse.ArgumentParser(add_help=False)
    duration.add_argument("--duration", type=_positive_float, default=30.0, help="trace duration in seconds")

    run = sub.add_parser("run", help="run one experiment").add_subparsers(dest="kind", required=True)
    echo = run.add_parser("echo", parents=[common, scenario, png], help="two-module echo test")
    echo.add_argument("--channel", type=int, default=None, help="802.15.4 channel 11..26")
    echo.add_argument("--power", type=_finite_float, default=None, help="transmit power in dBm")
    echo.add_argument("--runs", type=int, default=10)
    echo.add_argument("--messages", type=int, default=1000)
    echo.set_defaults(handler=_cmd_run_echo)
    scan = run.add_parser("scan", parents=[common, scenario, png], help="full-band interference scan")
    scan.set_defaults(handler=_cmd_run_scan)
    star = run.add_parser("star", parents=[common, scenario, duration], help="sensor nodes streaming to a logger")
    star.add_argument("--nodes", type=int, default=3, help="sensor node count")
    star.set_defaults(handler=_cmd_run_star)
    classify = run.add_parser("classify", parents=[common, duration], help="abnormal-event detection on a trace")
    classify.add_argument("--activity", default="fall", choices=[k.value for k in ActivityKind])
    classify.set_defaults(handler=_cmd_run_classify)
    energy = run.add_parser("energy", parents=[common], help="battery life of a duty-cycle profile")
    energy.add_argument("--profile", default="continuous", choices=sorted(ENERGY_PROFILES))
    energy.set_defaults(handler=_cmd_run_energy)

    cal = sub.add_parser("calibrate", help="fit interference constants to the test tables")
    cal.add_argument("--targets", default=None, help="targets CSV (defaults to the built-in tables)")
    cal.add_argument("--out", type=Path, default="out")
    cal.set_defaults(handler=_cmd_calibrate)

    replay = sub.add_parser("replay-log", help="decode a binary frame log to CSV")
    replay.add_argument("logfile")
    replay.add_argument("--out", type=Path, default=None)
    replay.set_defaults(handler=_cmd_replay_log)
    return parser


_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # every character str.splitlines breaks at
# each mapped to its escape, so an error message prints as one line
_ESCAPED_LINE_BREAKS = {ord(c): c.encode("unicode_escape").decode() for c in _LINE_BREAKS}


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args, args.out)
    except (BsnsimError, OSError, MemoryError) as exc:  # MemoryError: a run too large to allocate
        print(f"error: {str(exc).translate(_ESCAPED_LINE_BREAKS)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
