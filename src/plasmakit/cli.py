"""Command-line interface.

Subcommands:
    probe analyze|design|bode   divider analysis, synthesis, frequency sweep
    cal fit|eval|invert         calibration-curve fitting and evaluation
    acq replay|power            frame replay and point power computation
    characterize                power-versus-illuminance fit of a run file

The parser tree is built once per process, from `_COMMANDS`, which loads no
library module, and every call parses with it.  Exit codes, set by `main` alone:
0 success, 1 runtime/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import os
import re
import sys
from typing import Callable, Optional, TextIO

from . import acquisition, calibration, dataset, files, probe, svgchart  # each loads on first use
from ._lazy import lazy
from .errors import DomainError, PlasmaKitError, SchemaError

dataclasses, json = lazy("dataclasses"), lazy("json")
__all__ = ["main", "build_parser"]


def _json_text(obj) -> str:
    """obj as indented JSON and a newline; floats keep their full repr precision."""
    return json.dumps(obj, indent=2) + "\n"


def _load_config(args) -> acquisition.ChannelConfig:
    """Flags override config-file values override built-in defaults;
    ChannelConfig checks the file's values before any flag replaces them."""
    cfg = acquisition.DEFAULT_CONFIG
    if args.config is not None:
        values = files.read_json(args.config)
        if not isinstance(values, dict):
            raise SchemaError(f"{args.config}: config must be a JSON object")
        if unknown := [name for name in values if name not in _CONFIG_TYPES]:
            raise SchemaError(f"{args.config}: unknown config key {unknown[0]!r}")
        try:
            cfg = acquisition.ChannelConfig(**values)
        except DomainError as exc:
            raise SchemaError(f"{args.config}: {exc}") from exc
    return dataclasses.replace(cfg, **{name: getattr(args, name) for name in _CONFIG_TYPES
                                       if getattr(args, name) is not None})


class _Stdin(io.TextIOWrapper):
    __del__ = io.TextIOWrapper.detach  # collected, it leaves the caller's stdin open


def _source(path: str) -> TextIO | str:
    """An `--in` value: standard input for -, its bytes read as a path is
    (a stream of text alone, such as io.StringIO, as it is)."""
    if path != "-":
        return path
    if sys.stdin is None:
        raise PlasmaKitError("--in -: there is no standard input")
    buffer = getattr(sys.stdin, "buffer", None)
    return sys.stdin if buffer is None else _Stdin(buffer, encoding="utf-8-sig")


def _write_out(path: Optional[str], write: Callable[[TextIO], object], note: str = "") -> None:
    """write(fh) to path atomically and say so, with note.format(result); stdout without one."""
    if path is None:
        write(sys.stdout)
        return
    with files.atomic_write(path) as fh:
        result = write(fh)
    print(f"wrote {path}{note.format(result)}")


def _network_from_args(args) -> probe.ProbeNetwork:
    return probe.ProbeNetwork.uniform(args.n, args.r1, args.c1, args.r0, args.c0)


def _curve_from_args(args) -> calibration.CalibrationCurve:
    flags = ("a0", "a1", "a2", "a3", "kind")
    if args.curve is not None:
        if given := [f for f in flags if getattr(args, f) is not None]:
            raise PlasmaKitError(f"--{given[0]} has no effect with --curve")
        return calibration.load_curve(args.curve)
    if missing := [f for f in flags if getattr(args, f) is None]:
        raise PlasmaKitError(
            "supply --curve FILE or all of --a0 --a1 --a2 --a3 --kind "
            f"(missing: {', '.join('--' + m for m in missing)})")
    return calibration.CalibrationCurve(
        args.a0, args.a1, args.a2, args.a3,
        input_kind=calibration.InputKind(args.kind))


# ---------------------------------------------------------------- probe

def _cmd_probe_analyze(args) -> None:
    net = _network_from_args(args)
    exact_c0 = probe.compensation_capacitor(net)
    ratio = probe.dc_attenuation(net)
    sys.stdout.write(_json_text({
        "dc_attenuation": ratio,
        "inverse_ratio": 1.0 / ratio,
        "exact_compensation_c0_farads": exact_c0,
        "actual_c0_farads": net.base.capacitance,
        "is_compensated": probe.is_compensated(net, args.tol),
        "compensation_rel_tol": args.tol,
    }))


def _cmd_probe_design(args) -> None:
    net = probe.design_probe(args.ratio, args.n, args.r1, args.c1)
    sys.stdout.write(_json_text({
        "n": net.n,
        "r1_ohms": net.ladder[0].resistance,
        "c1_farads": net.ladder[0].capacitance,
        "r0_ohms": net.base.resistance,
        "c0_farads": net.base.capacitance,
        "dc_attenuation": probe.dc_attenuation(net),
    }))


def _cmd_probe_bode(args) -> None:
    net = _network_from_args(args)
    sweep = probe.bode_sweep(net, args.fmin, args.fmax, args.points, args.spacing)
    if args.out and args.out.endswith(".svg"):
        svg = svgchart.render_chart(
            [svgchart.Series(sweep.frequency, sweep.magnitude, "magnitude"),
             svgchart.Series(sweep.frequency, sweep.phase, "phase (rad)")],
            title="Probe frequency response", x_label="frequency (Hz)",
            y_label="gain", x_log=True)
        _write_out(args.out, lambda fh: fh.write(svg))
    else:
        _write_out(args.out, lambda fh: probe.write_sweep_csv(sweep, fh))


# ------------------------------------------------------------------ cal

def _cmd_cal_fit(args) -> None:
    inputs, lux = calibration.read_samples_csv(_source(args.infile))
    curve, _, stats = calibration.fit_log_cubic(inputs, lux, calibration.InputKind(args.kind),
                                                args.trim)
    files.write_texts(  # rendered first: a failing render leaves no file written
        args.out is not None and (args.out, _json_text(calibration.curve_to_dict(curve))),
        args.plot is not None and (args.plot, _fit_svg(
            inputs, lux, curve, "Calibration fit", f"input ({args.kind})")))
    sys.stdout.write(_json_text({**calibration.curve_to_dict(curve), **stats}))


def _cmd_cal_eval(args) -> None:
    curve = _curve_from_args(args)
    lux = calibration.lux_from_input(curve, args.input)
    if not curve.covers(args.input):
        print(f"warning: input {args.input} is outside the fitted range "
              f"{list(curve.input_range)}; extrapolating", file=sys.stderr)
    sys.stdout.write(_json_text({"input": args.input, "kind": curve.input_kind.value, "lux": lux}))


def _cmd_cal_invert(args) -> None:
    curve = _curve_from_args(args)
    x = calibration.input_from_lux(curve, args.lux)
    if not curve.covers(x):
        print(f"warning: result {x} is outside the fitted range "
              f"{list(curve.input_range)}; extrapolating", file=sys.stderr)
    sys.stdout.write(_json_text({"lux": args.lux, "kind": curve.input_kind.value, "input": x}))


def _fit_svg(xs, ys, curve: calibration.CalibrationCurve, title: str, x_label: str) -> str:
    """SVG of the samples as dots and the curve at 200 log-spaced inputs over
    its input_range (a fit has at least 4 distinct inputs, so lo < hi)."""
    a, b = map(math.log, curve.input_range)
    grid = [math.exp(a + (b - a) * k / 199) for k in range(200)]
    return svgchart.render_chart(
        [svgchart.Series(xs, ys, "data", style="dots"),
         svgchart.Series(grid, [calibration.lux_from_input(curve, x) for x in grid], "fit")],
        title=title, x_label=x_label, y_label="illuminance (lux)", x_log=True, y_log=True)


# ------------------------------------------------------------------ acq

def _cmd_acq_power(args) -> None:
    sys.stdout.write(_json_text({"v_volts": args.v, "i_amps": args.i,
                                 "p_watts": acquisition.instantaneous_power(args.v, args.i)}))


def _cmd_acq_replay(args) -> None:
    cfg = _load_config(args)
    curve = calibration.load_curve(args.curve) if args.curve is not None else None
    diagnostics = None if args.strict else []
    _write_out(args.out, lambda out: acquisition.replay_stream(  # the rows stream into out
        _source(args.infile), out, cfg, curve, diagnostics=diagnostics), " ({} samples)")
    for err in diagnostics or ():
        print(f"warning: {err}", file=sys.stderr)


# -------------------------------------------------------- characterize

def _cmd_characterize(args) -> None:
    char = dataset.characterize(dataset.load_run(_source(args.infile)), trim=args.trim,
                                ignition_i_min=args.i_min)
    used, text = char.samples, _json_text(dataset.characterization_to_dict(char))
    files.write_texts(  # rendered first: a failing render leaves no file written
        args.out is not None and (args.out, text),
        args.plot is not None and (args.plot, _fit_svg(
            used.p_watts, used.lux, char.curve, "Plasma power vs illuminance", "power (W)")))
    sys.stdout.write(text)


# --------------------------------------------------------------- parser

_NETWORK_FLAGS = {
    "--n": dict(type=int, required=True, help="ladder stage count"),
    "--r1": dict(type=float, required=True, help="ladder resistance (ohms)"),
    "--c1": dict(type=float, required=True, help="ladder capacitance (farads)"),
    "--r0": dict(type=float, required=True, help="base resistance (ohms)"),
    "--c0": dict(type=float, required=True, help="base capacitance (farads)"),
}
_KINDS = ["voltage", "power"]  # calibration.InputKind's values
_CONFIG_TYPES = {"probe_ratio": float, "shunt_ohms": float, "offset_volts": float,
                 "adc_fullscale_volts": float, "adc_bits": int}  # ChannelConfig's fields
_STDIN = "; - reads standard input (a file named - is ./-)"
_CURVE_FLAGS = {"--curve": dict(help="curve JSON file"),
                **{f"--a{k}": dict(type=float) for k in range(4)},
                "--kind": dict(choices=_KINDS)}

# Each command once, in the order of `plasmakit --help`: a group is (help, its
# commands), a leaf is (help, handler, its flags as add_argument calls).
_COMMANDS = {
    "probe": ("RC-ladder high-voltage probe tools", {
        "analyze": ("ratio, compensation, verdict", _cmd_probe_analyze, {
            **_NETWORK_FLAGS,
            "--tol": dict(type=float, default=0.10,
                          help="relative compensation tolerance (default 0.10)")}),
        "design": ("synthesize a compensated probe", _cmd_probe_design, {
            "--ratio": dict(type=float, required=True, help="target DC ratio in (0,1)"),
            "--n": dict(type=int, required=True),
            "--r1": dict(type=float, required=True),
            "--c1": dict(type=float, required=True)}),
        "bode": ("frequency sweep to CSV or SVG", _cmd_probe_bode, {
            **_NETWORK_FLAGS,
            "--fmin": dict(type=float, default=1.0),
            "--fmax": dict(type=float, default=1e7),
            "--points": dict(type=int, default=200),
            "--spacing": dict(choices=["log", "linear"], default="log"),
            "--out": dict(help="output path (.csv or .svg); default stdout CSV")})}),
    "cal": ("illuminance calibration curves", {
        "fit": ("fit a log-cubic curve to samples", _cmd_cal_fit, {
            "--in": dict(dest="infile", required=True, help=f"CSV with header input,lux{_STDIN}"),
            "--out": dict(help="curve JSON output path"),
            "--kind": dict(choices=_KINDS, default="voltage"),
            "--trim": dict(action="store_true", help="3-sigma trim-and-refit pass"),
            "--plot": dict(help="SVG output path")}),
        "eval": ("input -> lux", _cmd_cal_eval,
                 {**_CURVE_FLAGS, "--input": dict(type=float, required=True)}),
        "invert": ("lux -> input", _cmd_cal_invert,
                   {**_CURVE_FLAGS, "--lux": dict(type=float, required=True)})}),
    "acq": ("acquisition pipeline", {
        "power": ("p = v * i", _cmd_acq_power, {
            "--v": dict(type=float, required=True, help="needle voltage (V)"),
            "--i": dict(type=float, required=True, help="plasma current (A)")}),
        "replay": ("convert a frame CSV to samples", _cmd_acq_replay, {
            "--in": dict(dest="infile", required=True, help=f"frame CSV{_STDIN}"),
            "--out": dict(help="samples CSV output path; default stdout"),
            "--config": dict(help="ChannelConfig JSON file"),
            "--curve": dict(help="light-sensor curve JSON for the lux column"),
            "--strict": dict(action="store_true", help="abort on first bad row"),
            **{f"--{name.replace('_', '-')}": dict(dest=name, type=kind)
               for name, kind in _CONFIG_TYPES.items()}})}),
    "characterize": ("power vs illuminance fit of a run", _cmd_characterize, {
        "--in": dict(dest="infile", required=True, help=f"engineering CSV run file{_STDIN}"),
        "--out": dict(help="characterization JSON output path"),
        "--plot": dict(help="scatter + fitted curve SVG output path"),
        "--trim": dict(action="store_true", help="3-sigma trim-and-refit pass"),
        "--i-min": dict(dest="i_min", type=float, default=1e-3,  # acquisition.IGNITION_I_MIN
                        help="ignition current threshold in amps (default 1e-3)")}),
}


_NUMBER = re.compile(r"-\.?\d")  # -1, -.5, -1e-05: values; argparse's own matcher misses -1e-05


def _add_commands(parser, entry: tuple, dest: str = "command") -> argparse.ArgumentParser:
    """parser, built from its `_COMMANDS` entry: a group's commands, each on
    its own parser, or a leaf's flags and handler."""
    parser._negative_number_matcher = _NUMBER
    if len(entry) == 1:
        sub = parser.add_subparsers(dest=dest, required=True)
        for name, (text, *body) in entry[0].items():
            _add_commands(sub.add_parser(name, help=text), body, "subcommand")
    else:
        handler, flags = entry
        for flag, kwargs in flags.items():
            parser.add_argument(flag, **kwargs)
        parser.set_defaults(func=handler)
    return parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The whole parser tree, built on the first call; every call returns it."""
    return _add_commands(argparse.ArgumentParser(prog="plasmakit", description=(
        "Low-cost plasma diagnostics: probe analysis, sensor calibration, acquisition "
        "replay, characterization.")), (_COMMANDS,))


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
    except (PlasmaKitError, OSError) as exc:
        if not (isinstance(exc, BrokenPipeError) and exc.filename is None):
            print(f"error: {exc}", file=sys.stderr)
        else:  # stdout's reader has gone: silent, nothing left to fail at exit ("Note on SIGPIPE")
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
