"""Command-line interface.

Subcommands:
    probe analyze|design|bode   divider analysis, synthesis, frequency sweep
    cal fit|eval|invert         calibration-curve fitting and evaluation
    acq replay|power            frame replay and point power computation
    characterize                power-versus-illuminance fit of a run file

Exit codes: 0 success, 1 runtime/domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Optional

from . import acquisition, calibration, dataset, files, probe, svgchart
from .errors import DomainError, PlasmaKitError, SchemaError

__all__ = ["main", "build_parser"]


def _print_json(obj) -> None:
    sys.stdout.write(files.json_text(obj))


def _load_config(args) -> acquisition.ChannelConfig:
    """Flags override config-file values override built-in defaults;
    ChannelConfig checks the file's values before any flag replaces them."""
    cfg, fields = acquisition.DEFAULT_CONFIG, dataclasses.fields(acquisition.ChannelConfig)
    if args.config:
        values = files.read_json(args.config)
        if not isinstance(values, dict):
            raise SchemaError(f"{args.config}: config must be a JSON object")
        if unknown := [name for name in values if name not in {f.name for f in fields}]:
            raise SchemaError(f"{args.config}: unknown config key {unknown[0]!r}")
        try:
            cfg = acquisition.ChannelConfig(**values)
        except DomainError as exc:
            raise SchemaError(f"{args.config}: {exc}") from exc
    return dataclasses.replace(cfg, **{f.name: getattr(args, f.name) for f in fields
                                       if getattr(args, f.name) is not None})


def _network_from_args(args) -> probe.ProbeNetwork:
    return probe.ProbeNetwork.uniform(args.n, args.r1, args.c1, args.r0, args.c0)


def _curve_from_args(args) -> calibration.CalibrationCurve:
    if args.curve:
        return calibration.load_curve(args.curve)
    missing = [f for f in ("a0", "a1", "a2", "a3", "kind")
               if getattr(args, f, None) is None]
    if missing:
        raise PlasmaKitError(
            "supply --curve FILE or all of --a0 --a1 --a2 --a3 --kind "
            f"(missing: {', '.join('--' + m for m in missing)})")
    return calibration.CalibrationCurve(
        args.a0, args.a1, args.a2, args.a3,
        input_kind=calibration.InputKind(args.kind))


# ---------------------------------------------------------------- probe

def _cmd_probe_analyze(args) -> int:
    net = _network_from_args(args)
    exact_c0 = probe.compensation_capacitor(net)
    ratio = probe.dc_attenuation(net)
    _print_json({
        "dc_attenuation": ratio,
        "inverse_ratio": 1.0 / ratio,
        "exact_compensation_c0_farads": exact_c0,
        "actual_c0_farads": net.base.capacitance,
        "is_compensated": probe.is_compensated(net, args.tol),
        "compensation_rel_tol": args.tol,
    })
    return 0


def _cmd_probe_design(args) -> int:
    net = probe.design_probe(args.ratio, args.n, args.r1, args.c1)
    _print_json({
        "n": net.n,
        "r1_ohms": net.ladder[0].resistance,
        "c1_farads": net.ladder[0].capacitance,
        "r0_ohms": net.base.resistance,
        "c0_farads": net.base.capacitance,
        "dc_attenuation": probe.dc_attenuation(net),
    })
    return 0


def _cmd_probe_bode(args) -> int:
    net = _network_from_args(args)
    sweep = probe.bode_sweep(net, args.fmin, args.fmax, args.points, args.spacing)
    if args.out and args.out.endswith(".svg"):
        svg = svgchart.render_chart(
            [svgchart.Series(sweep.frequency, sweep.magnitude, "magnitude"),
             svgchart.Series(sweep.frequency, sweep.phase, "phase (rad)")],
            title="Probe frequency response", x_label="frequency (Hz)",
            y_label="gain", x_log=True)
        with files.atomic_write(args.out) as fh:
            fh.write(svg)
        print(f"wrote {args.out}")
    elif args.out:
        with files.atomic_write(args.out) as fh:
            probe.write_sweep_csv(sweep, fh)
        print(f"wrote {args.out}")
    else:
        probe.write_sweep_csv(sweep, sys.stdout)
    return 0


# ------------------------------------------------------------------ cal

def _cmd_cal_fit(args) -> int:
    inputs, lux = calibration.read_samples_csv(args.infile)
    curve, _, stats = calibration.fit_log_cubic(inputs, lux, calibration.InputKind(args.kind),
                                                args.trim)
    files.write_texts(  # rendered first: a failing render leaves no file written
        args.out and (args.out, files.json_text(calibration.curve_to_dict(curve))),
        args.plot and (args.plot, _fit_svg(inputs, lux, curve, float(inputs.min()),
                                           float(inputs.max()), "Calibration fit",
                                           f"input ({args.kind})")))
    _print_json({**calibration.curve_to_dict(curve), **stats})
    return 0


def _cmd_cal_eval(args) -> int:
    curve = _curve_from_args(args)
    lux = calibration.lux_from_input(curve, args.input)
    if not curve.covers(args.input):
        print(f"warning: input {args.input} is outside the fitted range "
              f"{list(curve.input_range)}; extrapolating", file=sys.stderr)
    _print_json({"input": args.input, "kind": curve.input_kind.value, "lux": lux})
    return 0


def _cmd_cal_invert(args) -> int:
    curve = _curve_from_args(args)
    x = calibration.input_from_lux(curve, args.lux)
    if not curve.covers(x):
        print(f"warning: result {x} is outside the fitted range "
              f"{list(curve.input_range)}; extrapolating", file=sys.stderr)
    _print_json({"lux": args.lux, "kind": curve.input_kind.value, "input": x})
    return 0


def _fit_svg(xs, ys, curve: calibration.CalibrationCurve, lo: float, hi: float,
             title: str, x_label: str) -> str:
    """SVG of the samples as dots and the curve at 200 log-spaced inputs in [lo, hi]."""
    a, b = math.log(lo), math.log(hi)
    grid = [math.exp(a + (b - a) * k / 199) for k in range(200)] if hi > lo else [lo] * 200
    return svgchart.render_chart(
        [svgchart.Series(xs, ys, "data", style="dots"),
         svgchart.Series(grid, [calibration.lux_from_input(curve, x) for x in grid], "fit")],
        title=title, x_label=x_label, y_label="illuminance (lux)", x_log=True, y_log=True)


# ------------------------------------------------------------------ acq

def _cmd_acq_power(args) -> int:
    _print_json({"v_volts": args.v, "i_amps": args.i,
                 "p_watts": acquisition.instantaneous_power(args.v, args.i)})
    return 0


def _cmd_acq_replay(args) -> int:
    cfg = _load_config(args)
    curve = calibration.load_curve(args.curve) if args.curve else None
    diagnostics = None if args.strict else []
    samples = acquisition.replay_stream(args.infile, cfg, curve, diagnostics=diagnostics)
    for err in diagnostics or ():
        print(f"warning: {err}", file=sys.stderr)
    if args.out:
        with files.atomic_write(args.out) as fh:
            acquisition.write_samples_csv(samples, fh)
        print(f"wrote {args.out} ({len(samples)} samples)")
    else:
        acquisition.write_samples_csv(samples, sys.stdout)
    return 0


# -------------------------------------------------------- characterize

def _cmd_characterize(args) -> int:
    char = dataset.characterize(dataset.load_run(args.infile), trim=args.trim,
                                ignition_i_min=args.i_min)
    used, text = char.samples, files.json_text(dataset.characterization_to_dict(char))
    files.write_texts(  # rendered first: a failing render leaves no file written
        args.out and (args.out, text),
        args.plot and (args.plot, _fit_svg(used.p_watts, used.lux, char.curve, *char.input_range,
                                           "Plasma power vs illuminance", "power (W)")))
    sys.stdout.write(text)
    return 0


# --------------------------------------------------------------- parser

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="plasmakit",
        description="Low-cost plasma diagnostics: probe analysis, sensor "
                    "calibration, acquisition replay, characterization.")
    sub = parser.add_subparsers(dest="command", required=True)

    # probe
    p_probe = sub.add_parser("probe", help="RC-ladder high-voltage probe tools")
    probe_sub = p_probe.add_subparsers(dest="subcommand", required=True)

    def add_network_flags(p):
        p.add_argument("--n", type=int, required=True, help="ladder stage count")
        p.add_argument("--r1", type=float, required=True, help="ladder resistance (ohms)")
        p.add_argument("--c1", type=float, required=True, help="ladder capacitance (farads)")
        p.add_argument("--r0", type=float, required=True, help="base resistance (ohms)")
        p.add_argument("--c0", type=float, required=True, help="base capacitance (farads)")

    pa = probe_sub.add_parser("analyze", help="ratio, compensation, verdict")
    add_network_flags(pa)
    pa.add_argument("--tol", type=float, default=0.10,
                    help="relative compensation tolerance (default 0.10)")
    pa.set_defaults(func=_cmd_probe_analyze)

    pd = probe_sub.add_parser("design", help="synthesize a compensated probe")
    pd.add_argument("--ratio", type=float, required=True, help="target DC ratio in (0,1)")
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--r1", type=float, required=True)
    pd.add_argument("--c1", type=float, required=True)
    pd.set_defaults(func=_cmd_probe_design)

    pb = probe_sub.add_parser("bode", help="frequency sweep to CSV or SVG")
    add_network_flags(pb)
    pb.add_argument("--fmin", type=float, default=1.0)
    pb.add_argument("--fmax", type=float, default=1e7)
    pb.add_argument("--points", type=int, default=200)
    pb.add_argument("--spacing", choices=["log", "linear"], default="log")
    pb.add_argument("--out", help="output path (.csv or .svg); default stdout CSV")
    pb.set_defaults(func=_cmd_probe_bode)

    # cal
    p_cal = sub.add_parser("cal", help="illuminance calibration curves")
    cal_sub = p_cal.add_subparsers(dest="subcommand", required=True)
    kinds = [kind.value for kind in calibration.InputKind]

    def add_curve_flags(p):
        p.add_argument("--curve", help="curve JSON file")
        p.add_argument("--a0", type=float)
        p.add_argument("--a1", type=float)
        p.add_argument("--a2", type=float)
        p.add_argument("--a3", type=float)
        p.add_argument("--kind", choices=kinds)

    cf = cal_sub.add_parser("fit", help="fit a log-cubic curve to samples")
    cf.add_argument("--in", dest="infile", required=True, help="CSV with header input,lux")
    cf.add_argument("--out", help="curve JSON output path")
    cf.add_argument("--kind", choices=kinds, default="voltage")
    cf.add_argument("--trim", action="store_true", help="3-sigma trim-and-refit pass")
    cf.add_argument("--plot", help="SVG output path")
    cf.set_defaults(func=_cmd_cal_fit)

    ce = cal_sub.add_parser("eval", help="input -> lux")
    add_curve_flags(ce)
    ce.add_argument("--input", type=float, required=True)
    ce.set_defaults(func=_cmd_cal_eval)

    ci = cal_sub.add_parser("invert", help="lux -> input")
    add_curve_flags(ci)
    ci.add_argument("--lux", type=float, required=True)
    ci.set_defaults(func=_cmd_cal_invert)

    # acq
    p_acq = sub.add_parser("acq", help="acquisition pipeline")
    acq_sub = p_acq.add_subparsers(dest="subcommand", required=True)

    ap = acq_sub.add_parser("power", help="p = v * i")
    ap.add_argument("--v", type=float, required=True, help="needle voltage (V)")
    ap.add_argument("--i", type=float, required=True, help="plasma current (A)")
    ap.set_defaults(func=_cmd_acq_power)

    ar = acq_sub.add_parser("replay", help="convert a frame CSV to samples")
    ar.add_argument("--in", dest="infile", required=True)
    ar.add_argument("--out", help="samples CSV output path; default stdout")
    ar.add_argument("--config", help="ChannelConfig JSON file")
    ar.add_argument("--curve", help="light-sensor curve JSON for the lux column")
    ar.add_argument("--strict", action="store_true", help="abort on first bad row")
    for f in dataclasses.fields(acquisition.ChannelConfig):
        ar.add_argument(f"--{f.name.replace('_', '-')}", dest=f.name, type=type(f.default))
    ar.set_defaults(func=_cmd_acq_replay)

    # characterize
    pc = sub.add_parser("characterize", help="power vs illuminance fit of a run")
    pc.add_argument("--in", dest="infile", required=True, help="engineering CSV run file")
    pc.add_argument("--out", help="characterization JSON output path")
    pc.add_argument("--plot", help="scatter + fitted curve SVG output path")
    pc.add_argument("--trim", action="store_true", help="3-sigma trim-and-refit pass")
    pc.add_argument("--i-min", dest="i_min", type=float, default=acquisition.IGNITION_I_MIN,
                    help="ignition current threshold in amps (default 1e-3)")
    pc.set_defaults(func=_cmd_characterize)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PlasmaKitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
