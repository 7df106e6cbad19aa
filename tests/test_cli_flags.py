"""Every flag is heard.

The flags come from `cli._COMMANDS`, so a new flag must join VALUES below or
the oracle fails.  Each flag is added, at each of its VALUES that differs
from its default (or from the value the base argv gives it), to each base
argv of its command; a path flag is also tried as "".  The result must
change the exit code, stdout, stderr or an output file: every base argv
exits 0, so a flag refused with exit 1 is heard.  The few cases where a
flag rightly changes nothing are listed in NO_OPS with the reason; the
oracle also fails when a listed case is heard, so the list stays true.
"""

import dataclasses
import json
import math
import os

import pytest

from plasmakit import ChannelConfig, cli
from plasmakit.cli import main

from conftest import POWER_COEFFS, VOLTAGE_COEFFS


def leaves(commands=cli._COMMANDS, path=()):
    """(command name, its flags) for every leaf of the command table."""
    for name, (_, *body) in commands.items():
        if len(body) == 1:
            yield from leaves(body[0], (*path, name))
        else:
            yield " ".join((*path, name)), body[1]


def log_cubic(coeffs, x):
    return math.exp(sum(a * math.log(x) ** k for k, a in enumerate(coeffs)))


def curve_json(coeffs, kind):
    return json.dumps(dict(zip(("a0", "a1", "a2", "a3"), coeffs), kind=kind))


# Inputs the commands read, each clean but for frames.csv's one bad row.
INPUTS = {
    "frames.csv": "t_ms,raw_hv,raw_shunt,raw_ldr\n" + "".join(
        f"{k},{600 + 7 * k},{400 + 11 * k},{300 + 13 * k}\n" for k in range(6)) + "6,x,400,300\n",
    "frames_noldr.csv": "t_ms,raw_hv,raw_shunt\n" + "".join(
        f"{k},{600 + 7 * k},{400 + 11 * k}\n" for k in range(6)),
    # currents ramp from 2 to 60 mA, so a higher --i-min moves the ignition
    "run.csv": "t_ms,v_volts,i_amps,lux\n" + "".join(
        f"{k},{p / i!r},{i!r},{log_cubic(POWER_COEFFS, p) * math.exp(0.01 * math.sin(3 * k))!r}\n"
        for k, p, i in ((k, 5.0 * 8.0 ** (k / 29), 0.002 * (k + 1)) for k in range(30))),
    "samples.csv": "input,lux\n" + "".join(
        f"{x!r},{log_cubic(VOLTAGE_COEFFS, x) * math.exp(0.01 * math.sin(3 * k))!r}\n"
        for k, x in ((k, 0.2 + 0.25 * k) for k in range(12))),
    "curve.json": curve_json(VOLTAGE_COEFFS, "voltage"),
    "curve2.json": curve_json((2.6, *VOLTAGE_COEFFS[1:]), "voltage"),
    "cfg.json": json.dumps({"probe_ratio": 0.002}),
    "defaults.json": json.dumps(dataclasses.asdict(ChannelConfig())),
}

NETWORK = ["--n", "5", "--r1", "10e6", "--c1", "15e-12", "--r0", "52.8e3", "--c0", "3e-9"]
COEFFS = ["--a0", "2.533317", "--a1", "1.960146", "--a2", "2.118486", "--a3", "2.101649",
          "--kind", "voltage"]
# Each command's base argvs, by a label.
BASES = {
    "probe analyze": {"network": NETWORK},
    "probe design": {"target": ["--ratio", "0.001", "--n", "5", "--r1", "10e6", "--c1", "15e-12"]},
    "probe bode": {"network": [*NETWORK, "--points", "3"]},
    "cal fit": {"samples": ["--in", "samples.csv"]},
    "cal eval": {"coefficients": [*COEFFS, "--input", "2"],
                 "curve file": ["--curve", "curve.json", "--input", "2"]},
    "cal invert": {"coefficients": [*COEFFS, "--lux", "300"],
                   "curve file": ["--curve", "curve.json", "--lux", "300"]},
    "acq power": {"reading": ["--v", "400", "--i", "0.02"]},
    "acq replay": {"raw frames": ["--in", "frames.csv"],
                   "raw frames without raw_ldr": ["--in", "frames_noldr.csv"],
                   "engineering file": ["--in", "run.csv"]},
    "characterize": {"run": ["--in", "run.csv"]},
}
# The values each flag is tried at; True adds a store_true flag.
VALUES = {
    "--n": ["3"], "--r1": ["9e6"], "--c1": ["14e-12"], "--r0": ["50e3"], "--c0": ["2e-9"],
    "--tol": ["0.01"], "--ratio": ["0.002"],
    "--fmin": ["10"], "--fmax": ["1e5"], "--points": ["4"], "--spacing": ["log", "linear"],
    "--in": ["frames.csv", "frames_noldr.csv", "run.csv", "samples.csv"],
    "--out": ["out.csv", "out.svg"], "--plot": ["plot.svg"],
    "--kind": ["voltage", "power"], "--trim": [True],
    **{f"--a{k}": ["1.5"] for k in range(4)}, "--curve": ["curve.json", "curve2.json"],
    "--input": ["3"], "--lux": ["100"],
    "--v": ["500"], "--i": ["0.03"],
    "--config": ["cfg.json", "defaults.json"], "--strict": [True],
    "--probe-ratio": ["0.002"], "--shunt-ohms": ["20"], "--offset-volts": ["1.2"],
    "--adc-fullscale-volts": ["5"], "--adc-bits": ["10"],
    "--i-min": ["0.01"],
}
NO_OPS = {
    ("acq replay", "raw frames without raw_ldr", "--strict", True):
        "a clean input has no row for --strict to refuse",
    ("acq replay", "engineering file", "--strict", True):
        "a clean input has no row for --strict to refuse",
    **{("acq replay", label, "--config", "defaults.json"): "a config of the default values"
       for label in BASES["acq replay"]},
    ("cal fit", "samples", "--trim", True): "the samples hold no outlier to trim",
    ("characterize", "run", "--trim", True): "the run holds no outlier to trim",
}
LEAF_FLAGS = [(command, flag, kwargs) for command, flags in leaves()
              for flag, kwargs in flags.items()]


def is_path(kwargs):
    return not {"type", "choices", "action"} & set(kwargs)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    for name, text in INPUTS.items():
        (path / name).write_text(text)
    return path


def outcome(capsys, argv):
    """(exit code, stdout, stderr, {file: bytes} of the files argv wrote) of
    main(argv) run in the working directory, which holds INPUTS alone."""
    code = main(list(argv))
    captured = capsys.readouterr()
    written = {}
    for name in sorted(set(os.listdir()) - set(INPUTS)):
        with open(name, "rb") as fh:
            written[name] = fh.read()
        os.remove(name)
    return code, captured.out, captured.err, written


def test_the_table_names_every_command():
    assert sorted(BASES) == sorted(command for command, _ in leaves())


def test_every_base_argv_succeeds(capsys, monkeypatch, inputs):
    monkeypatch.chdir(inputs)
    for command, bases in BASES.items():
        for argv in bases.values():
            assert outcome(capsys, [*command.split(), *argv])[0] == 0, (command, argv)


@pytest.mark.parametrize("command, flag, kwargs", LEAF_FLAGS,
                         ids=[f"{command} {flag}" for command, flag, _ in LEAF_FLAGS])
def test_every_flag_is_heard(capsys, monkeypatch, inputs, command, flag, kwargs):
    assert flag in VALUES, f"{flag} of {command} is new: give it values to try in VALUES"
    monkeypatch.chdir(inputs)
    silent = set()
    for label, base in BASES[command].items():
        given = [base[k + 1] for k, word in enumerate(base) if word == flag]
        default = given[-1] if given else str(kwargs.get("default"))
        values = [v for v in VALUES[flag] if v != default] + [""] * is_path(kwargs)
        assert values, (command, flag, label)
        before = outcome(capsys, [*command.split(), *base])
        for value in values:
            after = outcome(capsys, [*command.split(), *base,
                                     *([flag] if value is True else [flag, value])])
            if after == before:
                silent.add((command, label, flag, value))
    assert silent == {key for key in NO_OPS if key[0] == command and key[2] == flag}


# One argv per path flag; each other output it names must not be written.
EMPTY_PATHS = {
    "characterize --in": ["characterize", "--in", ""],
    "characterize --out": ["characterize", "--in", "run.csv", "--out", "", "--plot", "p.svg"],
    "characterize --plot": ["characterize", "--in", "run.csv", "--out", "c.json", "--plot", ""],
    "cal fit --in": ["cal", "fit", "--in", ""],
    "cal fit --out": ["cal", "fit", "--in", "samples.csv", "--out", "", "--plot", "p.svg"],
    "cal fit --plot": ["cal", "fit", "--in", "samples.csv", "--out", "c.json", "--plot", ""],
    "cal eval --curve": ["cal", "eval", "--curve", "", "--input", "2"],
    "cal invert --curve": ["cal", "invert", "--curve", "", "--lux", "300"],
    "probe bode --out": ["probe", "bode", *NETWORK, "--points", "3", "--out", ""],
    "acq replay --in": ["acq", "replay", "--in", ""],
    "acq replay --out": ["acq", "replay", "--in", "frames_noldr.csv", "--out", ""],
    "acq replay --config": ["acq", "replay", "--in", "frames_noldr.csv", "--config", ""],
    "acq replay --curve": ["acq", "replay", "--in", "frames.csv", "--curve", ""],
}


def test_every_path_flag_has_an_empty_path_case():
    assert sorted(EMPTY_PATHS) == sorted(f"{command} {flag}" for command, flag, kwargs
                                         in LEAF_FLAGS if is_path(kwargs))


@pytest.mark.parametrize("name", sorted(EMPTY_PATHS))
def test_an_empty_path_is_not_found(capsys, monkeypatch, inputs, name):
    monkeypatch.chdir(inputs)
    assert outcome(capsys, EMPTY_PATHS[name]) == (
        1, "", "error: [Errno 2] No such file or directory: ''\n", {})
