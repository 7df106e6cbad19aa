"""The CLI exit contract for any flag values and any input bytes.

Every subcommand is called in-process through cli.main with flag values
from the edges of the float range (signed zeros, 1e+-308, subnormals, NaN,
infinities) and small ints, and with input files of arbitrary bytes, mixed
with files built from the right header and such values so that the numeric
paths behind the parsers are reached too.  Each call must exit 0, 1 or 2
without a traceback, a call that fails must leave no output file, and a
command that prints JSON must print JSON that parses with NaN and Infinity
rejected.
"""

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout

from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasmakit.cli import main

EDGE_FLOATS = ("0", "-0", "0.0", "-0.0", "1e308", "-1e308", "1.7976931348623157e308",
               "-1.7976931348623157e308", "1e-308", "-1e-308", "5e-324", "-5e-324",
               "2.5e-310", "nan", "-nan", "inf", "-inf")
FLOAT = st.one_of(st.sampled_from(EDGE_FLOATS), st.integers(-3, 10).map(str))
# JSON values: numbers at the same edges (json.dumps writes NaN and Infinity),
# an int too large for a float, and values of the wrong type.
JSON_VALUE = st.one_of(FLOAT.map(float), st.integers(-3, 10),
                       st.sampled_from((10 ** 400, True, None, "1", [1], {})))
JSON_COMMANDS = {"probe analyze", "probe design", "cal fit", "cal eval", "cal invert",
                 "acq power", "characterize"}


def count(bound):
    return st.integers(-3, bound).map(str)


def csv_bytes(*headers):
    """Arbitrary bytes, or one of the headers (its columns in any order, some
    maybe missing) with rows of edge values, junk cells and short rows."""
    cell = st.one_of(FLOAT, st.sampled_from(("", "x", "1e309", "0x10", '"1,2"')))

    @st.composite
    def structured(draw):
        header = draw(st.sampled_from(headers))
        names = draw(st.lists(st.sampled_from(header), min_size=1, max_size=len(header) + 1))
        rows = draw(st.lists(st.lists(cell, min_size=0, max_size=len(names) + 1), max_size=40))
        return "\n".join(map(",".join, [names, *rows])).encode()

    return st.one_of(st.binary(max_size=300), structured())


def json_bytes(required, optional):
    """Arbitrary bytes, or a JSON object of the required keys and some of the
    optional ones."""
    obj = st.fixed_dictionaries(required, optional=optional)
    return st.one_of(st.binary(max_size=100), obj.map(lambda d: json.dumps(d).encode()))


CURVE_JSON = json_bytes({"kind": st.sampled_from(("voltage", "power", "lux"))},
                        {**dict.fromkeys(("a0", "a1", "a2", "a3"), JSON_VALUE),
                         "input_range": st.lists(JSON_VALUE, max_size=3) | JSON_VALUE})
CONFIG_JSON = json_bytes({}, dict.fromkeys(("probe_ratio", "shunt_ohms", "offset_volts",
                                            "adc_bits", "adc_fullscale_volts", "bogus"),
                                           JSON_VALUE))


@st.composite
def flags(draw, required, optional=None):
    """argv for flags: name -> strategy of its value (None for a bare switch);
    every required flag and a random subset of the optional ones."""
    optional = optional or {}
    names = [*required, *draw(st.lists(st.sampled_from(sorted(optional)), unique=True)
                              if optional else st.just([]))]
    argv = []
    for name in names:
        value = required.get(name, optional.get(name))
        argv.append(name)
        if value is not None:
            argv.append(draw(value))
    return argv


def input_file(path, content):
    """A flag value naming a file `path` in the call's directory with `content`."""
    return content.map(lambda data: ("@" + path, data))


NETWORK = {"--n": count(200), "--r1": FLOAT, "--c1": FLOAT, "--r0": FLOAT, "--c0": FLOAT}
CURVE_FLAGS = {"--curve": input_file("curve.json", CURVE_JSON), "--a0": FLOAT,
               "--a1": FLOAT, "--a2": FLOAT, "--a3": FLOAT,
               "--kind": st.sampled_from(("voltage", "power"))}
OUT_JSON, OUT_SVG = ("@out.json", None), ("@out.svg", None)
OUT = {"csv": st.just(("@out.csv", None)), "svg": st.just(OUT_SVG), "json": st.just(OUT_JSON)}

COMMANDS = {
    "probe analyze": flags(NETWORK, {"--tol": FLOAT}),
    "probe design": flags({"--ratio": FLOAT, "--n": count(200), "--r1": FLOAT, "--c1": FLOAT}),
    "probe bode": flags(NETWORK, {"--fmin": FLOAT, "--fmax": FLOAT, "--points": count(2000),
                                  "--spacing": st.sampled_from(("log", "linear")),
                                  "--out": OUT["csv"] | OUT["svg"]}),
    "cal fit": flags({"--in": input_file("samples.csv", csv_bytes(("input", "lux")))},
                     {"--out": OUT["json"], "--plot": OUT["svg"], "--trim": None,
                      "--kind": st.sampled_from(("voltage", "power"))}),
    "cal eval": flags({"--input": FLOAT}, CURVE_FLAGS),
    "cal invert": flags({"--lux": FLOAT}, CURVE_FLAGS),
    "acq power": flags({"--v": FLOAT, "--i": FLOAT}),
    "acq replay": flags(
        {"--in": input_file("frames.csv",
                            csv_bytes(("t_ms", "raw_hv", "raw_shunt", "raw_ldr"),
                                      ("t_ms", "v_volts", "i_amps", "lux")))},
        {"--out": OUT["csv"], "--config": input_file("config.json", CONFIG_JSON),
         "--curve": input_file("curve.json", CURVE_JSON), "--strict": None,
         "--probe-ratio": FLOAT, "--shunt-ohms": FLOAT, "--offset-volts": FLOAT,
         "--adc-fullscale-volts": FLOAT, "--adc-bits": count(30)}),
    "characterize": flags(
        {"--in": input_file("run.csv",
                            csv_bytes(("t_ms", "v_volts", "i_amps", "p_watts", "lux")))},
        {"--out": OUT["json"], "--plot": OUT["svg"], "--trim": None, "--i-min": FLOAT}),
}


def call(command, argv):
    """Exit code, stdout, stderr and the sorted names of the out.* files
    left by one in-process CLI call; a flag value ("@name", data) becomes a
    file in a fresh directory, written unless data is None."""
    with tempfile.TemporaryDirectory() as root:
        args = command.split()
        for item in argv:
            if isinstance(item, tuple):
                path = os.path.join(root, item[0][1:])
                if item[1] is not None:
                    with open(path, "wb") as fh:
                        fh.write(item[1])
                item = path
            args.append(item)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:
                code = exc.code
        written = sorted(name for name in os.listdir(root) if name.startswith("out."))
    return code, out.getvalue(), err.getvalue(), written


UNIT_NETWORK = ["--n", "1", "--r1", "1", "--c1", "1", "--r0", "1", "--c0", "1"]


def reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@settings(max_examples=1500, deadline=None)
@given(st.sampled_from(sorted(COMMANDS)).flatmap(lambda c: COMMANDS[c].map(lambda a: (c, a))))
@example(("probe analyze", ["--n", "1", "--r1", "1e308", "--c1", "1", "--r0", "1e308",
                            "--c0", "1"]))
@example(("probe analyze", ["--n", "1", "--r1", "1e308", "--c1", "1e308", "--r0", "1",
                            "--c0", "1"]))
@example(("probe design", ["--ratio", "0.5", "--n", "1", "--r1", "1e308", "--c1", "1e-300"]))
@example(("probe bode", [*UNIT_NETWORK, "--fmin", "1", "--fmax", "1.7976931348623157e308"]))
@example(("probe bode", [*UNIT_NETWORK, "--fmin", "1e300", "--fmax", "1.7976931348623157e308",
                         "--points", "5"]))
@example(("probe bode", [*UNIT_NETWORK, "--fmin", "1", "--fmax", "1.7976931348623157e308",
                         "--spacing", "linear"]))
@example(("probe bode", [*UNIT_NETWORK, "--fmin", "1", "--fmax", "1e308", "--points", "3"]))
@example(("cal eval", ["--input", "10", "--a0", "1e308", "--a1", "1e308", "--a2", "0",
                       "--a3", "0", "--kind", "voltage"]))
@example(("cal eval", ["--input", "1e308", "--a0", "0", "--a1", "0", "--a2", "0",
                       "--a3", "1e308", "--kind", "voltage"]))
@example(("cal eval", ["--input", "1", "--curve", ("@curve.json", json.dumps(
    {"kind": "voltage", "a0": 10 ** 400, "a1": 1, "a2": 0, "a3": 0}).encode())]))
# the fits succeed, but their plots overflow: neither file may be written
@example(("cal fit", ["--in", ("@samples.csv", b"input,lux\n1,1\n2,1e300\n3,1e-300\n"
                                                b"4,5\n5,1e200\n"),
                      "--out", OUT_JSON, "--plot", OUT_SVG]))
@example(("characterize", ["--in", ("@run.csv", b"t_ms,v_volts,i_amps,lux\n0,100,0.01,1\n"
                                                b"1,200,0.01,1e300\n2,300,0.01,1e-300\n"
                                                b"3,400,0.01,5\n4,500,0.01,1e200\n"),
                           "--out", OUT_JSON, "--plot", OUT_SVG]))
@example(("acq power", ["--v", "nan", "--i", "1"]))
@example(("acq power", ["--v", "1e308", "--i", "10"]))
def test_exit_contract(case):
    command, argv = case
    code, out, err, written = call(command, argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    if code != 0:
        assert written == []
    if code == 0 and command in JSON_COMMANDS:
        json.loads(out, parse_constant=reject_constant)
