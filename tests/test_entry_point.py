"""`python -m plasmakit.cli` as a process: the exit code of each argv, no
traceback, and the paper's chain (characterize, then cal invert and cal eval
on the characterization) through files."""

import json
import math
import random
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import plasmakit

from conftest import POWER_COEFFS

SRC = Path(plasmakit.__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    str(SRC), os.environ.get("PYTHONPATH"))))}


def argv_id(value):
    return " ".join(value) if isinstance(value, list) else repr(value)


def run(argv, code, cwd=None, err=""):
    """stdout of the process; its exit code must be `code`, and its stderr
    must hold `err` and no traceback."""
    proc = subprocess.run([sys.executable, "-m", "plasmakit.cli", *argv], cwd=cwd, env=ENV,
                          capture_output=True, text=True)
    assert proc.returncode == code, (argv, proc.returncode, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, proc.stderr)
    assert err in proc.stderr, (argv, err, proc.stderr)
    return proc.stdout


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["characterize", "--help"], 0),
    (["probe", "design", "--ratio", "0.001", "--n", "5", "--r1", "10e6", "--c1", "15e-12"], 0),
    (["probe", "analyze", "--n", "0", "--r1", "1e6", "--c1", "1e-12",
      "--r0", "1e3", "--c0", "1e-9"], 1),
    (["bogus"], 2),
    (["acq", "replay", "--in", "/nonexistent"], 1),
], ids=argv_id)
def test_exit_code(argv, code):
    out = run(argv, code)
    if argv[0] == "probe" and code == 0:
        json.loads(out)


def lux_at(p):
    """Published power curve: ln lux is a cubic in ln p."""
    return math.exp(sum(a * math.log(p) ** k for k, a in enumerate(POWER_COEFFS)))


@pytest.fixture(scope="module")
def chain(tmp_path_factory):
    """A 30-row run on the power curve, characterized to char.json and chart.svg."""
    tmp = tmp_path_factory.mktemp("chain")
    (tmp / "run.csv").write_text("t_ms,v_volts,i_amps,lux\n" + "".join(
        f"{k},{p / 0.02!r},0.02,{lux_at(p)!r}\n"
        for k, p in enumerate(5.0 * 8.0 ** (k / 29) for k in range(30))))
    char = json.loads(run(["characterize", "--in", "run.csv", "--out", "char.json",
                           "--plot", "chart.svg"], 0, tmp))
    return tmp, char


def test_chart_has_a_dot_per_row_and_a_200_point_fit(chain):
    # The chart parses as XML (a stray NUL byte would not): a dot per row, all
    # 30 usable, and the fit as one polyline of 200 points.
    text = (chain[0] / "chart.svg").read_text(encoding="utf-8")
    svg, ns = ET.fromstring(text), "{http://www.w3.org/2000/svg}"
    lines = svg.findall(ns + "polyline")
    assert text.count("<circle") == len(svg.findall(ns + "circle")) == 30
    assert len(lines) == 1 and len(lines[0].get("points").split()) == 200


def test_invert_then_eval_returns_the_lux(chain):
    tmp, char = chain
    lux = lux_at(12.0)
    inverted = json.loads(run(["cal", "invert", "--curve", "char.json", "--lux", repr(lux)],
                              0, tmp))
    evaluated = json.loads(run(["cal", "eval", "--curve", "char.json",
                                "--input", repr(inverted["input"])], 0, tmp))
    assert char["curve"]["kind"] == inverted["kind"] == evaluated["kind"] == "power"
    assert math.isclose(evaluated["lux"], lux, rel_tol=1e-9), (evaluated, lux)


@pytest.mark.parametrize("argv, code, err", [
    (["cal", "eval", "--curve", "char.json", "--input", "10", "--a0", "1"], 1, "--a0"),
    (["acq", "replay", "--in", "run.csv", "--curve", "char.json"], 1, "light-channel curve"),
    (["acq", "replay", "--in", "run.csv", "--probe-ratio", "0.5"], 1, "probe_ratio"),
    (["acq", "replay", "--in", "run.csv"], 0, ""),
], ids=argv_id)
def test_a_flag_without_effect_is_an_error(chain, argv, code, err):
    run(argv, code, chain[0], err)


def test_piped_frames_give_the_bytes_of_the_file(tmp_path):
    """`acq replay --in -` reads standard input as a path is read: seeded
    frames over several chunks give the exit code, stdout and stderr of
    `--in FILE`."""
    rng = random.Random(33)
    frames = tmp_path / "frames.csv"
    frames.write_text("t_ms,raw_hv,raw_shunt,raw_ldr\n" + "".join(
        f"{k * 0.25!r},{rng.randint(0, 4095)},{rng.randint(0, 4095)},"
        f"{rng.choice(['', 'x', rng.randint(0, 4096)])}\n" for k in range(20_000)))
    argv = [sys.executable, "-m", "plasmakit.cli", "acq", "replay"]
    want = subprocess.run([*argv, "--in", str(frames)], env=ENV, capture_output=True)
    with open(frames, "rb") as fh:
        got = subprocess.run([*argv, "--in", "-"], env=ENV, stdin=fh, capture_output=True)
    assert want.returncode == 0 and want.stderr.startswith(b"warning: line ")
    assert (got.returncode, got.stdout, got.stderr) == (want.returncode, want.stdout, want.stderr)


def test_two_calls_reading_stdin_leave_it_open(tmp_path):
    """Two `main` calls in one process each read `--in -`: the first gives the
    output of `--in FILE` for the piped frames, the second, at the end of the
    input, that of an empty file; the caller's stdin stays open."""
    frames, empty = tmp_path / "frames.csv", tmp_path / "empty.csv"
    frames.write_text("t_ms,raw_hv,raw_shunt\n0,652,2596\nx,1,1\n1,0,1551\n")
    empty.write_text("")
    want = [subprocess.run([sys.executable, "-m", "plasmakit.cli", "acq", "replay", "--in",
                            str(path)], env=ENV, capture_output=True, text=True)
            for path in (frames, empty)]
    script = ("import gc, sys\nfrom plasmakit.cli import main\n"
              "codes = [main(['acq', 'replay', '--in', '-']) for _ in range(2)]\n"
              "gc.collect()\nprint(codes, sys.stdin.closed, file=sys.stderr)\n")
    with open(frames, "rb") as fh:
        got = subprocess.run([sys.executable, "-X", "dev", "-c", script], env=ENV, stdin=fh,
                             capture_output=True, text=True)
    assert want[0].stderr.startswith("warning: line 3: ") and want[1].stdout
    assert (got.stdout, got.stderr) == (want[0].stdout + want[1].stdout,
                                        want[0].stderr + want[1].stderr + "[0, 0] False\n")


@pytest.mark.parametrize("command", [["acq", "replay"], ["cal", "fit"], ["characterize"]],
                         ids=argv_id)
def test_in_dash_without_stdin_is_an_error(command):
    # <&- starts the process with no standard input, so sys.stdin is None
    proc = subprocess.run(["sh", "-c", '"$@" <&-', "sh", sys.executable, "-m", "plasmakit.cli",
                           *command, "--in", "-"], env=ENV, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        1, "", "error: --in -: there is no standard input\n")
