"""NumPy is imported on first use (plasmakit._lazy).

The scalar commands, the parser and its errors must start without NumPy; the
array commands must load it and give the same output as a process that
imported NumPy first; once loaded, plasmakit's `np` is the numpy module.
"""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import plasmakit
from plasmakit.cli import main

from conftest import POWER_COEFFS

SRC = Path(plasmakit.__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    str(SRC), os.environ.get("PYTHONPATH"))))}

# Runs cli.main(argv), or build_parser() without argv, then reports on its
# last stderr line the exit code and the numpy submodules it imported.
REPORT = """
import json, sys
from plasmakit import cli
try:
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else (cli.build_parser(), 0)[1]
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("numpy."))]),
      file=sys.stderr)
"""


def run_report(*argv, cwd=None):
    proc = subprocess.run([sys.executable, "-c", REPORT, *argv], capture_output=True,
                          text=True, env=ENV, cwd=cwd)
    *err, report = proc.stderr.splitlines()
    code, loaded = json.loads(report)
    return code, proc.stdout, "".join(line + "\n" for line in err), loaded


def python(code, *args):
    return subprocess.run([sys.executable, *args, "-c", code], capture_output=True,
                          text=True, env=ENV)


@pytest.fixture
def run_dir(tmp_path, capsys):
    """A 30-row run on the power curve and its characterization, char.json."""
    def lux_at(p):
        return math.exp(sum(a * math.log(p) ** k for k, a in enumerate(POWER_COEFFS)))
    (tmp_path / "run.csv").write_text("t_ms,v_volts,i_amps,lux\n" + "".join(
        f"{k},{p / 0.02!r},0.02,{lux_at(p)!r}\n"
        for k, p in enumerate(5.0 * 8.0 ** (k / 29) for k in range(30))))
    assert main(["characterize", "--in", str(tmp_path / "run.csv"),
                 "--out", str(tmp_path / "char.json")]) == 0
    capsys.readouterr()
    return tmp_path


@pytest.mark.parametrize("argv, code", [
    ([], 0),
    (["--help"], 0),
    (["probe", "bogus"], 2),
    (["cal", "eval", "--a0", "2.533317", "--a1", "1.960146", "--a2", "2.118486",
      "--a3", "2.101649", "--kind", "voltage", "--input", "1"], 0),
    (["cal", "eval", "--curve", "char.json", "--input", "12"], 0),
    (["cal", "invert", "--curve", "char.json", "--lux", "40"], 0),
    (["probe", "analyze", "--n", "5", "--r1", "10e6", "--c1", "15e-12",
      "--r0", "52.8e3", "--c0", "3e-9"], 0),
    (["probe", "design", "--ratio", "0.001", "--n", "5", "--r1", "10e6", "--c1", "15e-12"], 0),
], ids=["build_parser", "help", "usage_error", "cal_eval", "cal_eval_curve",
        "cal_invert_curve", "probe_analyze", "probe_design"])
def test_scalar_commands_start_without_numpy(run_dir, argv, code):
    got_code, out, err, loaded = run_report(*argv, cwd=run_dir)
    assert got_code == code, err
    assert loaded == []


@pytest.mark.parametrize("argv", [
    ["characterize", "--in", "run.csv", "--out", "out.json", "--plot", "out.svg"],
    ["acq", "power", "--v", "498", "--i", "0.0366"],
    ["acq", "replay", "--in", "run.csv"],
], ids=["characterize", "acq_power", "acq_replay"])
def test_array_commands_load_numpy_and_keep_their_output(run_dir, capsys, monkeypatch, argv):
    def outputs():
        return [(run_dir / name).read_bytes() for name in ("out.json", "out.svg") if name in argv]
    code, out, err, loaded = run_report(*argv, cwd=run_dir)
    assert loaded, "NumPy was never loaded"
    lazy_outputs = outputs()
    monkeypatch.chdir(run_dir)
    assert (code, out, err) == (main(argv), *capsys.readouterr())
    assert outputs() == lazy_outputs


@pytest.mark.parametrize("first", ["numpy", "plasmakit"])
def test_np_is_the_numpy_module(first):
    proc = python(f"""
import sys, types
import {first}
import numpy, plasmakit.files
assert sys.modules["numpy"] is numpy and plasmakit.files.np is numpy
assert numpy.zeros(2).sum() == 0.0 and type(numpy) is types.ModuleType
""")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("setup, args", [
    ('sys.modules["numpy"] = None', ()),
    (f"sys.path.insert(0, {str(SRC)!r})", ("-S", "-E")),  # no site-packages on sys.path
], ids=["blocked", "not_installed"])
def test_without_numpy_import_raises_module_not_found(setup, args):
    proc = python(f"""
import sys
{setup}
try:
    import plasmakit
except ModuleNotFoundError as exc:
    assert exc.name == "numpy", exc
else:
    raise SystemExit("plasmakit imported without NumPy")
""", *args)
    assert proc.returncode == 0, proc.stderr


def test_only_the_lazy_module_imports_numpy():
    statement = re.compile(r"\bimport\s+numpy\b|^\s*from\s+numpy\b", re.MULTILINE)
    named = [path.name for path in (SRC / "plasmakit").glob("*.py")
             if path.name != "_lazy.py" and statement.search(path.read_text(encoding="utf-8"))]
    assert named == []
