"""Each plasmakit module runs on its first use.

A fresh interpreter imports the package or runs a command and reports which
modules ran that were not loaded when it started.  A module that `lazy` put
into sys.modules but that was never used has not run, and is reported apart.
The parser, `--help` and a usage error run only the package, `cli`,
`errors` and `_lazy`, and not dataclasses, inspect or numpy; a scalar
command runs only the modules it calls.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import plasmakit
from plasmakit.calibration import CalibrationCurve, InputKind, curve_to_dict

from conftest import POWER_COEFFS, VOLTAGE_COEFFS

SRC = Path(plasmakit.__file__).resolve().parent.parent
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    str(SRC), os.environ.get("PYTHONPATH"))))}

# Runs `code`, then prints as its last stderr line the modules new since it
# started: [those that ran, those put into sys.modules but never loaded].
PROBE = """
import json, sys, types
before = set(sys.modules)
{code}
sys.stdout.flush()
new = {{name: type(m) is types.ModuleType for name, m in sys.modules.items() if name not in before}}
print(json.dumps([sorted(n for n, ran in new.items() if ran),
                  sorted(n for n, ran in new.items() if not ran)]), file=sys.stderr)
"""

# cli.main(argv), or build_parser() without argv; its exit code goes to stderr.
COMMAND = """
from plasmakit import cli
try:
    code = cli.main(sys.argv[1:]) if sys.argv[1:] else (cli.build_parser(), 0)[1]
except SystemExit as exc:
    code = exc.code
print(code, file=sys.stderr)
"""

PARSER = ["plasmakit", "plasmakit._lazy", "plasmakit.cli", "plasmakit.errors"]
LIBRARY = [f"plasmakit.{name}" for name in ("acquisition", "calibration", "dataset", "files",
                                            "probe", "svgchart")]


def modules_run(code, *argv, cwd=None):
    """(exit code, modules that ran, modules registered and never loaded, stderr before)."""
    proc = subprocess.run([sys.executable, "-c", PROBE.format(code=code), *argv], env=ENV,
                          cwd=cwd, capture_output=True, text=True)
    *err, report = proc.stderr.splitlines()
    ran, unloaded = json.loads(report)
    return proc.returncode, ran, unloaded, "\n".join(err)


@pytest.fixture
def curve(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(curve_to_dict(CalibrationCurve(*POWER_COEFFS,
                                                              input_kind=InputKind.PLASMA_POWER))))
    return path


@pytest.mark.parametrize("argv, code", [
    ([], 0),
    (["--help"], 0),
    (["probe", "bogus"], 2),
    (["acq", "replay", "--strict"], 2),
], ids=["build_parser", "help", "usage_error", "missing_flag"])
def test_the_parser_runs_none_of_the_library(argv, code):
    returncode, ran, unloaded, err = modules_run(COMMAND, *argv)
    assert returncode == 0 and err.splitlines()[-1] == str(code)
    assert [name for name in ran if name.startswith("plasmakit")] == PARSER
    assert {"dataclasses", "inspect", "numpy"}.isdisjoint(ran)
    # what cli named, registered but not run: the check tells the two apart
    assert {*LIBRARY, "dataclasses"} <= set(unloaded)


@pytest.mark.parametrize("argv, modules", [
    (["probe", "analyze", "--n", "5", "--r1", "10e6", "--c1", "15e-12", "--r0", "52.8e3",
      "--c0", "3e-9"], ["calibration", "probe"]),
    (["probe", "design", "--ratio", "0.001", "--n", "5", "--r1", "10e6", "--c1", "15e-12"],
     ["calibration", "probe"]),
    (["cal", "eval", *(f"--a{k}={a!r}" for k, a in enumerate(VOLTAGE_COEFFS)),
      "--kind", "voltage", "--input", "1"], ["calibration"]),
    (["cal", "invert", *(f"--a{k}={a!r}" for k, a in enumerate(VOLTAGE_COEFFS)),
      "--kind", "voltage", "--lux", "40"], ["calibration"]),
    (["cal", "eval", "--curve", "curve.json", "--input", "12"], ["calibration", "files"]),
    (["cal", "invert", "--curve", "curve.json", "--lux", "40"], ["calibration", "files"]),
], ids=["probe_analyze", "probe_design", "cal_eval", "cal_invert", "cal_eval_curve",
        "cal_invert_curve"])
def test_a_scalar_command_runs_only_the_modules_it_calls(curve, argv, modules):
    returncode, ran, _, err = modules_run(COMMAND, *argv, cwd=curve.parent)
    assert returncode == 0 and err.splitlines()[-1] == "0", err
    assert [name for name in ran if name.startswith("plasmakit")] == sorted(
        PARSER + [f"plasmakit.{name}" for name in modules])
    assert "numpy" not in ran


def test_a_package_name_runs_only_what_it_needs():
    steps = ["import plasmakit", "hasattr(plasmakit, 'cli') and hasattr(plasmakit, 'files')",
             "plasmakit.probe.ProbeNetwork", "plasmakit.Samples"]
    ran = [modules_run("\n".join(steps[:k]))[1] for k in range(1, len(steps) + 1)]
    assert [[name for name in r if name.startswith("plasmakit")] for r in ran] == [
        ["plasmakit", "plasmakit._lazy"],
        ["plasmakit", "plasmakit._lazy"],  # asked for by name, a module is not loaded
        ["plasmakit", "plasmakit._lazy", "plasmakit.calibration", "plasmakit.errors",
         "plasmakit.probe"],
        ["plasmakit", "plasmakit._lazy", "plasmakit.acquisition", "plasmakit.calibration",
         "plasmakit.dataset", "plasmakit.errors", "plasmakit.files", "plasmakit.probe"]]
    assert "dataclasses" not in ran[1] and "numpy" not in ran[2]


def test_dir_lists_the_package_names_before_any_is_used():
    proc = subprocess.run([sys.executable, "-c", "import json, plasmakit\n"
                           "print(json.dumps(dir(plasmakit)))"], env=ENV, capture_output=True,
                          text=True)
    assert set(plasmakit.__all__) <= set(json.loads(proc.stdout)), proc.stderr
