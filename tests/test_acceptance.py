"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import json
import math
import os
import random
import subprocess
import sys

import pytest

import plasmakit
from plasmakit import (
    CalibrationCurve,
    InputKind,
    ProbeNetwork,
    RCStage,
    bode_sweep,
    characterize,
    compensation_capacitor,
    dc_attenuation,
    design_probe,
    fit_log_cubic,
    input_from_lux,
    instantaneous_power,
    is_compensated,
    lux_from_input,
    monotone_direction,
    transfer_function,
)
from plasmakit.acquisition import Samples
from plasmakit.dataset import ExperimentRun

from conftest import POWER_COEFFS, VOLTAGE_COEFFS, direct_gain, reference_network


def report(number, text):
    print(f"PASS criterion {number}: {text}")


def test_criterion_1_probe_attenuation():
    net = reference_network()
    ratio = dc_attenuation(net)
    independent = 52.8e3 / (5 * 10e6 + 52.8e3)  # plain arithmetic oracle
    assert abs(ratio - independent) <= 1e-12 * independent
    assert ratio == pytest.approx(1.054886e-3, rel=1e-6)
    assert 900.0 <= 1.0 / ratio <= 1050.0
    report(1, f"dc_attenuation = {ratio:.9e}, 1/ratio = {1 / ratio:.1f}")


def test_criterion_2_compensation():
    net = reference_network()
    c0 = compensation_capacitor(net)
    assert abs(c0 - 2.840909090909091e-9) <= 1e-15
    assert is_compensated(net, 0.10) is True
    assert is_compensated(net, 0.01) is False
    report(2, f"exact C0 = {c0:.6e} F; 3 nF compensated at 10% but not 1%")


def test_criterion_3_flatness_and_oracle_agreement():
    # flatness of exactly compensated networks
    rng = random.Random(31415)
    for _ in range(20):
        k = rng.uniform(1e-4, 0.5)
        n = rng.randint(1, 8)
        net = design_probe(k, n, 10 ** rng.uniform(3, 7), 10 ** rng.uniform(-12, -9))
        responses = bode_sweep(net, 1.0, 1e7, 200, "log")
        mags = responses.magnitude
        assert mags.max() / mags.min() - 1.0 <= 1e-9
        assert all(abs(phase) <= 1e-9 for phase in responses.phase.tolist())
    # polynomial transfer function vs direct complex oracle
    for _ in range(1000):
        n = rng.randint(0, 6)
        net = ProbeNetwork(
            base=RCStage(10 ** rng.uniform(2, 7), 10 ** rng.uniform(-12, -8)),
            ladder=tuple(RCStage(10 ** rng.uniform(2, 7), 10 ** rng.uniform(-12, -8))
                         for _ in range(n)))
        f = 10 ** rng.uniform(0, 8)
        got = transfer_function(net)(2j * math.pi * f)
        want = direct_gain(net, f)
        assert abs(got - want) <= 1e-12 * abs(want)
    report(3, "compensated sweeps flat to 1e-9; 1000 random networks agree "
              "with the complex oracle to 1e-12")


def test_criterion_4_calibration_worked_example():
    curve = CalibrationCurve(*VOLTAGE_COEFFS)
    lux = lux_from_input(curve, 1.0)
    assert abs(lux - 12.5952) <= 5e-4
    report(4, f"voltage curve at 1 V -> {lux:.6f} lux")


def test_criterion_5_power_cross_check():
    p_arduino = instantaneous_power(498.0, 0.0366)
    p_industrial = instantaneous_power(479.0, 0.877 / 23.0)
    assert p_arduino == pytest.approx(18.227, rel=5e-5)      # 4 significant digits
    assert p_industrial == pytest.approx(18.264, rel=5e-5)
    rel_diff = abs(p_arduino - p_industrial) / p_industrial
    assert rel_diff < 0.02
    assert rel_diff == pytest.approx(0.0020, abs=2e-4)
    report(5, f"p = {p_arduino:.4f} W vs {p_industrial:.4f} W, "
              f"rel diff {100 * rel_diff:.2f}% < 2%")


def test_criterion_6_monotonicity_and_inversion():
    for coeffs, kind in ((VOLTAGE_COEFFS, InputKind.SENSOR_VOLTAGE),
                         (POWER_COEFFS, InputKind.PLASMA_POWER)):
        curve = CalibrationCurve(*coeffs, input_kind=kind)
        a0, a1, a2, a3 = coeffs
        assert 4 * a2 * a2 - 12 * a3 * a1 < 0  # derivative discriminant
        assert monotone_direction(curve) != 0
        assert monotone_direction(curve) == 1
        for x in [0.1 * (100 / 0.1) ** (k / 30) for k in range(31)]:
            back = input_from_lux(curve, lux_from_input(curve, x))
            assert abs(back - x) <= 1e-9 * x
    report(6, "both curves monotone; forward/inverse round trip to 1e-9 "
              "over [0.1, 100]")


def test_criterion_7_fit_recovery():
    for coeffs, kind in ((VOLTAGE_COEFFS, InputKind.SENSOR_VOLTAGE),
                         (POWER_COEFFS, InputKind.PLASMA_POWER)):
        curve = CalibrationCurve(*coeffs, input_kind=kind)
        inputs = [0.5 * (50.0 / 0.5) ** (k / 9) for k in range(10)]  # 2 decades
        fitted, _, _ = fit_log_cubic(inputs, [lux_from_input(curve, x) for x in inputs], kind)
        for got, want in zip(fitted.coefficients, coeffs):
            assert abs(got - want) <= 1e-8
    report(7, "noiseless fits recover all coefficients within 1e-8")


def test_criterion_8_characterization_path():
    # The published run data is not reachable from this environment, so the
    # synthetic-run stand-in applies: full characterize path with ignition
    # filtering and trim verified on constructed traces.
    curve = CalibrationCurve(*POWER_COEFFS, input_kind=InputKind.PLASMA_POWER)
    # five zero-current samples without lux, then 40 on the curve
    v, i, lux = [0.0] * 5, [0.0] * 5, [math.nan] * 5
    for k in range(40):
        p = 5.0 * 8.0 ** (k / 39)
        i.append(0.02)
        v.append(p / i[-1])
        lux.append(lux_from_input(curve, p))
        if k == 11:
            lux[-1] *= math.exp(2.5)  # injected ignition-transient outlier
    run = ExperimentRun(samples=Samples(range(45), v, i, lux))

    plain = characterize(run, trim=False)
    trimmed = characterize(run, trim=True)
    assert trimmed.trimmed_count == 1
    for got, want in zip(trimmed.curve.coefficients, POWER_COEFFS):
        assert abs(got - want) <= 1e-6
    # ignition filter removed exactly the zero-current head
    assert plain.curve.input_range[0] == pytest.approx(5.0, rel=1e-9)
    report(8, "synthetic characterize recovers the power-curve coefficients; "
              "ignition filter and trim verified")


CLI = [sys.executable, "-m", "plasmakit.cli"]
# The child imports the plasmakit this process imported, installed or not.
CLI_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
    os.path.dirname(os.path.dirname(plasmakit.__file__)), os.environ.get("PYTHONPATH"))))}


def _run(*argv):
    return subprocess.run(CLI + list(argv), capture_output=True, text=True, env=CLI_ENV)


def test_criterion_9_cli_golden():
    cases = [
        (["cal", "eval", "--a0", "2.533317", "--a1", "1.960146",
          "--a2", "2.118486", "--a3", "2.101649", "--kind", "voltage",
          "--input", "1"], ("lux", 12.5952, 5e-4)),
        (["acq", "power", "--v", "498", "--i", "0.0366"],
         ("p_watts", 18.227, 5e-4)),
        (["acq", "power", "--v", "479", "--i", "0.038130"],
         ("p_watts", 18.264, 5e-4)),
    ]
    for argv, (key, want, tol) in cases:
        first = _run(*argv)
        second = _run(*argv)
        assert first.returncode == 0
        assert first.stdout == second.stdout  # byte-stable
        assert abs(json.loads(first.stdout)[key] - want) <= tol
    # exit-code contract
    assert _run("acq", "power", "--v", "1", "--i", "2").returncode == 0
    assert _run("probe", "design", "--ratio", "2", "--n", "5",
                "--r1", "1e6", "--c1", "1e-12").returncode == 1
    assert _run("probe", "analyze", "--n", "5").returncode == 2
    report(9, "reference CLI outputs byte-stable; exit codes 0/1/2 verified")
