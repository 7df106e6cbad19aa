"""A seeded virtual rig (conftest.virtual_rig): the ADC counts of a discharge,
replayed by `acq replay`.

The rig draws a power trace with an ignition and turns it into hv and shunt
counts through ChannelConfig's defaults.  Its light-sensor counts come from
the published voltage curve, inverted at the lux that the published power
curve gives for the power.  Every channel is quantized to 12 bits, and a few
light counts lie outside [0, 4095].

The oracles are closed forms, not values taken from plasmakit.  With
q = fullscale / (2^bits - 1), a count is within q/2 of the volts it stands
for, so v is within dv = q/2 / probe_ratio of the truth and i within
di = q/2 / shunt_ohms, and p = v*i within |i|*dv + |v|*di + dv*di.  Each
bound is widened by a few ulps of the full-scale value, for rounding.
"""

import csv
import json
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial

from plasmakit import ChannelConfig
from plasmakit.calibration import FIT_ATOL, INVERT_ATOL
from plasmakit.cli import main

from conftest import POWER_COEFFS, VOLTAGE_COEFFS, virtual_rig

CFG = ChannelConfig()
MAX_COUNT = 2 ** CFG.adc_bits - 1
Q = CFG.adc_fullscale_volts / MAX_COUNT
ULPS = 16 * np.finfo(float).eps
DV = Q / 2 / CFG.probe_ratio + ULPS * CFG.adc_fullscale_volts / CFG.probe_ratio
DI = Q / 2 / CFG.shunt_ohms + ULPS * CFG.adc_fullscale_volts / CFG.shunt_ohms
ROWS, PRE_IGNITION = 3000, 300
# raw_ldr of a few lit rows, and the ADC range they miss
BAD_LIGHT = (4096, 5000, 99999, -1, -40, 65536)


@pytest.fixture(scope="module")
def rig(tmp_path_factory):
    rig = virtual_rig(ROWS, 7, PRE_IGNITION, BAD_LIGHT)
    bad = rig["bad"]
    root = tmp_path_factory.mktemp("rig")
    frames, curve = root / "frames.csv", root / "curve.json"
    frames.write_text(rig["text"])
    curve.write_text(json.dumps(dict(zip(("a0", "a1", "a2", "a3"), VOLTAGE_COEFFS),
                                     kind="voltage")))
    keep = np.ones(ROWS, dtype=bool)
    keep[bad] = False
    warnings = [f"warning: line {k + 2}: ldr channel: count {c} outside [0, {MAX_COUNT}]"
                for k, c in zip(bad.tolist(), BAD_LIGHT)]
    return {**rig, "root": root, "frames": frames, "curve": curve, "keep": keep,
            "warnings": warnings}


def replay(rig, capsys, curve):
    out = rig["root"] / f"samples_{curve}.csv"
    code = main(["acq", "replay", "--in", str(rig["frames"]), "--out", str(out),
                 *(["--curve", str(rig["curve"])] if curve else [])])
    err = capsys.readouterr().err
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    cols = {name: np.array([float(row[name] or "nan") for row in rows])
            for name in ("t_ms", "v_volts", "i_amps", "p_watts", "lux")}
    return code, err.splitlines(), cols


@pytest.mark.parametrize("curve", [False, True], ids=["no-curve", "curve"])
def test_replay_is_within_half_a_code_of_the_truth(rig, capsys, curve):
    # with or without a curve, the same rows are kept and the same lines warned
    code, warnings, cols = replay(rig, capsys, curve)
    assert code == 0
    assert warnings == rig["warnings"]
    keep = rig["keep"]
    assert cols["t_ms"].tolist() == rig["t"][keep].tolist()
    v, i = rig["v"][keep], rig["i"][keep]
    assert np.all(np.abs(cols["v_volts"] - v) <= DV)
    assert np.all(np.abs(cols["i_amps"] - i) <= DI)
    bound = np.abs(i) * DV + np.abs(v) * DI + DV * DI + 4 * np.spacing(np.abs(v * i))
    assert np.all(np.abs(cols["p_watts"] - v * i) <= bound)
    lit = np.arange(len(keep))[keep] >= PRE_IGNITION
    if not curve:
        assert np.isnan(cols["lux"]).all()
        return
    assert (cols["lux"][~lit] == 0.0).all()  # a dark count reads 0 lux
    x = rig["light"][keep][lit]
    log_lux = polynomial.polyval(np.log(x), VOLTAGE_COEFFS)
    assert np.all(np.abs(np.log(cols["lux"][lit]) - log_lux) <= light_bound(x))


def light_bound(x: np.ndarray) -> np.ndarray:
    """Bound on the ln lux error of light volts x read through the voltage
    curve: the volts are within q/2, and the curve's log slope is convex in
    ln x, so its largest value over that interval is at an end."""
    slope = [polynomial.polyval(np.log(x + d), polynomial.polyder(VOLTAGE_COEFFS))
             for d in (-Q / 2, Q / 2)]
    return np.maximum(*slope) * -np.log1p(-Q / 2 / x) + 1e-12


def hat_row_sums(u: np.ndarray, block: int = 512) -> np.ndarray:
    """Row sums of |H|, H the hat matrix of the cubic least-squares fit in u,
    from a NumPy QR of its design in u centred and scaled to [-1, 1], taken a
    block of rows at a time so the n-by-n matrix is never held."""
    q = np.linalg.qr(np.vander((2.0 * u - u.max() - u.min()) / (u.max() - u.min()), 4))[0]
    return np.concatenate([np.abs(q[k:k + block] @ q.T).sum(axis=1)
                           for k in range(0, len(u), block)])


def test_characterize_fits_the_replayed_run_back_to_the_power_curve(rig, capsys):
    # The usable rows follow the documented rule: ignition is the first run of
    # 3 rows with |i| >= 1e-3, and the fit keeps the rows from there on with
    # p > 0 and lux > 0.  F is the published power curve and u = ln p.  Each
    # usable row's ln lux is within eps of F(u); the fit is H y up to FIT_ATOL,
    # and H F(u) = F(u) because F is a cubic in u, so the fit is within
    # ||H||_inf * max(eps) + FIT_ATOL of F at every usable u.
    code, _, cols = replay(rig, capsys, curve=True)
    assert code == 0
    char = rig["root"] / "char.json"
    code = main(["characterize", "--in", str(rig["root"] / "samples_True.csv"),
                 "--out", str(char)])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == char.read_text()
    data = json.loads(char.read_text())

    t, i, p, lux = (cols[name] for name in ("t_ms", "i_amps", "p_watts", "lux"))
    above = np.abs(i) >= 1e-3
    ignition = next(k for k in range(len(i)) if above[k:k + 3].all())
    usable = (t >= t[ignition]) & (p > 0.0) & (lux > 0.0)
    assert data["input_range"] == [p[usable].min(), p[usable].max()]
    assert data["trimmed_count"] == 0

    # eps per usable row: the light channel's term, as in the replay test,
    # plus F's largest slope over the row's interval of ln p times its
    # half-width, the p bound over p.  F' is a convex quadratic with no real
    # root, so it is positive and largest at an end of the interval.
    dF = polynomial.polyder(POWER_COEFFS)
    assert dF[1] ** 2 - 4 * dF[2] * dF[0] < 0 < dF[2]
    rows = np.flatnonzero(rig["keep"])[usable]
    v_true, i_true = rig["v"][rows], rig["i"][rows]
    p_true = v_true * i_true
    p_bound = (np.abs(i_true) * DV + np.abs(v_true) * DI + DV * DI
               + 4 * np.spacing(np.abs(p_true)))
    half = -np.log1p(-p_bound / p_true)
    eps = light_bound(rig["light"][rows]) + np.maximum(*(polynomial.polyval(np.log(p_true) + d * half, dF)
                               for d in (-1, 1))) * half
    u = np.log(p[usable])
    truth = polynomial.polyval(u, POWER_COEFFS)
    assert np.all(np.abs(np.log(lux[usable]) - truth) <= eps)

    curve = [data["curve"][name] for name in ("a0", "a1", "a2", "a3")]
    miss = np.abs(polynomial.polyval(u, curve) - truth).max()
    assert miss <= hat_row_sums(u).max() * eps.max() + FIT_ATOL


def test_invert_reads_the_power_back_from_the_rig_characterization(rig, capsys):
    # `cal invert --curve char.json` at L = exp(F(u)) for usable u, F the
    # published power curve.  The result u' = ln p' is a root of fitted(u') =
    # ln L to INVERT_ATOL.  D = fitted - F is a cubic, so max |D| over the
    # input range is at an end or at a real root of D' inside, and inside the
    # range |F(u') - ln L| <= |D(u')| + INVERT_ATOL.
    assert replay(rig, capsys, curve=True)[0] == 0
    char = rig["root"] / "char_for_invert.json"
    assert main(["characterize", "--in", str(rig["root"] / "samples_True.csv"),
                 "--out", str(char)]) == 0
    capsys.readouterr()
    data = json.loads(char.read_text())
    fitted = [data["curve"][name] for name in ("a0", "a1", "a2", "a3")]
    lo, hi = np.log(data["input_range"])
    d = polynomial.polysub(fitted, POWER_COEFFS)
    roots = polynomial.polyroots(polynomial.polyder(d))
    ends = [lo, hi, *(r for r in roots[np.isreal(roots)].real if lo < r < hi)]
    max_d = np.abs(polynomial.polyval(np.array(ends), d)).max()

    for u in np.linspace(lo, hi, 11)[1:-1].tolist():
        lux = math.exp(polynomial.polyval(u, POWER_COEFFS))
        code = main(["cal", "invert", "--curve", str(char), "--lux", repr(lux)])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        result = json.loads(out)
        assert result["kind"] == "power"
        u_inv = math.log(result["input"])
        assert abs(polynomial.polyval(u_inv, fitted) - math.log(lux)) <= INVERT_ATOL
        assert abs(polynomial.polyval(u_inv, POWER_COEFFS) - math.log(lux)) <= max_d + INVERT_ATOL
