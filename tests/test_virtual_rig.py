"""A seeded virtual rig: the ADC counts of a discharge, replayed by `acq replay`.

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
from plasmakit.calibration import FIT_ATOL
from plasmakit.cli import main

from conftest import POWER_COEFFS, VOLTAGE_COEFFS

CFG = ChannelConfig()
MAX_COUNT = 2 ** CFG.adc_bits - 1
Q = CFG.adc_fullscale_volts / MAX_COUNT
ULPS = 16 * np.finfo(float).eps
DV = Q / 2 / CFG.probe_ratio + ULPS * CFG.adc_fullscale_volts / CFG.probe_ratio
DI = Q / 2 / CFG.shunt_ohms + ULPS * CFG.adc_fullscale_volts / CFG.shunt_ohms
ROWS, PRE_IGNITION = 3000, 300
# raw_ldr of a few lit rows, and the ADC range they miss
BAD_LIGHT = (4096, 5000, 99999, -1, -40, 65536)


def voltage_curve_input(log_lux: np.ndarray) -> np.ndarray:
    """The light-channel volts x with ln lux = VOLTAGE_COEFFS at ln x, by
    bisection in ln x over [-10, 2] (the curve rises there)."""
    lo, hi = np.full_like(log_lux, -10.0), np.full_like(log_lux, 2.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = polynomial.polyval(mid, VOLTAGE_COEFFS) < log_lux
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.exp(0.5 * (lo + hi))


@pytest.fixture(scope="module")
def rig(tmp_path_factory):
    rng = np.random.default_rng(7)
    t = np.arange(ROWS) * 0.25
    p = np.exp(rng.uniform(math.log(2.0), math.log(60.0), ROWS))
    v = rng.uniform(1000.0, 2000.0, ROWS)
    i = p / v
    v[:PRE_IGNITION] = rng.uniform(2500.0, 3000.0, PRE_IGNITION)  # the gap holds off
    i[:PRE_IGNITION] = 0.0
    light = voltage_curve_input(polynomial.polyval(np.log(p), POWER_COEFFS))
    counts = np.rint(np.stack([v * CFG.probe_ratio, i * CFG.shunt_ohms + CFG.offset_volts,
                               light]) / Q).astype(np.int64)
    counts[2, :PRE_IGNITION] = 0  # dark before ignition
    bad = np.sort(rng.choice(np.arange(PRE_IGNITION, ROWS), len(BAD_LIGHT), replace=False))
    counts[2, bad] = BAD_LIGHT
    assert counts[:2].min() >= 0 and counts[:2].max() <= MAX_COUNT

    root = tmp_path_factory.mktemp("rig")
    frames, curve = root / "frames.csv", root / "curve.json"
    frames.write_text("t_ms,raw_hv,raw_shunt,raw_ldr\n" + "".join(
        f"{tk!r},{h},{s},{l}\n" for tk, h, s, l in zip(t.tolist(), *counts.tolist())))
    curve.write_text(json.dumps(dict(zip(("a0", "a1", "a2", "a3"), VOLTAGE_COEFFS),
                                     kind="voltage")))
    keep = np.ones(ROWS, dtype=bool)
    keep[bad] = False
    warnings = [f"warning: line {k + 2}: ldr channel: count {c} outside [0, {MAX_COUNT}]"
                for k, c in zip(bad.tolist(), BAD_LIGHT)]
    return {"root": root, "frames": frames, "curve": curve, "t": t, "v": v, "i": i,
            "light": light, "keep": keep, "warnings": warnings}


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
