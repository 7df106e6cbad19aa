"""Independent oracles for the benchmark's outputs.

Every expected value is computed here in NumPy from the generator's truth;
nothing is imported from plasmakit.  Each check returns a list of problems,
empty when the output is right, so a caller can count a failure and report
why.
"""

from __future__ import annotations

import json
import math
import re

import numpy as np

from corpus import CONFIG, NOISE_SIGMA, POWER_COEFFS, SWEEP, VOLTAGE_COEFFS, poly3

# Relative tolerances.  Arithmetic columns may differ from the oracle's own
# evaluation order by a few ulp; lux passes through log and exp.
REPLAY_RTOL = 1e-12
LUX_RTOL = 1e-10
# Absolute floors for values that cancel to near zero (i near the offset).
I_ATOL, P_ATOL = 1e-15, 1e-12
# Fit agreement with the oracle's own least-squares fit, in ln(lux).
FIT_ATOL = 1e-7
STATS_RTOL = 1e-9
# Complex gain against Z0/sum(Zi), relative; magnitude in dB, absolute.
GAIN_RTOL = 1e-6
DB_ATOL = 1e-5

_WARNING_LINE = re.compile(r"^warning: line (\d+):", re.M)
# The seed's known long-ladder defect: its expanded-polynomial transfer
# function loses precision (wrong or NaN gains), and a NaN or zero magnitude
# makes magnitude_db raise a ValueError while write_sweep_csv writes it.
_PRECISION_LOSS = re.compile(r"^(gain|magnitude_db) wrong at \d+ points")
_CSV_DOMAIN_ERROR = re.compile(r"^ValueError: math domain error \(raised in [^)]*\bwrite_sweep_csv\b")


def _close(actual, expected, rtol, atol=0.0) -> np.ndarray:
    """Elementwise |actual - expected| <= rtol*|expected| + atol; NaN fails."""
    return np.abs(actual - expected) <= rtol * np.abs(expected) + atol


def _first_bad(ok: np.ndarray) -> int:
    return int(np.flatnonzero(~ok)[0])


def _table(text: str, header: str, columns: int):
    """Split a CSV text into a (rows, columns) array of strings."""
    lines = text.splitlines()
    if not lines or lines[0] != header:
        return None, f"header {lines[:1]} != {header!r}"
    cells = [line.split(",") for line in lines[1:]]
    if any(len(row) != columns for row in cells):
        return None, "ragged rows"
    return np.array(cells, dtype=str).reshape(len(cells), columns), None


# ---------------------------------------------------------------- replay

class ReplayOracle:
    """Closed-form v, i, p and lux for every well-formed frame."""

    HEADER = "t_ms,v_volts,i_amps,p_watts,lux"

    def __init__(self, truth):
        good = ~truth.bad
        raw = truth.raw[good]
        max_count = (1 << CONFIG["adc_bits"]) - 1
        volts = raw.astype(float) * CONFIG["adc_fullscale_volts"] / max_count
        self.t = truth.t_ms[good]
        self.v = volts[:, 0] / CONFIG["probe_ratio"]
        self.i = (volts[:, 1] - CONFIG["offset_volts"]) / CONFIG["shunt_ohms"]
        self.p = self.v * self.i
        ldr = raw[:, 2]
        self.lux_empty = ldr < 0
        self.lux = np.zeros(len(ldr))
        lit = ldr > 0
        self.lux[lit] = np.exp(poly3(VOLTAGE_COEFFS, np.log(volts[lit, 2])))
        self.bad_lines = truth.bad_lines

    def check(self, out_text: str, stderr_text: str) -> list[str]:
        problems = []
        rejected = {int(m) for m in _WARNING_LINE.findall(stderr_text)}
        if rejected != self.bad_lines:
            problems.append(f"rejected {len(rejected)} rows, expected lines "
                            f"{len(self.bad_lines)}; differing: "
                            f"{sorted(rejected ^ self.bad_lines)[:5]}")
        table, err = _table(out_text, self.HEADER, 5)
        if err:
            return problems + [err]
        if len(table) != len(self.t):
            return problems + [f"{len(table)} rows written, expected {len(self.t)}"]
        t, v, i, p = (table[:, k].astype(float) for k in range(4))
        empty = table[:, 4] == ""
        lux = np.where(empty, "nan", table[:, 4]).astype(float)
        for name, ok in (("t_ms", t == self.t),
                         ("v_volts", _close(v, self.v, REPLAY_RTOL)),
                         ("i_amps", _close(i, self.i, REPLAY_RTOL, I_ATOL)),
                         ("p_watts", _close(p, self.p, REPLAY_RTOL, P_ATOL)),
                         ("lux presence", empty == self.lux_empty),
                         ("lux", empty | _close(lux, self.lux, LUX_RTOL))):
            if not ok.all():
                k = _first_bad(ok)
                problems.append(f"{name} wrong in {int((~ok).sum())} rows, first at "
                                f"output row {k + 1}")
        return problems


# ----------------------------------------------------------- characterize

class ShotOracle:
    """Expected characterization of one shot: ignition, trim, fit and plot."""

    def __init__(self, shot):
        self.shot = shot
        kept = shot.kept
        self.u = np.log(shot.p[kept])
        self.y = shot.log_lux[kept]
        design = np.vander(self.u, 4, increasing=True)
        self.coef = np.linalg.lstsq(design, self.y, rcond=None)[0]
        self.grid = np.linspace(self.u.min(), self.u.max(), 64)
        self.input_range = [float(shot.p[kept].min()), float(shot.p[kept].max())]

    def check(self, json_text: str, stdout_text: str, svg_text: str) -> list[str]:
        problems = []
        try:
            got = json.loads(json_text)
            curve = got["curve"]
            coef = tuple(float(curve[k]) for k in ("a0", "a1", "a2", "a3"))
            rmse, max_abs = float(got["rmse_log"]), float(got["max_abs_log"])
            if json.loads(stdout_text) != got:
                problems.append("stdout JSON differs from the --out file")
        except (ValueError, KeyError, TypeError) as exc:
            return [f"unreadable characterization: {exc!r}"]
        if curve.get("kind") != "power":
            problems.append(f"curve kind {curve.get('kind')!r}")
        if got.get("trimmed_count") != self.shot.outliers:
            problems.append(f"trimmed_count {got.get('trimmed_count')} != "
                            f"{self.shot.outliers} injected outliers")
        # The first post-ignition row holds the shot's lowest power, so the
        # range pins the ignition point as well as the trim.
        if got.get("input_range") != self.input_range:
            problems.append(f"input_range {got.get('input_range')} != {self.input_range} "
                            f"(ignition at t={self.shot.ignition_t_ms} ms)")
        # The curve stores its span as exp(min/max ln p): equal up to rounding.
        if not np.all(_close(np.array(curve.get("input_range", [np.nan] * 2), dtype=float),
                             self.input_range, 1e-12)):
            problems.append(f"curve input_range {curve.get('input_range')} != {self.input_range}")
        fitted = poly3(coef, self.grid)
        if not np.max(np.abs(fitted - poly3(self.coef, self.grid))) <= FIT_ATOL:
            problems.append("curve differs from the least-squares fit of the kept rows")
        res = self.y - poly3(coef, self.u)
        if not (_close(rmse, math.sqrt(np.mean(res * res)), STATS_RTOL)
                and _close(max_abs, np.max(np.abs(res)), STATS_RTOL)):
            problems.append("rmse_log/max_abs_log disagree with the curve's residuals")
        # Noise is N(0, sigma) clipped at 4 sigma; outliers are >= 8 sigma.
        if not (0.7 * NOISE_SIGMA <= rmse <= 1.3 * NOISE_SIGMA and max_abs <= 6 * NOISE_SIGMA):
            problems.append(f"fit noise rmse={rmse}, max={max_abs} vs sigma={NOISE_SIGMA}")
        if not np.max(np.abs(fitted - poly3(POWER_COEFFS, self.grid))) <= 1.5 * NOISE_SIGMA:
            problems.append("fitted curve is more than 1.5 sigma from the generating curve")
        problems += self._check_svg(svg_text)
        return problems

    def _check_svg(self, svg: str) -> list[str]:
        if not (svg.startswith("<svg") and svg.endswith("</svg>\n")):
            return ["plot is not a complete SVG document"]
        dots, lines = svg.count("<circle "), svg.count("<polyline ")
        # The data series must show every kept sample; it may also show the
        # positive rows the fit excluded, but nothing else.
        if not (int(self.shot.kept.sum()) <= dots <= self.shot.positive) or lines != 1:
            return [f"plot has {dots} dots and {lines} lines; expected "
                    f"{int(self.shot.kept.sum())}..{self.shot.positive} dots, 1 line"]
        return []


# ------------------------------------------------------------------ probe

class SweepOracle:
    """Gain Z0/sum(Zi) of one ladder on the sweep grid, stage by stage."""

    HEADER = "frequency_hz,magnitude,phase_rad,magnitude_db"

    def __init__(self, ladder):
        points, f_min, f_max = SWEEP["points"], SWEEP["f_min"], SWEEP["f_max"]
        lo, hi = math.log10(f_min), math.log10(f_max)
        f = 10.0 ** (lo + (hi - lo) * np.arange(points) / (points - 1))
        f[0], f[-1] = f_min, f_max
        stages = np.array([ladder.base, *ladder.ladder])
        r, c = stages[:, 0:1], stages[:, 1:2]
        z = r / (1.0 + r * c * (2j * math.pi * f))
        self.f = f
        self.gain = z[0] / z.sum(axis=0)
        self.db = 20.0 * np.log10(np.abs(self.gain))

    def check(self, csv_text: str) -> list[str]:
        table, err = _table(csv_text, self.HEADER, 4)
        if err:
            return [err]
        if len(table) != len(self.f):
            return [f"{len(table)} points written, expected {len(self.f)}"]
        f, mag, phase, db = (table[:, k].astype(float) for k in range(4))
        problems = []
        gain = mag * np.exp(1j * phase)
        for name, ok in (("frequency", _close(f, self.f, 1e-12)),
                         ("gain", _close(gain, self.gain, GAIN_RTOL)),
                         ("magnitude_db", _close(db, self.db, 0.0, DB_ATOL))):
            if not ok.all():
                k = _first_bad(ok)
                problems.append(f"{name} wrong at {int((~ok).sum())} points, first at "
                                f"f={self.f[k]:.6g} Hz")
        return problems


def is_long_ladder_defect(problems: list[str]) -> bool:
    """True when every problem of a sweep is a symptom of the known defect."""
    return bool(problems) and all(_PRECISION_LOSS.match(p) or _CSV_DOMAIN_ERROR.match(p)
                                  for p in problems)
