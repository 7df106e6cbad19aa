"""Seeded corpus generators for the plasmakit benchmark.

Each generator writes the files one workload feeds to plasmakit and returns
the ground truth it drew them from, so the oracles never have to ask
plasmakit what the right answer is.  The same seed always gives the same
bytes.  Sizes are drawn by stratified sampling (one draw per equal-probability
stratum), so corpora of different seeds share one shape and differ only in
their values; that keeps run-to-run spread down without hiding any input
class.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Channel constants of the acquisition chain, written as the replay config.
CONFIG = {"probe_ratio": 1.054886e-3, "shunt_ohms": 23.0, "offset_volts": 1.25,
          "adc_bits": 12, "adc_fullscale_volts": 3.3}
# Published log-cubic coefficients (a0..a3): light-sensor volts -> lux, and
# plasma power -> lux.
VOLTAGE_COEFFS = (2.533317, 1.960146, 2.118486, 2.101649)
POWER_COEFFS = (-11.413655, 12.323756, -3.966212, 0.454388)

# Ways a replay frame is made malformed; every one must be rejected by the
# replay as a bad row (non-numeric value or count out of range).
BAD_FRAME_KINDS = ("t_ms_text", "hv_text", "shunt_empty", "hv_float",
                   "hv_over_range", "shunt_negative", "ldr_over_range", "ldr_text")

SWEEP = {"f_min": 1.0, "f_max": 1e7, "points": 1000}

# Share of replay frames made malformed.
BAD_SHARE = 0.005
# Shots: ln(lux) noise (a normal clipped at 4 sigma), share of usable rows
# made outliers, and the span of post-ignition power in watts.
NOISE_SIGMA = 0.05
OUTLIER_SHARE = 0.03
P_SPAN = (2.0, 60.0)
# Ladders: stage counts of the long tail, in two bands that hold half of it
# each, component tolerance of the non-uniform ladders, and every how many
# ladders one is exactly uniform.  plasmakit's expanded-polynomial sweep
# keeps every gain within GAIN_RTOL up to 60 stages and loses that precision
# from 72 stages on, whatever the drawn components; between the two it
# depends on them, so the tail leaves that span out and every seed has the
# same number of ladders in the defect's band (DEFECT_N and up).
TAIL_BANDS = ((40, 60), (74, 100))
DEFECT_N = TAIL_BANDS[1][0]
TOLERANCE = 0.01
UNIFORM_EVERY = 4


def poly3(coeffs, u):
    """a0 + a1*u + a2*u^2 + a3*u^3 for scalar or array u."""
    a0, a1, a2, a3 = coeffs
    return ((a3 * u + a2) * u + a1) * u + a0


def _stratified(rng, count: int) -> np.ndarray:
    """count draws in [0, 1), one inside each stratum [k/count, (k+1)/count)."""
    return (np.arange(count) + rng.random(count)) / count


def _quantiles(values) -> dict:
    q = np.quantile(np.asarray(values, dtype=float), [0.0, 0.1, 0.5, 0.9, 1.0])
    return dict(zip(("min", "p10", "p50", "p90", "max"), (float(x) for x in q)))


# ---------------------------------------------------------------- replay

@dataclass
class ReplayTruth:
    frames_path: Path
    config_path: Path
    curve_path: Path
    t_ms: np.ndarray          # every frame, good or bad
    raw: np.ndarray           # (frames, 3) int counts hv, shunt, ldr; ldr -1 = empty
    bad: np.ndarray           # bool mask of injected malformed frames
    bad_kinds: dict
    shape: dict

    @property
    def bad_lines(self) -> set[int]:
        """1-based CSV line numbers of the malformed frames (header is line 1)."""
        return {int(k) + 2 for k in np.flatnonzero(self.bad)}


def make_replay(root: Path, seed: int, frames: int = 100_000) -> ReplayTruth:
    """One long raw frame CSV (with raw_ldr), a config and a voltage curve.

    The signals are a 50 Hz discharge seen at 4 kHz: the HV and shunt
    channels swing around mid-scale and the light channel follows |sin|.
    One percent of light readings are 0 counts (lux 0) and one percent are
    empty (no lux).  BAD_SHARE of the frames are malformed.
    """
    rng = np.random.default_rng([seed, 1])
    max_count = (1 << CONFIG["adc_bits"]) - 1
    t = np.arange(frames) * 0.25
    phase = 2.0 * math.pi * 50.0 * t / 1000.0 + rng.uniform(0, 2 * math.pi)
    offset = CONFIG["offset_volts"] / CONFIG["adc_fullscale_volts"] * max_count

    def channel(center, amp, wave, noise):
        x = center + amp * wave + rng.normal(0.0, noise, frames)
        return np.clip(np.rint(x), 0, max_count).astype(np.int64)

    hv = channel(2048, 1500, np.sin(phase), 20)
    shunt = channel(offset, 600, np.sin(phase + 0.3), 8)
    ldr = channel(300, 2500, np.abs(np.sin(phase)), 30)
    pick = rng.random(frames)
    ldr[pick < 0.01] = 0
    ldr[(pick >= 0.01) & (pick < 0.02)] = -1

    n_bad = round(BAD_SHARE * frames)
    bad = np.zeros(frames, dtype=bool)
    bad[rng.choice(frames, n_bad, replace=False)] = True
    kinds = rng.integers(0, len(BAD_FRAME_KINDS), frames)
    jitter = rng.integers(1, 1000, frames)

    lines = ["t_ms,raw_hv,raw_shunt,raw_ldr"]
    for k, (tk, h, s, l) in enumerate(zip(t.tolist(), hv.tolist(), shunt.tolist(), ldr.tolist())):
        cells = [repr(tk), str(h), str(s), "" if l < 0 else str(l)]
        if bad[k]:
            kind = BAD_FRAME_KINDS[kinds[k]]
            j = int(jitter[k])
            if kind == "t_ms_text":
                cells[0] = f"{tk}ms"
            elif kind == "hv_text":
                cells[1] = f"0x{h:x}"
            elif kind == "shunt_empty":
                cells[2] = ""
            elif kind == "hv_float":
                cells[1] = f"{h}.5"
            elif kind == "hv_over_range":
                cells[1] = str(max_count + j)
            elif kind == "shunt_negative":
                cells[2] = str(-j)
            elif kind == "ldr_over_range":
                cells[3] = str(max_count + j)
            else:
                cells[3] = "n/a"
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"

    root.mkdir(parents=True, exist_ok=True)
    frames_path = root / "frames.csv"
    frames_path.write_text(text, encoding="utf-8")
    config_path = root / "config.json"
    config_path.write_text(json.dumps(CONFIG, indent=2) + "\n", encoding="utf-8")
    curve_path = root / "ldr_curve.json"
    curve = dict(zip(("a0", "a1", "a2", "a3"), VOLTAGE_COEFFS), kind="voltage")
    curve_path.write_text(json.dumps(curve, indent=2) + "\n", encoding="utf-8")

    bad_kinds = {name: int(np.sum(bad & (kinds == i)))
                 for i, name in enumerate(BAD_FRAME_KINDS)}
    shape = {"frames": frames, "bytes": len(text.encode()), "malformed": n_bad,
             "ldr_zero": int(np.sum(~bad & (ldr == 0))),
             "ldr_empty": int(np.sum(~bad & (ldr < 0)))}
    return ReplayTruth(frames_path, config_path, curve_path, t,
                       np.stack([hv, shunt, ldr], axis=1), bad, bad_kinds, shape)


# ----------------------------------------------------------- characterize

@dataclass
class ShotTruth:
    path: Path
    rows: int
    pre_ignition: int         # rows before ignition
    ignition_t_ms: float
    p: np.ndarray             # v*i per row
    log_lux: np.ndarray       # ln(lux) per row; nan where lux is empty
    kept: np.ndarray          # post-ignition, p > 0, lux present, not an outlier
    outliers: int
    positive: int             # rows with p > 0 and lux > 0, ignition ignored


@dataclass
class ShotsTruth:
    shots: list[ShotTruth]
    shape: dict = field(default_factory=dict)


def _make_shot(rng, rows: int):
    """Columns t, v, i, lux (nan = empty) of one engineering run.

    Rows before ignition carry |i| < 1 mA and a little ambient light.  The
    first post-ignition row has the lowest power of the shot, so an ignition
    detected one row early or late moves the fitted input range.  Outliers
    sit 8-12 sigma off the curve and carry no other noise; the noise is a
    normal clipped at 4 sigma, so a 3-sigma trim removes exactly the outliers.
    """
    n_pre = max(3, round(rows * rng.uniform(0.05, 0.15)))
    t = np.arange(rows) * 0.5
    v = np.empty(rows)
    i = np.empty(rows)
    v[:n_pre] = np.sort(rng.uniform(200.0, 2500.0, n_pre))
    i[:n_pre] = rng.uniform(1e-5, 9e-4, n_pre) * rng.choice([-1.0, 1.0], n_pre)
    lo, hi = math.log(P_SPAN[0]), math.log(P_SPAN[1])
    p_target = np.exp(rng.uniform(lo, hi, rows - n_pre))
    p_target[0] = P_SPAN[0]
    v[n_pre:] = rng.uniform(500.0, 1200.0, rows - n_pre)
    i[n_pre:] = p_target / v[n_pre:]

    post = np.arange(rows) >= n_pre
    free = np.flatnonzero(post)[1:]          # post rows other than the marker
    pick = rng.permutation(free)
    n_edit = round(0.02 * rows)
    no_lux = pick[:n_edit]
    flip = pick[n_edit:2 * n_edit]
    i[flip[::2]] = -i[flip[::2]]
    v[flip[1::2]] = 0.0

    p = v * i
    log_lux = np.where(post, poly3(POWER_COEFFS, np.log(np.abs(p) + (p == 0))), 0.0)
    log_lux[post] += NOISE_SIGMA * np.clip(rng.normal(0.0, 1.0, int(post.sum())), -4.0, 4.0)
    log_lux[~post] = np.log(rng.uniform(0.01, 0.5, n_pre))
    log_lux[no_lux] = np.nan
    usable = post & (p > 0) & ~np.isnan(log_lux)
    candidates = np.flatnonzero(usable)[1:]
    n_out = max(1, round(OUTLIER_SHARE * usable.sum()))
    out_rows = rng.choice(candidates, n_out, replace=False)
    log_lux[out_rows] = (poly3(POWER_COEFFS, np.log(p[out_rows]))
                         + NOISE_SIGMA * rng.uniform(8.0, 12.0, n_out) * rng.choice([-1.0, 1.0], n_out))
    kept = usable.copy()
    kept[out_rows] = False
    lux = np.exp(log_lux)                    # nan stays nan
    return t, v, i, lux, n_pre, kept, n_out


def make_shots(root: Path, seed: int, count: int = 100, size_lo: int = 300,
               size_hi: int = 30_000) -> ShotsTruth:
    """count engineering run files with log-uniform sizes in [size_lo, size_hi]."""
    rng = np.random.default_rng([seed, 2])
    sizes = np.rint(size_lo * (size_hi / size_lo) ** _stratified(rng, count)).astype(int)
    root.mkdir(parents=True, exist_ok=True)
    shots = []
    total_bytes = 0
    for k, rows in enumerate(sizes.tolist()):
        t, v, i, lux, n_pre, kept, n_out = _make_shot(rng, rows)
        p = v * i
        body = "\n".join(
            f"{tk!r},{vk!r},{ik!r},{pk!r},{'' if lk != lk else repr(lk)}"
            for tk, vk, ik, pk, lk in zip(t.tolist(), v.tolist(), i.tolist(),
                                          p.tolist(), lux.tolist()))
        text = "t_ms,v_volts,i_amps,p_watts,lux\n" + body + "\n"
        path = root / f"shot_{k:03d}.csv"
        path.write_text(text, encoding="utf-8")
        total_bytes += len(text)
        # lux is re-read from its repr, so the truth is the value the file holds.
        log_lux = np.log(lux)
        shots.append(ShotTruth(path, rows, n_pre, float(t[n_pre]), p, log_lux, kept, n_out,
                               int(np.sum((p > 0) & (lux > 0)))))
    shape = {"files": count, "rows": int(sizes.sum()), "bytes": total_bytes,
             "rows_quantiles": _quantiles(sizes),
             "pre_ignition_rows": sum(s.pre_ignition for s in shots),
             "outliers": sum(s.outliers for s in shots)}
    return ShotsTruth(shots, shape)


# ------------------------------------------------------------------ probe

@dataclass
class LadderTruth:
    path: Path
    n: int
    uniform: bool
    tail: bool                # 40+ stages
    defect: bool              # DEFECT_N+ stages: plasmakit's sweep is known to lose precision
    base: tuple[float, float]
    ladder: list[tuple[float, float]]


@dataclass
class LaddersTruth:
    ladders: list[LadderTruth]
    shape: dict = field(default_factory=dict)


def make_ladders(root: Path, seed: int, count: int = 100,
                 tail_share: float = 0.2) -> LaddersTruth:
    """Probe ladders: most with 1-12 stages, a tail with 40-100 (TAIL_BANDS).

    Components: R1 1-20 MOhm, C1 5-30 pF, DC ratio 1e-3..1e-2, C0 within 5%
    of compensation.  Every UNIFORM_EVERY-th ladder is exactly uniform; the
    others draw each stage within +-TOLERANCE of R1 and C1.
    """
    rng = np.random.default_rng([seed, 3])
    n_tail = round(count * tail_share)
    short = 1 + np.arange(count - n_tail) % 12
    # The tail's stage counts are evenly spaced in each band, not drawn: a
    # transfer function costs O(n^3), so drawn counts would move call_p90_s
    # from seed to seed.
    halves = (n_tail - n_tail // 2, n_tail // 2)
    long_ = [np.rint(lo + (hi - lo) * (np.arange(m) + 0.5) / m).astype(int)
             for (lo, hi), m in zip(TAIL_BANDS, halves)]
    ns = np.concatenate([short, *long_])
    tails = np.arange(count) >= count - n_tail
    order = rng.permutation(count)
    root.mkdir(parents=True, exist_ok=True)
    ladders = []
    for k, j in enumerate(order.tolist()):
        n = int(ns[j])
        r1 = 10.0 ** rng.uniform(6.0, math.log10(2e7))
        c1 = 10.0 ** rng.uniform(math.log10(5e-12), math.log10(3e-11))
        ratio = 10.0 ** rng.uniform(-3.0, -2.0)
        r0 = n * r1 * ratio / (1.0 - ratio)
        c0 = c1 * r1 / r0 * (1.0 + rng.uniform(-0.05, 0.05))
        uniform = k % UNIFORM_EVERY == 0
        if uniform:
            stages = [(r1, c1)] * n
        else:
            dr = 1.0 + TOLERANCE * rng.uniform(-1.0, 1.0, n)
            dc = 1.0 + TOLERANCE * rng.uniform(-1.0, 1.0, n)
            stages = list(zip((r1 * dr).tolist(), (c1 * dc).tolist()))
        path = root / f"ladder_{k:03d}.json"
        path.write_text(json.dumps({"base": [r0, c0], "ladder": stages}) + "\n",
                        encoding="utf-8")
        ladders.append(LadderTruth(path, n, uniform, bool(tails[j]), n >= DEFECT_N, (r0, c0),
                                   [tuple(s) for s in stages]))
    hist = {}
    for lt in ladders:
        key = str(lt.n) if lt.n <= 12 else f"{10 * (lt.n // 10)}-{10 * (lt.n // 10) + 9}"
        hist[key] = hist.get(key, 0) + 1
    shape = {"ladders": count, "tail": n_tail, "defect_band": sum(lt.defect for lt in ladders),
             "uniform": sum(lt.uniform for lt in ladders),
             "points_per_sweep": SWEEP["points"],
             "n_histogram": dict(sorted(hist.items(), key=lambda kv: int(kv[0].split("-")[0])))}
    return LaddersTruth(ladders, shape)
