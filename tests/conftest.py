import math

import numpy as np
import pytest
from numpy.polynomial import polynomial

from plasmakit import (DEFAULT_CONFIG, CalibrationCurve, InputKind, ProbeNetwork, Samples,
                       acquisition)


def reference_network(c0: float = 3e-9) -> ProbeNetwork:
    """The 1000:1-class probe: n=5, R1=10 MOhm, C1=15 pF, R0=52.8 kOhm."""
    return ProbeNetwork.uniform(5, 10e6, 15e-12, 52.8e3, c0)


def direct_gain(net: ProbeNetwork, f: float) -> complex:
    """Independent oracle: Z0/sum(Zi) computed stage by stage in complex
    arithmetic, never through the polynomial transfer function."""
    s = 2j * math.pi * f
    def z(stage):
        return stage.resistance / (1.0 + stage.resistance * stage.capacitance * s)
    z0 = z(net.base)
    return z0 / (z0 + sum(z(st) for st in net.ladder))


# Published coefficient sets for the two log-cubic curves.
VOLTAGE_COEFFS = (2.533317, 1.960146, 2.118486, 2.101649)
POWER_COEFFS = (-11.413655, 12.323756, -3.966212, 0.454388)


def narrow_span(centre, span, n, seed):
    """n log-uniform inputs in [centre, centre * (1 + span)], with lux from a
    cubic in the centred log input and 1% noise."""
    rng = np.random.default_rng(seed)
    u = math.log(centre) + math.log1p(span) * rng.random(n)
    t = 2.0 * (u - u.min()) / (u.max() - u.min()) - 1.0
    log_lux = 1.0 + 2.0 * t - 0.5 * t * t + 0.3 * t ** 3 + rng.normal(0.0, 0.01, n)
    return np.exp(u), np.exp(log_lux)


@pytest.fixture
def voltage_curve() -> CalibrationCurve:
    return CalibrationCurve(*VOLTAGE_COEFFS, input_kind=InputKind.SENSOR_VOLTAGE)


@pytest.fixture
def power_curve() -> CalibrationCurve:
    return CalibrationCurve(*POWER_COEFFS, input_kind=InputKind.PLASMA_POWER)


def replay_samples(source, cfg=DEFAULT_CONFIG, curve=None, diagnostics=None) -> Samples:
    """The rows acq replay writes for a frame CSV, as one Samples: the
    chunks of acquisition.replay_stream joined."""
    parts = list(acquisition._replay_chunks(source, cfg, curve, diagnostics))
    return Samples(*(np.concatenate([getattr(part, name) for part in parts] or [[]])
                     for name in ("t_ms", "v_volts", "i_amps", "lux")))


def voltage_curve_input(log_lux: np.ndarray) -> np.ndarray:
    """The light-channel volts x with ln lux = VOLTAGE_COEFFS at ln x, by
    bisection in ln x over [-10, 2] (the curve rises there)."""
    lo, hi = np.full_like(log_lux, -10.0), np.full_like(log_lux, 2.0)
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        below = polynomial.polyval(mid, VOLTAGE_COEFFS) < log_lux
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return np.exp(0.5 * (lo + hi))


def virtual_rig(rows: int, seed: int, pre_ignition: int, bad_light=()) -> dict:
    """A seeded virtual rig: the ADC frames of a discharge and the truth behind them.

    The power trace is log-uniform over [2, 60] W at 1000-2000 V, held off
    (0 A at 2500-3000 V, dark) for the first `pre_ignition` rows.  The hv and
    shunt counts come through DEFAULT_CONFIG, the light counts from the
    published voltage curve inverted at the lux that the published power
    curve gives for the power; each is quantized to 12 bits.  The light
    counts of len(bad_light) random lit rows become `bad_light`.  Returns
    t, v, i, light (the true light volts), bad (those rows) and the frame
    CSV as text."""
    cfg = DEFAULT_CONFIG
    q = cfg.adc_fullscale_volts / cfg.max_count
    rng = np.random.default_rng(seed)
    t = np.arange(rows) * 0.25
    p = np.exp(rng.uniform(math.log(2.0), math.log(60.0), rows))
    v = rng.uniform(1000.0, 2000.0, rows)
    i = p / v
    v[:pre_ignition] = rng.uniform(2500.0, 3000.0, pre_ignition)  # the gap holds off
    i[:pre_ignition] = 0.0
    light = voltage_curve_input(polynomial.polyval(np.log(p), POWER_COEFFS))
    counts = np.rint(np.stack([v * cfg.probe_ratio, i * cfg.shunt_ohms + cfg.offset_volts,
                               light]) / q).astype(np.int64)
    counts[2, :pre_ignition] = 0  # dark before ignition
    bad = np.sort(rng.choice(np.arange(pre_ignition, rows), len(bad_light), replace=False))
    counts[2, bad] = bad_light
    assert counts[:2].min() >= 0 and counts[:2].max() <= cfg.max_count
    text = "t_ms,raw_hv,raw_shunt,raw_ldr\n" + "".join(
        f"{tk!r},{h},{s},{l}\n" for tk, h, s, l in zip(t.tolist(), *counts.tolist()))
    return {"t": t, "v": v, "i": i, "light": light, "bad": bad, "text": text}
