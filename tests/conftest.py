import math

import numpy as np
import pytest

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
