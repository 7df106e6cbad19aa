"""Compensated RC-ladder high-voltage probe: analysis and design.

The probe is a chain of parallel RC stages.  Each stage presents the
impedance Z(s) = R / (1 + R*C*s); the divider output is taken across the
base stage, so the voltage transfer is

    G(s) = Z0(s) / (Z0(s) + Z1(s) + ... + Zn(s)).

For a uniform ladder (R1 = ... = Rn, C1 = ... = Cn) with the base
capacitor chosen as C0 = C1*R1/R0, G(s) collapses to the constant
R0/(n*R1 + R0): flat magnitude and zero phase at every frequency.

Sweeps evaluate G(s) from the stage impedances, stage by stage over the
whole frequency grid.  `transfer_function` exports the same G(s) as a ratio
of expanded polynomials; their coefficients lose precision as the ladder
grows, so it raises instead of returning a wrong expansion.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Iterable
from dataclasses import dataclass
from typing import TextIO

from ._lazy import np
from .calibration import is_finite_number
from .errors import DomainError, PreconditionError, SingularityError

__all__ = [
    "RCStage",
    "ProbeNetwork",
    "RationalTransferFunction",
    "FrequencySweep",
    "transfer_function",
    "dc_attenuation",
    "compensation_capacitor",
    "is_compensated",
    "design_probe",
    "bode_sweep",
    "write_sweep_csv",
]

# All R1..Rn (and C1..Cn) must agree to this relative tolerance for the
# ladder to count as uniform.
UNIFORMITY_RTOL = 1e-9

# Largest relative error transfer_function tolerates in its expansion,
# checked against the stage impedances at DC and at every corner frequency.
EXPANSION_RTOL = 1e-9


@dataclass(frozen=True)
class RCStage:
    """One parallel resistor-capacitor stage. C = 0 models a bare resistor."""

    resistance: float
    capacitance: float = 0.0

    def __post_init__(self):
        for name, value in (("resistance", self.resistance), ("capacitance", self.capacitance)):
            if not is_finite_number(value):
                raise DomainError(f"stage {name} must be a finite number, got {value!r}")
        if not self.resistance > 0.0:
            raise DomainError(f"stage resistance must be > 0, got {self.resistance}")
        if not self.capacitance >= 0.0:
            raise DomainError(f"stage capacitance must be >= 0, got {self.capacitance}")


@dataclass(frozen=True)
class ProbeNetwork:
    """Base stage (output tap) plus an ordered ladder of series stages."""

    base: RCStage
    ladder: tuple[RCStage, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "ladder", tuple(self.ladder))

    @property
    def n(self) -> int:
        return len(self.ladder)

    @classmethod
    def uniform(cls, n: int, ladder_r: float, ladder_c: float,
                base_r: float, base_c: float) -> "ProbeNetwork":
        if n < 0:
            raise DomainError(f"ladder stage count must be >= 0, got {n}")
        stage = RCStage(ladder_r, ladder_c)
        return cls(base=RCStage(base_r, base_c), ladder=(stage,) * n)


@dataclass(frozen=True)
class RationalTransferFunction:
    """Ratio of real polynomials in s, coefficients in ascending powers."""

    numerator: tuple[float, ...]
    denominator: tuple[float, ...]

    def __post_init__(self):
        num = _trim(self.numerator)
        den = _trim(self.denominator)
        if not den:
            raise DomainError("denominator is identically zero")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    def __call__(self, s: complex) -> complex:
        den = complex(np.polyval(self.denominator[::-1], s))
        if den == 0.0:
            raise SingularityError(f"transfer function pole at s = {s}")
        return complex(np.polyval(self.numerator[::-1], s)) / den


@dataclass(frozen=True, eq=False)
class FrequencySweep:
    """Gains of a network over a frequency grid, held as columns.

    `frequency` (Hz) is a float array and `gain` a complex array, both
    read-only; magnitude, phase and dB are derived from `gain` as arrays.
    """

    frequency: np.ndarray
    gain: np.ndarray

    def __post_init__(self):
        self.frequency.flags.writeable = False
        self.gain.flags.writeable = False

    @property
    def magnitude(self) -> np.ndarray:
        return np.abs(self.gain)

    @property
    def phase(self) -> np.ndarray:
        return np.angle(self.gain)

    @property
    def magnitude_db(self) -> np.ndarray:
        return 20.0 * np.log10(self.magnitude)


def _trim(coeffs: Iterable[float]) -> tuple[float, ...]:
    out = list(coeffs)
    while out and out[-1] == 0.0:
        out.pop()
    return tuple(out)


def _quotient(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Elementwise a / b by Smith's method, rounded as Python divides complex
    numbers.  NumPy's complex division multiplies by a reciprocal, which can
    put even a real quotient such as the DC gain an ulp off a float division."""
    turn = np.where(np.abs(b.imag) > np.abs(b.real), -1j, 1.0)
    a, b = a * turn, b * turn  # now |b.real| >= |b.imag|; exact for finite values
    ratio = b.imag / b.real
    denom = b.real + b.imag * ratio
    out = np.empty_like(b)
    out.real = (a.real + a.imag * ratio) / denom
    out.imag = (a.imag - a.real * ratio) / denom
    return out


def _gain(net: ProbeNetwork, f: np.ndarray) -> np.ndarray:
    """G = Z0 / (Z0 + Z1 + ... + Zn) at s = 2*pi*j*f over a float array f.

    One pass per stage over the whole grid.  The ladder is summed in order
    and Z0 added last, as in dc_attenuation, so f = 0 gives it exactly.
    Raises DomainError where the gain comes out zero or non-finite, which
    only over- or underflow of the stage impedances can cause.
    """
    def z(st: RCStage) -> np.ndarray:
        return st.resistance / (1.0 + st.resistance * st.capacitance * s)

    with np.errstate(all="ignore"):
        s = 2j * math.pi * f
        z0 = z(net.base)
        gain = _quotient(z0, z0 + sum(map(z, net.ladder)))
    bad = ~np.isfinite(gain) | (gain == 0)
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainError(f"probe gain is {complex(gain[k])} at f = {float(f[k])!r} Hz: "
                          "the stage impedances over- or underflow")
    return gain


def transfer_function(net: ProbeNetwork) -> RationalTransferFunction:
    """Build G(s) = Z0 / sum(Zi) as an explicit rational function.

    Each Zi = Ri/(1 + Ri*Ci*s).  Multiplying through by all (1 + Ri*Ci*s)
    factors gives

        num = R0 * prod_{j>=1} (1 + Rj*Cj*s)
        den = sum_i Ri * prod_{j != i} (1 + Rj*Cj*s)

    which are built stage by stage in O(n^2): with P the product of the
    factors before stage k, stage k multiplies num and den by its factor and
    adds Rk*P to den.  The expanded coefficients lose precision as the
    ladder grows (from about 55 stages for typical components), so the
    result is checked against Z0/sum(Zi) at DC and at the corner frequency
    1/(2*pi*Ri*Ci) of every stage with Ri*Ci > 0 (one whose Ri*Ci underflows
    to 0 is a bare resistor, in the check as in the expansion); a relative
    error above EXPANSION_RTOL raises DomainError.  Sweeps do not use this form:
    bode_sweep evaluates Z0/sum(Zi) directly.
    """
    def times(p: list[float], tau: float) -> list[float]:  # p * (1 + tau*s)
        return [a + tau * b for a, b in zip(p + [0.0], [0.0] + p)]

    r0 = net.base.resistance
    num, den, prod = [r0], [r0], [1.0, r0 * net.base.capacitance]
    for st in net.ladder:
        tau = st.resistance * st.capacitance
        num = times(num, tau)
        den = [a + st.resistance * b for a, b in zip(times(den, tau), prod)]
        prod = times(prod, tau)

    tf = RationalTransferFunction(tuple(num), tuple(den))
    taus = [st.resistance * st.capacitance for st in (net.base, *net.ladder)]
    f = np.array([0.0] + [1.0 / (2.0 * math.pi * tau) for tau in taus if tau > 0.0])
    want = _gain(net, f)
    s = 2j * math.pi * f
    with np.errstate(all="ignore"):
        got = np.polyval(tf.numerator[::-1], s) / np.polyval(tf.denominator[::-1], s)
        err = np.abs(got - want) / np.abs(want)
    bad = ~(err <= EXPANSION_RTOL)
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainError(
            f"transfer function of a {net.n}-stage ladder loses precision in its "
            f"expansion: relative error {float(err[k]):.3g} at f = {float(f[k]):.6g} Hz; "
            "use bode_sweep, which evaluates Z0/sum(Zi) directly")
    return tf


def dc_attenuation(net: ProbeNetwork) -> float:
    """Zero-frequency divider ratio R0 / (R0 + sum of ladder resistances).

    Raises DomainError when the sum overflows or the ratio underflows."""
    total = net.base.resistance + sum(st.resistance for st in net.ladder)
    ratio = net.base.resistance / total
    if not ratio >= sys.float_info.min:  # an overflowing sum gives a ratio of 0
        raise DomainError(f"DC attenuation R0/(R0 + sum Ri) = {net.base.resistance}/{total} "
                          "over- or underflows")
    return ratio


def compensation_capacitor(net: ProbeNetwork) -> float:
    """Base capacitance C1*R1/R0 that makes a uniform ladder frequency-flat.

    Raises PreconditionError without a stage or a ladder uniform to
    UNIFORMITY_RTOL, DomainError when C1 > 0 and the result over- or underflows."""
    if net.n < 1:
        raise PreconditionError("compensation_capacitor requires at least one ladder stage")
    st = net.ladder[0]
    if not all(math.isclose(other.resistance, st.resistance, rel_tol=UNIFORMITY_RTOL)
               and math.isclose(other.capacitance, st.capacitance, rel_tol=UNIFORMITY_RTOL)
               for other in net.ladder[1:]):
        raise PreconditionError(
            "compensation_capacitor requires a uniform ladder (all R and C equal)")
    c0 = st.capacitance * st.resistance / net.base.resistance
    if st.capacitance > 0.0 and not sys.float_info.min <= c0 < math.inf:
        raise DomainError(f"compensation capacitor C1*R1/R0 = {c0} over- or underflows")
    return c0


def is_compensated(net: ProbeNetwork, rel_tol: float) -> bool:
    """True when the actual C0 is within rel_tol of the exact C1*R1/R0."""
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
        raise DomainError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    ideal = compensation_capacitor(net)
    return abs(net.base.capacitance - ideal) <= rel_tol * ideal


def design_probe(target_ratio: float, n: int, ladder_r: float,
                 ladder_c: float) -> ProbeNetwork:
    """Synthesize an exactly compensated uniform probe for a DC ratio.

    Inverts the divider formula: R0 = n*R1*k/(1-k), then C0 = C1*R1/R0.
    Returns exact component values; snapping to standard series is left to
    the caller.
    """
    if not 0.0 < target_ratio < 1.0:
        raise DomainError(f"target ratio must be in (0, 1), got {target_ratio}")
    if n < 1:
        raise DomainError(f"need at least one ladder stage, got n={n}")
    base_r = n * ladder_r * target_ratio / (1.0 - target_ratio)
    uncompensated = ProbeNetwork.uniform(n, ladder_r, ladder_c, base_r, 0.0)
    return ProbeNetwork.uniform(n, ladder_r, ladder_c, base_r,
                                compensation_capacitor(uncompensated))


def bode_sweep(net: ProbeNetwork, f_min: float, f_max: float, points: int,
               spacing: str = "log") -> FrequencySweep:
    """Gains over a log- or linearly-spaced grid from f_min to f_max.

    Evaluates Z0/(Z0 + sum Zi) on the whole grid at once, one stage at a
    time, so the cost is O(n * points).  Raises DomainError for bounds that
    are not finite and ordered, for a grid whose points overflow, and where
    the gain over- or underflows.
    """
    if not 0.0 < f_min < f_max < math.inf:
        raise DomainError(f"need 0 < f_min < f_max < inf, got [{f_min}, {f_max}]")
    if points < 2:
        raise DomainError(f"need at least 2 sweep points, got {points}")
    if spacing == "log":
        lo, hi = math.log10(f_min), math.log10(f_max)
        try:
            grid = [10.0 ** (lo + (hi - lo) * i / (points - 1)) for i in range(points)]
        except OverflowError:  # a float power raises where a product gives inf
            grid = [math.inf] * points
    elif spacing == "linear":
        grid = [f_min + (f_max - f_min) * i / (points - 1) for i in range(points)]
    else:
        raise DomainError(f"spacing must be 'log' or 'linear', got {spacing!r}")
    grid[0], grid[-1] = f_min, f_max  # pin endpoints against rounding
    f = np.array(grid, float)
    if not np.isfinite(f).all():
        raise DomainError(f"the {spacing} frequency grid of {points} points from {f_min!r} "
                          f"to {f_max!r} Hz overflows")
    return FrequencySweep(f, _gain(net, f))


def write_sweep_csv(sweep: FrequencySweep, out: TextIO) -> None:
    """Write a sweep as CSV with header frequency_hz,magnitude,phase_rad,
    magnitude_db, one row per point, each value as the repr of a float."""
    columns = (sweep.frequency, sweep.magnitude, sweep.phase, sweep.magnitude_db)
    out.write("frequency_hz,magnitude,phase_rad,magnitude_db\n")
    # The repr of a float never needs CSV quoting, so rows are formatted directly.
    out.write("".join(f"{f!r},{m!r},{p!r},{d!r}\n"
                      for f, m, p, d in zip(*(c.tolist() for c in columns))))
