"""Log-domain cubic calibration curves for the illuminance sensor.

A curve maps a positive input (sensor voltage in volts, or plasma power in
watts) to illuminance in lux through a cubic polynomial in log space:

    ln(lux) = a3*u^3 + a2*u^2 + a1*u + a0,   u = ln(input).

Fitting, forward evaluation, inversion (Newton kept inside a bracket of the
root) and residual statistics all operate on this representation.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from enum import Enum
from typing import TextIO

from . import files
from ._numpy import np
from .errors import DomainError, FitError, PreconditionError, SchemaError

__all__ = [
    "InputKind",
    "CalibrationCurve",
    "eval_log_poly",
    "lux_from_input",
    "input_from_lux",
    "monotone_direction",
    "fit_log_cubic",
    "curve_to_dict",
    "curve_from_dict",
    "load_curve",
    "read_samples_csv",
]

# Search window for u = ln(input) in inversion; exp() overflows past ~709.
_U_MIN, _U_MAX = -700.0, 700.0
_U_TOL = 1e-12

# Largest error in ln lux that input_from_lux accepts in the lux its result gives.
INVERT_ATOL = 1e-9

# Largest difference in ln lux, at the samples, that a fitted curve may have
# from the same least-squares fit solved in a centred, scaled variable.
FIT_ATOL = 1e-9

# A trimmed fit drops residuals beyond TRIM_SIGMA times the rmse, unless that
# drops more than MAX_TRIM_FRACTION of the samples.
TRIM_SIGMA = 3.0
MAX_TRIM_FRACTION = 0.2


class InputKind(str, Enum):
    SENSOR_VOLTAGE = "voltage"
    PLASMA_POWER = "power"


def is_finite_number(value) -> bool:
    """True for a finite int or float; False for a bool, a non-number and an
    int too large for a float."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


@dataclass(frozen=True)
class CalibrationCurve:
    """Coefficients of the log-domain cubic, lowest order first in naming."""

    a0: float
    a1: float
    a2: float
    a3: float
    input_kind: InputKind = InputKind.SENSOR_VOLTAGE
    input_range: tuple[float, float] | None = None  # fitted input span, if known

    def __post_init__(self):
        for name in ("a0", "a1", "a2", "a3"):
            value = getattr(self, name)
            if not is_finite_number(value):
                raise DomainError(f"coefficient {name} must be a finite number, got {value!r}")
            object.__setattr__(self, name, float(value))
        if (rng := self.input_range) is not None:
            if not (isinstance(rng, (tuple, list)) and len(rng) == 2
                    and all(map(is_finite_number, rng)) and 0.0 < rng[0] <= rng[1]):
                raise DomainError("input_range must be two positive, ordered, finite "
                                  f"numbers, got {rng!r}")
            object.__setattr__(self, "input_range", (float(rng[0]), float(rng[1])))

    @property
    def coefficients(self) -> tuple[float, float, float, float]:
        return (self.a0, self.a1, self.a2, self.a3)

    def covers(self, x: float) -> bool:
        """True when x lies inside the fitted input range (or no range is known)."""
        if self.input_range is None:
            return True
        lo, hi = self.input_range
        return lo <= x <= hi


def eval_log_poly(curve: CalibrationCurve, x: float) -> float:
    """Horner evaluation of a3*x^3 + a2*x^2 + a1*x + a0 (x already in log domain)."""
    return ((curve.a3 * x + curve.a2) * x + curve.a1) * x + curve.a0


def _dpoly(curve: CalibrationCurve, x: float) -> float:
    return (3.0 * curve.a3 * x + 2.0 * curve.a2) * x + curve.a1


def lux_from_input(curve: CalibrationCurve, x: float) -> float:
    """Forward map: exp of the log-domain cubic at ln(x).

    Raises DomainError where the illuminance over- or underflows: a lux
    below the smallest normal float would read as a dark sensor."""
    if not (x > 0.0 and math.isfinite(x)):
        raise DomainError(f"curve input must be {'> 0' if math.isfinite(x) else 'finite'}, got {x}")
    log_lux = eval_log_poly(curve, math.log(x))
    try:
        if log_lux < math.inf:  # the cubic itself may overflow, and exp(inf) is inf
            lux = math.exp(log_lux)
            if lux < sys.float_info.min:
                raise DomainError(f"illuminance underflows at input {x} (ln lux = {log_lux})")
            return lux
    except OverflowError:
        pass
    raise DomainError(f"illuminance overflows at input {x} (ln lux = {log_lux})")


def monotone_direction(curve: CalibrationCurve) -> int:
    """+1 strictly increasing, -1 strictly decreasing, 0 not monotone.

    The derivative of the log-domain cubic is q(u) = 3*a3*u^2 + 2*a2*u + a1.
    For a3 != 0 the curve is monotone iff q never changes sign: the discriminant
    4*a2^2 - 12*a3*a1 is <= 0, as a double root only touches 0; direction sign(a3).
    Degenerate cases: a3 == 0 with a2 != 0 gives a linear q that always
    changes sign; a3 == a2 == 0 leaves q = a1 (constant sign, or flat).
    """
    a1, a2, a3 = curve.a1, curve.a2, curve.a3
    if a3 != 0.0:
        disc = 4.0 * a2 * a2 - 12.0 * a3 * a1
        if disc <= 0.0:
            return 1 if a3 > 0.0 else -1
        return 0
    if a2 != 0.0:
        return 0
    if a1 != 0.0:
        return 1 if a1 > 0.0 else -1
    return 0


def input_from_lux(curve: CalibrationCurve, lux: float) -> float:
    """Invert the forward map: find x with lux_from_input(curve, x) == lux.

    Solves g(u) = a3*u^3 + a2*u^2 + a1*u + (a0 - ln(lux)) = 0 for u = ln(x)
    by Newton iteration seeded at u = ln(lux), kept inside a bracket of the
    root (Press et al., Numerical Recipes, rtsafe).  The bracket starts as
    the search window and each evaluated point narrows it by the sign of g;
    a Newton step that is undefined or leaves the bracket is replaced by
    the bracket's midpoint.  Raises DomainError where the cubic overflows
    during the search, when the result's ln lux is more than INVERT_ATOL
    off ln(lux), as it is when the root lies outside the window, and for a
    lux below the smallest normal float, which lux_from_input never returns.
    """
    if not (lux > 0.0 and math.isfinite(lux)):
        raise DomainError(f"lux must be {'> 0' if math.isfinite(lux) else 'finite'}, got {lux}")
    if lux < sys.float_info.min:  # lux_from_input never returns such a lux
        raise DomainError(f"lux {lux} underflows: it is below the smallest normal float")
    direction = monotone_direction(curve)
    if direction == 0:
        raise PreconditionError("curve is not monotone; inversion is ambiguous")

    target = math.log(lux)

    def result(u: float) -> float:
        x = math.exp(u)
        error = eval_log_poly(curve, math.log(x)) - target
        if not abs(error) <= INVERT_ATOL:
            raise DomainError(f"no input gives lux {lux}: the closest found, {x}, "
                              f"is {error:.3g} off in ln lux")
        return x

    lo, hi = _U_MIN, _U_MAX
    u = min(max(target, _U_MIN), _U_MAX)
    for _ in range(100):
        g = eval_log_poly(curve, u) - target
        if not math.isfinite(g):
            raise DomainError(f"the curve's ln lux overflows at ln(input) = {u}")
        if direction * g < 0.0:  # the root lies above u
            lo = u
        else:
            hi = u
        d = _dpoly(curve, u)
        step = g / d if d != 0.0 else math.nan
        u_next = u - step
        if not lo <= u_next <= hi:  # also false for NaN
            u_next = 0.5 * (lo + hi)
            step = u - u_next
        if abs(step) <= _U_TOL * max(1.0, abs(u_next)):
            return result(u_next)
        u = u_next
    return result(u)


def _log_columns(inputs, illuminance) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x, ln x and ln y of two 1-D columns x, y of one length and of positive finite values."""
    x, y = np.asarray(inputs, dtype=float), np.asarray(illuminance, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise DomainError("input and illuminance must be 1-D columns of equal length, "
                          f"got shapes {x.shape} and {y.shape}")
    for name, col in (("input", x), ("illuminance", y)):
        bad = ~((col > 0.0) & (col < math.inf))
        if bad.any():
            k = int(np.argmax(bad))
            raise DomainError(f"sample {name} must be > 0, got {float(col[k])} at row {k}")
    return x, np.log(x), np.log(y)


def _fit(x: np.ndarray, u: np.ndarray, y: np.ndarray, kind: InputKind) -> CalibrationCurve:
    if len(u) < 4:
        raise FitError(f"need at least 4 samples, got {len(u)}")
    if len(np.unique(u)) < 4:
        raise FitError("need at least 4 distinct input values")
    design = np.column_stack([np.ones_like(u), u, u * u, u ** 3])
    q, r = np.linalg.qr(design)
    if np.min(np.abs(np.diag(r))) < 1e-12 * np.max(np.abs(np.diag(r))):
        raise FitError("rank-deficient design matrix")
    coeffs = np.linalg.solve(r, q.T @ y)
    curve = CalibrationCurve(*(float(c) for c in coeffs), input_kind=kind,
                             input_range=(float(x.min()), float(x.max())))
    # On a narrow span the monomial coefficients grow and cancel.  Mapped to
    # [-1, 1] (numpy.polynomial's domain-to-window map), the design stays
    # well conditioned; its fitted values are the projection of y on its Q.
    q = np.linalg.qr(np.vander((2.0 * u - u.max() - u.min()) / (u.max() - u.min()), 4))[0]
    drift = float(np.max(np.abs(eval_log_poly(curve, u) - q @ (q.T @ y))))
    if not drift <= FIT_ATOL:
        raise FitError(f"fitted curve is {drift:.3g} off the least-squares fit in ln lux "
                       f"(FIT_ATOL {FIT_ATOL}): the input span is too narrow")
    return curve


def _rmse(res: np.ndarray) -> float:
    # cumsum adds left to right, as a Python sum over the rows would
    return math.sqrt(float(np.cumsum(res * res)[-1]) / len(res))


def fit_log_cubic(inputs, illuminance, kind: InputKind = InputKind.SENSOR_VOLTAGE,
                  trim: bool = False) -> tuple[CalibrationCurve, np.ndarray, dict]:
    """Least-squares cubic fit of ln(illuminance) against ln(input), and its
    log-space residual statistics.

    inputs and illuminance are equal-length columns of positive finite
    values.  Uses a QR factorization of the 4-column Vandermonde design
    matrix.  Requires at least 4 samples with 4 distinct input values.
    With trim=True a single outlier pass drops the rows whose residual is
    beyond TRIM_SIGMA*rmse and fits once more, unless that drops more than
    MAX_TRIM_FRACTION of the rows or leaves fewer than 4.  Returns (curve,
    kept, stats): kept holds the indices of the rows the curve was fitted
    on, whose inputs span its input_range, and stats is {"rmse_log" (1/N),
    "max_abs_log", "trimmed_count"} of the curve's residuals on those rows.
    """
    x, u, y = _log_columns(inputs, illuminance)
    curve, kept = _fit(x, u, y, kind), np.arange(len(u))
    res = y - eval_log_poly(curve, u)
    if trim:
        keep = np.abs(res) <= TRIM_SIGMA * _rmse(res)
        trimmed = len(u) - int(keep.sum())
        if 0 < trimmed <= MAX_TRIM_FRACTION * len(u) and len(u) - trimmed >= 4:
            kept = np.flatnonzero(keep)
            curve = _fit(x[kept], u[kept], y[kept], kind)
            res = y[kept] - eval_log_poly(curve, u[kept])
    return curve, kept, {"rmse_log": _rmse(res), "max_abs_log": float(np.max(np.abs(res))),
                         "trimmed_count": len(u) - len(kept)}


def curve_to_dict(curve: CalibrationCurve) -> dict:
    out = {"kind": curve.input_kind.value, "a0": curve.a0, "a1": curve.a1,
           "a2": curve.a2, "a3": curve.a3}
    if curve.input_range is not None:
        out["input_range"] = list(curve.input_range)
    return out


def curve_from_dict(data: dict) -> CalibrationCurve:
    try:
        return CalibrationCurve(*[data[k] for k in ("a0", "a1", "a2", "a3")],
                                input_kind=InputKind(data["kind"]),
                                input_range=data.get("input_range"))
    except (KeyError, ValueError, TypeError) as exc:  # DomainError is a ValueError
        raise SchemaError(f"bad calibration curve object: {exc}") from exc


def load_curve(path) -> CalibrationCurve:
    """The curve in a JSON file: a bare curve object, or a characterization's `curve` member."""
    data = files.read_json(path)
    return curve_from_dict(data["curve"] if isinstance(data, dict) and "curve" in data else data)


def read_samples_csv(source: TextIO | str) -> tuple[np.ndarray, np.ndarray]:
    """The input and lux columns of an `input,lux` sample file (header
    required); a row that is not two positive finite numbers raises RowError
    with its line."""
    with files.read_csv(source) as (fields, chunks):
        if not {"input", "lux"} <= set(fields):
            raise SchemaError("sample CSV must have header columns: input,lux")

        def convert(cells, n, start):
            (x, y), errors = files.float_columns(cells, n, ("input", "lux"))
            for name, col in (("input", x), ("illuminance", y)):
                bad = np.flatnonzero(~((col > 0.0) & (col < math.inf))).tolist()
                errors.append({k: f"sample {name} must be > 0, got {float(col[k])}" for k in bad})
            return (x, y), errors

        return tuple(map(np.hstack, zip([()] * 2, *files.collect(chunks, convert))))
