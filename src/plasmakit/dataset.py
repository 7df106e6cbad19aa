"""Experiment runs and the power-versus-illuminance characterization.

A run is an ordered, columnar `Samples` loaded from an engineering CSV.  The
headline operation, `characterize`, drops pre-ignition samples, fits the
log-domain cubic of illuminance against plasma power, and optionally runs a
single 3-sigma outlier-trim pass for ignition transients.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import TextIO

import numpy as np

from . import files
from .acquisition import Samples, detect_ignition, engineering_columns
from .calibration import (
    CalibrationCurve,
    InputKind,
    checked_range,
    curve_from_dict,
    curve_to_dict,
    fit_log_cubic,
    fit_residuals,
    is_finite_number,
    trim_refit,
)
from .errors import DomainError, FitError, SchemaError

__all__ = [
    "ExperimentRun",
    "Characterization",
    "load_run",
    "characterize",
    "usable_mask",
    "save_characterization",
    "load_characterization",
]


@dataclass(frozen=True)
class ExperimentRun:
    """A run's samples, in non-decreasing time order."""

    samples: Samples

    def __post_init__(self):
        t = self.samples.t_ms
        if np.any(t[1:] < t[:-1]):
            raise DomainError("run timestamps must be non-decreasing")


@dataclass(frozen=True)
class Characterization:
    """Fitted power-to-illuminance curve plus fit bookkeeping."""

    curve: CalibrationCurve
    rmse_log: float
    max_abs_log: float
    input_range: tuple[float, float]
    trimmed_count: int

    def __post_init__(self):
        object.__setattr__(self, "input_range", checked_range(self.input_range))
        for name in ("rmse_log", "max_abs_log"):
            value = getattr(self, name)
            if not (is_finite_number(value) and value >= 0.0):
                raise DomainError(f"{name} must be a finite number >= 0, got {value!r}")
            object.__setattr__(self, name, float(value))
        count = self.trimmed_count
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < 0:
            raise DomainError(f"trimmed_count must be an integer >= 0, got {count!r}")


def load_run(source: TextIO | str) -> ExperimentRun:
    """Load an engineering-unit CSV as an ExperimentRun.

    Rows are read by acquisition.engineering_columns: p_watts is always
    recomputed from v*i, t_ms and lux are optional, missing timestamps
    become the record index, and an empty or NaN lux is no reading.  The
    first rejected row raises RowError with the physical line it ends on.
    """
    with files.read_csv(source) as (fields, chunks):
        if not {"v_volts", "i_amps"} <= set(fields):
            raise SchemaError("run CSV must provide v_volts and i_amps "
                              f"(have {sorted(set(fields))})")
        return ExperimentRun(Samples(*(files.collect(chunks, engineering_columns) or [()] * 4)))


def usable_mask(run: ExperimentRun, ignition_i_min: float = 1e-3) -> np.ndarray:
    """Mask of the samples characterize fits: from the ignition (the first
    acquisition.IGNITION_SUSTAIN samples in a row with |i| >= ignition_i_min)
    on, with power > 0 and a lux > 0."""
    s = run.samples
    t0 = detect_ignition(s, i_min=ignition_i_min)
    if t0 is None:
        return np.zeros(len(s), dtype=bool)
    return (s.t_ms >= t0) & (s.p_watts > 0.0) & (s.lux > 0.0)


def characterize(run: ExperimentRun, trim: bool = False,
                 ignition_i_min: float = 1e-3) -> Characterization:
    """Fit the power-to-illuminance curve of a run.

    Pre-ignition samples (before the first sustained |i| >= ignition_i_min)
    are dropped, then samples with non-positive power or missing/zero lux
    (see usable_mask).  With trim=True a single 3-sigma trim-and-refit pass
    removes transient outliers, guarded to never discard more than 20% of
    the data.
    """
    used = run.samples[usable_mask(run, ignition_i_min)]
    if len(used) < 4:
        raise FitError(f"only {len(used)} usable post-ignition samples; need >= 4")
    p, lux = used.p_watts, used.lux
    if trim:
        curve, kept, trimmed = trim_refit(p, lux, kind=InputKind.PLASMA_POWER)
        p, lux = p[kept], lux[kept]
    else:
        curve, trimmed = fit_log_cubic(p, lux, kind=InputKind.PLASMA_POWER), 0
    stats = fit_residuals(curve, p, lux)
    return Characterization(
        curve=curve,
        rmse_log=stats["rmse_log"],
        max_abs_log=stats["max_abs_log"],
        input_range=(float(p.min()), float(p.max())),
        trimmed_count=trimmed,
    )


def characterization_to_dict(char: Characterization) -> dict:
    return {
        "curve": curve_to_dict(char.curve),
        "rmse_log": char.rmse_log,
        "max_abs_log": char.max_abs_log,
        "input_range": list(char.input_range),
        "trimmed_count": char.trimmed_count,
    }


def characterization_from_dict(data: dict) -> Characterization:
    try:
        return Characterization(
            curve=curve_from_dict(data["curve"]),
            rmse_log=data["rmse_log"],
            max_abs_log=data["max_abs_log"],
            input_range=data["input_range"],
            trimmed_count=data["trimmed_count"],
        )
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"bad characterization object: {exc}") from exc


def save_characterization(char: Characterization, path) -> None:
    """JSON round trip is lossless: floats serialize at full repr precision."""
    files.write_json(characterization_to_dict(char), path)


def load_characterization(path) -> Characterization:
    return characterization_from_dict(files.read_json(path))
