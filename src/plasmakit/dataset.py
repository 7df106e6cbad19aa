"""Experiment runs and the power-versus-illuminance characterization.

A run is an ordered, columnar `Samples` loaded from an engineering CSV.  The
headline operation, `characterize`, drops pre-ignition samples, fits the
log-domain cubic of illuminance against plasma power, and optionally runs a
single 3-sigma outlier-trim pass for ignition transients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TextIO

from . import files
from ._lazy import np
from .acquisition import IGNITION_I_MIN, Samples, detect_ignition, read_samples
from .calibration import (
    CalibrationCurve,
    InputKind,
    curve_to_dict,
    fit_log_cubic,
)
from .errors import DomainError, FitError

__all__ = [
    "ExperimentRun",
    "Characterization",
    "load_run",
    "characterize",
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
    """Fitted power-to-illuminance curve plus fit bookkeeping.  `samples` are
    the usable rows the fit was given."""

    curve: CalibrationCurve
    rmse_log: float
    max_abs_log: float
    trimmed_count: int
    samples: Samples = field(compare=False, repr=False)


def load_run(source: TextIO | str) -> ExperimentRun:
    """Load an engineering-unit CSV as an ExperimentRun.

    The header and rows are read by acquisition.read_samples, as replay
    reads engineering rows: columns of acquisition.OUT_HEADER only, with
    v_volts and i_amps required; p_watts is ignored, t_ms and lux are
    optional.  The first rejected row raises RowError with the physical
    line it ends on.
    """
    with files.read_csv(source) as (fields, chunks):
        return ExperimentRun(Samples(*map(np.hstack, zip([()] * 4, *read_samples(fields, chunks)))))


def characterize(run: ExperimentRun, trim: bool = False,
                 ignition_i_min: float = IGNITION_I_MIN) -> Characterization:
    """Fit the power-to-illuminance curve of a run.

    Pre-ignition samples (before the first acquisition.IGNITION_SUSTAIN
    samples in a row with |i| >= ignition_i_min) are dropped, then samples
    with non-positive power or missing/zero lux; the rows left are the
    record's `samples`.  With trim=True a single 3-sigma trim-and-refit pass
    removes transient outliers, guarded to never discard more than 20% of
    the data.
    """
    s = run.samples
    t0 = detect_ignition(s, i_min=ignition_i_min)
    used = s[:0] if t0 is None else s[(s.t_ms >= t0) & (s.p_watts > 0.0) & (s.lux > 0.0)]
    if len(used) < 4:
        raise FitError(f"only {len(used)} usable post-ignition samples; need >= 4")
    curve, _, stats = fit_log_cubic(used.p_watts, used.lux, InputKind.PLASMA_POWER, trim)
    return Characterization(curve, **stats, samples=used)


def characterization_to_dict(char: Characterization) -> dict:
    return {
        "curve": curve_to_dict(char.curve),
        "rmse_log": char.rmse_log,
        "max_abs_log": char.max_abs_log,
        "input_range": list(char.curve.input_range),
        "trimmed_count": char.trimmed_count,
    }
