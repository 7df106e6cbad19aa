"""Raw acquisition frames to engineering units: v, i, p and optional lux.

Mirrors the microcontroller data path: two ADC channels read the attenuated
probe output and the offset shunt signal, a third (optional) channel reads
the light-sensor amplifier.  The conversion chain is

    volts   = counts * fullscale / (2^bits - 1)
    v       = probe_volts / probe_ratio
    i       = (shunt_volts - offset) / shunt_ohms
    p       = v * i
    lux     = calibration curve applied to the light-channel volts

Replay works on columns: a frame CSV is read in chunks of files.CHUNK_ROWS
records, each distinct count of a channel is converted once by the scalar
functions below, and each chunk is written before the next but one is read.
"""

from __future__ import annotations

import itertools
import math
import numbers
import sys
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable, Iterator, Optional, TextIO

from . import files
from ._lazy import np
from .calibration import CalibrationCurve, InputKind, is_finite_number, lux_from_input
from .errors import DomainError, PreconditionError, SchemaError
from .files import Cells, Errors

__all__ = [
    "ChannelConfig",
    "Samples",
    "counts_to_volts",
    "needle_voltage",
    "shunt_current",
    "instantaneous_power",
    "replay_stream",
    "read_samples",
    "detect_ignition",
    "write_samples_csv",
    "DEFAULT_CONFIG",
]

RAW_HEADER = ("t_ms", "raw_hv", "raw_shunt", "raw_ldr")
OUT_HEADER = ("t_ms", "v_volts", "i_amps", "p_watts", "lux")


@dataclass(frozen=True)
class ChannelConfig:
    """Scaling constants of the acquisition chain."""

    probe_ratio: float = 1.054886e-3
    shunt_ohms: float = 23.0
    offset_volts: float = 1.25
    adc_fullscale_volts: float = 3.3
    adc_bits: int = 12

    def __post_init__(self):
        for name in ("probe_ratio", "shunt_ohms", "offset_volts", "adc_fullscale_volts"):
            if not is_finite_number(getattr(self, name)):
                raise DomainError(f"{name} must be a finite number, got {getattr(self, name)!r}")
        if isinstance(self.adc_bits, bool) or not isinstance(self.adc_bits, numbers.Integral):
            raise DomainError(f"adc_bits must be an integer, got {self.adc_bits!r}")
        if not 0.0 < self.probe_ratio < 1.0:
            raise DomainError(f"probe_ratio must be in (0, 1), got {self.probe_ratio}")
        if not self.shunt_ohms > 0.0:
            raise DomainError(f"shunt_ohms must be > 0, got {self.shunt_ohms}")
        if not 8 <= self.adc_bits <= 24:
            raise DomainError(f"adc_bits must be in [8, 24], got {self.adc_bits}")
        if not self.adc_fullscale_volts > 0.0:
            raise DomainError(f"adc_fullscale_volts must be > 0, got {self.adc_fullscale_volts}")
        # v and i are monotone in the count, so every code then gives a
        # finite v and i, and p = v*i is never NaN.
        full = counts_to_volts(self, self.max_count)
        extremes = (needle_voltage(self, full), shunt_current(self, full),
                    shunt_current(self, 0.0))
        if not all(map(math.isfinite, extremes)):
            raise DomainError("full-scale voltage or current overflows with these constants")

    @property
    def max_count(self) -> int:
        return (1 << self.adc_bits) - 1


# Samples in a row with |i| >= i_min that mark the ignition; the default i_min (A).
IGNITION_SUSTAIN = 3
IGNITION_I_MIN = 1e-3


@dataclass(frozen=True, eq=False)
class Samples:
    """Engineering samples held as columns: a replay's output or a run.

    `t_ms`, `v_volts`, `i_amps`, `p_watts` and `lux` are read-only float
    arrays of one length, with p_watts = v_volts * i_amps computed here.
    A NaN lux is the one mark of a row without a light reading.  len()
    counts the rows, and a slice or a boolean mask selects rows as Samples.
    """

    t_ms: np.ndarray
    v_volts: np.ndarray
    i_amps: np.ndarray
    lux: np.ndarray
    p_watts: np.ndarray = field(init=False)

    def __post_init__(self):
        cols = {name: np.asarray(getattr(self, name), dtype=float)
                for name in ("t_ms", "v_volts", "i_amps", "lux")}
        if any(c.ndim != 1 or len(c) != len(cols["t_ms"]) for c in cols.values()):
            raise DomainError("sample columns must be 1-D and of one length")
        with np.errstate(over="ignore", invalid="ignore"):
            cols["p_watts"] = cols["v_volts"] * cols["i_amps"]
        for name, col in cols.items():
            col.flags.writeable = False
            object.__setattr__(self, name, col)

    __iter__ = None  # columns, not rows: __getitem__ must not make Samples iterable

    def __len__(self) -> int:
        return len(self.t_ms)

    def __getitem__(self, rows) -> "Samples":
        if isinstance(rows, (int, np.integer)):
            raise TypeError("Samples selects rows by slice or mask, not by integer index")
        return Samples(self.t_ms[rows], self.v_volts[rows], self.i_amps[rows], self.lux[rows])


def counts_to_volts(cfg: ChannelConfig, raw: int) -> float:
    """ADC code to volts; full-scale code maps to full-scale voltage."""
    if not 0 <= raw <= cfg.max_count:
        raise DomainError(f"count {raw} outside [0, {cfg.max_count}]")
    return raw * cfg.adc_fullscale_volts / cfg.max_count


def needle_voltage(cfg: ChannelConfig, probe_out: float) -> float:
    """Undo the probe attenuation to recover the high-voltage-side value."""
    return probe_out / cfg.probe_ratio


def shunt_current(cfg: ChannelConfig, v3: float) -> float:
    """Recover the shunt current from the offset sum; negative values are legal."""
    return (v3 - cfg.offset_volts) / cfg.shunt_ohms


def instantaneous_power(v: float, i: float) -> float:
    """p = v*i; raises DomainError with the first error of the sample-row
    rule (_row_errors): a non-finite v or i, or a product that over- or
    underflows."""
    for errors in _row_errors(*np.array([[0.0], [v], [i], [math.nan]])):
        if errors:
            raise DomainError(errors[0])
    return v * i


DEFAULT_CONFIG = ChannelConfig()


# ------------------------------------------------------------ CSV columns

def _row_errors(t: np.ndarray, v: np.ndarray, i: np.ndarray, lux: np.ndarray,
                prefix: str = "") -> list[Errors]:
    """The rule every replayed or loaded row keeps: t, v, i, p = v*i and lux
    are finite, except a NaN lux (no reading), and p is not below the
    smallest normal float while v and i are not 0.  The errors of the rows
    that break it, one dict per check in that order."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = v * i
    checks = [(f"{name} must be finite", col, ~np.isfinite(col))
              for name, col in zip(OUT_HEADER, (t, v, i, p))]
    checks += [("lux must be finite", lux, np.isinf(lux)),
               ("p_watts = v*i underflows", p,
                (np.abs(p) < sys.float_info.min) & (v != 0.0) & (i != 0.0))]
    return [{k: f"{prefix}{rule}, got {float(col[k])}" for k in np.flatnonzero(bad).tolist()}
            for rule, col, bad in checks]


def read_samples(fields, chunks, diagnostics: Optional[list] = None,
                 prefix: str = "") -> Iterator[tuple[np.ndarray, ...]]:
    """Each chunk's t, v, i, lux columns of an engineering CSV, from read_csv.

    The header names OUT_HEADER columns only, v_volts and i_amps required;
    p_watts is ignored (p = v*i), t is the record index without t_ms, and an
    empty or NaN lux is no reading.  A row's float() errors, in header order
    t, v, i, lux, come before its row-rule ones (_row_errors), each message
    after `prefix`.  Bad rows go to files.collect with `diagnostics`.
    """
    if not {"v_volts", "i_amps"} <= set(fields):
        raise SchemaError(f"run CSV must provide v_volts and i_amps (have {sorted(set(fields))})")
    if unknown := sorted(set(fields) - set(OUT_HEADER)):
        raise SchemaError(f"run CSV has unknown columns {unknown} "
                          f"(allowed: {','.join(OUT_HEADER)})")

    def convert(cells, n, start):
        (t, v, i, lux), errors = files.float_columns(
            cells, n, ("t_ms", "v_volts", "i_amps", "lux"), prefix, optional=("lux",))
        if "t_ms" not in fields:
            t = np.arange(start, start + n, dtype=float)
        return (t, v, i, lux), [*errors, *_row_errors(t, v, i, lux, prefix)]

    return files.collect(chunks, convert, diagnostics)


class _CountTable(dict):
    """The cells of the `name` count column, each distinct cell mapped once
    to its value in engineering units.

    A new cell is parsed with int(), and its count converted to volts and
    then by `to_units`.  NaN stands for no value: an empty or missing cell
    of an `optional` column, and a cell that fails, whose error text goes to
    `bad` if int() rejects it and else to `unconverted` (the text, never the
    exception, whose traceback would keep a chunk's rows alive).  Only the
    light channel converts a count to NaN, when there is no curve:
    ChannelConfig guarantees a finite v and i for every count, and
    lux_from_input raises rather than return NaN.  Errors are looked up by
    cell, so a NaN value without one is not an error.  An ADC channel has
    at most 2^adc_bits codes, so the table stays small.
    """

    def __init__(self, cfg: ChannelConfig, name: str,
                 to_units: Callable[[float], float], optional: bool = False):
        super().__init__()
        self.cfg, self.name, self.to_units, self.optional = cfg, name, to_units, optional
        self.bad, self.unconverted = {}, {}  # cell -> message

    def __missing__(self, cell) -> float:
        self[cell] = math.nan
        if self.optional and not cell:
            return math.nan
        try:
            raw = int(cell)
        except (ValueError, TypeError) as exc:
            self.bad[cell] = f"bad raw frame: {exc}"
            return math.nan
        try:
            self[cell] = self.to_units(counts_to_volts(self.cfg, raw))
        except DomainError as exc:
            self.unconverted[cell] = f"{self.name} channel: {exc}"
        return self[cell]

    def column(self, cells: Optional[Cells], n: int) -> tuple[np.ndarray, Errors, Errors]:
        """Values of the cells (NaN without one), int() errors and conversion errors."""
        cells = (None,) * n if cells is None else cells
        values = np.fromiter(map(self.__getitem__, cells), float, n)
        if not (self.bad or self.unconverted):
            return values, {}, {}
        rows = np.flatnonzero(np.isnan(values)).tolist()
        return values, *({k: errors[cells[k]] for k in rows if cells[k] in errors}
                         for errors in (self.bad, self.unconverted))


def replay_stream(source: TextIO | str, out: TextIO, cfg: ChannelConfig = DEFAULT_CONFIG,
                  ldr_curve: Optional[CalibrationCurve] = None,
                  diagnostics: Optional[list] = None) -> int:
    """Replay a frame CSV to `out`, order preserved; the number of rows written.

    The mode is chosen by header inspection: `t_ms,raw_hv,raw_shunt[,raw_ldr]`
    for raw counts, as is an input with no header (no rows); a header with
    v_volts and i_amps goes to read_samples, so replay reads its own output.
    What would have no effect raises PreconditionError: a curve or a cfg other
    than DEFAULT_CONFIG on engineering units, a curve on frames without
    raw_ldr.  With a `diagnostics` list malformed rows are reported there (as
    RowErrors, numbered by the physical line the row ends on) and skipped;
    without one the first aborts the replay, once the chunks before it are
    written.  A row reports its first error (see files.collect); a break of
    the row rule (_row_errors) comes last.  A raw replay converts each
    distinct count of a channel once, with the scalar functions above.
    """
    return write_samples_csv(_replay_chunks(source, cfg, ldr_curve, diagnostics), out)


def _replay_chunks(source, cfg, ldr_curve, diagnostics) -> Iterator[Samples]:
    with files.read_csv(source) as (fields, chunks):
        fields = fields or RAW_HEADER
        if {"v_volts", "i_amps"} <= set(fields):
            ignored = ["light-channel curve"] * (ldr_curve is not None) + [
                name for name, x in asdict(cfg).items() if x != getattr(DEFAULT_CONFIG, name)]
            if ignored:
                raise PreconditionError(f"{ignored[0]} has no effect on an engineering-unit input")
            return (yield from itertools.starmap(Samples, read_samples(
                fields, chunks, diagnostics, "bad engineering row: ")))
        if not (set(fields) <= set(RAW_HEADER) and {"t_ms", "raw_hv", "raw_shunt"} <= set(fields)):
            raise SchemaError(f"unrecognized frame CSV header: {fields}")
        if ldr_curve is not None and ldr_curve.input_kind is not InputKind.SENSOR_VOLTAGE:
            raise PreconditionError("light-channel curve must have input kind 'voltage'")
        if ldr_curve is not None and "raw_ldr" not in fields:
            raise PreconditionError("light-channel curve has no effect on frames without raw_ldr")
        hv = _CountTable(cfg, "hv", lambda volts: needle_voltage(cfg, volts))
        shunt = _CountTable(cfg, "shunt", lambda volts: shunt_current(cfg, volts))
        ldr = _CountTable(cfg, "ldr", (lambda volts: math.nan) if ldr_curve is None else (
            lambda volts: lux_from_input(ldr_curve, volts) if volts > 0.0 else 0.0),
            optional=True)

        def convert(cells, n, start):
            t, t_errors = files.floats(cells["t_ms"], n, "bad raw frame: ")
            v, hv_bad, hv_unconverted = hv.column(cells["raw_hv"], n)
            i, shunt_bad, shunt_unconverted = shunt.column(cells["raw_shunt"], n)
            lux, ldr_bad, ldr_unconverted = ldr.column(cells.get("raw_ldr"), n)
            return ((t, v, i, lux),
                    [t_errors, hv_bad, shunt_bad, ldr_bad, hv_unconverted,
                     shunt_unconverted, ldr_unconverted, *_row_errors(t, v, i, lux)])

        yield from itertools.starmap(Samples, files.collect(chunks, convert, diagnostics))


def detect_ignition(samples: Samples, i_min: float = IGNITION_I_MIN) -> Optional[float]:
    """Timestamp of the first sample opening a run of >= IGNITION_SUSTAIN
    samples with |i| >= i_min; None when no such run exists."""
    if not i_min > 0.0:
        raise DomainError(f"i_min must be > 0, got {i_min}")
    hot = np.abs(samples.i_amps) >= i_min
    edges = np.diff(np.concatenate(([0], hot, [0])).astype(np.int8))
    starts, stops = np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)
    long_runs = np.flatnonzero(stops - starts >= IGNITION_SUSTAIN)
    return float(samples.t_ms[starts[long_runs[0]]]) if len(long_runs) else None


def _reprs(col: np.ndarray, known: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, tuple]:
    """repr of every value, and the table of (sorted distinct bits, strings)
    to pass as `known` with the next chunk of its column: `known` and this
    chunk's new patterns while they are at most files.CHUNK_ROWS, else this
    chunk's own.  Values are told apart by bit pattern, so -0.0 and 0.0 stay
    apart; repr is called only for a pattern that `known` lacks."""
    bits, index = np.unique(col.view(np.int64), return_inverse=True)
    at = np.searchsorted(known[0], bits)
    hit = at < len(known[0])
    hit[hit] = known[0][at[hit]] == bits[hit]
    strings = np.empty(len(bits), dtype=object)
    strings[hit] = known[1][at[hit]]
    strings[~hit] = new = [repr(x) for x in bits[~hit].view(np.float64).tolist()]
    if len(known[0]) + len(new) <= files.CHUNK_ROWS:
        return strings[index], (np.insert(known[0], at[~hit], bits[~hit]),
                                np.insert(known[1], at[~hit], new))
    return strings[index], (bits, strings)


def write_samples_csv(chunks: Iterable[Samples], out: TextIO) -> int:
    """Write `t_ms,v_volts,i_amps,p_watts,lux` rows of float reprs, a chunk
    of Samples at a time and flushed, and return their number; a NaN lux (no
    reading) is an empty cell.  A chunk, the header with the first, is written
    once the next is pulled.  Each column keeps up to files.CHUNK_ROWS strings
    across chunks (_reprs), so a value is formatted again only once dropped."""
    known = dict.fromkeys(OUT_HEADER, (np.empty(0, np.int64), np.empty(0, object)))
    rows, text = 0, ",".join(OUT_HEADER) + "\n"
    for part, _ in itertools.pairwise(itertools.chain(filter(len, chunks), [None])):
        columns = []
        for name in OUT_HEADER:
            strings, known[name] = _reprs(getattr(part, name), known[name])
            columns.append(strings)
        columns[-1] = np.where(np.isnan(part.lux), "", columns[-1])
        out.write(text + "\n".join([*map(",".join, zip(*(c.tolist() for c in columns))), ""]))
        out.flush()
        rows, text = rows + len(part), ""
    out.write(text)  # the header of no rows
    return rows
