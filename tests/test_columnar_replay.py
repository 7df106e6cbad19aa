"""Columnar replay, run loading and the sample writer against a per-row
reference built from csv.DictReader, the conversion formulas of the
acquisition module's docstring and lux_from_input.

The reference is the row-at-a-time algorithm the columnar code replaced,
with diagnostics numbered by the physical line a record ends on.  Columns
must match it bit for bit (compared as reprs), diagnostics must carry the
same lines and messages, strict mode must raise the first of them, and the
writer must produce the same bytes.
"""

import csv
import io
import math
import sys
from typing import NamedTuple, Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasmakit import (
    CalibrationCurve,
    ChannelConfig,
    DomainError,
    RowError,
    Samples,
    counts_to_volts,
    load_run,
    lux_from_input,
    replay_stream,
)
from plasmakit import acquisition, files
from plasmakit.acquisition import write_samples_csv
from plasmakit.calibration import read_samples_csv

from conftest import VOLTAGE_COEFFS

CURVES = (None, CalibrationCurve(*VOLTAGE_COEFFS),
          # ln lux = 600 u^3 overflows exp() above about 2.88 V
          CalibrationCurve(0.0, 0.0, 0.0, 600.0))


class Row(NamedTuple):
    """One reference sample; lux is None when the row carries none."""

    t_ms: float
    v_volts: float
    i_amps: float
    p_watts: float
    lux: Optional[float]


def reference_row(t, v, i, lux=None):
    """The row with p = v*i, a NaN lux read as no lux; raises DomainError
    for the first of t, v, i, p and lux that is not finite, then for a p
    below the smallest normal float while v and i are not 0."""
    if lux is not None and math.isnan(lux):
        lux = None
    row = Row(t, v, i, v * i, lux)
    for name, value in zip(Row._fields, row):
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    if abs(row.p_watts) < sys.float_info.min and v != 0.0 and i != 0.0:
        raise DomainError(f"p_watts = v*i underflows, got {row.p_watts}")
    return row


def reference_frame(cfg, curve, t, hv, shunt, ldr):
    """The sample of one raw frame by the conversion formulas; a count
    outside the ADC range or an overflowing lux raises DomainError naming
    its channel."""
    def volts(channel, raw):
        if not 0 <= raw <= 2 ** cfg.adc_bits - 1:
            raise DomainError(f"{channel} channel: count {raw} outside "
                              f"[0, {2 ** cfg.adc_bits - 1}]")
        return raw * cfg.adc_fullscale_volts / (2 ** cfg.adc_bits - 1)

    v = volts("hv", hv) / cfg.probe_ratio
    i = (volts("shunt", shunt) - cfg.offset_volts) / cfg.shunt_ohms
    lux = None
    if ldr is not None and curve is not None:
        x = volts("ldr", ldr)
        try:
            lux = lux_from_input(curve, x) if x > 0.0 else 0.0
        except DomainError as exc:
            raise DomainError(f"ldr channel: {exc}") from exc
    return reference_row(t, v, i, lux)


def reference_replay(text, cfg, curve):
    """Samples and (line, message) diagnostics of a row-at-a-time replay."""
    reader = csv.DictReader(io.StringIO(text))
    fields = set(reader.fieldnames or ())
    raw = "raw_hv" in fields
    samples, diagnostics = [], []
    for row in reader:
        line = reader.line_num
        try:
            if raw:
                try:
                    ldr = row.get("raw_ldr")
                    frame = (float(row["t_ms"]), int(row["raw_hv"]), int(row["raw_shunt"]),
                             int(ldr) if ldr not in (None, "") else None)
                except (ValueError, TypeError) as exc:
                    raise RowError(line, f"bad raw frame: {exc}") from exc
                samples.append(reference_frame(cfg, curve, *frame))
            else:
                lux = row.get("lux")
                try:
                    samples.append(reference_row(
                        float(row["t_ms"]), float(row["v_volts"]), float(row["i_amps"]),
                        lux=float(lux) if lux not in (None, "") else None))
                except (ValueError, TypeError) as exc:
                    raise RowError(line, f"bad engineering row: {exc}") from exc
        except RowError as exc:
            diagnostics.append((line, str(exc)))
        except DomainError as exc:
            diagnostics.append((line, str(RowError(line, str(exc)))))
    return samples, diagnostics


def reference_load_run(text):
    """Samples and diagnostics of the row-at-a-time run loader."""
    reader = csv.DictReader(io.StringIO(text))
    has_t = "t_ms" in (reader.fieldnames or ())
    samples, diagnostics = [], []
    for idx, row in enumerate(reader):
        try:
            t = float(row["t_ms"]) if has_t else float(idx)
            v, i = float(row["v_volts"]), float(row["i_amps"])
            lux = row.get("lux")
            samples.append(reference_row(
                t, v, i, lux=float(lux) if lux not in (None, "") else None))
        except (ValueError, TypeError) as exc:
            diagnostics.append((reader.line_num, str(RowError(reader.line_num, str(exc)))))
    return samples, diagnostics


def reference_samples_csv(text):
    """The input and lux columns of a calibration sample file, and the
    (line, message) of its first bad row, or None."""
    reader = csv.DictReader(io.StringIO(text))
    columns = ([], [])
    for row in reader:
        line = reader.line_num
        try:
            x, y = float(row["input"]), float(row["lux"])
        except (ValueError, TypeError) as exc:
            return columns, (line, str(RowError(line, str(exc))))
        for name, value in (("input", x), ("illuminance", y)):
            if not 0.0 < value < math.inf:
                return columns, (line, str(RowError(line, f"sample {name} must be > 0, "
                                                          f"got {value}")))
        columns[0].append(x)
        columns[1].append(y)
    return columns, None


def reference_csv(samples):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("t_ms", "v_volts", "i_amps", "p_watts", "lux"))
    for s in samples:
        writer.writerow([repr(s.t_ms), repr(s.v_volts), repr(s.i_amps),
                         repr(s.p_watts), "" if s.lux is None else repr(s.lux)])
    return out.getvalue()


def assert_same_columns(got, want):
    assert len(got) == len(want)
    for name in ("t_ms", "v_volts", "i_amps", "p_watts"):
        assert [repr(x) for x in getattr(got, name).tolist()] == \
            [repr(getattr(s, name)) for s in want], name
    assert np.isnan(got.lux).tolist() == [s.lux is None for s in want]
    assert [repr(x) for x in got.lux[~np.isnan(got.lux)].tolist()] == \
        [repr(s.lux) for s in want if s.lux is not None]


# Malformed cells: every style the benchmark injects, and a few more.
BAD_CELLS = ("1.5ms", "0x1f", "", "12.5", "n/a", "nan%", " ")
TIMES = st.one_of(st.integers(0, 10**6).map(str),
                  st.floats(allow_nan=True, allow_infinity=True).map(repr),
                  st.sampled_from(BAD_CELLS))
FLOATS = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                   st.sampled_from(("-0.0", "0", "inf", "-inf", "nan", "1e308", "-1e308")),
                   st.sampled_from(BAD_CELLS))


def counts(max_count):
    return st.one_of(st.integers(0, max_count).map(str),
                     st.integers(0, min(max_count, 40)).map(str),   # repeated codes
                     st.integers(max_count + 1, max_count + 5000).map(str),
                     st.integers(-5000, -1).map(str),
                     st.sampled_from((" 7", "+3", "1_0", "0")),
                     st.sampled_from(BAD_CELLS))


@st.composite
def csv_text(draw, header, cells):
    """A CSV with the header in any order, rows of the given cell strategies,
    blank lines, short and long rows, and quoted cells."""
    order = draw(st.permutations(range(len(header))))
    lines = [",".join(header[k] for k in order)]
    for _ in range(draw(st.integers(0, 40))):
        shape = draw(st.sampled_from(("row",) * 6 + ("blank", "short", "long", "quoted")))
        if shape == "blank":
            lines.append("")
            continue
        row = [draw(cells[k]) for k in order]
        if shape == "short":
            row = row[:draw(st.integers(1, len(row) - 1))]
        elif shape == "long":
            row.append(draw(st.sampled_from(("", "9", "x"))))
        elif shape == "quoted":
            k = draw(st.integers(0, len(row) - 1))
            row[k] = '"' + draw(st.sampled_from((row[k], row[k] + "\n1", "1,2", 'a""b'))) + '"'
        lines.append(",".join(row))
    return "\n".join(lines) + draw(st.sampled_from(("\n", "", "\n\n")))


@st.composite
def raw_case(draw):
    bits = draw(st.integers(8, 24))
    cfg = ChannelConfig(probe_ratio=draw(st.sampled_from((1.054886e-3, 0.5))),
                        offset_volts=draw(st.sampled_from((1.25, 0.0, -2.0))),
                        adc_bits=bits)
    header = ["t_ms", "raw_hv", "raw_shunt"]
    cells = [TIMES, counts(cfg.max_count), counts(cfg.max_count)]
    if draw(st.booleans()):
        header.append("raw_ldr")
        cells.append(counts(cfg.max_count))
    return draw(csv_text(header, cells)), cfg, draw(st.sampled_from(CURVES))


@st.composite
def eng_case(draw):
    header = ["t_ms", "v_volts", "i_amps"]
    cells = [TIMES, FLOATS, FLOATS]
    if draw(st.booleans()):
        header.append("lux")
        cells.append(FLOATS)
    return draw(csv_text(header, cells))


def check_replay(text, cfg, curve, chunk_rows):
    want, want_diags = reference_replay(text, cfg, curve)
    with mock.patch.object(files, "CHUNK_ROWS", chunk_rows):
        diagnostics = []
        got = replay_stream(io.StringIO(text), cfg, curve, diagnostics=diagnostics)
        assert [(e.line_number, str(e)) for e in diagnostics] == want_diags
        assert_same_columns(got, want)
        out = io.StringIO()
        write_samples_csv(got, out)
        assert out.getvalue() == reference_csv(want)
        if want_diags:
            with pytest.raises(RowError) as exc:
                replay_stream(io.StringIO(text), cfg, curve, strict=True)
            assert (exc.value.line_number, str(exc.value)) == want_diags[0]
        else:
            assert_same_columns(replay_stream(io.StringIO(text), cfg, curve, strict=True), want)


class TestAgainstRowReference:
    @given(raw_case(), st.integers(1, 9))
    # a cell int() rejects is reported before an out-of-range count in an earlier column
    @example(("t_ms,raw_hv,raw_shunt,raw_ldr\n1,5000,x,9999\n2,5000,2000,abc\n",
              ChannelConfig(), None), 2)
    @settings(max_examples=200, deadline=None)
    def test_raw_replay(self, case, chunk_rows):
        text, cfg, curve = case
        check_replay(text, cfg, curve, chunk_rows)

    @given(eng_case(), st.integers(1, 9))
    @example("t_ms,v_volts,i_amps,lux\n0,1,2,nan\n", 1)  # a NaN lux is no reading
    @settings(max_examples=200, deadline=None)
    def test_engineering_replay(self, text, chunk_rows):
        check_replay(text, ChannelConfig(), None, chunk_rows)

    @given(eng_case(), st.booleans(), st.integers(1, 9))
    @example("t_ms,v_volts,i_amps\n1.5ms,0.0,0x1f\n", False, 1)  # t's error comes first
    @settings(max_examples=100, deadline=None)
    def test_load_run(self, text, drop_t, chunk_rows):
        if drop_t:  # rename the column away: timestamps become the record index
            text = text.replace("t_ms", "time", 1)
        want, want_diags = reference_load_run(text)
        if any(b.t_ms < a.t_ms for a, b in zip(want, want[1:])):
            return  # ExperimentRun rejects the run; covered by TestRunTypes
        with mock.patch.object(files, "CHUNK_ROWS", chunk_rows):
            if want_diags:  # load_run is strict: the first bad row raises
                with pytest.raises(RowError) as exc:
                    load_run(io.StringIO(text))
                assert (exc.value.line_number, str(exc.value)) == want_diags[0]
            else:
                assert_same_columns(load_run(io.StringIO(text)).samples, want)

    @given(csv_text(["input", "lux"], [FLOATS, FLOATS]), st.sampled_from((1, 2, 3)))
    @example("input,lux\n1,2\n0,x\n-1,-2\n", 1)  # two faults: a bad value, a bad cell
    @example('lux,input\n1,2\n"3\n",4\n-1,"x\ny"\n5,6\n', 2)  # multi-line cells
    @example("input,lux\n1,2\n3,4\n5\ninf,nan\n", 3)  # a short row, two non-finite values
    @settings(max_examples=200, deadline=None)
    def test_read_samples_csv(self, text, chunk_rows):
        want, want_error = reference_samples_csv(text)
        with mock.patch.object(files, "CHUNK_ROWS", chunk_rows):
            if want_error:
                with pytest.raises(RowError) as exc:
                    read_samples_csv(io.StringIO(text))
                assert (exc.value.line_number, str(exc.value)) == want_error
            else:
                got = read_samples_csv(io.StringIO(text))
                assert [[repr(v) for v in col.tolist()] for col in got] == \
                    [[repr(v) for v in col] for col in want]

    def test_writer_signed_zero_nan_inf_and_missing_lux(self):
        text = ("t_ms,v_volts,i_amps,lux\n"
                "-0.0,0.0,-1.0,\n"      # p = 0 * -1 = -0.0; no lux
                "0.0,-0.0,-0.0,nan\n"   # p = 0.0; a NaN lux: no reading
                "1.0,inf,2.0,-0.0\n"    # v = inf: rejected
                "2.0,1e308,-1e308,inf\n"  # p overflows to -inf: rejected
                "3.0,nan,1.0,1\n")      # v = nan: rejected
        check_replay(text, ChannelConfig(), None, 2)
        diagnostics = []
        samples = replay_stream(io.StringIO(text), diagnostics=diagnostics)
        assert np.isnan(samples.lux).tolist() == [True, True]
        assert [repr(x) for x in samples.p_watts.tolist()] == ["-0.0", "0.0"]
        assert [str(e) for e in diagnostics] == [
            "line 4: bad engineering row: v_volts must be finite, got inf",
            "line 5: bad engineering row: p_watts must be finite, got -inf",
            "line 6: bad engineering row: v_volts must be finite, got nan"]
        # Samples built directly may hold non-finite values; the writer keeps them.
        out = io.StringIO()
        write_samples_csv(Samples([1.0, 2.0], [math.inf, 1e308], [2.0, -1e308],
                                  [-0.0, math.inf]), out)
        assert out.getvalue() == ("t_ms,v_volts,i_amps,p_watts,lux\n"
                                  "1.0,inf,2.0,inf,-0.0\n"
                                  "2.0,1e+308,-1e+308,-inf,inf\n")


def test_replay_converts_each_distinct_count_once():
    """Over several chunks, each distinct hv and ldr cell is converted once;
    a dark or failing count reaches no conversion."""
    codes = ["0", "17", "17", "4095", "9999", "x", "300", "", "17", "300"] * 5
    text = "t_ms,raw_hv,raw_shunt,raw_ldr\n" + "".join(
        f"{k},{code or 5},2000,{code}\n" for k, code in enumerate(codes))
    cfg, curve = ChannelConfig(), CURVES[1]
    with mock.patch.object(files, "CHUNK_ROWS", 3), \
            mock.patch.object(acquisition, "lux_from_input", wraps=lux_from_input) as lux, \
            mock.patch.object(acquisition, "needle_voltage",
                              wraps=acquisition.needle_voltage) as hv:
        diagnostics = []
        samples = replay_stream(io.StringIO(text), cfg, curve, diagnostics=diagnostics)
    assert sorted(c.args[1] for c in lux.call_args_list) == \
        [counts_to_volts(cfg, c) for c in (17, 300, 4095)]
    assert hv.call_count == len({"0", "17", "4095", "300", "5"})
    assert len(samples) == 40 and len(diagnostics) == 10
