"""files.float_columns, the one reader of a chunk's float columns, held to
float() of each cell.  A plain ASCII chunk goes through NumPy's C reader,
every other chunk and every chunk that reader rejects through files.floats.
The oracle here parses each record with csv.reader and float(): both paths
must give the same values bit for bit and the same RowErrors, strict and
lenient, and the commands that read these columns must give the same bytes."""

import csv
import io
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasmakit import CalibrationCurve, InputKind, files, lux_from_input
from plasmakit.cli import main
from plasmakit.errors import RowError

from conftest import POWER_COEFFS, VOLTAGE_COEFFS, replay_samples

NAMES = ("t_ms", "v_volts", "i_amps", "lux")
OPTIONAL = ("lux",)
PREFIX = "bad: "


def oracle(text, names=NAMES, optional=OPTIONAL):
    """Each record of `text` in order: ("row", values) of float() of each
    named cell, NaN for a name the header lacks and for an empty or missing
    cell of an optional column; ("bad", line, message) for a record with a
    cell float() rejects, the first in `names` order; then ("csv", line,
    message) if csv.reader stops.  A repeated name reads its last column."""
    reader = csv.reader(io.StringIO(text))
    fields = next(reader, [])
    at = {name: j for j, name in enumerate(fields)}
    events = []
    try:
        for row in reader:
            if not row:
                continue
            values, messages = [], []
            for name in names:
                cell = row[at[name]] if name in at and at[name] < len(row) else None
                if name not in at or (name in optional and not cell):
                    values.append(math.nan)
                    continue
                try:
                    values.append(float(cell))
                except (ValueError, TypeError) as exc:
                    messages.append(str(exc))
            events.append(("bad", reader.line_num, PREFIX + messages[0]) if messages
                          else ("row", values))
    except csv.Error as exc:
        events.append(("csv", reader.line_num, str(exc)))
    return events


def bits(columns, width):
    """The columns as lists of their float64 bit patterns."""
    return np.array(columns, dtype=float).reshape(width, -1).view(np.int64).tolist()


def joined(parts, width):
    """The chunks of files.collect as `width` columns."""
    return tuple(map(np.hstack, zip([()] * width, *parts)))


def expected(text, lenient, names=NAMES, optional=OPTIONAL):
    """(column bits, diagnostics, raised RowError) that files.collect should give."""
    rows, diagnostics = [], []
    for event in oracle(text, names, optional):
        if event[0] == "row":
            rows.append(event[1])
        elif event[0] == "bad" and lenient:
            diagnostics.append(f"line {event[1]}: {event[2]}")
        else:
            return None, diagnostics, f"line {event[1]}: {event[2]}"
    return bits(list(zip(*rows)), len(names)), diagnostics, None


def read(text, lenient, names=NAMES, optional=OPTIONAL):
    """(column bits, diagnostics, raised RowError) of files.collect over
    float_columns, as acquisition.read_samples calls it, its chunks joined."""
    diagnostics = [] if lenient else None
    try:
        with files.read_csv(io.StringIO(text)) as (_, chunks):
            columns = joined(files.collect(
                chunks, lambda cells, n, start: files.float_columns(
                    cells, n, names, PREFIX, optional), diagnostics), len(names))
    except RowError as exc:
        return None, list(map(str, diagnostics or ())), str(exc)
    return bits(columns, len(names)), list(map(str, diagnostics or ())), None


def check(text, chunk_rows=(1, 2, files.CHUNK_ROWS), names=NAMES, optional=OPTIONAL):
    for rows in chunk_rows:
        with mock.patch.object(files, "CHUNK_ROWS", rows):
            for lenient in (False, True):
                assert read(text, lenient, names, optional) == \
                    expected(text, lenient, names, optional), (text, rows, lenient)


@pytest.mark.parametrize("column", ["v_volts", "lux"])
def test_every_ascii_character_around_a_number(column):
    # \x1c-\x1f are whitespace to np.loadtxt but not to float() of an ASCII
    # string; a comma, quote, CR, LF or NUL changes the record, and the
    # oracle's csv.reader splits it the same way.
    for code in range(128):
        for cell in (chr(code) + "1.5", "1" + chr(code) + ".5", "1.5" + chr(code)):
            cells = dict(zip(NAMES, ("0", "2", "3", "4")), **{column: cell})
            check("t_ms,v_volts,i_amps,lux\n" + ",".join(cells.values()) + "\n5,6,7,8\n",
                  chunk_rows=(files.CHUNK_ROWS,))


CELLS = st.one_of(st.floats().map(repr), st.integers(-10**20, 10**20).map(str),
                  st.sampled_from(["1_0", "١٢", "１２", " ", "", " 2 ", "nan",
                                   "-Infinity", "1e309", "-0", "x", "0x10", "\x1c1", "1\x1f"]))
HEADERS = st.sampled_from(["t_ms,v_volts,i_amps,lux", "v_volts,i_amps", "lux,i_amps,v_volts",
                           "t_ms,v_volts,i_amps,p_watts,lux", "v_volts,t_ms,v_volts,lux",
                           "lux", "v_volts"])


@st.composite
def tables(draw):
    """A header and records of its width, made of CELLS; some records are
    short, and the last line may lack its newline."""
    header = draw(HEADERS)
    width = header.count(",") + 1
    records = draw(st.lists(st.lists(CELLS, min_size=1, max_size=width).filter(
        lambda row: len(row) == width or draw(st.booleans())).map(",".join), max_size=8))
    return "\n".join([header, *records]) + draw(st.sampled_from(["\n", ""]))


@given(tables())
@example("t_ms,v_volts,i_amps,lux\n0,1_0,١٢,\n1,nan,-Infinity,1e309\n")
@example("v_volts,i_amps\n \n")
@settings(max_examples=300, deadline=None)
def test_random_cells_match_float(text):
    check(text)


@pytest.mark.parametrize("text", [
    "t_ms,v_volts,i_amps,v_volts\n0,1,2,3\n1,4,5,6\n",  # a repeated name reads its last column
    "v_volts\n1\n  \n2\n",  # a whitespace-only line in a one-column file
    "v_volts\n\t\n",
    "t_ms,v_volts,i_amps,lux\n0,1,2,3\n1,4,5,6",  # no newline after the last line
    "t_ms,v_volts,i_amps,lux\n0,1,2,\n1,4,5,\n",  # an empty lux column
    "t_ms,v_volts,i_amps\n0,1,2\n1,4,5\n",  # no lux column
    "v_volts,i_amps,lux\n1,2,3\n",  # no t_ms column
])
def test_edge_chunks_match_float(text):
    check(text)


@st.composite
def ragged_tables(draw):
    """A header and quote-free records of one cell up to two more than the
    header's width, none blank: plain chunks, most of them ragged."""
    header = draw(HEADERS)
    width = header.count(",") + 1
    records = draw(st.lists(st.lists(CELLS, min_size=1, max_size=width + 2).filter(
        lambda row: row != [""]).map(",".join), max_size=8))
    return "\n".join([header, *records]) + draw(st.sampled_from(["\n", ""]))


@given(ragged_tables())
@example("t_ms,v_volts,i_amps,lux\n0,1,2,3,\n1,4,5\n2,6\n3,7,8,,9\n")
@settings(max_examples=300, deadline=None)
def test_ragged_plain_chunks_match_float(text):
    check(text)


@pytest.mark.parametrize("text", [
    "t_ms,v_volts,i_amps,lux\n0,1,2,3,4\n1,4,5,6,x,y\n",  # longer than the header
    "t_ms,v_volts,i_amps,lux\n0,1,2,3\n1,4,5\n2,6,7,8\n",  # short of lux only
    "t_ms,v_volts,i_amps,lux\n0,1,2,3\n1,4\n2,6,7,8\n",  # short of a required column
    "t_ms,v_volts,i_amps,lux\n0,1,2,3,\n1,4,5\n2\n3,7,8,9,10,11\n4,,5,6",  # all of them
    "v_volts,i_amps\n1\n2,3,4\n 5 \n",
    "v_volts,i_amps\n1,2\n3,\n4,",  # an empty required last cell is an error, not NaN
    "lux,i_amps,v_volts\n1,2,\n",
])
def test_ragged_chunks_and_empty_last_cells_match_float(text):
    check(text)


def test_a_ragged_chunk_the_c_reader_accepts_is_not_split():
    text = "v_volts,i_amps,lux\n1.5,2,3,9\n-0,1e309,4,x,\n2,3,nan,\n"
    with files.read_csv(io.StringIO(text)) as (_, chunks), \
            mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        ((lines, cells),) = chunks
        columns, errors = files.float_columns(cells, len(lines), NAMES, PREFIX, OPTIONAL)
        assert "data" not in vars(cells) and loadtxt.call_count == 1
    assert errors == [{}] * 4
    assert bits(columns, 4) == bits([[math.nan] * 3, [1.5, -0.0, 2.0], [2.0, math.inf, 3.0],
                                     [3.0, 4.0, math.nan]], 4)


def columns_without_cells(text, chunk_rows):
    """float_columns over every chunk of text with files.floats, the cell
    path, made to fail: the columns as bits, each read by np.loadtxt."""
    with mock.patch.object(files, "CHUNK_ROWS", chunk_rows), \
            mock.patch.object(files, "floats", side_effect=AssertionError("cell path")), \
            files.read_csv(io.StringIO(text)) as (_, chunks):
        return bits(joined(files.collect(chunks, lambda cells, n, start: files.float_columns(
            cells, n, NAMES, PREFIX, OPTIONAL)), 4), 4)


@pytest.mark.parametrize("ending", ["\n", ""])
def test_empty_last_lux_cells_read_nan_in_the_c_reader(ending):
    text = "t_ms,v_volts,i_amps,lux\n0,1,2,\n1,3,4,5\n2,6,7,\n3,8,9," + ending
    want = bits([[0, 1, 2, 3], [1, 3, 6, 8], [2, 4, 7, 9], [math.nan, 5, math.nan, math.nan]], 4)
    for rows in (1, 2, 3, files.CHUNK_ROWS):
        assert columns_without_cells(text, rows) == want
    check(text)


def test_the_c_reader_gets_no_converter():
    text = "t_ms,v_volts,i_amps,lux\n0,1,2,\n1,3,4,5\n"
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        assert read(text, False) == expected(text, False)
    assert loadtxt.call_count == 1 and "converters" not in loadtxt.call_args.kwargs


@pytest.mark.parametrize("header", ["lux,t_ms,v_volts,i_amps", "t_ms,lux,v_volts,i_amps",
                                    "t_ms,v_volts,i_amps,lux,p_watts"])
def test_an_empty_lux_cell_not_last_goes_cell_by_cell(header):
    width = header.count(",") + 1
    at = header.split(",").index("lux")
    rows = [[str(k + j) for j in range(width)] for k in range(3)]
    rows[1][at] = ""
    text = "\n".join([header, *map(",".join, rows)]) + "\n"
    with mock.patch.object(files, "floats", wraps=files.floats) as floats:
        check(text)
    assert floats.called


@pytest.mark.parametrize("cell", [" ", "\t", "  "])
@pytest.mark.parametrize("ending", ["\n", ""])
def test_a_whitespace_only_lux_cell_fails_as_float_fails(cell, ending):
    text = f"t_ms,v_volts,i_amps,lux\n0,1,2,3\n1,4,5,{cell}\n2,6,7,{cell}" + ending
    check(text)
    assert read(text, True)[1] == [f"line {k}: {PREFIX}{float_message(cell)}" for k in (3, 4)]


@pytest.mark.parametrize("loadtxt", [mock.Mock(side_effect=ValueError("rejected")),
                                     mock.Mock(return_value=np.zeros((0, 4)))])
def test_a_chunk_the_c_reader_rejects_goes_cell_by_cell(loadtxt):
    # Whether loadtxt raises or returns other than one row per line, the
    # chunk's values and errors are those of float().
    text = "t_ms,v_volts,i_amps,lux\n0,1.5,2,\n1,x,3,4\n2,2.5,y,5\n"
    with mock.patch.object(np, "loadtxt", loadtxt):
        check(text)
    assert loadtxt.called


def test_plain_chunks_take_the_c_reader_without_splitting_cells():
    with files.read_csv(io.StringIO("v_volts,i_amps,lux\n1.5,2,\n-0,1e309,4\n")) as (_, chunks):
        ((lines, cells),) = chunks
        columns, errors = files.float_columns(cells, len(lines), NAMES, PREFIX, OPTIONAL)
        assert "data" not in vars(cells)  # the cells were not split
        assert cells["lux"] == ("", "4") and "data" in vars(cells)
    assert errors == [{}] * 4
    assert bits(columns, 4) == bits([[math.nan] * 2, [1.5, -0.0], [2.0, math.inf],
                                     [math.nan, 4.0]], 4)


def test_raw_frames_never_take_the_c_reader():
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        raw = replay_samples(io.StringIO("t_ms,raw_hv,raw_shunt\n0,1,2\n1,3,4\n"))
        assert (len(raw), loadtxt.call_count) == (2, 0)
        engineering = replay_samples(io.StringIO("t_ms,v_volts,i_amps\n0,1,2\n1,3,4\n"))
        assert (len(engineering), loadtxt.call_count) == (2, 1)


# ------------------------------------------------ through the command line

def float_message(cell):
    try:
        float(cell)
    except ValueError as exc:
        return str(exc)
    raise AssertionError(f"float() accepts {cell!r}")


def run_text(cell):
    """A run whose v_volts cell on line 12 is `cell` (10 there gives a fit)."""
    power = CalibrationCurve(*POWER_COEFFS, input_kind=InputKind.PLASMA_POWER)
    rows = ["t_ms,v_volts,i_amps,lux", "0,0,0,", "1,0,0,", "2,0,0,"]
    for k in range(30):
        p = 5.0 * 8.0 ** (k / 29)
        rows.append(f"{3 + k},{cell if k == 7 else repr(p / 0.02)},0.02,"
                    f"{lux_from_input(power, p)!r}")
    return "\n".join(rows) + "\n"


def samples_text(cell):
    """`cal fit` samples whose input cell on line 12 is `cell`."""
    curve = CalibrationCurve(*VOLTAGE_COEFFS)
    xs = np.geomspace(1.0, 59.6456944009405, 40).tolist()
    return "input,lux\n" + "".join(f"{cell if k == 10 else repr(x)},{lux_from_input(curve, x)!r}\n"
                                   for k, x in enumerate(xs))


def run_cli(capsys, tmp_path, command, text):
    path = tmp_path / "in.csv"
    path.write_text(text, encoding="utf-8")
    code = main([*command, "--in", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


COMMANDS = [(["characterize", "--trim"], run_text), (["cal", "fit"], samples_text)]


@pytest.mark.parametrize("command, text", COMMANDS)
@pytest.mark.parametrize("cell", ["\x1c1.5", "1.5\x1f", " \x1d1.5"])
def test_a_cell_only_the_c_reader_accepts_exits_1(capsys, tmp_path, command, text, cell):
    assert run_cli(capsys, tmp_path, command, text(cell)) == (
        1, "", f"error: line 12: {float_message(cell)}\n")


@pytest.mark.parametrize("command, text", COMMANDS)
@pytest.mark.parametrize("cell, same", [("1_0", "10"), ("１２", "12"),
                                        ("١٢", "12")])
def test_a_cell_only_float_accepts_reads_as_float_reads_it(capsys, tmp_path, command, text,
                                                           cell, same):
    got = run_cli(capsys, tmp_path, command, text(cell))
    assert got == run_cli(capsys, tmp_path, command, text(same))
    assert got[0] == 0
