"""Every writer goes through files.atomic_write: files.write_texts, a run
saved with write_samples_csv, and each CLI output file.  Each must give a new file the
mode open() gives, keep an existing file's mode, write through a symlink to
its target, write a FIFO in place, and leave the old file and no temp file
when the final rename fails.  An error that names no file names the output's path.
Two outputs of one write_texts call that name one file are an error."""

import csv
import errno
import io
import json
import math
import os
import stat
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasmakit import (CalibrationCurve, InputKind, files, load_run, lux_from_input,
                       read_samples_csv)
from plasmakit.acquisition import write_samples_csv
from plasmakit.calibration import curve_to_dict
from plasmakit.cli import main
from plasmakit.errors import PlasmaKitError, RowError

from conftest import POWER_COEFFS, VOLTAGE_COEFFS, replay_samples

NETWORK = ["--n", "5", "--r1", "10e6", "--c1", "15e-12", "--r0", "52.8e3", "--c0", "3e-9",
           "--points", "20"]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("inputs")
    power = CalibrationCurve(*POWER_COEFFS, input_kind=InputKind.PLASMA_POWER)
    rows = ["t_ms,v_volts,i_amps,lux", "0,0,0,", "1,0,0,", "2,0,0,"]
    for k in range(30):
        p = 5.0 * 8.0 ** (k / 29)
        rows.append(f"{3 + k},{p / 0.02},0.02,{lux_from_input(power, p)}")
    (root / "run.csv").write_text("\n".join(rows) + "\n")
    voltage = CalibrationCurve(*VOLTAGE_COEFFS)
    (root / "samples.csv").write_text("input,lux\n" + "".join(
        f"{x},{lux_from_input(voltage, x)}\n" for x in (0.5, 1.0, 2.0, 4.0, 8.0)))
    (root / "frames.csv").write_text("t_ms,raw_hv,raw_shunt\n0,652,2596\n1,700,2600\n")
    return root


def cli(*argv):
    if main(list(argv)) != 0:
        raise OSError(f"plasmakit {' '.join(argv)} failed")


def save_run(path, inputs):
    """Save a run's samples as `acq replay --out` does: write_samples_csv
    through atomic_write."""
    with files.atomic_write(path) as fh:
        write_samples_csv([load_run(str(inputs / "run.csv")).samples], fh)


# name -> (suffix, write(path, inputs))
WRITERS = {
    "files.write_texts": (".json", lambda path, d: files.write_texts(
        (path, json.dumps(curve_to_dict(CalibrationCurve(*VOLTAGE_COEFFS)))))),
    "save_run": (".csv", save_run),
    "acq replay --out": (".csv", lambda path, d: cli(
        "acq", "replay", "--in", str(d / "frames.csv"), "--out", path)),
    "probe bode --out csv": (".csv", lambda path, d: cli("probe", "bode", *NETWORK, "--out", path)),
    "probe bode --out svg": (".svg", lambda path, d: cli("probe", "bode", *NETWORK, "--out", path)),
    "cal fit --out": (".json", lambda path, d: cli(
        "cal", "fit", "--in", str(d / "samples.csv"), "--out", path)),
    "cal fit --plot": (".svg", lambda path, d: cli(
        "cal", "fit", "--in", str(d / "samples.csv"), "--plot", path)),
    "characterize --out": (".json", lambda path, d: cli(
        "characterize", "--in", str(d / "run.csv"), "--out", path)),
    "characterize --plot": (".svg", lambda path, d: cli(
        "characterize", "--in", str(d / "run.csv"), "--plot", path)),
}


@pytest.fixture(params=sorted(WRITERS))
def writer(request, inputs, tmp_path):
    """(suffix, write(path)) of one writer, and the bytes it writes."""
    suffix, write = WRITERS[request.param]
    reference = tmp_path / "reference" / ("out" + suffix)
    reference.parent.mkdir()
    write(str(reference), inputs)
    return suffix, lambda path: write(str(path), inputs), reference.read_bytes()


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    yield
    os.umask(old)


def test_new_file_has_umask_mode(writer, tmp_path, umask_022):
    suffix, write, _ = writer
    path = tmp_path / ("out" + suffix)
    write(path)
    assert stat.S_IMODE(os.stat(path).st_mode) == 0o644


@pytest.mark.parametrize("mode", [0o600, 0o664], ids=oct)
def test_existing_file_keeps_its_mode(writer, tmp_path, umask_022, mode):
    suffix, write, want = writer
    path = tmp_path / ("out" + suffix)
    path.write_text("old")
    path.chmod(mode)
    write(path)
    assert stat.S_IMODE(os.stat(path).st_mode) == mode
    assert path.read_bytes() == want


def test_symlink_is_followed(writer, tmp_path):
    suffix, write, want = writer
    target = tmp_path / ("target" + suffix)
    target.write_text("old")
    link = tmp_path / ("link" + suffix)
    link.symlink_to(target.name)
    write(link)
    assert link.is_symlink() and os.readlink(link) == target.name
    assert target.read_bytes() == want
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["reference", link.name,
                                                                 target.name])


def test_fifo_is_written_in_place(writer, tmp_path):
    suffix, write, want = writer
    fifo = tmp_path / ("fifo" + suffix)
    os.mkfifo(fifo)
    got = []

    def read():
        with open(fifo, "rb") as fh:
            got.append(fh.read())

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    write(fifo)
    reader.join(timeout=10)
    assert got == [want]
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)


def test_failed_rename_leaves_old_file_and_no_temp_file(writer, tmp_path, monkeypatch):
    # extends test_dataset's test_failed_rename_leaves_no_temp_file to every writer
    suffix, write, _ = writer
    path = tmp_path / ("out" + suffix)
    path.write_text("old")

    def fail(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(files.os, "replace", fail)
    with pytest.raises(OSError):
        write(path)
    assert path.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out" + suffix, "reference"]


# name -> argv writing `bad`, a path in a missing directory, and `good` where
# the command has a second output
MISSING_DIRECTORY = {
    "acq replay --out": lambda d, bad, good: [
        "acq", "replay", "--in", str(d / "frames.csv"), "--out", bad],
    "probe bode --out svg": lambda d, bad, good: ["probe", "bode", *NETWORK, "--out", bad],
    "cal fit --out": lambda d, bad, good: [
        "cal", "fit", "--in", str(d / "samples.csv"), "--out", bad, "--plot", good],
    "cal fit --plot": lambda d, bad, good: [
        "cal", "fit", "--in", str(d / "samples.csv"), "--out", good, "--plot", bad],
    "characterize --out": lambda d, bad, good: [
        "characterize", "--in", str(d / "run.csv"), "--out", bad, "--plot", good],
    "characterize --plot": lambda d, bad, good: [
        "characterize", "--in", str(d / "run.csv"), "--out", good, "--plot", bad],
}


@pytest.mark.parametrize("name", sorted(MISSING_DIRECTORY))
@pytest.mark.parametrize("good_exists", [False, True])
def test_an_output_that_cannot_be_created_writes_no_file(capsys, inputs, tmp_path, name,
                                                          good_exists):
    # every output's new file is made before any is renamed, and the error
    # names the path given, not the new file's
    bad, good = tmp_path / "nodir" / ("out" + name[-3:]), tmp_path / "good"
    if good_exists:
        good.write_text("old")
    assert main(MISSING_DIRECTORY[name](inputs, str(bad), str(good))) == 1
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: [Errno 2] No such file or directory: {str(bad)!r}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["good"] * good_exists
    assert not good_exists or good.read_text() == "old"


@pytest.mark.parametrize("outputs", [[("", "x")], [("", "x"), ("", "y")]], ids=["one", "twice"])
def test_an_empty_path_is_a_missing_file(tmp_path, monkeypatch, outputs):
    # realpath("") is the working directory: the new file must not be made beside it
    (tmp_path / "sub").mkdir()
    monkeypatch.chdir(tmp_path / "sub")
    with pytest.raises(FileNotFoundError) as exc:
        files.write_texts(*outputs)
    assert str(exc.value) == "[Errno 2] No such file or directory: ''"
    assert [p.name for p in tmp_path.iterdir()] == ["sub"]
    assert list((tmp_path / "sub").iterdir()) == []


@pytest.mark.parametrize("spelling", ["relative", "symlink"])
def test_an_error_naming_no_file_names_the_path_given(tmp_path, monkeypatch, spelling):
    # as open() names the path it cannot open: a full disk or a reader gone names the output
    monkeypatch.chdir(tmp_path)
    (tmp_path / "target.json").write_text("old")
    path = {"relative": "target.json", "symlink": "link.json"}[spelling]
    if spelling == "symlink":
        (tmp_path / path).symlink_to("target.json")
    with pytest.raises(OSError) as exc:
        with files.atomic_write(path) as fh:
            fh.write("new")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    assert (exc.value.errno, exc.value.filename) == (errno.ENOSPC, path)
    assert str(exc.value) == f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}: {path!r}"
    assert (tmp_path / "target.json").read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted({"target.json", path})


@pytest.mark.parametrize("error", [
    OSError(errno.EACCES, os.strerror(errno.EACCES), "elsewhere"),
    OSError("no errno, no file"),
    ValueError("not an OSError")], ids=["named", "message only", "ValueError"])
def test_other_errors_pass_through_unchanged(tmp_path, error):
    path, text = tmp_path / "out.json", str(error)
    path.write_text("old")
    with pytest.raises(type(error)) as exc:
        with files.atomic_write(path):
            raise error
    assert exc.value is error and str(error) == text
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("exists", [False, True])
@pytest.mark.parametrize("second", ["target", "./target", "link"])
def test_two_outputs_naming_one_file_write_nothing(tmp_path, monkeypatch, second, exists):
    # the second output would replace the first: an error, raised before any rename
    monkeypatch.chdir(tmp_path)
    if exists:
        (tmp_path / "target").write_text("old")
    if second == "link":
        (tmp_path / "link").symlink_to("target")
    with pytest.raises(PlasmaKitError) as exc:
        files.write_texts(("target", "a"), None, (second, "b"))
    assert str(exc.value) == f"{second}: two outputs name this one file"
    assert sorted(p.name for p in tmp_path.iterdir()) == (
        ["link"] * (second == "link") + ["target"] * exists)
    assert not exists or (tmp_path / "target").read_text() == "old"


@pytest.mark.parametrize("spelling", ["same", "./"])
@pytest.mark.parametrize("command", ["cal fit", "characterize"])
def test_out_and_plot_naming_one_file_exit_1(capsys, inputs, tmp_path, monkeypatch, command,
                                             spelling):
    monkeypatch.chdir(tmp_path)
    src = inputs / ("samples.csv" if command == "cal fit" else "run.csv")
    plot = {"same": "both", "./": "./both"}[spelling]
    assert main([*command.split(), "--in", str(src), "--out", "both", "--plot", plot]) == 1
    assert capsys.readouterr() == ("", f"error: {plot}: two outputs name this one file\n")
    assert list(tmp_path.iterdir()) == []


def test_read_csv_takes_a_path_or_a_stream(tmp_path):
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1,2\n\n3\n")
    with files.read_csv(str(path)) as (fields, chunks):
        from_path = fields, list(chunks)
    with open(path, encoding="utf-8") as fh, files.read_csv(fh) as (fields, chunks):
        assert (fields, list(chunks)) == from_path == (
            ("a", "b"), [([2, 4], {"a": ("1", "3"), "b": ("2", None)})])
    values, errors = files.floats(("1.5", "", "x"), 3, "bad: ", optional=True)
    assert values[0] == 1.5 and math.isnan(values[1])
    assert errors == {2: "bad: could not convert string to float: 'x'"}



def per_cell_parse(cells, optional=False):
    """The reprs of float() of each cell (NaN where it fails) and the errors."""
    values, errors = [], {}
    for k, cell in enumerate(cells):
        try:
            values.append(float(cell or "nan") if optional else float(cell))
        except (ValueError, TypeError) as exc:
            values.append(math.nan)
            errors[k] = f"bad: {exc}"
    return [repr(v) for v in values], errors


@given(st.lists(st.one_of(st.floats().map(repr), st.none(),
                          st.sampled_from(("x", "", " ", "1_0", " 2 ", "-nan", "0x10"))),
                max_size=30),
       st.booleans())
@example(["x", "1", "y", "z", "2", None], False)  # bad first, adjacent and last cells
@settings(max_examples=200, deadline=None)
def test_floats_matches_a_per_cell_parse(cells, optional):
    values, errors = files.floats(tuple(cells), len(cells), "bad: ", optional)
    assert ([repr(v) for v in values.tolist()], errors) == per_cell_parse(cells, optional)


def test_floats_walks_its_cells_once():
    class Walked(tuple):
        walks = 0

        def __iter__(self):
            self.walks += 1
            return super().__iter__()

    cells = Walked(("1.5", "-2e3", "x", "nan", "4"))
    values, errors = files.floats(cells, len(cells), "bad: ")
    assert cells.walks == 1
    assert ([repr(v) for v in values.tolist()], errors) == per_cell_parse(cells)

# ---------------------------------------------------------------- reader line numbers
# read_csv numbers each record by the physical line it ends on.  The
# reference is a per-record csv.reader loop over the same source, which reads
# line_num after each record; a repeated name reads its last column, and a
# csv.Error is expected as a RowError on that line.

def reference_records(fh):
    reader = csv.reader(fh)
    try:
        fields = next(reader, [])
        last = [max(j for j, name in enumerate(fields) if name == f) for f in fields]
        return [(reader.line_num, tuple((row + [None] * len(fields))[j] for j in last))
                for row in reader if row]
    except csv.Error as exc:
        return f"line {reader.line_num}: {exc}"


def read_records(source):
    try:
        with files.read_csv(source) as (fields, chunks):
            return [(line, tuple(cells[f][k] for f in fields))
                    for lines, cells in chunks for k, line in enumerate(lines)]
    except RowError as exc:
        return str(exc)


# Raw cell texts: plain, empty, whitespace-only, NUL (which csv rejects before
# Python 3.11), characters str.splitlines() would split at, and quoted fields
# holding a quote, a LF, a CRLF or a lone CR, so that some records span
# several physical lines.
CELLS = st.sampled_from(["1", "2.5", "", "a b", " ", "\t", "n\0l", "\x85", "x\x1cy",
                         '"w""x"', '"q\nr"', '"s\r\nt"', '"u\rv"'])
RECORDS = st.lists(st.lists(CELLS, max_size=4).map(",".join), max_size=12)


def csv_text(header, records, ending, last_ending=True):
    text = "".join(line + ending for line in [header, *records])
    return text if last_ending else text[:-len(ending)]


def check_line_numbers(text):
    """The records and line numbers of read_csv on the text as a path
    (LF and CRLF), a StringIO and an open(newline="") stream."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        for chunk_rows in (1, 2, 3, files.CHUNK_ROWS):
            with mock.patch.object(files, "CHUNK_ROWS", chunk_rows):
                with open(path, encoding="utf-8") as fh:
                    assert read_records(path) == reference_records(fh)
                assert read_records(io.StringIO(text)) == reference_records(io.StringIO(text))
                with open(path, encoding="utf-8", newline="") as a, \
                        open(path, encoding="utf-8", newline="") as b:
                    assert read_records(a) == reference_records(b)


@given(st.sampled_from(["h1,h2", "h1", "h,h", '"h\n1",h2', '"h\r\n1","h\r2",h3']), RECORDS,
       st.sampled_from(["\n", "\r\n"]), st.booleans())
@example('"h\n1",h2', ["1,2", "", '"u\rv",3', "", "", '"q\nr","s\r\nt"', "4"], "\r\n", True)
@example("h1,h2", ["1,2", "3,4", "", "5", "6,7,8"], "\n", True)
@example("h1", ["1", "", "2", "", "", "3,4", " "], "\n", False)
@example("h1,h2", ["1,2", "n\0l,3", "4,5"], "\n", True)
@example("h1,h2", ["1,2", "3", "4,5,6", " ", "7,8"], "\n", False)  # ragged, plain
@settings(max_examples=300, deadline=None)
def test_read_csv_line_numbers_match_a_per_record_reader(header, records, ending, last_ending):
    check_line_numbers(csv_text(header, records, ending, last_ending))


def test_read_csv_field_limit_matches_a_per_record_reader():
    # Lines longer than the limit whose fields all fit, then one field over it.
    old = csv.field_size_limit(8)
    try:
        check_line_numbers("a,b\n1234,5678\n12345678,9\n1,2\n")
        check_line_numbers("a,b\n1,2\n3,4\n5,123456789\n6,7\n")
        check_line_numbers('a,b\n1,2\n"1234\n5678",3\n4,"123456789"\n')
    finally:
        csv.field_size_limit(old)


def rows_through_csv_reader(source):
    """read_records on source with CHUNK_ROWS 2, and the rows csv.reader yielded."""
    rows, reader = [], csv.reader

    class Recording:
        def __init__(self, lines):
            self.reader = reader(lines)

        def __iter__(self):
            return self

        def __next__(self):
            rows.append(next(self.reader))
            return rows[-1]

        @property
        def line_num(self):
            return self.reader.line_num

    with mock.patch.object(files, "CHUNK_ROWS", 2), mock.patch.object(csv, "reader", Recording):
        return read_records(source), rows


def test_plain_chunks_are_split_without_csv_reader(tmp_path):
    # One record per line and no quote, CR, NUL or blank line: only the
    # header goes through csv.reader.
    path = tmp_path / "in.csv"
    path.write_text("a,b\n" + "".join(f"{k},{2 * k}\n" for k in range(7)))
    records, rows = rows_through_csv_reader(str(path))
    assert records == [(k + 2, (str(k), str(2 * k))) for k in range(7)]
    assert rows == [["a", "b"]]


def test_ragged_plain_chunks_split_only_their_own_lines(tmp_path):
    # Records shorter or longer than the header, with no quote, CR, NUL or
    # blank line, are still one record per line: every chunk is plain and
    # numbered by a range.  csv.reader splits only a ragged chunk's own
    # lines, each once; the uniform chunk (lines 4-5) is split by stride.
    path = tmp_path / "in.csv"
    path.write_text("a,b\n1,2\n3\n4,5\n6,7\n8,9,10\n11,12\n13\n")
    records, rows = rows_through_csv_reader(str(path))
    assert records == [(2, ("1", "2")), (3, ("3", None)), (4, ("4", "5")), (5, ("6", "7")),
                       (6, ("8", "9")), (7, ("11", "12")), (8, ("13", None))]
    assert rows == [["a", "b"], ["1", "2"], ["3"], ["8", "9", "10"], ["11", "12"], ["13"]]
    with mock.patch.object(files, "CHUNK_ROWS", 2), files.read_csv(str(path)) as (_, chunks):
        assert all(isinstance(lines, range) for lines, _ in chunks)


def test_quoted_record_across_a_chunk_boundary_keeps_later_lines(tmp_path):
    # The record on lines 3-4 starts in the first two-line chunk and ends in
    # what would be the second; csv.reader reads on to close it, and the
    # chunks after it are plain again.
    path = tmp_path / "in.csv"
    path.write_text('a,b\n1,2\n"x\ny",3\n4,5\n6,7\n8,9\n')
    records, rows = rows_through_csv_reader(str(path))
    assert records == [(2, ("1", "2")), (4, ("x\ny", "3")), (5, ("4", "5")), (6, ("6", "7")),
                       (7, ("8", "9"))]
    assert rows == [["a", "b"], ["1", "2"], ["x\ny", "3"]]


def test_read_csv_numbers_a_lone_cr_as_the_stream_splits_it():
    # A StringIO splits lines at LF only.  A path, read with universal
    # newlines, and a newline="" stream also end a line at the lone CR inside
    # the quoted field, which holds no LF.
    text = 'a,b\n1,"x\ry"\n2,3\n'
    assert [line for line, _ in read_records(io.StringIO(text))] == [2, 3]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        assert [line for line, _ in read_records(path)] == [3, 4]
        with open(path, encoding="utf-8", newline="") as fh:
            assert [line for line, _ in read_records(fh)] == [3, 4]
        check_line_numbers(text)


# ---------------------------------------------------------------- leading blank lines
# A blank line holds no record, before the header too: a file read after
# leading blank lines is the file read without them, each line number moved
# by the count of blank lines.

def sample_columns(samples):
    return samples.t_ms, samples.v_volts, samples.i_amps, samples.lux


# read(source, diagnostics) -> columns; header, good rows, a bad row
BLANK_LINE_READS = {
    "replay lenient": (lambda src, d: sample_columns(replay_samples(src, diagnostics=d)),
                       "t_ms,raw_hv,raw_shunt", ["0,652,2596", "2,700,2600"], "x,700,2600"),
    "replay strict": (lambda src, d: sample_columns(replay_samples(src)),
                      "t_ms,raw_hv,raw_shunt", ["0,652,2596", "2,700,2600"], "x,700,2600"),
    "load_run": (lambda src, d: sample_columns(load_run(src).samples),
                 "t_ms,v_volts,i_amps,lux", ["0,500,0.02,3.5", "2,510,0.02,"], "1,abc,0.02,4"),
    "read_samples_csv": (lambda src, d: read_samples_csv(src),
                         "input,lux", ["1.0,2.0", "3.0,4.0"], "2.0,-1"),
}


def read_after_blanks(read, text, blanks):
    """read's columns (as reprs) and diagnostics for the text after `blanks`
    blank lines, or None and the RowError it raises; each line number less `blanks`."""
    diagnostics = []
    try:
        columns = [list(map(repr, c.tolist())) for c in read(io.StringIO("\n" * blanks + text),
                                                              diagnostics)]
    except RowError as exc:
        columns, diagnostics = None, [exc]
    return columns, [(e.line_number - blanks, str(e).split(": ", 1)[1]) for e in diagnostics]


@pytest.mark.parametrize("name", sorted(BLANK_LINE_READS))
@pytest.mark.parametrize("bad", [False, True])
@pytest.mark.parametrize("blanks", [1, 2])
def test_leading_blank_lines_read_as_without_them(name, bad, blanks):
    read, header, rows, bad_row = BLANK_LINE_READS[name]
    text = "\n".join([header, rows[0], *[bad_row] * bad, rows[1]]) + "\n"
    want = read_after_blanks(read, text, 0)
    assert len(want[1]) == bad and (want[0] is None) == (bad and name != "replay lenient")
    assert read_after_blanks(read, text, blanks) == want


@pytest.mark.parametrize("text", ["", "\n", "\n\n", "\r\n"])
def test_a_file_of_blank_lines_replays_as_empty(text):
    assert len(replay_samples(io.StringIO(text))) == 0
