"""Every writer goes through files.atomic_write: the library's save_* functions,
a run saved with write_samples_csv, and each CLI output file.  Each must give a new file the
mode open() gives, keep an existing file's mode, write through a symlink to
its target, write a FIFO in place, and leave the old file and no temp file
when the final rename fails."""

import csv
import io
import math
import os
import stat
import tempfile
import threading
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plasmakit import CalibrationCurve, InputKind, characterize, files, load_run, lux_from_input
from plasmakit.acquisition import write_samples_csv
from plasmakit.calibration import save_curve
from plasmakit.cli import main
from plasmakit.dataset import save_characterization
from plasmakit.errors import RowError

from conftest import POWER_COEFFS, VOLTAGE_COEFFS

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
        write_samples_csv(load_run(str(inputs / "run.csv")).samples, fh)


# name -> (suffix, write(path, inputs))
WRITERS = {
    "save_curve": (".json", lambda path, d: save_curve(CalibrationCurve(*VOLTAGE_COEFFS), path)),
    "save_run": (".csv", save_run),
    "save_characterization": (".json", lambda path, d: save_characterization(
        characterize(load_run(str(d / "run.csv"))), path)),
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
