"""`acq replay` streams: it converts and writes one files.CHUNK_ROWS chunk at
a time, so its memory does not grow with the frame count.

A run at any chunk size gives the bytes, messages and exit code of a run
that reads the whole input as one chunk, wherever the bad rows, blank lines
and quoted fields fall.  An error after the first chunks leaves an --out
target as it was; on stdout it leaves the rows written before it.  The
output is opened before the input is read.
"""

import codecs
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import plasmakit
from plasmakit import CalibrationCurve, files
from plasmakit.calibration import curve_to_dict
from plasmakit.cli import main

from conftest import VOLTAGE_COEFFS

SRC = Path(plasmakit.__file__).resolve().parent.parent
UNREADABLE = "1" * 140_000  # a field over csv.field_size_limit(): the reader stops here


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def frame_rows(kind):
    """40 records with bad rows at lines 7-9 and 16-22 (a chunk of 7 that all
    fail), two blank lines and two quoted records of two lines each, one
    good and one bad."""
    if kind == "engineering":
        header = "t_ms,v_volts,i_amps,lux"
        rows = [f"{k},{400 + k}.5,0.0{k + 10},{100 + k if k % 4 else ''}" for k in range(40)]
        bad = ["x,1,2,3", "1,inf,2,3", "2,1,2,-inf"]
        quoted = ['"30\n",430.5,0.04,130', '"3\n1",431.5,0.04,131']
    else:
        ldr = kind == "raw with raw_ldr"
        header = "t_ms,raw_hv,raw_shunt" + ",raw_ldr" * ldr
        rows = [f"{k * 0.25!r},{600 + k},{2500 + k}" + f",{(100 + k) * (k % 5 > 0)}" * ldr
                for k in range(40)]
        bad = ["x,652,2596" + ",100" * ldr, "1.0,9999,2596" + ",100" * ldr,
               "1.25,652,-1" + ",100" * ldr]
        quoted = ['"30\n",630,2530' + ",130" * ldr, '"3\n1",631,2531' + ",131" * ldr]
    rows[5:8] = bad
    rows[14:21] = (bad * 3)[:7]
    rows[25:25] = ["", ""]
    rows[30:32] = quoted
    return header, rows


KINDS = ["raw with raw_ldr", "raw without raw_ldr", "engineering"]


def write_input(tmp_path, kind, unreadable):
    header, rows = frame_rows(kind)
    if unreadable:
        rows.insert(36, UNREADABLE)
    path = tmp_path / "frames.csv"
    path.write_text("\n".join([header, *rows]) + "\n")
    return path


def replay_argv(tmp_path, kind, path, strict):
    argv = ["acq", "replay", "--in", str(path), *(["--strict"] * strict)]
    if kind == "raw with raw_ldr":
        curve = tmp_path / "curve.json"
        curve.write_text(json.dumps(curve_to_dict(CalibrationCurve(*VOLTAGE_COEFFS))))
        argv += ["--curve", str(curve)]
    return argv


def outcome(capsys, argv, out):
    """(exit code, stdout, stderr, bytes of `out` or None) of one run."""
    if out.exists():
        out.unlink()
    code, stdout, stderr = run(capsys, *argv, "--out", str(out))
    return code, stdout, stderr, out.read_bytes() if out.exists() else None


@pytest.mark.parametrize("strict", [False, True], ids=["lenient", "strict"])
@pytest.mark.parametrize("unreadable", [False, True], ids=["", "unreadable"])
@pytest.mark.parametrize("kind", KINDS)
def test_any_chunk_size_gives_the_whole_file_run(capsys, tmp_path, kind, unreadable, strict):
    # Each input fits in one chunk of the default size: that run reads the whole file at once.
    argv = replay_argv(tmp_path, kind, write_input(tmp_path, kind, unreadable), strict)
    out = tmp_path / "out.csv"
    whole = outcome(capsys, argv, out)
    to_stdout = run(capsys, *argv)
    assert whole[0] == (1 if unreadable or strict else 0)
    if whole[0] == 0:
        assert whole[3].count(b"\n") == 30  # the header and 29 good records
        assert b"\n\n" not in whole[3] and to_stdout[1].encode() == whole[3]
    for rows in (1, 2, 3, 7):
        with mock.patch.object(files, "CHUNK_ROWS", rows):
            assert outcome(capsys, argv, out) == whole, rows
            if whole[0] == 0:  # a failing run's stdout keeps the chunks written before the error
                assert run(capsys, *argv) == to_stdout, rows


def late_error_input(tmp_path):
    """20 frames with a bad one at line 12, in the third chunk of 4 records."""
    rows = [f"{k},652,2596" for k in range(20)]
    rows[10] = "10,x,2596"
    path = tmp_path / "frames.csv"
    path.write_text("\n".join(["t_ms,raw_hv,raw_shunt", *rows]) + "\n")
    return path, "error: line 12: bad raw frame: invalid literal for int() with base 10: 'x'\n"


def test_a_late_error_leaves_the_target_and_its_directory_as_they_were(capsys, tmp_path):
    path, message = late_error_input(tmp_path)
    out = tmp_path / "out" / "samples.csv"
    out.parent.mkdir()
    out.write_text("old\n")
    with mock.patch.object(files, "CHUNK_ROWS", 4):
        assert run(capsys, "acq", "replay", "--strict", "--in", str(path),
                   "--out", str(out)) == (1, "", message)
    assert os.listdir(out.parent) == ["samples.csv"] and out.read_text() == "old\n"


def test_a_late_error_on_stdout_leaves_the_rows_written_before_it(capsys, tmp_path):
    # the first chunk is written once the second is read; the third fails
    path, message = late_error_input(tmp_path)
    code, whole, _ = run(capsys, "acq", "replay", "--in", str(path))
    with mock.patch.object(files, "CHUNK_ROWS", 4):
        assert run(capsys, "acq", "replay", "--strict", "--in", str(path)) == \
            (1, "".join(whole.splitlines(keepends=True)[:5]), message)


class FailingStdin(io.RawIOBase):
    """Bytes of frames, then an OSError with an errno and no file name."""

    name = "<stdin>"

    def __init__(self, data: bytes):
        self.data = data

    def readable(self):
        return True

    def readinto(self, buffer):
        if not self.data:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        n = min(len(buffer), len(self.data))
        buffer[:n], self.data = self.data[:n], self.data[n:]
        return n


def test_an_input_error_inside_the_output_names_the_input(capsys, monkeypatch, tmp_path):
    out = tmp_path / "samples.csv"
    out.write_text("old\n")
    frames = b"t_ms,raw_hv,raw_shunt\n" + b"".join(b"%d,652,2596\n" % k for k in range(20))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BufferedReader(FailingStdin(frames))))
    with mock.patch.object(files, "CHUNK_ROWS", 4):
        assert run(capsys, "acq", "replay", "--in", "-", "--out", str(out)) == \
            (1, "", "error: [Errno 5] Input/output error: '<stdin>'\n")
    assert os.listdir(tmp_path) == ["samples.csv"] and out.read_text() == "old\n"


@pytest.mark.parametrize("given", ["frames.csv", "missing.csv"])
def test_an_output_that_cannot_be_opened_fails_before_any_reading(capsys, tmp_path, given):
    # no warning for the bad row, and the output's error before the missing input's
    path, _ = late_error_input(tmp_path)
    out = tmp_path / "no-such-dir" / "samples.csv"
    assert run(capsys, "acq", "replay", "--in", str(tmp_path / given), "--out", str(out)) == \
        (1, "", f"error: [Errno 2] No such file or directory: '{out}'\n")


def test_stdin_is_read_as_a_path_is(capsys, monkeypatch, tmp_path):
    """`--in -` for each command that reads a CSV: the bytes of `--in FILE`,
    a byte order mark skipped, and of a sys.stdin of text alone (no buffer,
    as io.StringIO has); a file named - is ./-."""
    inputs = {("acq", "replay"): "t_ms,raw_hv,raw_shunt\n0,652,2596\nx,1,1\n1,0,1551\n",
              ("characterize",): "t_ms,v_volts,i_amps,lux\n" + "".join(
                  f"{k},{500 + k},{0.02 + k / 1000},{40 + 3 * k}\n" for k in range(30)),
              ("cal", "fit"): "input,lux\n" + "".join(
                  f"{1 + k / 10},{3 + k + k * k / 10}\n" for k in range(10))}
    monkeypatch.chdir(tmp_path)
    for command, text in inputs.items():
        (tmp_path / "-").write_text(text)
        want = run(capsys, *command, "--in", "./-")
        assert want[0] == 0, want
        (tmp_path / "-").unlink()
        for stdin in (io.TextIOWrapper(io.BytesIO(codecs.BOM_UTF8 + text.encode())),
                      io.StringIO(text)):
            monkeypatch.setattr(sys, "stdin", stdin)
            assert run(capsys, *command, "--in", "-") == want, (command, stdin)


def seeded_frames(path: Path, copies: int) -> None:
    """10^5 seeded raw frames with raw_ldr, 0.1% of them bad, written `copies` times."""
    rng = np.random.default_rng(33)
    counts = rng.integers(0, 4096, (100_000, 3)).tolist()
    rows = [f"{k * 0.25!r},{hv},{shunt},{ldr}\n" for k, (hv, shunt, ldr) in enumerate(counts)]
    for k in rng.choice(len(rows), 100, replace=False).tolist():
        rows[k] = f"{k},{4096 + k},0,0\n"
    body = "".join(rows)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t_ms,raw_hv,raw_shunt,raw_ldr\n")
        for _ in range(copies):
            fh.write(body)


def status() -> str:
    """This process's /proc/self/status, or "" where there is none."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            return fh.read()
    except OSError:
        return ""


PEAK = """import sys
from plasmakit.cli import main
code = main(sys.argv[1:])
with open("/proc/self/status", encoding="ascii") as fh:
    print(code, int(fh.read().split("VmHWM:")[1].split()[0]))
"""


def peak_kb(argv) -> tuple[int, int]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (
        str(SRC), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run([sys.executable, "-c", PEAK, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, kb = proc.stdout.split()[-2:]
    return int(code), int(kb)


@pytest.mark.skipif("VmHWM:" not in status(), reason="no VmHWM in /proc/self/status")
def test_ten_times_the_frames_peak_within_ten_percent(tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps(curve_to_dict(CalibrationCurve(*VOLTAGE_COEFFS))))
    peaks = []
    for copies in (1, 10):
        frames = tmp_path / f"frames-{copies}.csv"
        seeded_frames(frames, copies)
        peaks.append(peak_kb(["acq", "replay", "--in", str(frames), "--out", os.devnull,
                              "--curve", str(curve)]))
        frames.unlink()
    (small_code, small), (large_code, large) = peaks
    assert small_code == large_code == 0
    assert large <= 1.1 * small, peaks


class Flushes(io.StringIO):
    """A stdout that records how much it holds at each flush."""

    def __init__(self):
        super().__init__()
        self.lines = []

    def flush(self):
        self.lines.append(self.getvalue().count("\n"))


def test_replay_to_stdout_flushes_each_chunk(monkeypatch, tmp_path):
    path, _ = late_error_input(tmp_path)
    path.write_text(path.read_text().replace("10,x,", "10,652,"))
    monkeypatch.setattr(sys, "stdout", Flushes())
    with mock.patch.object(files, "CHUNK_ROWS", 8):
        assert main(["acq", "replay", "--in", str(path)]) == 0
    assert sys.stdout.lines[:3] == [9, 17, 21]  # the header and chunks of 8, 8 and 4 rows
