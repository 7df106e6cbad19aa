"""Metamorphic relations over `acq replay` and `characterize`: how the output
must change when the input changes in a known way, with no expected value.

1. Lenient replay gives the strict replay of its input with the warned lines
   deleted.  This holds for frames, which carry t_ms; without it a row's time
   is its record index, which deleting rows moves.
2. Replay is idempotent on its own output.
5. Transport: CRLF line ends, a byte order mark through a path or through
   byte stdin, and a leading U+FEFF of a text-only stdin give the plain
   file's exit code, stdout and stderr.
And concatenation: replaying A followed by B's rows gives A's output
followed by B's rows, with B's warnings at their lines moved by A's.

The inputs are small seeded frames of the virtual rig (conftest.virtual_rig)
with malformed lines put in.  Every relation holds at the default chunk size
and with files.CHUNK_ROWS patched to 1, 3 and 7.
"""

import codecs
import io
import json
import re
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from typing import NamedTuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plasmakit import files
from plasmakit.cli import main

from conftest import VOLTAGE_COEFFS, virtual_rig

CHUNK_ROWS = [None, 1, 3, 7]  # None: the default
EXAMPLES = settings(max_examples=12, deadline=None)
BAD_LIGHT = (4096, -1, 99999)
# a record int() or float() rejects, an out-of-range count, a short record, a blank line
MALFORMED = ("{t},x,{s},{l}", "{t}ms,{h},{s},{l}", "{t},4096,{s},{l}", "{t},{h}", "")


class Run(NamedTuple):
    code: int
    out: str
    err: str


def cli(*argv, stdin=None) -> Run:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), (
            nullcontext() if stdin is None else mock.patch.object(sys, "stdin", stdin)):
        code = main(list(argv))
    return Run(code, out.getvalue(), err.getvalue())


def chunk_rows(rows):
    return nullcontext() if rows is None else mock.patch.object(files, "CHUNK_ROWS", rows)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("metamorphic")
    (root / "curve.json").write_text(json.dumps(dict(zip(("a0", "a1", "a2", "a3"),
                                                         VOLTAGE_COEFFS), kind="voltage")))
    return root


@st.composite
def frames(draw) -> list[str]:
    """The lines of a small virtual-rig frame CSV, its header first, with up
    to four lines replaced by MALFORMED ones."""
    rows = draw(st.integers(1, 30))
    pre_ignition = draw(st.integers(0, rows))
    bad_light = BAD_LIGHT[:draw(st.integers(0, min(len(BAD_LIGHT), rows - pre_ignition)))]
    lines = virtual_rig(rows, draw(st.integers(0, 2 ** 32 - 1)), pre_ignition,
                        bad_light)["text"].splitlines()
    for k, form in draw(st.dictionaries(st.integers(1, rows), st.sampled_from(MALFORMED),
                                        max_size=4)).items():
        t, h, s, l = lines[k].split(",")
        lines[k] = form.format(t=t, h=h, s=s, l=l)
    return lines


def replay(workdir, lines, *argv, curve=False) -> Run:
    path = workdir / "frames.csv"
    path.write_text("".join(line + "\n" for line in lines))
    return cli("acq", "replay", "--in", str(path), *argv,
               *(["--curve", str(workdir / "curve.json")] if curve else []))


@pytest.mark.parametrize("rows", CHUNK_ROWS)
@given(frames(), st.booleans())
@EXAMPLES
def test_lenient_is_strict_without_the_warned_lines(workdir, rows, lines, curve):
    with chunk_rows(rows):
        lenient = replay(workdir, lines, curve=curve)
        warned = {int(n) for n in re.findall(r"^warning: line (\d+): ", lenient.err, re.M)}
        assert lenient.code == 0 and len(warned) == lenient.err.count("\n")
        kept = [line for n, line in enumerate(lines, 1) if n not in warned]
        assert replay(workdir, kept, "--strict", curve=curve) == (0, lenient.out, "")


@pytest.mark.parametrize("rows", CHUNK_ROWS)
@given(frames(), st.booleans())
@EXAMPLES
def test_replay_is_idempotent_on_its_own_output(workdir, rows, lines, curve):
    with chunk_rows(rows):
        once = replay(workdir, lines, curve=curve)
        assert once.code == 0
        assert replay(workdir, once.out.splitlines()) == (0, once.out, "")


def transports(path, text):
    """The runs' --in values and stdins for text sent five ways: the plain
    file, CRLF line ends, a byte order mark through a path and through byte
    stdin, and a leading U+FEFF of a text-only stdin."""
    path.write_bytes(text.replace("\n", "\r\n").encode())
    yield str(path), None
    path.write_bytes(codecs.BOM_UTF8 + text.encode())
    yield str(path), None
    yield "-", io.TextIOWrapper(io.BytesIO(codecs.BOM_UTF8 + text.encode()))
    yield "-", io.StringIO("\ufeff" + text)


@pytest.mark.parametrize("rows", CHUNK_ROWS)
@given(frames())
@EXAMPLES
def test_transport_leaves_the_bytes(workdir, rows, lines):
    # replay of the frames with a curve, and characterize of that replay's output
    curve = ["--curve", str(workdir / "curve.json")]
    with chunk_rows(rows):
        samples = replay(workdir, lines, curve=True)
        for command, text in ((["acq", "replay", *curve], "".join(line + "\n" for line in lines)),
                              (["characterize"], samples.out)):
            path = workdir / "input.csv"
            path.write_text(text)
            plain = cli(*command, "--in", str(path))
            for source, stdin in transports(path, text):
                assert cli(*command, "--in", source, stdin=stdin) == plain, (command, source)


@pytest.mark.parametrize("rows", CHUNK_ROWS)
@given(frames(), frames(), st.booleans())
@EXAMPLES
def test_a_then_b_gives_a_then_b_rows(workdir, rows, a, b, curve):
    with chunk_rows(rows):
        a_run, b_run = (replay(workdir, lines, curve=curve) for lines in (a, b))
        both = replay(workdir, a + b[1:], curve=curve)
    moved = re.sub(r"^warning: line (\d+):", lambda m: f"warning: line {int(m[1]) + len(a) - 1}:",
                   b_run.err, flags=re.M)
    assert both == (0, a_run.out + b_run.out.split("\n", 1)[1], a_run.err + moved)
