"""Every file plasmakit reads or writes goes through this module: one
chunked CSV reader with its one row collector, one JSON loader, and one
atomic writer."""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import stat
from contextlib import contextmanager, nullcontext
from typing import Callable, Iterator, Optional, Sequence, TextIO

import numpy as np

from .errors import RowError, SchemaError

# Physical lines read at a time, and rows formatted at a time when writing:
# enough that the per-chunk NumPy calls cost little per row, few enough that
# a chunk's cells and strings stay a few megabytes.
CHUNK_ROWS = 8192

Cells = tuple  # one column of a chunk: str per record, None where a record is short
Errors = dict  # row in the chunk -> message


@contextmanager
def read_csv(source: TextIO | str | os.PathLike):
    """The header of a CSV file or stream and its records, CHUNK_ROWS lines at a time.

    Yields (fields, chunks).  Each chunk is (lines, cells): the physical
    line each record ends on, and for each header name the column of cells.
    As with csv.DictReader, blank lines hold no record, a short record's
    missing cells are None, a long record's extra cells are ignored, and a
    repeated name keeps its last column.  A path is read as UTF-8, after a
    byte order mark if there is one.  What the reader cannot read past
    raises in lenient mode too: bytes that are not UTF-8 as SchemaError, a
    csv.Error as RowError on its line, after the records before it.
    """
    opened = nullcontext(source) if hasattr(source, "read") else open(source, encoding="utf-8-sig")
    with opened as fh:
        reader = csv.reader(fh)
        try:
            fields = tuple(next(reader, ()))
            yield fields, _chunks(fh, fields, reader.line_num)
        except UnicodeDecodeError as exc:
            raise SchemaError("input is not UTF-8 text: cannot decode "
                              f"{exc.object[exc.start:exc.end]!r}") from exc
        except csv.Error as exc:
            raise RowError(reader.line_num, str(exc)) from exc


def _chunks(fh, fields: tuple[str, ...], end: int) -> Iterator[tuple[Sequence[int], dict]]:
    """The records of `fh` after its first `end` lines, CHUNK_ROWS lines at a time.

    A plain chunk, with no quote, CR or NUL (csv rejects NUL before Python
    3.11), no blank line, len(fields) - 1 commas on every line and no line
    over csv.field_size_limit(), is split on commas as csv.reader would
    split it.  Any other chunk goes through csv.reader, which reads on past
    the chunk's lines to close a quoted field; a csv.Error there yields the
    records read before it, then raises RowError on its line."""
    width, limit = len(fields), csv.field_size_limit()
    while block := list(itertools.islice(fh, CHUNK_ROWS)):
        start, text = end, "".join(block)
        if ('"' in text or "\r" in text or "\0" in text or text[0] == "\n" or "\n\n" in text
                or set(map(str.count, block, itertools.repeat(","))) != {width - 1}
                or max(map(len, block)) > limit):
            reader, rows, lines, error = csv.reader(itertools.chain(block, fh)), [], [], None
            try:
                while reader.line_num < len(block):
                    rows.append(next(reader))
                    lines.append(start + reader.line_num)
            except csv.Error as exc:
                error = exc
            end = start + reader.line_num
            if not all(rows):  # a blank line holds no record
                lines, rows = list(itertools.compress(lines, rows)), list(filter(None, rows))
            if rows:
                if min(map(len, rows)) < width:
                    rows = [row + [None] * (width - len(row)) for row in rows]
                yield lines, dict(zip(fields, zip(*rows)))
            if error is not None:
                raise RowError(end, str(error)) from error
        else:
            end = start + len(block)
            cells = tuple(text.removesuffix("\n").replace("\n", ",").split(","))
            yield range(start + 1, end + 1), {name: cells[j::width] for j, name in enumerate(fields)}


def floats(cells: Optional[Cells], n: int, prefix: str = "",
           optional: bool = False) -> tuple[np.ndarray, Errors]:
    """float() of every cell, and errors; a cell float() rejects reads NaN.
    In an optional column an empty or missing cell reads NaN with no error."""
    if cells is None:
        return np.full(n, math.nan), {}
    if optional and not all(cells):
        cells = [cell or "nan" for cell in cells]
    try:
        return np.fromiter(map(float, cells), float, n), {}
    except (ValueError, TypeError):
        pass
    values, errors = np.empty(n), {}
    for k, cell in enumerate(cells):
        try:
            values[k] = float(cell)
        except (ValueError, TypeError) as exc:
            values[k], errors[k] = math.nan, prefix + str(exc)
    return values, errors


def collect(chunks: Iterator[tuple[Sequence[int], dict]], convert: Callable,
            strict: bool = True, diagnostics: Optional[list] = None) -> tuple[np.ndarray, ...]:
    """The columns of the CSV records that convert, in order; () without records.

    convert(cells, n, start) turns a chunk of read_csv, n records of which
    the first is record `start`, into its columns and a list of error dicts
    in the order a row parser meets them: every column's parse errors, then
    the conversion errors.  A record reports its first error in that list.
    In strict mode the first rejected record raises RowError with the line
    it ends on, so a read reports the first bad line of the file; in lenient
    mode each adds one to `diagnostics` and is dropped.
    """
    parts, start = [], 0
    for lines, cells in chunks:
        columns, per_column = convert(cells, len(lines), start)
        start += len(lines)
        first: Errors = {}
        for errors in reversed(per_column):
            first.update(errors)
        if first:
            for k in sorted(first):
                err = RowError(lines[k], first[k])
                if strict:
                    raise err
                if diagnostics is not None:
                    diagnostics.append(err)
            keep = np.ones(len(lines), dtype=bool)
            keep[list(first)] = False
            columns = tuple(c[keep] for c in columns)
        parts.append(columns)
    return tuple(map(np.concatenate, zip(*parts)))


def read_json(path):
    """The JSON value in a UTF-8 file, after a byte order mark if there is
    one; bad JSON or bad UTF-8 raises SchemaError."""
    with open(path, encoding="utf-8-sig") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


@contextmanager
def atomic_write(path):
    """A UTF-8 text stream whose bytes replace the file at `path` on success.

    The stream writes a new file beside the target, created with the mode
    open() gives a new file (0o666 less the umask) or, when the target is
    an existing regular file, with the target's permission bits.  It is
    renamed onto the target only when the `with` block succeeds; on failure
    the target is untouched and the new file removed.  A symlink is followed: its target
    gets the bytes and the link stays.  A target that exists and is not a
    regular file, such as a FIFO or a device, cannot be replaced by a rename
    and is written in place.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    target = os.path.realpath(path)
    tmp = os.path.join(os.path.dirname(target), f".plasmakit-{os.urandom(6).hex()}.tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            if os.path.isfile(target):
                os.chmod(fd, stat.S_IMODE(os.stat(target).st_mode))
            yield fh
        os.replace(tmp, target)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json(obj, path) -> None:
    """Write obj as indented JSON and a newline, atomically; floats keep
    their full repr precision."""
    with atomic_write(path) as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")
