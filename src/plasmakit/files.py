"""Every file plasmakit reads or writes goes through this module: one
chunked CSV reader with its one row collector, one JSON loader, and one
atomic writer.  A plain chunk, one record per line, has its float columns
read in one pass of NumPy's C reader, with no Python call per cell; any
other chunk, and every error, goes through the cells."""

from __future__ import annotations

import csv
import errno
import functools
import itertools
import json
import math
import os
import stat
from collections import ChainMap, UserDict
from contextlib import ExitStack, contextmanager, nullcontext
from typing import Callable, Iterator, Mapping, Optional, Sequence, TextIO

from ._lazy import np
from .errors import PlasmaKitError, RowError, SchemaError

# Physical lines read at a time, and the most strings the writer keeps per
# column: enough that the per-chunk NumPy calls cost little per row, few
# enough that a chunk's cells and a column's strings stay a few megabytes.
CHUNK_ROWS = 4096

Cells = tuple  # one column of a chunk: str per record, None where a record is short
Errors = dict  # row in the chunk -> message


@contextmanager
def read_csv(source: TextIO | str | os.PathLike):
    """The header of a CSV file or stream and its records, CHUNK_ROWS lines at a time.

    Yields (fields, chunks).  Each chunk is (lines, cells): the physical
    line each record ends on, and for each header name the column of cells.
    As with csv.DictReader, blank lines hold no record (the header is the
    first non-blank one), a short record's missing cells are None, a long
    record's extra cells are ignored, and a repeated name keeps its last
    column.  A path is read as UTF-8, after any byte order mark.  What the
    reader cannot read past raises in lenient mode too: bytes that are not UTF-8
    as SchemaError, a csv.Error as RowError on its line, after the records before it.
    """
    opened = nullcontext(source) if hasattr(source, "read") else open(source, encoding="utf-8-sig")
    with opened as fh:
        reader = csv.reader(fh)
        try:
            fields = tuple(next(filter(None, reader), ()))
            yield fields, _chunks(fh, fields, reader.line_num)
        except UnicodeDecodeError as exc:
            raise SchemaError("input is not UTF-8 text: cannot decode "
                              f"{exc.object[exc.start:exc.end]!r}") from exc
        except csv.Error as exc:
            raise RowError(reader.line_num, str(exc)) from exc
        except OSError as exc:  # a failed read names the input, not an output open around it
            if exc.filename is None and exc.errno is not None:
                exc.filename = getattr(source, "name", source)
            raise


def _chunks(fh, fields: tuple[str, ...], end: int) -> Iterator[tuple[Sequence[int], dict]]:
    """The records of `fh` after its first `end` lines, CHUNK_ROWS lines at a time.

    A plain chunk, with no quote, CR or NUL (csv rejects NUL before Python
    3.11), no blank line and no line over csv.field_size_limit(), holds one
    record per line and is split into cells only when one is first asked
    for (_Plain).  Any other chunk goes through csv.reader, which reads on
    past the chunk's lines to close a quoted field; a csv.Error there yields
    the records read before it, then raises RowError on its line."""
    width, limit = len(fields), csv.field_size_limit()
    while block := list(itertools.islice(fh, CHUNK_ROWS)):
        start, text, chunk, error = end, "".join(block), [], None
        if ('"' in text or "\r" in text or "\0" in text or "\n" in block
                or max(map(len, block)) > limit):
            reader, rows, lines = csv.reader(itertools.chain(block, fh)), [], []
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
                chunk.append((lines, dict(zip(fields, zip(*rows)))))
            del reader, rows, lines
        else:
            end = start + len(block)
            chunk.append((range(start + 1, end + 1), _Plain(fields, block, text)))
        del block, text  # the consumer holds the chunk alone, so it can release it
        if chunk:
            yield chunk.pop()
        if error is not None:
            raise RowError(end, str(error)) from error


class _Plain(UserDict):
    """The cells of a plain chunk by header name, split when first asked for:
    by stride if every line has len(fields) - 1 commas, else by csv.reader."""

    def __init__(self, fields: tuple[str, ...], block: list[str], text: str):
        self.fields, self.block, self.text = fields, block, text

    @functools.cached_property
    def data(self) -> dict:
        width = len(self.fields)
        if set(map(str.count, self.block, itertools.repeat(","))) == {width - 1}:
            text, self.block, self.text = self.text, (), ""  # freed once split into cells
            cells = tuple(text.removesuffix("\n").replace("\n", ",").split(","))
            return {name: cells[j::width] for j, name in enumerate(self.fields)}
        rows = [row + [None] * (width - len(row)) for row in csv.reader(self.block)]
        return dict(zip(self.fields, zip(*rows)))


def floats(cells: Optional[Cells], n: int, prefix: str = "",
           optional: bool = False) -> tuple[np.ndarray, Errors]:
    """float() of each cell, parsed once, and errors; a cell float() rejects
    reads NaN.  In an optional column an empty or missing cell reads NaN without error."""
    if cells is None:
        return np.full(n, math.nan), {}
    if optional and not all(cells):
        cells = [cell or "nan" for cell in cells]
    values, errors, rest = [], {}, iter(cells)
    while True:  # each pass parses up to the next bad cell, which reads NaN
        try:
            values.extend(map(float, rest))
            return np.array(values, dtype=float), errors
        except (ValueError, TypeError) as exc:
            errors[len(values)] = prefix + str(exc)
            values.append(math.nan)


def float_columns(cells: Mapping, n: int, names: Sequence[str], prefix: str = "",
                  optional: Sequence[str] = ()) -> tuple[list[np.ndarray], list[Errors]]:
    """floats' values and errors for each named column of a chunk's n records,
    NaN for a name it lacks.  A plain ASCII chunk without \\x1c-\\x1f (np.loadtxt
    strips them, float() does not) takes one np.loadtxt call, kept if it
    raises no ValueError (a line short of a column, an empty cell) and has n
    rows.  An optional last column's empty cells, at line ends, read "nan"."""
    if isinstance(cells, _Plain) and cells.text.isascii() and not any(
            map(cells.text.__contains__, "\x1c\x1d\x1e\x1f")):
        at = {name: j for j, name in enumerate(cells.fields)}  # a repeated name: its last column
        lines = cells.block
        if cells.fields and cells.fields[-1] in optional:
            lines = [line[:-1] + "nan\n" if line.endswith(",\n") else line for line in lines]
            lines[-1] += "nan" if lines[-1].endswith(",") else ""
        try:
            table = np.loadtxt(lines, delimiter=",", comments=None, quotechar=None, ndmin=2,
                               usecols=[at[name] for name in names if name in at])
        except ValueError:
            table = ()
        if len(table) == n:
            parsed = iter(table.T)
            return ([next(parsed) if name in at else np.full(n, math.nan) for name in names],
                    [{}] * len(names))
    parsed = [floats(cells.get(name), n, prefix, name in optional) for name in names]
    return [values for values, _ in parsed], [errors for _, errors in parsed]


def collect(chunks: Iterator[tuple[Sequence[int], dict]], convert: Callable,
            diagnostics: Optional[list] = None) -> Iterator[tuple[np.ndarray, ...]]:
    """The columns of the CSV records that convert, in order, a tuple per chunk.

    convert(cells, n, start) turns a chunk of read_csv, n records of which
    the first is record `start`, into its columns and a list of error dicts
    in the order a row parser meets them: every column's parse errors, then
    the conversion errors.  A record reports its first error in that list.
    Without a `diagnostics` list the first rejected record raises RowError
    with the line it ends on, so a read reports the first bad line of the
    file; with one, each adds a RowError to the list and is dropped.
    """
    start = 0
    for lines, cells in chunks:
        columns, per_column = convert(cells, len(lines), start)
        start += len(lines)
        del cells  # released before the columns are yielded
        if first := dict(ChainMap(*per_column)):  # each record's first error
            for k in sorted(first):
                if diagnostics is None:
                    raise RowError(lines[k], first[k])
                diagnostics.append(RowError(lines[k], first[k]))
            columns = tuple(np.delete(c, list(first)) for c in columns)
        yield columns


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
    the target is untouched and the new file removed.  A symlink is followed:
    its target gets the bytes and the link stays.  A target that exists and
    is not a regular file, such as a FIFO or a device, is written in place.
    An OSError with an errno and no file name, such as a failed write, gets `path`.
    """
    if not os.fspath(path):  # realpath would make it the working directory
        raise OSError(errno.ENOENT, os.strerror(errno.ENOENT), path)
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "w", encoding="utf-8", newline="") as fh:
                yield fh
            return
        target = os.path.realpath(path)
        tmp = os.path.join(os.path.dirname(target), f".plasmakit-{os.urandom(6).hex()}.tmp")
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except OSError as exc:  # reported under the caller's path, not the temporary name
            raise OSError(exc.errno, exc.strerror, path) from None
        try:
            with open(fd, "w", encoding="utf-8", newline="") as fh:
                if os.path.isfile(target):
                    os.chmod(fd, stat.S_IMODE(os.stat(target).st_mode))
                yield fh
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:  # as open() names the path it was given
        if exc.filename is None and exc.errno is not None:
            exc.filename = path
        raise


def write_texts(*outputs) -> None:
    """Write each (path, text) output, all or none: every new file is made
    and written before any is renamed onto its target, so a failure leaves
    every target as it was.  A falsy output is skipped; one that names the
    file of an earlier one, however spelled, raises PlasmaKitError."""
    with ExitStack() as stack:
        targets = set()
        for path, text in filter(None, outputs):
            if (target := os.path.realpath(path)) in targets:
                raise PlasmaKitError(f"{path}: two outputs name this one file")
            targets.add(target)
            stack.enter_context(atomic_write(path)).write(text)
