"""Exception hierarchy shared by all plasmakit modules."""

import csv
from contextlib import contextmanager


class PlasmaKitError(Exception):
    """Base class for all plasmakit errors."""


class DomainError(PlasmaKitError, ValueError):
    """An argument is outside the mathematical or physical domain."""


class SingularityError(DomainError):
    """Evaluation hit a pole of a rational function."""


class PreconditionError(PlasmaKitError, ValueError):
    """A documented operation precondition does not hold."""


class FitError(PlasmaKitError, ValueError):
    """Least-squares fit cannot be performed (rank deficiency, too few samples)."""


class BracketError(PlasmaKitError, ValueError):
    """Root bracketing failed within the search interval."""


class SchemaError(PlasmaKitError, ValueError):
    """A file does not match the expected column set or JSON schema."""


class RowError(PlasmaKitError, ValueError):
    """A data row failed to parse; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@contextmanager
def csv_read_errors(reader):
    """Raise what a CSV reader cannot read past, in lenient mode too: bytes
    that are not UTF-8 as SchemaError, a csv.Error as RowError on its line."""
    try:
        yield
    except UnicodeDecodeError as exc:
        raise SchemaError("input is not UTF-8 text: cannot decode "
                          f"{exc.object[exc.start:exc.end]!r}") from exc
    except csv.Error as exc:
        raise RowError(reader.line_num, str(exc)) from exc
