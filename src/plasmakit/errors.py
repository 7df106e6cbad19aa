"""Exception hierarchy shared by all plasmakit modules."""

__all__ = ["PlasmaKitError", "DomainError", "SingularityError", "PreconditionError",
           "FitError", "SchemaError", "RowError"]


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


class SchemaError(PlasmaKitError, ValueError):
    """A file does not match the expected column set or JSON schema."""


class RowError(PlasmaKitError, ValueError):
    """A data row failed to parse; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number

