"""Exception taxonomy shared across the package.

Every error raised by the library derives from :class:`RiskbnError`, so
callers can catch one base class. The CLI maps subclasses onto stable exit
codes (see ``riskbn.cli``).
"""

from __future__ import annotations


class RiskbnError(Exception):
    """Base class for all riskbn errors."""


# --- model construction / validation ---------------------------------------

class CycleDetected(RiskbnError):
    """The DAG contains a directed cycle; the message names one."""

    def __init__(self, cycle: list[str]):
        self.cycle = list(cycle)
        super().__init__("directed cycle: " + " -> ".join(self.cycle + self.cycle[:1]))


class MissingCpt(RiskbnError):
    """A network node has no conditional probability table."""


class RowNotNormalized(RiskbnError):
    """A CPT row does not sum to 1 within tolerance."""

    def __init__(self, variable: str, row: int, total: float):
        self.variable = variable
        self.row = row
        self.total = total
        super().__init__(f"CPT row {row} of '{variable}' sums to {total!r}, expected 1")


class ShapeMismatch(RiskbnError):
    """A structural inconsistency: wrong row count, bad parent list, etc."""


class ModelSyntaxError(RiskbnError):
    """Model text could not be parsed; carries line/column when known."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        if line is not None:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


# --- queries ----------------------------------------------------------------

class UnknownVariable(RiskbnError):
    """A referenced variable is not part of the network or schema."""


class UnknownState(RiskbnError):
    """A referenced state is not legal for its variable."""


class IncompleteAssignment(RiskbnError):
    """A full assignment was required but some variable is missing."""


class ZeroProbabilityEvidence(RiskbnError):
    """The evidence set has probability zero; posteriors are undefined.

    Combination searches catch this to distinguish an impossible evidence
    combination from a low-risk one.
    """


# --- learning ---------------------------------------------------------------

class SchemaMismatch(RiskbnError):
    """Dataset columns or states are incompatible with the network schema."""


# --- analysis ---------------------------------------------------------------

class DomainError(RiskbnError):
    """An argument is outside the mathematical domain of the operation."""


class LengthMismatch(RiskbnError):
    """Paired sequences have different lengths."""


class PoolTooLarge(RiskbnError):
    """A combination search would exceed the evaluation cap."""

    def __init__(self, estimated: int, max_evals: int):
        self.estimated = estimated
        self.max_evals = max_evals
        super().__init__(
            f"search would evaluate ~{estimated} combinations, "
            f"exceeding the cap of {max_evals}"
        )


class DegenerateSourceWarning(UserWarning):
    """A strength source has fewer than two states with positive probability."""


# --- data ingestion ---------------------------------------------------------

class UnknownColumn(RiskbnError):
    """A dataset column name is not declared in the schema."""


class IllegalState(RiskbnError):
    """A dataset cell holds a value that is not a legal state."""

    def __init__(self, value: str, row: int, column: str):
        self.value = value
        self.row = row
        self.column = column
        super().__init__(f"illegal value {value!r} for column '{column}' in data row {row}")


class RaggedRow(RiskbnError):
    """A CSV row has the wrong number of cells."""

    def __init__(self, row: int, expected: int, got: int):
        self.row = row
        super().__init__(f"data row {row} has {got} cells, expected {expected}")


class MalformedCsv(RiskbnError):
    """CSV text cannot be split into cells; the message names the line."""


class MissingMetaColumn(RiskbnError):
    """A filter needs a meta column that the dataset does not carry."""


class NotUtf8(RiskbnError):
    """An input is not UTF-8 text; ``offset`` is its first bad byte."""

    def __init__(self, source: str, offset: int):
        self.source = source
        self.offset = offset
        super().__init__(f"{source} is not UTF-8 text (byte {offset})")


# --- CLI --------------------------------------------------------------------

class VariableSetMismatch(RiskbnError):
    """Two rankings do not cover the same set of variables."""


class InvalidOption(RiskbnError):
    """A command-line option value is outside its allowed range."""
