"""Exception types shared across the package."""


class OnlineCoverError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(OnlineCoverError):
    """Malformed instance text; carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class ValidationError(OnlineCoverError):
    """A domain-type invariant was violated; the message names it.

    A stream's validation sets ``event`` to the first arrival it rejects
    (None for the offline count, or for columns that do not fit together).
    """

    def __init__(self, message: str, event: int | None = None):
        self.event = event
        super().__init__(message)


class DomainError(OnlineCoverError):
    """Argument outside the mathematical domain of an operation."""


class ConvergenceError(OnlineCoverError):
    """An iterative solver failed to converge or its cross-checks disagree."""


class PreconditionError(OnlineCoverError):
    """A numerically verified precondition does not hold for the input."""


class NumericError(OnlineCoverError):
    """A root-finding/bracketing procedure could not certify its result."""


class InvariantViolation(OnlineCoverError):
    """A maintained algorithm invariant failed beyond tolerance (bug detector)."""


class SideError(OnlineCoverError):
    """Bipartite side labels missing or an edge joins two same-side vertices."""


class TooLarge(OnlineCoverError):
    """Input exceeds the size limit of an exhaustive oracle."""


class LengthMismatch(OnlineCoverError):
    """Trace snapshots and per-prefix oracle values have different lengths."""
