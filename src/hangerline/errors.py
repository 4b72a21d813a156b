"""Exception types shared across the package."""


class DomainError(ValueError):
    """An operation was called with values outside its domain."""


class InfeasibleError(DomainError):
    """A balancing instance cannot be solved within its seat budget."""


class ParseError(ValueError):
    """Malformed input file. Carries the offending row number when known."""

    def __init__(self, message: str, row: int | None = None):
        if row is not None:
            message = f"row {row}: {message}"
        super().__init__(message)
        self.row = row


class InvariantError(RuntimeError):
    """An internal consistency check failed; indicates a bug, not bad input."""
