"""Exception hierarchy shared across the package.

Each of the three error families carries the command line's exit code for
it as the class attribute ``exit_code``: input that cannot be read or
parsed at all (1), input that parses but is semantically ill-formed (2),
and computations that would exceed one of the configurable caps (3).
"""
from __future__ import annotations


class InputParseError(Exception):
    """A file could not be read, or a query, fact or command line could not be parsed."""
    exit_code = 1


class QuerySyntaxError(InputParseError):
    """Syntax error in a query string, with a character offset."""

    def __init__(self, message: str, position: int | None = None) -> None:
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)
        self.position = position


class FactSyntaxError(InputParseError):
    """Syntax error in a facts file or fact literal, with a line number."""

    def __init__(self, message: str, line: int | None = None) -> None:
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SemanticError(Exception):
    """Input parsed but violates a well-formedness rule."""
    exit_code = 2


class SafetyError(SemanticError):
    """A variable of a negated atom or inequality has no positive occurrence."""


class ArityError(SemanticError):
    """A relation is used with two different arities."""


class PlayerSetError(SemanticError):
    """A wealth function was evaluated outside its player set."""


class CapExceededError(Exception):
    """A computation would exceed one of the configurable size caps."""
    exit_code = 3
