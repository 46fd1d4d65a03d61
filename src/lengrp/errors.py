"""Shared exception types, the default search budget, and the integer
check of the exact types' constructors."""

from operator import index

# states a Cayley-graph search may store; groups re-exports it
DEFAULT_STATE_BUDGET = 2_000_000

_INT = frozenset((int,))


class LengrpError(Exception):
    """Base class for package errors."""


class PreconditionError(LengrpError):
    """An operation was called outside its stated domain."""


class ResourceExhausted(LengrpError):
    """A search exceeded its state budget.

    ``completed_radius`` is the largest radius whose sphere was fully
    enumerated before the budget ran out.
    """

    def __init__(self, message: str, completed_radius: int):
        super().__init__(message)
        self.completed_radius = completed_radius


class OracleExhausted(LengrpError):
    """A word-length query could not be answered within the allowed radius."""


class NumericalDegeneracyError(LengrpError):
    """A numeric eigenline computation hit a (near-)defective eigenvalue."""


def _as_int(x) -> int:
    """x as an int: what ``operator.index`` takes, except bool.  Anything
    else (a float, a str, a Fraction) raises PreconditionError instead of
    being truncated or parsed."""
    if not isinstance(x, bool):
        try:
            return index(x)
        except TypeError:
            pass
    raise PreconditionError(f"expected an integer, got {x!r}")


def _int_tuple(values) -> tuple[int, ...]:
    """The values as a tuple of ints, checked by _as_int; a tuple of
    exact ints is returned as it is, after one pass over their types."""
    values = tuple(values)
    if not _INT.issuperset(map(type, values)):
        values = tuple(map(_as_int, values))
    return values
