"""Shared exception types, the default search budget, the integer check
of the exact types' constructors, and the base of the package's value
classes."""

from operator import attrgetter, index

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


class _Record:
    """Base of a value class whose ``__slots__`` name its fields, in
    constructor order: what ``dataclass`` would generate, without loading
    ``dataclasses``.  The constructor binds positional values in slot
    order and keywords by name; a field left out takes its value from the
    class's ``_defaults`` dict, of field name to default, where ``list``
    or ``dict`` stands for a new empty container per instance.  Instances
    of one class are equal when their fields are, and the repr is
    ``Name(field=value, ...)``.  A record is unhashable, as a mutable
    dataclass with ``eq`` is."""

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if cls.__slots__:
            get = attrgetter(*cls.__slots__)
            # the field values as a tuple; attrgetter of one name returns the value
            cls._values = property(get if len(cls.__slots__) > 1 else lambda self: (get(self),))

    def __init__(self, *args, **kwargs):
        names, qualname = self.__slots__, type(self).__qualname__
        if len(args) > len(names):
            raise TypeError(f"{qualname}() takes {len(names)} fields but {len(args)} were given")
        set_ = object.__setattr__  # _Frozen refuses setattr
        for field, value in zip(names, args):
            set_(self, field, value)
        for field in names[len(args):]:
            if field in kwargs:
                value = kwargs.pop(field)
            elif field in self._defaults:
                value = self._defaults[field]
                value = value() if value is list or value is dict else value
            else:
                raise TypeError(f"{qualname}() missing field {field!r}")
            set_(self, field, value)
        for field in kwargs:  # left over: not a field, or a field given twice
            problem = "multiple values for" if field in names else "an unexpected"
            raise TypeError(f"{qualname}() got {problem} field {field!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values == other._values
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self.__slots__, self._values))
        return f"{type(self).__qualname__}({fields})"


class _Frozen(_Record):
    """An immutable record: hashed by its field values, and assigning or
    deleting an attribute raises AttributeError, so an ``__init__`` of its
    own sets the fields with ``object.__setattr__``.  Pickling and copying
    rebuild an instance through ``__init__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values
