"""Base classes for the package's record types, and the numeric rules.

A record lists its fields in ``_fields`` and gets a field-wise ``==`` and a
``Name(field=value, ...)`` repr. Plain classes cost next to nothing to
define. The standard library's generated record classes would import
``inspect``, ``ast`` and ``dis`` (about 11 ms in a fresh interpreter on a
2-vCPU machine) and build each class's methods with ``exec`` (about 0.5 ms
a class), which every short CLI command would pay. Subclasses write their
own ``__init__`` and usually declare ``__slots__``.

Every integer parameter goes through :func:`integer` and every real one
through :func:`real`, with its bounds: bools are refused, numpy numbers
pass, and anything else raises :class:`ValueError` with the caller's
message, formatted only on failure (some callers check every g entry).
"""

from __future__ import annotations

from math import inf
from numbers import Real
from operator import index
from typing import Any, Optional


def integer(
    value: Any, message: str, *args: Any, at_least: Optional[int] = None,
    below: Optional[int] = None,
) -> int:
    """``value`` as a Python ``int``: ``operator.index`` must take it, it must
    not be a bool, and it must be ``>= at_least`` and ``< below`` where given."""
    if not isinstance(value, bool):
        try:
            number = index(value)
        except TypeError:
            pass
        else:
            # an open end is None: an int-float comparison costs more than the rest
            if (at_least is None or number >= at_least) and (below is None or number < below):
                return number
    raise ValueError(message.format(*args, value=value))


def real(
    value: Any, message: str, *args: Any, above: float = -inf, at_least: float = -inf,
    below: float = inf,
) -> Any:
    """``value`` unchanged: it must be a ``numbers.Real`` other than a bool
    with ``above < value < below`` and ``value >= at_least``, so finite."""
    if not isinstance(value, bool) and isinstance(value, Real):
        if above < value < below and value >= at_least:
            return value
    raise ValueError(message.format(*args, value=value))


class Record:
    """Mutable record: field-wise ``==`` within one class, unhashable."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"


class FrozenRecord(Record):
    """Immutable record: assignment raises, the hash is that of the fields.

    ``__init__`` stores its arguments as the fields, in ``_fields`` order;
    a subclass validates first and then calls it.
    """

    __slots__ = ()

    def __init__(self, *values: Any) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
