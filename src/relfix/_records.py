"""Base classes for the package's records, and the numeric rules.

A record that validates its input is a :class:`FrozenRecord`, the one
record base, whose one constructor takes fields by position or keyword; a
plain result, built once from values an engine computed, is a
``typing.NamedTuple``. No record is mutable, nor are the arrays
``GridFunction`` holds. One exception to the split remains: the computed
``QuadratureWeights`` is a ``FrozenRecord``, so that ``vars()`` lists its
read-only arrays.

A record lists its fields in ``_fields`` and gets a field-wise ``==`` and a
``Name(field=value, ...)`` repr. Plain classes cost next to nothing to
define. ``dataclasses`` would import ``inspect``, ``ast`` and ``dis``
(about 11 ms in a fresh interpreter on a 2-vCPU machine) and build each
class's methods with ``exec`` (about 0.5 ms a class), which every short
CLI command would pay.

Each integer parameter's type and range are decided by one :func:`integer`
call, and each real one's by one :func:`real` call: bools are refused,
numpy numbers pass, and anything else raises :class:`ValueError` with the
caller's message, which names the range and the value, formatted only on
failure (some callers check every g entry).
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


class FrozenRecord:
    """Immutable record: assignment raises, ``==`` and the hash read the fields.

    ``__init__`` takes each of ``_fields`` once, by position or keyword, or
    raises :class:`TypeError`; a subclass checks its input, then calls it."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *values: Any, **named: Any) -> None:
        fields = self._fields
        if named:  # keywords fill the fields after the positional ones
            values += tuple([named.pop(name) for name in fields[len(values):] if name in named])
        if named or len(values) != len(fields):
            raise TypeError(f"{type(self).__name__} takes each of its fields {fields} once")
        for name, value in zip(fields, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple[Any, ...]:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({body})"

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())
