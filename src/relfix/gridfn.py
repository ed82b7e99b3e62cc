"""Uniform-grid functions on [0, 1] and the comparisons the solver needs."""

from __future__ import annotations

from typing import Any, Callable, Iterator

import numpy as np

from . import _EXPORTS
from ._records import FrozenRecord, integer

__all__ = list(_EXPORTS["gridfn"])

DEFAULT_INTERVALS = 512


def _check_intervals(n_intervals: int, minimum: int) -> int:
    """An interval count as an ``int``: an integer (not a bool) >= minimum,
    else ValueError naming the minimum and the value given."""
    message = "n_intervals must be an integer >= {0}, got {value!r}"
    return integer(n_intervals, message, minimum, at_least=minimum)


def _real_array(values: Any, message: str) -> np.ndarray:
    """``values`` as a float array: numpy must read it, and each element of
    a list or tuple, with an integer or float dtype, else
    :class:`ValueError` with ``message``, formatted with the ``dtype`` read."""
    array = np.asarray(values)
    if array.dtype.kind not in "fiu":
        # only integer and float kinds are real values: a float conversion
        # would drop an imaginary part with only a warning and read a bool
        # as 0 or 1, a string as its number, None as NaN and a datetime as
        # its tick count
        raise ValueError(message.format(dtype=array.dtype))
    if isinstance(values, (list, tuple)):
        # numpy reads a list that mixes bools with floats as floats
        for value in np.asarray(values, dtype=object).flat:
            dtype = np.asarray(value).dtype
            if dtype.kind not in "fiu":
                raise ValueError(message.format(dtype=dtype))
    return array.astype(float, copy=False)


class GridFunction(FrozenRecord):
    """Values on the uniform nodes t_j = j / n_intervals, j = 0..n_intervals.

    ``n_intervals``, an integer of at least 1, is stored as ``int``, and the
    values are finite reals, read as floats into a read-only copy, so a
    caller who later writes to the array passed in changes nothing here.
    Both are read-only through the record. The solver builds its iterates
    through a private constructor that takes over an array it computed,
    without the copy. Comparisons and arithmetic go through the module
    functions rather than operator overloads.
    """

    __slots__ = _fields = ("n_intervals", "values")

    def __init__(self, n_intervals: int, values: np.ndarray) -> None:
        n_intervals = _check_intervals(n_intervals, 1)
        vals = _real_array(values, "node values must be real numbers, got dtype {dtype}")
        if vals.shape != (n_intervals + 1,):
            raise ValueError(f"need {n_intervals + 1} node values, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("node values must be finite")
        vals = vals.copy()
        vals.flags.writeable = False
        super().__init__(n_intervals, vals)

    @classmethod
    def _computed(cls, n_intervals: int, values: np.ndarray) -> "GridFunction":
        """Take over ``values``, a float64 array of shape (n_intervals + 1,)
        that the caller computed, checked finite and holds no other
        reference to: it is made read-only in place, neither copied nor
        checked again. The caller names an overflow itself, as
        :func:`relfix.fractional.apply_T` and
        :func:`relfix.fractional.frac_integral` do."""
        values.flags.writeable = False
        self = object.__new__(cls)
        # the two slots directly: this runs once per Picard step
        object.__setattr__(self, "n_intervals", n_intervals)
        object.__setattr__(self, "values", values)
        return self

    @property
    def nodes(self) -> np.ndarray:
        return np.arange(self.n_intervals + 1) / self.n_intervals

    @property
    def step(self) -> float:
        return 1.0 / self.n_intervals

    @classmethod
    def from_callable(
        cls, fn: Callable[[float], float], n_intervals: int = DEFAULT_INTERVALS
    ) -> "GridFunction":
        n = _check_intervals(n_intervals, 1)
        return cls(n, [fn(t) for t in np.arange(n + 1) / n])

    @classmethod
    def zeros(cls, n_intervals: int = DEFAULT_INTERVALS) -> "GridFunction":
        n = _check_intervals(n_intervals, 1)
        return cls._computed(n, np.zeros(n + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.n_intervals == other.n_intervals and np.array_equal(
            self.values, other.values
        )


def _check_same_grid(u: GridFunction, v: GridFunction) -> None:
    if u.n_intervals != v.n_intervals:
        raise ValueError("grid functions live on different grids")


def sup_diff(u: GridFunction, v: GridFunction) -> float:
    """Sup-norm distance max_j |u_j - v_j| (a metric)."""
    _check_same_grid(u, v)
    return float(np.abs(u.values - v.values).max())


def pointwise_leq(u: GridFunction, v: GridFunction) -> bool:
    """Whether u_j <= v_j at every node (the order relation of the solver)."""
    _check_same_grid(u, v)
    return bool((u.values <= v.values).all())


def interpolate(u: GridFunction, t: float | np.ndarray) -> float | np.ndarray:
    """Piecewise-linear value at t in [0, 1]; elementwise for an array of t.

    A scalar t gives a float, an array of t an array of the same shape.
    """
    x = _real_array(t, "t must be real, got dtype {dtype}")
    outside = ~((0.0 <= x) & (x <= 1.0))
    if outside.any():
        bad = x.flat[int(np.argmax(outside))]
        raise ValueError(f"t={float(bad)} outside [0, 1]")
    x = x * u.n_intervals
    j = np.minimum(x.astype(np.intp), u.n_intervals - 1)
    w = x - j
    values = (1.0 - w) * u.values[j] + w * u.values[j + 1]
    return float(values) if values.ndim == 0 else values


# Nodes per block of the streamed CSV: what formatting holds at once is
# O(block), not O(N).
_CSV_BLOCK = 65536


def grid_csv_blocks(u: GridFunction) -> Iterator[str]:
    """The text of :func:`grid_to_csv` in pieces: the header, then the rows
    of each block of up to ``_CSV_BLOCK`` nodes, formatted when it is reached."""
    yield "t,value\n"
    n = u.n_intervals
    for first in range(0, n + 1, _CSV_BLOCK):
        last = min(first + _CSV_BLOCK, n + 1)
        # one % over the interleaved Python floats, which format faster than
        # numpy scalars, to the same text; the nodes are u.nodes[first:last]
        nodes = np.arange(first, last) / n
        cells = np.column_stack((nodes, u.values[first:last])).ravel().tolist()
        yield "%.16e,%.16e\n" * (last - first) % tuple(cells)


def grid_to_csv(u: GridFunction) -> str:
    """Node values as CSV with header t,value."""
    return "".join(grid_csv_blocks(u))
