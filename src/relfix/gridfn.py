"""Uniform-grid functions on [0, 1] and the comparisons the solver needs."""

from __future__ import annotations

from typing import Callable

import numpy as np

from ._records import Record, integer

__all__ = [
    "GridFunction",
    "sup_diff",
    "pointwise_leq",
    "interpolate",
    "grid_to_csv",
]

DEFAULT_INTERVALS = 512


def _check_intervals(n_intervals: int, minimum: int) -> int:
    """An interval count as an ``int``: an integer (not a bool) >= minimum."""
    # a float or bool would pass the bound and fail later inside numpy
    n = integer(n_intervals, "n_intervals must be an integer, got {value!r}")
    if n < minimum:
        raise ValueError(f"n_intervals must be >= {minimum}")
    return n


class GridFunction(Record):
    """Values on the uniform nodes t_j = j / n_intervals, j = 0..n_intervals.

    ``n_intervals``, an integer of at least 1, is stored as ``int``, and the
    values are finite. Treated as immutable once built; comparisons and
    arithmetic go through the module functions rather than operator overloads.
    """

    __slots__ = _fields = ("n_intervals", "values")

    def __init__(self, n_intervals: int, values: np.ndarray) -> None:
        n_intervals = _check_intervals(n_intervals, 1)
        vals = np.asarray(values, dtype=float)
        if vals.shape != (n_intervals + 1,):
            raise ValueError(f"need {n_intervals + 1} node values, got shape {vals.shape}")
        if not np.isfinite(vals).all():
            raise ValueError("node values must be finite")
        self.n_intervals = n_intervals
        self.values = vals

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
        return cls(n, np.array([float(fn(t)) for t in np.arange(n + 1) / n]))

    @classmethod
    def zeros(cls, n_intervals: int = DEFAULT_INTERVALS) -> "GridFunction":
        n = _check_intervals(n_intervals, 1)
        return cls(n, np.zeros(n + 1))

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
    x = np.asarray(t, dtype=float)
    outside = ~((0.0 <= x) & (x <= 1.0))
    if outside.any():
        bad = x.flat[int(np.argmax(outside))]
        raise ValueError(f"t={float(bad)} outside [0, 1]")
    x = x * u.n_intervals
    j = np.minimum(x.astype(np.intp), u.n_intervals - 1)
    w = x - j
    values = (1.0 - w) * u.values[j] + w * u.values[j + 1]
    return float(values) if values.ndim == 0 else values


def grid_to_csv(u: GridFunction) -> str:
    """Node values as CSV with header t,value."""
    lines = ["t,value"]
    # Python floats format faster than numpy scalars, to the same text
    for t, v in zip(u.nodes.tolist(), u.values.tolist()):
        lines.append(f"{t:.16e},{v:.16e}")
    return "\n".join(lines) + "\n"
