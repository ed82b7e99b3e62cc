"""Uniform-grid functions on [0, 1] and the comparisons the solver needs."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "GridFunction",
    "sup_diff",
    "pointwise_leq",
    "interpolate",
    "grid_to_csv",
]

DEFAULT_INTERVALS = 512


def _check_intervals(n_intervals: int, minimum: int) -> None:
    """The one rule for interval counts: an ``int`` (not a bool) >= minimum."""
    # a float or bool would pass the bound and fail later inside numpy
    if not isinstance(n_intervals, int) or isinstance(n_intervals, bool):
        raise ValueError(f"n_intervals must be an integer, got {n_intervals!r}")
    if n_intervals < minimum:
        raise ValueError(f"n_intervals must be >= {minimum}")


@dataclass
class GridFunction:
    """Values on the uniform nodes t_j = j / n_intervals, j = 0..n_intervals.

    ``n_intervals`` is an ``int`` of at least 1 and the values are finite.
    Treated as immutable once built; comparisons and arithmetic go through
    the module functions rather than operator overloads.
    """

    n_intervals: int
    values: np.ndarray

    def __post_init__(self) -> None:
        _check_intervals(self.n_intervals, 1)
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.n_intervals + 1,):
            raise ValueError(
                f"need {self.n_intervals + 1} node values, got shape {vals.shape}"
            )
        if not np.isfinite(vals).all():
            raise ValueError("node values must be finite")
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
        nodes = np.arange(n_intervals + 1) / n_intervals
        return cls(n_intervals, np.array([float(fn(t)) for t in nodes]))

    @classmethod
    def zeros(cls, n_intervals: int = DEFAULT_INTERVALS) -> "GridFunction":
        return cls(n_intervals, np.zeros(n_intervals + 1))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridFunction):
            return NotImplemented
        return self.n_intervals == other.n_intervals and np.array_equal(
            self.values, other.values
        )

    __hash__ = None  # mutable ndarray payload


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
