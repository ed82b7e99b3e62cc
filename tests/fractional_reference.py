"""Test-only reference implementations of the fractional solver.

The product-trapezoid weights as a dense table, built row by row and applied
by per-row sums: the column-plus-band form in :mod:`relfix.fractional` is
compared with it, the rebuilt table exactly and the FFT apply within a
rounding tolerance. The operator and the Lipschitz probe as per-node loops
that call the rhs and the interpolation one scalar at a time: the whole-array
versions must agree with them exactly.
"""

import math
from typing import Optional

import numpy as np

from relfix.fractional import (
    FdeProblem,
    LipschitzReport,
    _apply_weights,
    _stable_power_diff,
    _trapezoid,
    gamma,
    lipschitz_bound,
    quadrature_weights,
)
from relfix.gridfn import GridFunction, pointwise_leq


def dense_weights(zeta: float, n_intervals: int) -> np.ndarray:
    """Weight of node j when targeting node i, as an (N+1) x (N+1) table."""
    n = n_intervals
    h = 1.0 / n
    ms = np.arange(1, n + 1)
    p = _stable_power_diff(ms, zeta) / zeta
    q = _stable_power_diff(ms, zeta + 1.0) / (zeta + 1.0)
    a = q - (ms - 1) * p
    b = ms * p - q
    scale = h**zeta / gamma(zeta)
    w = np.zeros((n + 1, n + 1))
    for row in range(1, n + 1):
        w[row, 0] = a[row - 1]
        w[row, row] = b[0]
        if row > 1:
            # interior node k combines interval (k-1, k] right endpoint and
            # interval [k, k+1) left endpoint: A(row-k) + B(row-k+1)
            w[row, 1:row] = a[row - 2 :: -1] + b[row - 1 : 0 : -1]
    w *= scale
    return w


def dense_apply(matrix: np.ndarray, values: np.ndarray) -> np.ndarray:
    # elementwise product + per-row pairwise sum: summation order is fixed by
    # node index, so results are bit-identical across runs and thread counts
    return (matrix * values[np.newaxis, :]).sum(axis=1)


def table_from_band(start: np.ndarray, band: np.ndarray) -> np.ndarray:
    """The dense table that ``start`` (column 0) and ``band`` describe."""
    n = len(band)
    w = np.zeros((n + 1, n + 1))
    w[1:, 0] = start
    rows, cols = np.tril_indices(n)
    w[rows + 1, cols + 1] = band[rows - cols]
    return w


def scalar_interpolate(u: GridFunction, t: float) -> float:
    """Piecewise-linear value at one t in [0, 1]."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t={t} outside [0, 1]")
    x = t * u.n_intervals
    j = min(int(x), u.n_intervals - 1)
    w = x - j
    return float((1.0 - w) * u.values[j] + w * u.values[j + 1])


def per_node_apply_T(u: GridFunction, prob: FdeProblem) -> GridFunction:
    """The operator with the rhs called once per node on scalars."""
    w = quadrature_weights(prob.zeta, prob.n_intervals)
    nodes = u.nodes
    hv = np.empty_like(u.values)
    for j, (t, uj) in enumerate(zip(nodes, u.values)):
        val = prob.rhs(float(t), float(uj))
        if not math.isfinite(val):
            raise ArithmeticError(f"rhs diverged at node {j}")
        hv[j] = val
    inner = _apply_weights(w, hv)
    c = _trapezoid(inner, w.step)
    return GridFunction(u.n_intervals, inner + 2.0 * nodes * c)


def scalar_lipschitz_check(prob, t_samples, pairs) -> LipschitzReport:
    """The Lipschitz probe as a loop over pairs, then samples."""
    bound = lipschitz_bound(prob)
    worst_ratio = 0.0
    worst_at: Optional[tuple[float, float, float]] = None
    for u, v in pairs:
        if not pointwise_leq(u, v):
            raise ValueError("pair is not ordered: need u <= v pointwise")
        for t in t_samples:
            uv = scalar_interpolate(u, t)
            vv = scalar_interpolate(v, t)
            gap = vv - uv
            if gap == 0.0:
                continue
            diff = prob.rhs(t, vv) - prob.rhs(t, uv)
            if not math.isfinite(diff):
                raise ArithmeticError(f"rhs difference not finite at t = {t!r}")
            ratio = abs(diff) / gap
            if ratio > worst_ratio or worst_at is None:
                worst_ratio = float(ratio)
                worst_at = (t, uv, vv)
    return LipschitzReport(
        bound=bound,
        worst_ratio=worst_ratio,
        margin=bound - worst_ratio,
        passed=worst_at is not None and worst_ratio <= bound,
        worst_at=worst_at,
    )
