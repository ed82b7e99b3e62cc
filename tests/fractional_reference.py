"""Test-only reference: the product-trapezoid weights as a dense table.

The table is built row by row and applied by per-row sums. The column-plus-
band form in :mod:`relfix.fractional` is compared with it: the rebuilt table
exactly, the FFT apply within a rounding tolerance.
"""

import numpy as np

from relfix.fractional import _stable_power_diff, gamma


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
