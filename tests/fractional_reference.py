"""Test-only references for the fractional solver, one per concept.

- Weights: ``moments`` gives A(m) and B(m) from whole-array expressions;
  ``dense_weights`` places them row by row in an (N+1) x (N+1) table, and
  ``whole_array_weights`` gives the column and the band.
- Step: ``per_node_apply_T`` calls the rhs once per node on scalars and
  applies the band by a concatenating FFT convolution.
- Probe: ``scalar_lipschitz_check`` loops over pairs, then samples, each
  pair given as two functions of t.
- Solve: ``reference_solve_fde`` runs the step from the zero function under
  ``picard_reference.posthoc_iterate``, which keeps every iterate, after the
  probe has tested the solver's three pairs at the nodes in closed form.

A rewrite of the solver compares with these, never with its predecessor.
"""

import math
import warnings
from typing import Optional

import numpy as np

from relfix.fractional import (
    ConvergenceFailure,
    FdeProblem,
    LipschitzReport,
    QuadratureWeights,
    gamma,
    lipschitz_bound,
    quadrature_weights,
)
from relfix.gridfn import GridFunction, pointwise_leq, sup_diff
from relfix.picard import IterationTrace

from picard_reference import posthoc_iterate


def power_diff(m: np.ndarray, log_ratio: np.ndarray, p: float) -> np.ndarray:
    """m^p - (m-1)^p for m = 1..n, given the floats m = 2..n and
    log_ratio = log1p(-1/m) for each of them, as a fresh array."""
    out = np.empty(len(m) + 1)
    out[0] = 1.0
    out[1:] = m**p * (-np.expm1(p * log_ratio))
    return out


def moments(zeta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """A(m) and B(m) for m = 1..n, in units of h^zeta: the left and right
    endpoint weights of the source interval m places from the target."""
    ms = np.arange(1, n + 1)
    m = ms[1:].astype(float)
    log_ratio = np.log1p(-1.0 / m)
    p = power_diff(m, log_ratio, zeta) / zeta
    q = power_diff(m, log_ratio, zeta + 1.0) / (zeta + 1.0)
    return q - (ms - 1) * p, ms * p - q


def dense_weights(zeta: float, n_intervals: int) -> np.ndarray:
    """Weight of node j when targeting node i, as an (N+1) x (N+1) table."""
    n = n_intervals
    a, b = moments(zeta, n)
    w = np.zeros((n + 1, n + 1))
    for row in range(1, n + 1):
        w[row, 0] = a[row - 1]
        w[row, row] = b[0]
        if row > 1:
            # interior node k combines interval (k-1, k] right endpoint and
            # interval [k, k+1) left endpoint: A(row-k) + B(row-k+1)
            w[row, 1:row] = a[row - 2 :: -1] + b[row - 1 : 0 : -1]
    w *= (1.0 / n) ** zeta / gamma(zeta)
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


def whole_array_weights(zeta: float, n: int) -> QuadratureWeights:
    """The weight table from whole-array expressions, every moment array of
    the grid alive at once; ``scale`` applied as one factor, even where it
    is not a normal float."""
    scale = (1.0 / n) ** zeta / gamma(zeta)
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = moments(zeta, n)
        start = a * scale
        band = np.concatenate((b[:1], a[:-1] + b[1:])) * scale
        spectrum = np.fft.rfft(band, 2 * n)
    if not all(np.isfinite(x).all() for x in (start, band, spectrum)):
        raise ValueError(
            f"quadrature weights for zeta={float(zeta)!r} on {n} intervals overflow a float"
        )
    return QuadratureWeights(
        zeta=zeta, n_intervals=n, start=start, band=band, band_spectrum=spectrum
    )


def concat_apply_weights(w, values: np.ndarray) -> np.ndarray:
    """The FFT weight apply that joins node 0 and the band by concatenation."""
    fft, m = np.fft, 2 * w.n_intervals
    conv = fft.irfft(w.band_spectrum * fft.rfft(values[1:], m), m)
    return np.concatenate(([0.0], conv[: w.n_intervals] + w.start * values[0]))


def trapezoid(values: np.ndarray, h: float) -> float:
    return float(h * (0.5 * values[0] + values[1:-1].sum() + 0.5 * values[-1]))


def require_finite(values: np.ndarray) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        raise ArithmeticError(f"computed value overflows a float at node {int(np.argmax(bad))}")


def per_node_apply_T(u: GridFunction, prob: FdeProblem) -> GridFunction:
    """The operator with the rhs called once per node on scalars. The first
    non-finite rhs value is named; then every node of the integral is
    scanned before the correction 2 t C, and every corrected node after it."""
    w = quadrature_weights(prob.zeta, prob.n_intervals)
    nodes = u.nodes
    hv = np.empty_like(u.values)
    for j, (t, uj) in enumerate(zip(nodes, u.values)):
        val = prob.rhs(float(t), float(uj))
        if not math.isfinite(val):
            raise ArithmeticError(f"rhs diverged at node {j}")
        hv[j] = val
    inner = concat_apply_weights(w, hv)
    require_finite(inner)
    inner += nodes * (2.0 * trapezoid(inner, w.step))
    require_finite(inner)
    return GridFunction(u.n_intervals, inner)


def scalar_interpolate(u: GridFunction, t: float) -> float:
    """Piecewise-linear value at one t in [0, 1]."""
    if not (0.0 <= t <= 1.0):
        raise ValueError(f"t={t} outside [0, 1]")
    x = t * u.n_intervals
    j = min(int(x), u.n_intervals - 1)
    w = x - j
    return float((1.0 - w) * u.values[j] + w * u.values[j + 1])


def interpolated(u: GridFunction, v: GridFunction) -> tuple:
    """A pair of grid functions as the probe's two functions of t."""
    return (lambda t: scalar_interpolate(u, t)), (lambda t: scalar_interpolate(v, t))


# the solver's probe pairs (0, 1), (0, t) and (t/2, t/2 + 1/4) in closed form
NODE_PROBE_PAIRS = (
    (lambda t: 0.0, lambda t: 1.0),
    (lambda t: 0.0, lambda t: t),
    (lambda t: 0.5 * t, lambda t: 0.5 * t + 0.25),
)


def scalar_lipschitz_check(prob, t_samples, pairs) -> LipschitzReport:
    """The Lipschitz probe as a loop over pairs, then samples: each pair is
    a lower and an upper function of t. The first non-finite difference in
    that order raises; ``worst_at`` is the first maximum."""
    bound = lipschitz_bound(prob)
    worst_ratio = 0.0
    worst_at: Optional[tuple[float, float, float]] = None
    for lower, upper in pairs:
        for t in map(float, t_samples):
            uv, vv = float(lower(t)), float(upper(t))
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
    return LipschitzReport(bound=bound, worst_ratio=worst_ratio, worst_at=worst_at)


def reference_solve_fde(prob: FdeProblem) -> tuple[LipschitzReport, IterationTrace]:
    """The solver from the scalar probe on the closed-form pairs at the
    nodes and the per-node step, every iterate of the orbit kept.

    Returns the probe's report with the trace; raises like ``solve_fde``.
    """
    nodes = np.arange(prob.n_intervals + 1) / prob.n_intervals
    report = scalar_lipschitz_check(prob, nodes, NODE_PROBE_PAIRS)
    alpha = prob.lipschitz_alpha if report.passed else None
    if alpha is None:
        warnings.warn("rhs failed the sampled Lipschitz condition", stacklevel=2)
    trace = posthoc_iterate(
        lambda fn: per_node_apply_T(fn, prob),
        sup_diff,
        pointwise_leq,
        GridFunction.zeros(prob.n_intervals),
        prob.policy,
        alpha=alpha,
    )
    if not trace.converged:
        raise ConvergenceFailure("no convergence", trace)
    return report, trace
