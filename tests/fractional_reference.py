"""Test-only reference implementations of the fractional solver.

The product-trapezoid weights as a dense table, built row by row and applied
by per-row sums: the column-plus-band form in :mod:`relfix.fractional` is
compared with it, the rebuilt table exactly and the FFT apply within a
rounding tolerance. The operator and the Lipschitz probe as per-node loops
that call the rhs and the interpolation one scalar at a time: the whole-array
versions must agree with them exactly. The solver as it was before its
probe was stacked and its step preallocated: the masked power difference,
the concatenating weight apply, the operator that rebuilds the node array
and always broadcasts the rhs, and the probe that interpolates every pair
at the nodes and calls the rhs once per pair and side. The lean solver must
reproduce it bit for bit. The step and the probe as they were before the step
read its overflow test off the trapezoid C and the probe walked node blocks:
the step that scans the rhs values and the corrected nodes on every call, and
the probe that ranks boolean-mask copies of the stacked rows. The probe's
rows as they were before each run of the probe built its own: all three
pairs at every node, stacked whole. The weight build and the step as they
were before both reused their buffers: the build that keeps every moment
array of the whole grid alive, and the step that holds the rhs values
through both transforms and multiplies the spectrum out of place. The
references run the Picard engine of ``picard_reference``, which keeps every
iterate of the orbit.
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
    _OVERFLOW,
    _SAFE_TRAPEZOID,
    _apply_weights,
    _require_finite,
    _rhs_values,
    _trapezoid,
    gamma,
    lipschitz_bound,
    quadrature_weights,
)
from relfix.gridfn import GridFunction, interpolate, pointwise_leq, sup_diff
from relfix.picard import IterationTrace

from picard_reference import posthoc_iterate


def masked_power_diff(ms: np.ndarray, p: float) -> np.ndarray:
    """m^p - (m-1)^p for integer m >= 1, with m == 1 picked out by a mask."""
    out = np.empty_like(ms, dtype=float)
    first = ms == 1
    out[first] = 1.0
    rest = ~first
    m = ms[rest].astype(float)
    out[rest] = m**p * (-np.expm1(p * np.log1p(-1.0 / m)))
    return out


def dense_weights(zeta: float, n_intervals: int) -> np.ndarray:
    """Weight of node j when targeting node i, as an (N+1) x (N+1) table."""
    n = n_intervals
    h = 1.0 / n
    ms = np.arange(1, n + 1)
    p = masked_power_diff(ms, zeta) / zeta
    q = masked_power_diff(ms, zeta + 1.0) / (zeta + 1.0)
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


def concat_apply_weights(w, values: np.ndarray) -> np.ndarray:
    """The FFT weight apply that joins node 0 and the band by concatenation."""
    fft, m = np.fft, 2 * w.n_intervals
    conv = fft.irfft(w.band_spectrum * fft.rfft(values[1:], m), m)
    return np.concatenate(([0.0], conv[: w.n_intervals] + w.start * values[0]))


def first_non_finite(values: np.ndarray) -> Optional[int]:
    bad = ~np.isfinite(values)
    return int(np.argmax(bad)) if bad.any() else None


def broadcast_rhs_values(prob: FdeProblem, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    values = np.asarray(prob.rhs(t, u), dtype=float)
    try:
        return np.broadcast_to(values, t.shape)
    except ValueError:
        raise ValueError(
            "rhs(t, u) must return an array that broadcasts to the node shape "
            f"{t.shape}, got shape {values.shape}"
        ) from None


def concat_apply_T(u: GridFunction, prob: FdeProblem) -> GridFunction:
    """The operator on a fresh node array, with the concatenating apply."""
    if u.n_intervals != prob.n_intervals:
        raise ValueError("grid function does not match the problem grid")
    w = prob.weights
    nodes = u.nodes
    hv = broadcast_rhs_values(prob, nodes, u.values)
    bad = first_non_finite(hv)
    if bad is not None:
        raise ArithmeticError(f"rhs diverged at node {bad}")
    inner = concat_apply_weights(w, hv)
    c = _trapezoid(inner, w.step)
    return GridFunction(u.n_intervals, inner + 2.0 * nodes * c)


def interpolating_lipschitz_check(prob, t_samples, pairs) -> LipschitzReport:
    """The probe pair by pair: interpolate, skip zero gaps, two rhs calls."""
    bound = lipschitz_bound(prob)
    ts = np.asarray(t_samples, dtype=float)
    worst_ratio = 0.0
    worst_at: Optional[tuple[float, float, float]] = None
    for u, v in pairs:
        if not pointwise_leq(u, v):
            raise ValueError("pair is not ordered: need u <= v pointwise")
        uv = interpolate(u, ts)
        vv = interpolate(v, ts)
        keep = vv != uv
        if not keep.any():
            continue
        t, uv, vv = ts[keep], uv[keep], vv[keep]
        diff = broadcast_rhs_values(prob, t, vv) - broadcast_rhs_values(prob, t, uv)
        bad = first_non_finite(diff)
        if bad is not None:
            raise ArithmeticError(f"rhs difference not finite at t = {float(t[bad])!r}")
        ratio = np.abs(diff) / (vv - uv)
        k = int(np.argmax(ratio))
        if ratio[k] > worst_ratio or worst_at is None:
            worst_ratio = float(ratio[k])
            worst_at = (float(t[k]), float(uv[k]), float(vv[k]))
    return LipschitzReport(bound=bound, worst_ratio=worst_ratio, worst_at=worst_at)


def default_probe_pairs(n_intervals: int) -> list[tuple[GridFunction, GridFunction]]:
    """The solver's three probe pairs as grid functions."""
    nodes = np.arange(n_intervals + 1) / n_intervals
    zero = GridFunction(n_intervals, np.zeros(n_intervals + 1))
    one = GridFunction(n_intervals, np.ones(n_intervals + 1))
    ident = GridFunction(n_intervals, nodes.copy())
    half = GridFunction(n_intervals, 0.5 * nodes)
    half_up = GridFunction(n_intervals, 0.5 * nodes + 0.25)
    return [(zero, one), (zero, ident), (half, half_up)]


def reference_solve_fde(prob: FdeProblem) -> tuple[LipschitzReport, IterationTrace]:
    """The solver with the interpolating probe and the concatenating step.

    Returns the probe's report with the trace; raises like ``solve_fde``.
    """
    nodes = np.arange(prob.n_intervals + 1) / prob.n_intervals
    report = interpolating_lipschitz_check(prob, nodes, default_probe_pairs(prob.n_intervals))
    alpha = prob.lipschitz_alpha if report.passed else None
    if alpha is None:
        warnings.warn("rhs failed the sampled Lipschitz condition", stacklevel=2)
    trace = posthoc_iterate(
        lambda fn: concat_apply_T(fn, prob),
        sup_diff,
        pointwise_leq,
        GridFunction.zeros(prob.n_intervals),
        prob.policy,
        alpha=alpha,
    )
    if not trace.converged:
        raise ConvergenceFailure("no convergence", trace)
    return report, trace


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
    inner = concat_apply_weights(w, hv)
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
    return LipschitzReport(bound=bound, worst_ratio=worst_ratio, worst_at=worst_at)


def scanning_apply_T(u: GridFunction, prob: FdeProblem) -> GridFunction:
    """The step that scans the rhs values before the weight apply and every
    corrected node after it."""
    if u.n_intervals != prob.n_intervals:
        raise ValueError("grid function does not match the problem grid")
    w, nodes = prob.weights, prob.nodes
    hv = _rhs_values(prob, nodes, u.values)
    bad = first_non_finite(hv)
    if bad is not None:
        raise ArithmeticError(f"rhs diverged at node {bad}")
    inner = _apply_weights(w, hv)
    inner += nodes * (2.0 * _trapezoid(inner, w.step))
    bad = first_non_finite(inner)
    if bad is not None:
        raise ArithmeticError(f"computed value overflows a float at node {bad}")
    return GridFunction._computed(u.n_intervals, inner)


def stacked_probe_rows(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node values of the probe pairs (0, 1), (0, t) and (t/2, t/2 + 1/4),
    stacked one pair per row: the lower functions, then the upper ones."""
    half = 0.5 * nodes
    lower = np.zeros((3, len(nodes)))
    lower[2] = half
    upper = np.array((np.ones_like(nodes), nodes, half + 0.25))
    return lower, upper


def masked_stacked_check(
    prob: FdeProblem, t: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> LipschitzReport:
    """The probe on the whole stack, ranking boolean-mask copies of it."""
    bound = lipschitz_bound(prob)
    keep = upper != lower
    if not keep.any():
        return LipschitzReport(bound, 0.0, None)
    t = np.broadcast_to(t, lower.shape)
    lower.flags.writeable = upper.flags.writeable = False
    high = _rhs_values(prob, t, upper)
    low = _rhs_values(prob, t, lower)
    t, lower, upper = t[keep], lower[keep], upper[keep]
    diff = high[keep] - low[keep]
    bad = first_non_finite(diff)
    if bad is not None:
        raise ArithmeticError(f"rhs difference not finite at t = {float(t[bad])!r}")
    ratio = np.abs(diff) / (upper - lower)
    k = int(np.argmax(ratio))
    return LipschitzReport(bound, float(ratio[k]), (float(t[k]), float(lower[k]), float(upper[k])))


def scanning_solve_fde(prob: FdeProblem) -> tuple[LipschitzReport, IterationTrace]:
    """The solver with the masked probe and the scanning step.

    Returns the probe's report with the trace; raises like ``solve_fde``.
    """
    report = masked_stacked_check(prob, prob.nodes, *stacked_probe_rows(prob.nodes))
    alpha = prob.lipschitz_alpha if report.passed else None
    if alpha is None:
        warnings.warn("rhs failed the sampled Lipschitz condition", stacklevel=2)
    trace = posthoc_iterate(
        lambda fn: scanning_apply_T(fn, prob),
        sup_diff,
        pointwise_leq,
        GridFunction.zeros(prob.n_intervals),
        prob.policy,
        alpha=alpha,
    )
    if not trace.converged:
        raise ConvergenceFailure("no convergence", trace)
    return report, trace


def whole_array_power_diff(m: np.ndarray, log_ratio: np.ndarray, p: float) -> np.ndarray:
    """m^p - (m-1)^p for m = 1..n, given the floats m = 2..n and
    log_ratio = log1p(-1/m) for each of them, as a fresh array."""
    out = np.empty(len(m) + 1)
    out[0] = 1.0
    out[1:] = m**p * (-np.expm1(p * log_ratio))
    return out


def whole_array_weights(zeta: float, n: int) -> QuadratureWeights:
    """The weight table from whole-array expressions, every moment array of
    the grid alive at once; ``scale`` applied as one factor, even where it
    is not a normal float."""
    h = 1.0 / n
    scale = h**zeta / gamma(zeta)
    ms = np.arange(1, n + 1)
    m = ms[1:].astype(float)
    log_ratio = np.log1p(-1.0 / m)
    with np.errstate(over="ignore", invalid="ignore"):
        p = whole_array_power_diff(m, log_ratio, zeta) / zeta
        q = whole_array_power_diff(m, log_ratio, zeta + 1.0) / (zeta + 1.0)
        a = q - (ms - 1) * p
        b = ms * p - q
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


def holding_apply_weights(w, values: np.ndarray) -> np.ndarray:
    """The FFT weight apply with an out-of-place spectrum product."""
    fft, n = np.fft, w.n_intervals
    conv = fft.irfft(w.band_spectrum * fft.rfft(values[1:], 2 * n), 2 * n)
    out = np.empty(n + 1)
    out[0] = 0.0
    np.add(conv[:n], w.start * values[0], out=out[1:])
    return out


def holding_apply_T(u: GridFunction, prob: FdeProblem) -> GridFunction:
    """The step that holds the rhs values until C is read, and scans them,
    then the integral and the corrected nodes, only when C is not safe."""
    if u.n_intervals != prob.n_intervals:
        raise ValueError("grid function does not match the problem grid")
    w, nodes = prob.weights, prob.nodes
    hv = _rhs_values(prob, nodes, u.values)
    inner = holding_apply_weights(w, hv)
    c = _trapezoid(inner, w.step)
    if abs(c) < _SAFE_TRAPEZOID:
        inner += nodes * (2.0 * c)
    else:
        _require_finite(hv, "rhs diverged at node {}")
        _require_finite(inner, _OVERFLOW)
        inner += nodes * (2.0 * c)
        _require_finite(inner, _OVERFLOW)
    return GridFunction._computed(u.n_intervals, inner)

