"""Fractional-order integral operator and boundary-value solver.

The solver treats the two-point problem whose integral reformulation is

    (T u)(t) = I[h(., u(.))](t) + 2 t * integral_0^1 I[h(., u(.))](s) ds,

where I is the order-zeta integral with kernel (t - s)^(zeta - 1) / Gamma(zeta)
and h is the problem right-hand side; Gamma is the standard library's
``math.gamma`` behind a domain check. T is discretized on a uniform grid with
a product-trapezoid rule: the integrand is replaced by its piecewise-linear
interpolant and the singular kernel is integrated exactly against each linear
piece. The weights are one column for node 0 plus a lower-triangular
Toeplitz band, applied as one zero-padded real-FFT convolution. Fixed points
of T are approximated by Picard iteration under the sup-norm with the
pointwise order as audit relation: the solver hands ``picard.iterate`` the
map ``fn -> apply_T(fn, prob)`` and the predicate ``pointwise_leq`` as
plain callables.

The rhs is only ever called on whole arrays: once per Picard step on the
node array, and once per side of the Lipschitz probe on the values of every
probe pair stacked into one array. A problem builds its weights and node
array once and reuses them in every step.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import _EXPORTS
from ._records import FrozenRecord, real
from .gridfn import GridFunction, _check_intervals, interpolate, pointwise_leq, sup_diff
from .picard import IterationTrace, StoppingPolicy, iterate

__all__ = list(_EXPORTS["fractional"])

GAMMA_VARIANTS = ("alpha_plus_one", "zeta_plus_one")

def gamma(x: float) -> float:
    """Gamma function for positive real argument: ``math.gamma`` with the
    domain checked.

    Accuracy contract: relative error <= 1e-10 on [0.05, 20]. An argument
    that is not a positive finite real, or whose Gamma overflows a float
    (above about 171.62 or below about 5.6e-309), raises :class:`ValueError`.
    """
    if real(x, "gamma argument must be finite") <= 0.0:
        raise ValueError("gamma argument must be positive")
    try:
        return math.gamma(x)
    except OverflowError:
        raise ValueError(f"Gamma({x!r}) is too large for a float") from None


def _stable_power_diff(ms: np.ndarray, p: float) -> np.ndarray:
    """m^p - (m-1)^p without cancellation, for ms = 1, 2, ..., n.

    Written as m^p * (-expm1(p * log1p(-1/m))) so the difference keeps full
    relative precision even when m is large and the two powers nearly agree.
    m = 1, at index 0, is exactly 1 (the formula would take log1p(-1)).
    """
    out = np.empty(len(ms))
    out[0] = 1.0
    m = ms[1:].astype(float)
    out[1:] = m**p * (-np.expm1(p * np.log1p(-1.0 / m)))
    return out


class QuadratureWeights(FrozenRecord):
    """Product-trapezoid weights for the order-zeta integral on a uniform grid.

    For target node i >= 1 the weight of node 0 is ``start[i - 1]`` and the
    weight of node k in 1..i is ``band[i - k]``; target node 0 has no
    weights. Every target reproduces constants exactly:
    start[i - 1] + band[0] + ... + band[i - 1] = t_i^zeta / Gamma(zeta + 1).
    ``band_spectrum`` is the real FFT of ``band`` zero-padded to length 2N,
    the half of the convolution that does not depend on the input.
    Immutable; the fields live in the instance ``__dict__`` (no
    ``__slots__``), so ``vars()`` lists the arrays.
    """

    _fields = ("zeta", "n_intervals", "start", "band", "band_spectrum")

    def __init__(
        self,
        zeta: float,
        n_intervals: int,
        start: np.ndarray,
        band: np.ndarray,
        band_spectrum: np.ndarray,
    ) -> None:
        super().__init__(zeta, n_intervals, start, band, band_spectrum)

    @property
    def step(self) -> float:
        return 1.0 / self.n_intervals


def quadrature_weights(zeta: float, n_intervals: int) -> QuadratureWeights:
    """Build the node-0 column, the Toeplitz band and its spectrum.

    Exact on piecewise-linear integrands. For each source interval
    [t_{m-1}, t_m] relative to the target, the kernel moments
    P_m = (m^z - (m-1)^z)/z and Q_m = (m^(z+1) - (m-1)^(z+1))/(z+1) give the
    left/right endpoint contributions A(m) = Q_m - (m-1) P_m and
    B(m) = m P_m - Q_m (in units of h^z). Node 0 at distance i gets A(i),
    an interior node at distance d gets A(d) + B(d + 1) and the target B(1).
    """
    real(zeta, "zeta must be positive and finite", above=0.0)
    n = _check_intervals(n_intervals, 1)
    h = 1.0 / n
    scale = h**zeta / gamma(zeta)  # before the moments: they divide by zeta
    ms = np.arange(1, n + 1)
    p = _stable_power_diff(ms, zeta) / zeta
    q = _stable_power_diff(ms, zeta + 1.0) / (zeta + 1.0)
    a = q - (ms - 1) * p
    b = ms * p - q
    band = np.concatenate((b[:1], a[:-1] + b[1:])) * scale
    # np.fft runs single-threaded, so results do not depend on BLAS threads
    # (np.convolve does). np.fft is loaded on first use, not at import.
    spectrum = np.fft.rfft(band, 2 * n)
    return QuadratureWeights(
        zeta=zeta, n_intervals=n, start=a * scale, band=band, band_spectrum=spectrum
    )


def _apply_weights(w: QuadratureWeights, values: np.ndarray) -> np.ndarray:
    # linear convolution of the band with values[1:] by zero-padded real FFT
    fft, n = np.fft, w.n_intervals
    conv = fft.irfft(w.band_spectrum * fft.rfft(values[1:], 2 * n), 2 * n)
    out = np.empty(n + 1)
    out[0] = 0.0
    np.add(conv[:n], w.start * values[0], out=out[1:])
    return out


def frac_integral(u: GridFunction, zeta: float) -> GridFunction:
    """Order-zeta integral of a grid function, evaluated at every node."""
    w = quadrature_weights(zeta, u.n_intervals)
    return GridFunction(u.n_intervals, _apply_weights(w, u.values))


def _trapezoid(values: np.ndarray, h: float) -> float:
    return float(h * (0.5 * values[0] + values[1:-1].sum() + 0.5 * values[-1]))


class FdeProblem(FrozenRecord):
    """A fractional-order two-point problem and its solver configuration.

    ``rhs(t, u)`` is the driving term, evaluated elementwise on whole
    arrays: it receives the node array ``t`` and the value array ``u`` (of
    one shape) and returns an array of real values that broadcasts to that
    shape (a scalar does); any other result, a complex one included, raises
    :class:`ValueError`. The Picard step passes the node array, of shape
    (N+1,); the Lipschitz probe passes its pairs stacked, one row each, so
    the rhs must act elementwise on arrays of any shape. Write it with numpy
    ufuncs (``np.sin``, not ``math.sin``) and branch with ``np.where``, not
    ``if``. ``zeta`` is a positive finite real and ``n_intervals`` an
    integer of at least 8, stored as ``int``. ``lipschitz_alpha``, in
    (0, 1), is the contraction parameter the Lipschitz condition is tested
    against; ``gamma_variant`` selects whose order feeds the Gamma factor
    in the Lipschitz bound ("alpha_plus_one" uses the contraction
    parameter, "zeta_plus_one" the integral order — both appear in
    circulation, so both are supported).
    The quadrature weights and the read-only node array are built on first
    use and kept as ``weights`` and ``nodes``.
    """

    _fields = ("rhs", "zeta", "n_intervals", "policy", "lipschitz_alpha", "gamma_variant")
    __slots__ = (*_fields, "_weights", "_nodes")

    def __init__(
        self,
        rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
        zeta: float = 0.9,
        n_intervals: int = 512,
        policy: StoppingPolicy = StoppingPolicy(),
        lipschitz_alpha: float = 0.5,
        gamma_variant: str = "zeta_plus_one",
    ) -> None:
        real(zeta, "zeta must be positive and finite", above=0.0)
        n_intervals = _check_intervals(n_intervals, 8)
        real(lipschitz_alpha, "lipschitz_alpha must lie in (0, 1)", above=0.0, below=1.0)
        if gamma_variant not in GAMMA_VARIANTS:
            raise ValueError(f"gamma_variant must be one of {GAMMA_VARIANTS}")
        super().__init__(rhs, zeta, n_intervals, policy, lipschitz_alpha, gamma_variant)
        object.__setattr__(self, "_weights", None)
        object.__setattr__(self, "_nodes", None)

    @property
    def weights(self) -> QuadratureWeights:
        if self._weights is None:
            w = quadrature_weights(self.zeta, self.n_intervals)
            object.__setattr__(self, "_weights", w)
        return self._weights

    @property
    def nodes(self) -> np.ndarray:
        if self._nodes is None:
            nodes = np.arange(self.n_intervals + 1) / self.n_intervals
            nodes.flags.writeable = False  # every step shares it with the rhs
            object.__setattr__(self, "_nodes", nodes)
        return self._nodes

    @property
    def regime_note(self) -> str:
        if 1.0 < self.zeta <= 2.0:
            return "zeta in (1, 2]: stated well-posedness regime"
        return "zeta outside (1, 2]: demonstration regime"


def lipschitz_bound(prob: FdeProblem) -> float:
    """The constant the rhs increments are tested against."""
    a = prob.lipschitz_alpha
    order = a if prob.gamma_variant == "alpha_plus_one" else prob.zeta
    return a * gamma(order + 1.0) / 4.0


class LipschitzReport(NamedTuple):
    """Outcome of sampling the rhs Lipschitz condition.

    ``margin = bound - worst_ratio``; nonnegative margin means every sampled
    increment fits under the bound. ``worst_at`` is (t, u_value, v_value) at
    the worst ratio, or None when no sample was informative; such a probe
    has not tested anything and does not pass.
    """

    bound: float
    worst_ratio: float
    margin: float
    passed: bool
    worst_at: Optional[tuple[float, float, float]]


def _rhs_values(prob: FdeProblem, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The rhs on arrays ``t`` and ``u`` of one shape: nodes, or probe rows."""
    values = np.asarray(prob.rhs(t, u))
    if values.dtype.kind not in "fiu":
        # only integer and float kinds are real values: a float conversion
        # would drop an imaginary part with only a warning and read a bool
        # as 0 or 1, None as NaN and a datetime as its tick count
        raise ValueError(f"rhs(t, u) must return real values, got dtype {values.dtype}")
    values = values.astype(float, copy=False)
    if values.shape == t.shape:
        return values
    try:
        return np.broadcast_to(values, t.shape)
    except ValueError:
        raise ValueError(
            "rhs(t, u) must return an array that broadcasts to the node shape "
            f"{t.shape[-1:]}, got shape {values.shape} for t and u of shape {t.shape}"
        ) from None


def _first_non_finite(values: np.ndarray) -> Optional[int]:
    finite = np.isfinite(values)
    return None if finite.all() else int(np.argmin(finite))


def lipschitz_check(
    prob: FdeProblem,
    t_samples: Sequence[float],
    pairs: Sequence[tuple[GridFunction, GridFunction]],
) -> LipschitzReport:
    """Test |rhs(t, v) - rhs(t, u)| <= bound * (v - u) on ordered samples.

    Every supplied pair must satisfy u <= v pointwise. Each pair is
    interpolated at the samples and the pairs are stacked, one row each, so
    the rhs is called once per side for all of them. Samples where the two
    functions agree carry no ratio information and are skipped. With no
    informative sample at all (no samples, no pairs, or every gap zero) the
    margin degenerates to the full bound and the check does not pass. A
    non-finite rhs difference raises :class:`ArithmeticError` naming the
    first such t in pair-then-sample order. ``worst_at`` is the first
    maximum in that order.
    """
    for u, v in pairs:
        if not pointwise_leq(u, v):
            raise ValueError("pair is not ordered: need u <= v pointwise")
    ts = np.asarray(t_samples, dtype=float)
    lower = np.array([interpolate(u, ts) for u, _ in pairs])
    upper = np.array([interpolate(v, ts) for _, v in pairs])
    return _stacked_check(prob, ts, lower, upper)


def _stacked_check(
    prob: FdeProblem, t: np.ndarray, lower: np.ndarray, upper: np.ndarray
) -> LipschitzReport:
    """The Lipschitz probe on stacked values: row p of ``lower`` and
    ``upper`` holds pair p's two functions at the samples ``t``.

    The rhs is called on the whole stack, uninformative samples included,
    so its arrays keep the stacked shape; only informative samples are
    checked and ranked.
    """
    bound = lipschitz_bound(prob)
    keep = upper != lower
    if not keep.any():
        return LipschitzReport(bound, 0.0, bound, False, None)
    t = np.broadcast_to(t, lower.shape)
    high = _rhs_values(prob, t, upper)
    low = _rhs_values(prob, t, lower)
    # row-major boolean indexing keeps pair-then-sample order
    t, lower, upper = t[keep], lower[keep], upper[keep]
    diff = high[keep] - low[keep]
    bad = _first_non_finite(diff)
    if bad is not None:
        raise ArithmeticError(f"rhs difference not finite at t = {float(t[bad])!r}")
    ratio = np.abs(diff) / (upper - lower)
    k = int(np.argmax(ratio))
    worst_ratio = float(ratio[k])
    return LipschitzReport(
        bound=bound,
        worst_ratio=worst_ratio,
        margin=bound - worst_ratio,
        passed=worst_ratio <= bound,
        worst_at=(float(t[k]), float(lower[k]), float(upper[k])),
    )


def apply_T(u: GridFunction, prob: FdeProblem) -> GridFunction:
    """One application of the integral operator to a grid function.

    The rhs is evaluated once, on the problem's node array. The linear-in-t
    correction 2 t C uses C = trapezoid of the inner integral's node values,
    computed once per call.
    """
    if u.n_intervals != prob.n_intervals:
        raise ValueError("grid function does not match the problem grid")
    w, nodes = prob.weights, prob.nodes
    hv = _rhs_values(prob, nodes, u.values)
    bad = _first_non_finite(hv)
    if bad is not None:
        raise ArithmeticError(f"rhs diverged at node {bad}")
    inner = _apply_weights(w, hv)
    inner += 2.0 * nodes * _trapezoid(inner, w.step)
    return GridFunction(u.n_intervals, inner)


class ConvergenceFailure(RuntimeError):
    """Raised when the Picard run exhausts its budget; carries the trace."""

    def __init__(self, message: str, trace: IterationTrace):
        super().__init__(message)
        self.trace = trace


def _probe_rows(nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Node values of the probe pairs (0, 1), (0, t) and (t/2, t/2 + 1/4),
    stacked one pair per row: the lower functions, then the upper ones."""
    half = 0.5 * nodes
    lower = np.zeros((3, len(nodes)))
    lower[2] = half
    upper = np.array((np.ones_like(nodes), nodes, half + 0.25))
    return lower, upper


def solve_fde(prob: FdeProblem) -> tuple[IterationTrace, GridFunction]:
    """Picard-iterate the integral operator from the zero function.

    The Lipschitz condition is first sampled at every node on three ordered
    pairs, (0, 1), (0, t) and (t/2, t/2 + 1/4). At a node a grid function
    equals its node value, so the probe reads node values directly, stacked,
    and calls the rhs twice in all. Residuals are sup-norm successive
    differences; the pointwise order is audited along the orbit. When the
    sampled Lipschitz condition passes, the contraction parameter is
    recorded on the trace and drives the per-step bound certificates.
    Non-convergence raises :class:`ConvergenceFailure` with the partial
    trace attached.
    """
    report = _stacked_check(prob, prob.nodes, *_probe_rows(prob.nodes))
    alpha: Optional[float] = prob.lipschitz_alpha
    if not report.passed:
        warnings.warn(
            "rhs failed the sampled Lipschitz condition "
            f"(worst ratio {report.worst_ratio:.6g} > bound {report.bound:.6g}); "
            "no contraction certificate will be attached",
            stacklevel=2,
        )
        alpha = None
    trace = iterate(
        lambda fn: apply_T(fn, prob),
        sup_diff,
        pointwise_leq,
        GridFunction.zeros(prob.n_intervals),
        prob.policy,
        alpha=alpha,
    )
    if not trace.converged:
        raise ConvergenceFailure(
            f"no convergence within {prob.policy.max_iterations} iterations "
            f"(last residual {trace.residuals[-1]:.3e})",
            trace,
        )
    return trace, trace.iterates[-1]


def boundary_residuals(solution: GridFunction) -> tuple[float, float]:
    """Measure both boundary conditions on a computed solution.

    Returns (|f(0)|, |integral_0^1 f - f'(0)|) with the integral taken by
    the trapezoid rule and f'(0) by the one-sided second-order difference.
    The first is zero by construction; the second is reported as a
    diagnostic and deliberately not asserted small. The difference needs at
    least 3 nodes (n_intervals >= 2).
    """
    v = solution.values
    if len(v) < 3:
        raise ValueError("boundary_residuals needs at least 3 nodes (n_intervals >= 2)")
    h = solution.step
    first = abs(float(v[0]))
    integral = _trapezoid(v, h)
    fprime0 = float(-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    return first, abs(integral - fprime0)


def demo_rhs(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Showcase right-hand side u/16 + sin t (Lipschitz ratio exactly 1/16)."""
    return u / 16.0 + np.sin(t)


def demo_problem(
    n_intervals: int = 512,
    zeta: float = 0.9,
    policy: Optional[StoppingPolicy] = None,
    gamma_variant: str = "zeta_plus_one",
) -> FdeProblem:
    """The showcase configuration used by the CLI and the figure scripts."""
    return FdeProblem(
        rhs=demo_rhs,
        zeta=zeta,
        n_intervals=n_intervals,
        policy=policy if policy is not None else StoppingPolicy(),
        lipschitz_alpha=0.5,
        gamma_variant=gamma_variant,
    )
