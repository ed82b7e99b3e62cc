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

The rhs is only ever called on whole 1-D arrays: once per Picard step on
the node array, and once per side for each run of the Lipschitz probe. The
probe reads its pairs as one pair-major stream, pair 0's samples first, and
walks it in 1-D runs of up to ``_PROBE_BLOCK`` samples, so the walk is in
pair-then-sample order; each run's values are built when the walk reaches
it, so the probe's memory is O(run), not O(N). A solve keeps three
iterates of its orbit (see :func:`solve_fde`). A step scans its rhs values
for finiteness only when node 0 or the first bin of their transform is not
finite, and the nodes of its integral only when the trapezoid C says one may
be non-finite (see :func:`apply_T`). A problem builds its node array once and
reuses it in every step; its weights are the one read-only table that
every live problem with the same (zeta, N) shares.
"""

from __future__ import annotations

import math
import sys
import warnings
import weakref
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import _EXPORTS
from ._records import FrozenRecord, real
from .gridfn import (
    GridFunction,
    _check_intervals,
    _real_array,
    interpolate,
    pointwise_leq,
    sup_diff,
)
from .picard import IterationTrace, StoppingPolicy, iterate

__all__ = list(_EXPORTS["fractional"])

GAMMA_VARIANTS = ("alpha_plus_one", "zeta_plus_one")

def gamma(x: float) -> float:
    """Gamma function for positive real argument: ``math.gamma`` with the
    domain checked.

    Accuracy contract: relative error <= 1e-10 on [0.05, 20]. An argument
    that is not a positive finite real raises :class:`ValueError` naming
    it, and so does one whose Gamma overflows a float (above about 171.62
    or below about 5.6e-309).
    """
    real(x, "gamma argument must be a finite real > 0, got {value!r}", above=0.0)
    try:
        return math.gamma(x)
    except OverflowError:
        raise ValueError(f"Gamma({float(x)!r}) is too large for a float") from None


def _stable_power_diff(
    m: np.ndarray, log_ratio: np.ndarray, p: float, out: np.ndarray, work: np.ndarray
) -> None:
    """m^p - (m-1)^p without cancellation into ``out``, for m = 1, 2, ..., n,
    given the floats m = 1..n and, from index 1 on, log_ratio = log1p(-1/m).

    Written as m^p * (-expm1(p * log1p(-1/m))) so the difference keeps full
    relative precision even when m is large and the two powers nearly agree.
    m = 1, at index 0, is exactly 1 (the formula would take log1p(-1)).
    ``work`` is scratch of the same length; it may be ``log_ratio`` itself,
    which is then consumed.
    """
    out[0] = 1.0
    np.power(m[1:], p, out=out[1:])
    tail = np.multiply(p, log_ratio[1:], out=work[1:])
    np.expm1(tail, out=tail)
    np.negative(tail, out=tail)
    out[1:] *= tail


class QuadratureWeights(FrozenRecord):
    """Product-trapezoid weights for the order-zeta integral on a uniform grid.

    For target node i >= 1 the weight of node 0 is ``start[i - 1]`` and the
    weight of node k in 1..i is ``band[i - k]``; target node 0 has no
    weights. Every target reproduces constants exactly:
    start[i - 1] + band[0] + ... + band[i - 1] = t_i^zeta / Gamma(zeta + 1).
    ``band_spectrum`` is the real FFT of ``band`` zero-padded to length 2N,
    the half of the convolution that does not depend on the input.
    Immutable; the fields live in the instance ``__dict__`` (no
    ``__slots__``), so ``vars()`` lists the arrays, which
    :func:`quadrature_weights` builds read-only, and a table can be held
    weakly by the module's table of live weights. Like a
    :class:`GridFunction`, two tables are equal when their fields are, the
    arrays compared by value, and a table is unhashable.
    """

    _fields = ("zeta", "n_intervals", "start", "band", "band_spectrum")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QuadratureWeights):
            return NotImplemented
        return all(np.array_equal(x, y) for x, y in zip(self._values(), other._values()))

    @property
    def step(self) -> float:
        return 1.0 / self.n_intervals


# Every live weight table, by (type(zeta), zeta, N). Its arrays are read-only,
# so problems can share it; held weakly, a table is freed with the last
# problem that holds it, and memory at large N is that of the problems.
_TABLES: weakref.WeakValueDictionary[tuple, QuadratureWeights] = weakref.WeakValueDictionary()


def quadrature_weights(zeta: float, n_intervals: int) -> QuadratureWeights:
    """The node-0 column, the Toeplitz band and its spectrum for (zeta, N).

    The arguments are checked first. A live table for the same
    ``(type(zeta), zeta, N)`` is then returned as it is, the same object
    (so ``1`` and ``1.0`` get tables of their own); only a miss builds one.
    A table is read-only and held weakly here: it lives as long as some
    problem, or other caller, holds it.

    Exact on piecewise-linear integrands. For each source interval
    [t_{m-1}, t_m] relative to the target, the kernel moments
    P_m = (m^z - (m-1)^z)/z and Q_m = (m^(z+1) - (m-1)^(z+1))/(z+1) give the
    left/right endpoint contributions A(m) = Q_m - (m-1) P_m and
    B(m) = m P_m - Q_m (in units of h^z). Node 0 at distance i gets A(i),
    an interior node at distance d gets A(d) + B(d + 1) and the target B(1).
    Each is then scaled by h^z / Gamma(z); where that product is not a
    normal float (from zeta = 64 at N = 4096), h^z and 1 / Gamma(z) are
    applied one after the other, so the table still sums to the constants
    above rather than to 0. A ``zeta`` above about 709.78 / ln N - 1
    overflows m^zeta and raises :class:`ValueError` naming ``zeta`` and N.
    A build holds four arrays of N floats, reused in place, and then the
    table alone: its peak is the table's size and a finiteness mask.
    """
    real(zeta, "zeta must be positive and finite, got {value!r}", above=0.0)
    n = _check_intervals(n_intervals, 1)
    key = (type(zeta), zeta, n)  # hashable: zeta is a real number by now
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _build_weights(zeta, n)
    return table


def _build_weights(zeta: float, n: int) -> QuadratureWeights:
    h = 1.0 / n
    power, gamma_zeta = h**zeta, gamma(zeta)  # before the moments: they divide by zeta
    scale = power / gamma_zeta
    # Four arrays of n floats, each reused through out=: m, log_ratio, p and q
    # become m p - q, A, the band and nothing. Every element takes the same
    # operations as in a whole-array expression, so the table's bits are those.
    m = np.arange(1.0, n + 1.0)  # m = 1..n, exact
    log_ratio, p, q = np.empty(n), np.empty(n), np.empty(n)
    # an overflowing m^zeta is refused below, not left to numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        np.log1p(np.divide(-1.0, m[1:], out=log_ratio[1:]), out=log_ratio[1:])
        _stable_power_diff(m, log_ratio, zeta, p, q)
        p /= zeta
        _stable_power_diff(m, log_ratio, zeta + 1.0, q, log_ratio)  # the last use of log_ratio
        q /= zeta + 1.0
        start = np.subtract(m, 1.0, out=log_ratio)  # A = Q - (m - 1) P
        start *= p
        np.subtract(q, start, out=start)
        b = np.multiply(m, p, out=m)  # B = m P - Q
        b -= q
        band = p
        band[0] = b[0]
        np.add(start[:-1], b[1:], out=band[1:])
        del m, b, q
        # A scale below the normal range would round the table to zeros or to
        # a few bits: its two factors are then applied one at a time.
        for x in (start, band):
            if scale >= sys.float_info.min:
                x *= scale
            else:
                x *= power
                x /= gamma_zeta
        # np.fft runs single-threaded, so results do not depend on BLAS threads
        # (np.convolve does). np.fft is loaded on first use, not at import.
        spectrum = np.fft.rfft(band, 2 * n)
    if not all(np.isfinite(x).all() for x in (start, band, spectrum)):
        raise ValueError(
            f"quadrature weights for zeta={float(zeta)!r} on {n} intervals overflow a float"
        )
    start.flags.writeable = band.flags.writeable = spectrum.flags.writeable = False
    return QuadratureWeights(
        zeta=zeta, n_intervals=n, start=start, band=band, band_spectrum=spectrum
    )


def _apply_weights(w: QuadratureWeights, values: np.ndarray) -> np.ndarray:
    """The integral of the node values ``values``: node 0's column plus the
    linear convolution of the band with values[1:], by zero-padded real FFT.

    A NaN or an infinity in ``values`` raises :class:`ArithmeticError`
    naming its first node as the rhs's: only a step's rhs values can hold
    one, since a grid function's are finite. Node 0 and the first bin of the
    forward transform, which sums values[1:], tell whether to scan. A step
    passes its rhs values as a temporary, so this frame holds their last
    reference and frees them before the inverse transform: its work is then
    the spectrum, multiplied in place, and the convolution, four node arrays.
    """
    fft, n = np.fft, w.n_intervals
    first = float(values[0])
    spectrum = fft.rfft(values[1:], 2 * n)
    if not (math.isfinite(first) and math.isfinite(spectrum[0].real)):
        _require_finite(values, "rhs diverged at node {}")
    del values
    # band_spectrum first: the other operand order does not give these bits
    np.multiply(w.band_spectrum, spectrum, out=spectrum)
    conv = fft.irfft(spectrum, 2 * n)
    del spectrum
    out = np.empty(n + 1)
    out[0] = 0.0
    np.multiply(w.start, first, out=out[1:])
    out[1:] += conv[:n]
    return out


_OVERFLOW = "computed value overflows a float at node {}"


def _require_finite(values: np.ndarray, message: str) -> None:
    """Raise :class:`ArithmeticError` with ``message`` naming the index of
    the first NaN or infinity in the 1-D array ``values``, if it has one."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ArithmeticError(message.format(int(np.argmin(finite))))


def frac_integral(u: GridFunction, zeta: float) -> GridFunction:
    """Order-zeta integral of a grid function, evaluated at every node.

    An integral that overflows a float raises :class:`ArithmeticError`
    naming the first node where it does.
    """
    w = quadrature_weights(zeta, u.n_intervals)
    values = _apply_weights(w, u.values)
    _require_finite(values, _OVERFLOW)
    return GridFunction._computed(u.n_intervals, values)


def _trapezoid(values: np.ndarray, h: float) -> float:
    return float(h * (0.5 * values[0] + values[1:-1].sum() + 0.5 * values[-1]))


class FdeProblem(FrozenRecord):
    """A fractional-order two-point problem and its solver configuration.

    ``rhs(t, u)`` is the driving term, evaluated elementwise on 1-D arrays
    ``t`` and ``u`` of one shape: the node array, of shape (N+1,), in the
    Picard step, and 1-D runs of the pair-major stream of samples in the
    Lipschitz probe. It returns real values that broadcast to that shape (a
    scalar does); any other result, a complex one included, raises
    :class:`ValueError` naming the shape it was given. Write it with numpy
    ufuncs (``np.sin``, not ``math.sin``) and branch with ``np.where``, not
    ``if``. The rhs must not write to its arguments: they are read-only, so
    an in-place update such as ``u *= 0.0`` raises :class:`ValueError`.
    ``zeta`` is a positive finite real and ``n_intervals`` an integer of at
    least 8, stored as ``int``. ``lipschitz_alpha``, in (0, 1), is the
    contraction parameter the Lipschitz condition is tested against;
    ``gamma_variant`` selects whose order feeds the Gamma factor in the
    Lipschitz bound ("alpha_plus_one" uses the contraction parameter,
    "zeta_plus_one" the integral order — both appear in circulation, so
    both are supported).
    The read-only node array is built with the problem, and the quadrature
    weights are fetched with it from :func:`quadrature_weights`, which
    checks ``zeta`` after the other parameters: a ``zeta`` that is not a
    positive finite real, whose Gamma overflows, or whose weights overflow
    on this grid raises :class:`ValueError` here. Problems alive at the same
    time with the same ``(zeta, n_intervals)`` share one weights object.
    They are kept as ``weights`` and ``nodes``, outside ``==`` and the hash;
    every array they hold is read-only, so no write can alter a later solve.
    """

    _fields = ("rhs", "zeta", "n_intervals", "policy", "lipschitz_alpha", "gamma_variant")
    __slots__ = (*_fields, "weights", "nodes")

    def __init__(
        self,
        rhs: Callable[[np.ndarray, np.ndarray], np.ndarray],
        zeta: float = 0.9,
        n_intervals: int = 512,
        policy: StoppingPolicy = StoppingPolicy(),
        lipschitz_alpha: float = 0.5,
        gamma_variant: str = "zeta_plus_one",
    ) -> None:
        n_intervals = _check_intervals(n_intervals, 8)
        message = "lipschitz_alpha must lie in (0, 1), got {value!r}"
        real(lipschitz_alpha, message, above=0.0, below=1.0)
        if gamma_variant not in GAMMA_VARIANTS:
            raise ValueError(f"gamma_variant must be one of {GAMMA_VARIANTS}")
        super().__init__(rhs, zeta, n_intervals, policy, lipschitz_alpha, gamma_variant)
        nodes = np.arange(n_intervals + 1) / n_intervals
        nodes.flags.writeable = False  # every step shares it with the rhs
        object.__setattr__(self, "weights", quadrature_weights(zeta, n_intervals))
        object.__setattr__(self, "nodes", nodes)

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
    """Outcome of sampling the rhs Lipschitz condition, as measured.

    ``worst_at`` is (t, u_value, v_value) at the largest sampled ratio,
    ``worst_ratio``, or None (ratio 0.0) when no sample was informative.
    ``margin = bound - worst_ratio`` and ``passed`` are read off these; a
    probe with no informative sample has tested nothing and does not pass.
    """

    bound: float
    worst_ratio: float
    worst_at: Optional[tuple[float, float, float]]

    @property
    def margin(self) -> float:
        return self.bound - self.worst_ratio

    @property
    def passed(self) -> bool:
        return self.worst_at is not None and self.worst_ratio <= self.bound


_FLOAT = np.dtype(float)


def _rhs_values(prob: FdeProblem, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The rhs on 1-D arrays ``t`` and ``u`` of one shape: nodes, or a probe run."""
    values = prob.rhs(t, u)
    # the usual result, a float64 array of the shape of t, is used as it is
    if type(values) is np.ndarray and values.dtype is _FLOAT and values.shape == t.shape:
        return values
    values = _real_array(values, "rhs(t, u) must return real values, got dtype {dtype}")
    if values.shape == t.shape:
        return values
    try:
        return np.broadcast_to(values, t.shape)
    except ValueError:
        raise ValueError(
            "rhs(t, u) must return an array that broadcasts to the shape of t and u, "
            f"{t.shape}, got shape {values.shape}"
        ) from None


def lipschitz_check(
    prob: FdeProblem,
    t_samples: Sequence[float],
    pairs: Sequence[tuple[GridFunction, GridFunction]],
) -> LipschitzReport:
    """Test |rhs(t, v) - rhs(t, u)| <= bound * (v - u) on ordered samples.

    Every supplied pair must satisfy u <= v pointwise. The pairs are walked
    as one pair-major stream of their values at the samples, each run's
    piece of a pair interpolated as the run is built. The rhs is called
    once per side on each 1-D run of the stream that holds an informative
    sample; samples where the two
    functions agree carry no ratio information and are skipped. With no
    informative sample at all (no samples, no pairs, or every gap zero) the
    margin degenerates to the full bound and the check does not pass. The
    first non-finite rhs difference in pair-then-sample order raises
    :class:`ArithmeticError` naming its t, without a numpy warning;
    ``worst_at`` is the first maximum in that order.
    """
    for u, v in pairs:
        if not pointwise_leq(u, v):
            raise ValueError("pair is not ordered: need u <= v pointwise")
    ts = _real_array(t_samples, "t_samples must be real, got dtype {dtype}").ravel()

    def pair_values(p: int, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        u, v = pairs[p]
        return interpolate(u, ts[a:b]), interpolate(v, ts[a:b])

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _stacked_check(prob, ts, len(pairs), pair_values)


# Samples per run of the Lipschitz probe's pair-major stream: the rhs gets 1-D
# arrays of at most this length, and the probe's memory is O(run).
_PROBE_BLOCK = 65536


def _stacked_check(
    prob: FdeProblem,
    t: np.ndarray,
    height: int,
    pair_values: Callable[[int, int, int], tuple],
) -> LipschitzReport:
    """The Lipschitz probe on ``height`` pairs sampled at ``t``:
    ``pair_values(p, a, b)`` gives pair p's two functions at the samples
    a..b-1, lower then upper, as arrays or scalars.

    The pairs are walked as one pair-major stream, in 1-D runs of up to
    ``_PROBE_BLOCK`` samples that may span pairs (see :func:`_probe_run`).
    The running maximum is replaced only by a strictly larger ratio, so
    ``worst_at`` is the first maximum in pair-then-sample order.
    """
    total = height * len(t)
    best, worst_at = -1.0, None
    for first in range(0, total, _PROBE_BLOCK):
        found = _probe_run(prob, t, pair_values, first, min(_PROBE_BLOCK, total - first))
        if found is not None and found[0] > best:
            best, worst_at = found
    # 0.0 if nothing was informative
    return LipschitzReport(lipschitz_bound(prob), max(best, 0.0), worst_at)


def _probe_run(
    prob: FdeProblem,
    t: np.ndarray,
    pair_values: Callable[[int, int, int], tuple],
    first: int,
    size: int,
) -> Optional[tuple[float, tuple[float, float, float]]]:
    """The largest ratio of the run of ``size`` samples from sample
    ``first`` of the stream, with its (t, lower, upper), or None when the
    run has no informative sample.

    The run's t, lower and upper values are gathered into read-only arrays
    of its own, one piece per pair it meets, and live only while the run is
    walked. The rhs is called once per side on the run's whole length, and
    not at all on a run without an informative sample; only informative
    samples are checked and ranked. The first non-finite difference raises.
    """
    ts, lo, up = np.empty(size), np.empty(size), np.empty(size)
    at = 0
    while at < size:
        p, a = divmod(first + at, len(t))
        b = min(len(t), a + size - at)
        piece = slice(at, at + b - a)
        ts[piece] = t[a:b]
        lo[piece], up[piece] = pair_values(p, a, b)
        at += b - a
    keep = up != lo
    if not keep.any():
        return None
    ts.flags.writeable = lo.flags.writeable = up.flags.writeable = False  # the rhs reads them
    high = _rhs_values(prob, ts, up)
    low = _rhs_values(prob, ts, lo)
    # the differences, with -1 (below every ratio) at uninformative samples
    ratio = np.subtract(high, low, out=np.full(size, -1.0), where=keep)
    finite = np.isfinite(ratio)
    if not finite.all():
        at = int(np.argmin(finite))
        raise ArithmeticError(f"rhs difference not finite at t = {float(ts[at])!r}")
    np.abs(ratio, out=ratio, where=keep)
    np.divide(ratio, np.subtract(up, lo, out=None, where=keep), out=ratio, where=keep)
    at = int(np.argmax(ratio))
    return float(ratio[at]), (float(ts[at]), float(lo[at]), float(up[at]))


# The Picard step reads its overflow test off the trapezoid C alone, once
# :func:`_apply_weights` has refused a non-finite rhs value. IEEE sums and
# products carry a NaN or an infinity: a non-finite node of the integral makes
# C = h (v_0 / 2 + v_1 + ... + v_N / 2) non-finite. So a finite C means every
# node v_k is finite, and |C| < 2**969 keeps the correction from overflowing:
# |fl(t_k * 2C)| <= |2C| < 2**970, half an ulp of the largest float
# 2**1024 - 2**971, so v_k + t_k * 2C stays below 2**1024 - 2**970, from
# where rounding goes to infinity.
_SAFE_TRAPEZOID = 2.0**969


def apply_T(u: GridFunction, prob: FdeProblem) -> GridFunction:
    """One application of the integral operator to a grid function.

    The rhs is evaluated once, on the problem's node array; a non-finite
    rhs value raises :class:`ArithmeticError` naming its first node, read
    off before the spectrum product (see :func:`_apply_weights`), so the
    rhs is not called again. A finite rhs whose integral overflows a float
    raises it too, at the integral's first non-finite node. The
    linear-in-t correction 2 t C uses C = trapezoid of the inner integral's
    node values, computed once per call. C alone decides whether any node
    can be non-finite: below 2**969 in magnitude no node is scanned;
    otherwise (NaN included) the integral and the corrected nodes are
    scanned in that order. The step's work beyond the three iterates of a
    solve is four node arrays. Unlike :func:`solve_fde`, a direct call lets
    numpy warn of a non-finite rhs value in the forward FFT.
    """
    if u.n_intervals != prob.n_intervals:
        raise ValueError("grid function does not match the problem grid")
    w, nodes = prob.weights, prob.nodes
    # the rhs values go to _apply_weights as a temporary, for it to free
    inner = _apply_weights(w, _rhs_values(prob, nodes, u.values))
    c = _trapezoid(inner, w.step)
    if abs(c) < _SAFE_TRAPEZOID:
        inner += nodes * (2.0 * c)
    else:
        _require_finite(inner, _OVERFLOW)
        inner += nodes * (2.0 * c)
        _require_finite(inner, _OVERFLOW)
    # inner is this call's own array, checked: it becomes the iterate as it is
    return GridFunction._computed(u.n_intervals, inner)


class ConvergenceFailure(RuntimeError):
    """Raised when the Picard run exhausts its budget; carries the trace."""

    def __init__(self, message: str, trace: IterationTrace):
        super().__init__(message)
        self.trace = trace


def _probe_pair(p: int, t: np.ndarray) -> tuple:
    """Pair p of the probe pairs (0, 1), (0, t) and (t/2, t/2 + 1/4) at the
    nodes ``t``: the lower function's values, then the upper one's."""
    if p == 0:
        return 0.0, 1.0
    if p == 1:
        return 0.0, t
    half = 0.5 * t
    return half, half + 0.25


def _node_probe(prob: FdeProblem) -> LipschitzReport:
    """The solver's Lipschitz probe: the three probe pairs at every node."""
    nodes = prob.nodes
    return _stacked_check(prob, nodes, 3, lambda p, a, b: _probe_pair(p, nodes[a:b]))


def solve_fde(prob: FdeProblem) -> tuple[IterationTrace, GridFunction]:
    """Picard-iterate the integral operator from the zero function.

    The Lipschitz condition is first sampled at every node on three ordered
    pairs, (0, 1), (0, t) and (t/2, t/2 + 1/4). At a node a grid function
    equals its node value, so the probe builds each 1-D run of the pairs'
    pair-major stream from these closed forms at the nodes as it walks, and
    calls the rhs twice per run (twice in all up to N = 21844). Residuals
    are sup-norm successive differences; the pointwise order is audited at
    every step. When the sampled Lipschitz condition passes, the
    contraction parameter is recorded on the trace and drives the per-step
    bound certificates. The trace keeps a window of the orbit, (r_0,
    r_(m-1), r_m), so a solve holds the weights, the nodes, three iterates
    and one step's or one probe run's work arrays, whatever the step
    count: a step's work is four node arrays, the spectrum of its rhs
    values and the 2N-float convolution (see :func:`apply_T`).
    Non-convergence raises :class:`ConvergenceFailure` with the partial
    trace attached. numpy does not warn during a solve, not even of the
    rhs's own non-finite values, so ``-W error`` still gets the
    :class:`ArithmeticError` naming them.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        report = _node_probe(prob)
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
    return trace, trace.fixed_point


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
