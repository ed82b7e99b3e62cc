"""Picard iteration with relation audits and certified error bounds.

The engine repeatedly applies a self-map, records the g-residual of every
step, audits whether consecutive iterates stay inside the declared relation,
and (when a contraction factor is supplied) attaches the geometric a-priori
bound alpha^m / (1 - alpha) * |g(r0, r1)| on the residual tail to every
step. The self-map is any callable ``smap(x)``, the g-functional any
callable ``g(a, b)`` and the relation any predicate ``rel(a, b)``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, NamedTuple, Optional

from . import _EXPORTS
from ._records import FrozenRecord, integer, real
# ``iterate`` audits each step itself; the name stays an attribute of this
# module because perfbench's tracer rebinds it
from .relations import is_preserving_sequence  # noqa: F401

__all__ = list(_EXPORTS["picard"])

_ALPHA = "alpha must lie in (0, 1), got {value!r}"


class StoppingPolicy(FrozenRecord):
    """When to stop iterating: residual threshold (a nonnegative finite
    real; 0 runs the whole budget) or step budget (a positive integer,
    stored as ``int``)."""

    __slots__ = _fields = ("residual_tol", "max_iterations")

    def __init__(self, residual_tol: float = 1e-12, max_iterations: int = 1000) -> None:
        message = "residual_tol must be finite and nonnegative, got {value!r}"
        real(residual_tol, message, at_least=0.0)
        message = "max_iterations must be a positive integer, got {value!r}"
        steps = integer(max_iterations, message, at_least=1)
        super().__init__(residual_tol, steps)


class IterationTrace(NamedTuple):
    """Record of one Picard run, in tuples: what the run measured.

    ``iterates`` is a window of the orbit of the m = ``steps`` map
    applications: the three iterates (r_0, r_(m-1), r_m), r_0 twice after
    one step. ``residuals[k]`` is
    |g(r_k, r_(k+1))|, one residual per map application. ``certified`` is
    False when the start point was not in the seed set (the run still
    proceeds), and ``preserved`` says whether every step's pair
    (r_k, r_(k+1)) was related. With a contraction factor,
    ``bound_certificates[m]`` is read off ``alpha_used`` and
    ``residuals[0]``; else None. Once each residual is at most
    ``alpha_used`` times the one before, it bounds the residual tail
    residuals[m] + residuals[m+1] + ..., and so |g(r_m, r_n)| for n > m
    only where |g| obeys the triangle inequality along the orbit: every
    metric does, as do the plane scenarios and the solver's sup norm, but
    a finite g-space need not (see the README).
    """

    iterates: tuple[Any, ...]
    residuals: tuple[float, ...]
    alpha_used: Optional[float]
    preserved: bool
    converged: bool
    certified: bool

    @property
    def bound_certificates(self) -> Optional[tuple[float, ...]]:
        if self.alpha_used is None:
            return None
        return tuple(
            a_priori_bound(self.alpha_used, self.residuals[0], m) for m in range(self.steps)
        )

    @property
    def fixed_point(self) -> Any:
        return self.iterates[-1]

    @property
    def steps(self) -> int:
        return len(self.residuals)


def a_priori_bound(alpha: float, g01: float, m: int) -> float:
    """Geometric tail bound alpha^m / (1 - alpha) * g01.

    Dominates the residual tail r_m + r_(m+1) + ... once the per-step
    residual contracts by alpha, and so |g(r_m, r_n)| for every n > m where
    |g| obeys the triangle inequality along the orbit.
    """
    real(alpha, _ALPHA, above=0.0, below=1.0)
    real(g01, "g01 is an absolute residual, must be finite and >= 0, got {value!r}", at_least=0.0)
    m = integer(m, "m must be a nonnegative integer, got {value!r}", at_least=0)
    return (alpha**m) / (1.0 - alpha) * g01


def iterate(
    smap: Callable[[Any], Any],
    g: Callable[[Any, Any], float],
    rel: Callable[[Any, Any], bool],
    r0: Any,
    policy: StoppingPolicy = StoppingPolicy(),
    *,
    alpha: Optional[float] = None,
) -> IterationTrace:
    """Run the Picard orbit of ``smap`` from ``r0`` under ``policy``.

    ``rel`` is called once per step, on the step's pair (r_k, r_(k+1)),
    after its residual is found finite: the first call decides
    ``certified`` and all of them ``preserved``. A start point outside the
    seed set (its image is not related to it) is tolerated: the run
    proceeds but the trace is marked non-certified. A non-finite residual
    aborts with the offending step index. A contraction factor outside
    (0, 1) is rejected before the first step. ``certified`` and
    ``preserved`` are Python bools whatever truthy values ``rel`` returns.
    The run holds and returns only r_0 and the last two iterates, so its
    memory does not grow with the step count.
    """
    if alpha is not None:
        real(alpha, _ALPHA, above=0.0, below=1.0)
    orbit: list[Any] = [r0]
    residuals: list[float] = []
    certified = preserved = True
    converged = False
    for step in range(policy.max_iterations):
        del orbit[1:-1]  # r_0 and the current iterate: the next step needs no more
        current = orbit[-1]
        nxt = smap(current)
        value = abs(g(current, nxt))
        if not math.isfinite(value):
            raise ArithmeticError(f"g diverged at step {step}")
        related = bool(rel(current, nxt))
        if step == 0:
            certified = related
        preserved = preserved and related
        orbit.append(nxt)
        residuals.append(value)
        if value < policy.residual_tol:
            converged = True
            break

    return IterationTrace(
        iterates=(orbit[0], orbit[-2], orbit[-1]),
        residuals=tuple(residuals),
        alpha_used=alpha,
        preserved=preserved,
        converged=converged,
        certified=certified,
    )


def trace_to_csv(trace: IterationTrace) -> str:
    """Residual history as CSV, one row per map application."""
    lines = ["iteration,residual"]
    for k, r in enumerate(trace.residuals):
        lines.append(f"{k},{r:.16e}")
    return "\n".join(lines) + "\n"
