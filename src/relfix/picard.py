"""Picard iteration with relation audits and certified error bounds.

The engine repeatedly applies a self-map, records the g-residual of every
step, audits whether consecutive iterates stay inside the declared relation,
and (when a contraction factor is supplied) attaches the geometric a-priori
bound alpha^m / (1 - alpha) * |g(r0, r1)| to every step. The self-map is
any callable ``smap(x)``, the g-functional any callable ``g(a, b)`` (a
:class:`~relfix.gspace.GFunctional` included) and the relation any
predicate ``rel(a, b)``.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Optional

from ._records import FrozenRecord, Record, integer, real
from .relations import is_preserving_sequence

__all__ = [
    "StoppingPolicy",
    "IterationTrace",
    "iterate",
    "a_priori_bound",
    "trace_to_csv",
]


class StoppingPolicy(FrozenRecord):
    """When to stop iterating: residual threshold (a positive finite real)
    or step budget (a positive integer, stored as ``int``)."""

    __slots__ = _fields = ("residual_tol", "max_iterations")

    def __init__(self, residual_tol: float = 1e-12, max_iterations: int = 1000) -> None:
        real(residual_tol, "residual_tol must be positive and finite", above=0.0)
        steps = integer(max_iterations, "max_iterations must be a positive integer", at_least=1)
        super().__init__(residual_tol, steps)


class IterationTrace(Record):
    """Record of one Picard run.

    ``residuals[k]`` is |g(iterates[k], iterates[k+1])|, so there is one
    residual per map application. ``certified`` is False when the start
    point was not in the seed set (the run still proceeds). When a
    contraction factor was supplied, ``bound_certificates[m]`` is the
    a-priori bound on |g(r_m, r_n)| for every n > m.
    """

    __slots__ = _fields = (
        "iterates",
        "residuals",
        "alpha_used",
        "preserved",
        "converged",
        "certified",
        "bound_certificates",
    )

    def __init__(
        self,
        iterates: list[Any],
        residuals: list[float],
        alpha_used: Optional[float],
        preserved: bool,
        converged: bool,
        certified: bool,
        bound_certificates: Optional[list[float]] = None,
    ) -> None:
        self.iterates = iterates
        self.residuals = residuals
        self.alpha_used = alpha_used
        self.preserved = preserved
        self.converged = converged
        self.certified = certified
        self.bound_certificates = bound_certificates

    @property
    def fixed_point(self) -> Any:
        return self.iterates[-1]

    @property
    def steps(self) -> int:
        return len(self.residuals)


def a_priori_bound(alpha: float, g01: float, m: int) -> float:
    """Geometric tail bound alpha^m / (1 - alpha) * g01.

    Dominates |g(r_m, r_n)| for every n > m once the per-step residual
    contracts by alpha.
    """
    real(alpha, "alpha must lie in (0, 1)", above=0.0, below=1.0)
    real(g01, "g01 is an absolute residual, must be finite and >= 0", at_least=0.0)
    m = integer(m, "m must be a nonnegative integer", at_least=0)
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

    A start point outside the seed set (its image is not related to it) is
    tolerated: the run proceeds but the trace is marked non-certified. A
    non-finite residual aborts with the offending step index. A contraction
    factor outside (0, 1) is rejected before the first step. ``certified``
    and ``preserved`` are Python bools whatever truthy values ``rel``
    returns.
    """
    if alpha is not None:
        real(alpha, "alpha must lie in (0, 1)", above=0.0, below=1.0)
    iterates: list[Any] = [r0]
    residuals: list[float] = []
    converged = False
    current = r0
    for step in range(policy.max_iterations):
        nxt = smap(current)
        value = abs(g(current, nxt))
        if not math.isfinite(value):
            raise ArithmeticError(f"g diverged at step {step}")
        iterates.append(nxt)
        residuals.append(value)
        if value < policy.residual_tol:
            converged = True
            break
        current = nxt

    certified = bool(rel(iterates[0], iterates[1]))
    preserved = is_preserving_sequence(rel, iterates)

    certificates: Optional[list[float]] = None
    if alpha is not None:
        certificates = [
            a_priori_bound(alpha, residuals[0], m) for m in range(len(residuals))
        ]

    return IterationTrace(
        iterates=iterates,
        residuals=residuals,
        alpha_used=alpha,
        preserved=preserved,
        converged=converged,
        certified=certified,
        bound_certificates=certificates,
    )


def trace_to_csv(trace: IterationTrace) -> str:
    """Residual history as CSV, one row per map application."""
    lines = ["iteration,residual"]
    for k, r in enumerate(trace.residuals):
        lines.append(f"{k},{r:.16e}")
    return "\n".join(lines) + "\n"
