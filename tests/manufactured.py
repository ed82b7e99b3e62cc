"""Manufactured continuum solutions of the fractional boundary-value problem.

The power rule gives I^zeta t^beta = c t^(beta + zeta) with
c = Gamma(beta + 1) / Gamma(beta + zeta + 1), so

    u*(t) = c t^(beta + zeta) + 2 c t / (beta + zeta + 1)

is the fixed point of the integral operator T for the right-hand side
h(t, u) = t^beta + lam (u - u*(t)): on u*, h is t^beta, its integral is
c t^(beta + zeta), and that integrates over [0, 1] to c / (beta + zeta + 1).
The solver's error is then measured against u* itself, at the nodes,
rather than against a finer grid (Roache, "Code Verification by the Method
of Manufactured Solutions", J. Fluids Eng. 124, 2002).
"""

import math

import numpy as np

from relfix.fractional import FdeProblem, solve_fde

LAM = 1.0 / 16.0


def exact(beta: float, zeta: float):
    """u* as a function of a node array."""
    c = math.gamma(beta + 1.0) / math.gamma(beta + zeta + 1.0)
    return lambda t: c * t ** (beta + zeta) + 2.0 * c * t / (beta + zeta + 1.0)


def problem(beta: float, zeta: float, n_intervals: int) -> FdeProblem:
    """The manufactured problem on ``n_intervals`` intervals, with the demo's
    contraction parameter and Gamma variant."""
    u_star = exact(beta, zeta)
    rhs = lambda t, u: t**beta + LAM * (u - u_star(t))
    return FdeProblem(rhs, zeta=zeta, n_intervals=n_intervals)


def node_error(beta: float, zeta: float, n_intervals: int) -> tuple[float, bool]:
    """The sup error at the nodes of the solver's solution, and whether its
    trace is certified."""
    prob = problem(beta, zeta, n_intervals)
    trace, solution = solve_fde(prob)
    error = float(np.abs(solution.values - exact(beta, zeta)(prob.nodes)).max())
    return error, trace.certified
