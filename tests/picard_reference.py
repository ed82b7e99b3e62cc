"""Test-only reference for the Picard engine.

``posthoc_iterate`` is ``picard.iterate`` as it was before it audited each
step as it ran and kept only a window of the orbit: it keeps the whole
orbit and reads ``certified`` off a relation call on (r_0, r_1) and
``preserved`` off one pass of ``is_preserving_sequence`` over the orbit
after the run. ``iterate`` must reproduce its trace exactly on the three
iterates it keeps, and tests that need every iterate of a run take them
from ``whole_run``.
"""

import math

from relfix.demos import first_coord_relation
from relfix.picard import IterationTrace, StoppingPolicy
from relfix.relations import is_preserving_sequence


def posthoc_iterate(smap, g, rel, r0, policy=StoppingPolicy(), *, alpha=None) -> IterationTrace:
    iterates = [r0]
    residuals = []
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
    return IterationTrace(
        iterates=tuple(iterates),
        residuals=tuple(residuals),
        alpha_used=alpha,
        preserved=is_preserving_sequence(rel, iterates),
        converged=converged,
        certified=bool(rel(iterates[0], iterates[1])),
    )


def assert_window_of(window: IterationTrace, full: IterationTrace) -> None:
    """``window`` is ``full`` with its orbit cut to (r_0, r_(m-1), r_m)."""
    assert window.iterates == (full.iterates[0], full.iterates[-2], full.iterates[-1])
    assert window._replace(iterates=()) == full._replace(iterates=())
    assert window.bound_certificates == full.bound_certificates


def whole_run(window: IterationTrace, smap, g, rel, policy) -> IterationTrace:
    """The run whose window ``window`` is, with every iterate of its orbit:
    ``posthoc_iterate`` from the window's r_0, checked against the window."""
    full = posthoc_iterate(smap, g, rel, window.iterates[0], policy, alpha=window.alpha_used)
    assert_window_of(window, full)
    return full


def plane_orbit(trace: IterationTrace, smap, g) -> tuple:
    """Every iterate of a plane scenario's run (``example1_run`` or
    ``example2_run`` with its map and g), which takes exactly
    ``trace.steps`` steps under the first-coordinate relation."""
    policy = StoppingPolicy(residual_tol=0.0, max_iterations=trace.steps)
    return whole_run(trace, smap, g, first_coord_relation(), policy).iterates
