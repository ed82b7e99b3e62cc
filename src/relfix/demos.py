"""Two executable plane scenarios exercising the relational machinery.

Scenario 1: a degenerate pair functional that ignores first coordinates
(so it vanishes on plenty of distinct pairs and can never be a metric),
yet contracts with ratio 1/4 on the relation "first coordinates equal".
Scenario 2: a genuine metric whose map contracts only on related pairs;
off the relation the ratio grows without bound.

Both maps quarter the second coordinate, so their Picard traces from
(0, y0) have identical second-coordinate sequences y0 / 4^k. The maps are
plain functions and the relation a plain predicate.
"""

from __future__ import annotations

import math
from typing import Callable, NamedTuple

from .gspace import ContractionEstimate, GFunctional, estimate_contraction_factor
from .picard import IterationTrace, StoppingPolicy, iterate
from .relations import universal_view

__all__ = [
    "PlanePoint",
    "validate_point",
    "first_coord_relation",
    "example1_map",
    "example1_g",
    "example2_map",
    "example2_g",
    "example1_run",
    "example2_run",
    "example2_noncontraction_witness",
    "NoncontractionWitness",
]

# residual tolerance small enough that figure runs never stop early
_NEVER_STOP = 1e-300


class PlanePoint(NamedTuple):
    first: float
    second: float


def first_coord_relation() -> Callable[[PlanePoint, PlanePoint], bool]:
    """Points are related exactly when their first coordinates agree."""
    return lambda p, q: p[0] == q[0]


def example1_map(p: PlanePoint) -> PlanePoint:
    return PlanePoint(p[0], p[1] / 4.0)

# signed difference of second coordinates; ignores the first entirely
example1_g = GFunctional(
    lambda p, q: p[1] - q[1], declared_domain_mode="relation_restricted"
)

def example2_map(p: PlanePoint) -> PlanePoint:
    return PlanePoint(p[0] * p[0] / 4.0, p[1] / 4.0)

# taxicab metric on the plane
example2_g = GFunctional(lambda p, q: abs(p[0] - q[0]) + abs(p[1] - q[1]))


def validate_point(p: PlanePoint) -> None:
    """Reject a start point with a NaN or infinite coordinate."""
    if not (math.isfinite(p[0]) and math.isfinite(p[1])):
        raise ValueError("plane point coordinates must be finite")


def _run(
    smap: Callable[[PlanePoint], PlanePoint], g: GFunctional, start: PlanePoint, n: int
) -> IterationTrace:
    """Exactly n Picard steps from a finite start, certified at alpha = 1/4."""
    validate_point(start)
    policy = StoppingPolicy(residual_tol=_NEVER_STOP, max_iterations=n)
    return iterate(smap, g, first_coord_relation(), start, policy, alpha=0.25)


def example1_run(y0: float = 1.0, n: int = 30) -> IterationTrace:
    """Picard trace of scenario 1 from (0, y0), exactly n steps.

    Second coordinates follow y0 / 4^k; residuals contract by exactly 1/4
    per step, which the trace certificates reflect (alpha = 0.25).
    """
    return _run(example1_map, example1_g, PlanePoint(0.0, float(y0)), n)


def example2_run(u0: float = 0.0, y0: float = 1.0, n: int = 30) -> IterationTrace:
    """Picard trace of scenario 2 from (u0, y0), exactly n steps.

    The first-coordinate recursion u -> u^2/4 converges only for |u0| < 4;
    anything outside that basin is rejected.
    """
    if not abs(u0) < 4.0:
        raise ValueError("first coordinate must satisfy |u0| < 4 (basin of u^2/4)")
    return _run(example2_map, example2_g, PlanePoint(float(u0), float(y0)), n)


class NoncontractionWitness(NamedTuple):
    pair: tuple[PlanePoint, PlanePoint]
    ratio: float


def example2_noncontraction_witness(scale: float = 10.0) -> NoncontractionWitness:
    """An unrelated pair where the scenario-2 map expands distances.

    The points (scale, 0) and (scale + 1, 0) have distinct first
    coordinates, so they are not comparable; the measured ratio
    (2 scale + 1) / 4 exceeds 1 from scale 2 on, which is why no global
    contraction argument can apply to this map.
    """
    if scale < 2.0:
        raise ValueError("need scale >= 2 for an expanding pair")
    a = PlanePoint(float(scale), 0.0)
    b = PlanePoint(float(scale) + 1.0, 0.0)
    est: ContractionEstimate = estimate_contraction_factor(
        example2_g, example2_map, universal_view(), [(a, b)]
    )
    return NoncontractionWitness(pair=(a, b), ratio=est.factor)
