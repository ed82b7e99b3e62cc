"""Generalized distance functionals and mechanical hypothesis checks.

A g-functional is a continuous real map on pairs of carrier points standing
in for a metric. It need not vanish only on the diagonal, need not be
symmetric in sign, and its triangle property may be asserted only on
relation-constrained triples. The checks here scan finite sample sets and
report the first violation found, so a degenerate functional is flagged with
a concrete witness instead of a bare boolean.

A g-functional is any callable ``g(a, b) -> float``, a relation any
predicate ``rel(a, b) -> bool`` (a :class:`FiniteRelation` included) and a
self-map any callable ``smap(x)``; all three are called directly.
:class:`GFunctional` is the callable that can also declare its axioms only
on relation-constrained patterns; a plain callable declares them globally.
Global scans pass :func:`~relfix.relations.universal_view`.
"""

from __future__ import annotations

import math
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from ._records import FrozenRecord, Record, real
from .relations import universal_view

__all__ = [
    "GFunctional",
    "PropertyReport",
    "ContractionEstimate",
    "verify_g_properties",
    "relation_pattern_report",
    "estimate_contraction_factor",
    "related_pairs",
]

_MODES = ("global", "relation_restricted")


class GFunctional(FrozenRecord):
    """Pairwise functional ``g(a, b)`` with a declared domain for its axioms.

    ``declared_domain_mode`` records whether the vanishing, absolute-symmetry
    and triangle properties are claimed for all pairs ("global", as for any
    plain callable) or only for relation-constrained ones ("relation_restricted").
    """

    __slots__ = _fields = ("evaluate", "declared_domain_mode")

    def __init__(
        self, evaluate: Callable[[Any, Any], float], declared_domain_mode: str = "global"
    ) -> None:
        if declared_domain_mode not in _MODES:
            raise ValueError(f"declared_domain_mode must be one of {_MODES}")
        super().__init__(evaluate, declared_domain_mode)

    def __call__(self, a: Any, b: Any) -> float:
        return self.evaluate(a, b)


def _json_safe(x: Any) -> Any:
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    if isinstance(x, (int, float, str, bool)) or x is None:
        return x
    return str(x)


class PropertyReport(Record):
    """Outcome of a g-functional property scan.

    Each witness field is None when the property held on every pattern
    scanned, otherwise it is the first violating pair/triple in scan order.
    """

    __slots__ = _fields = ("g1_witness", "g2_witness", "g3_witness", "samples_checked")

    def __init__(
        self,
        g1_witness: Optional[tuple[Any, Any]],
        g2_witness: Optional[tuple[Any, Any]],
        g3_witness: Optional[tuple[Any, Any, Any]],
        samples_checked: int,
    ) -> None:
        self.g1_witness = g1_witness
        self.g2_witness = g2_witness
        self.g3_witness = g3_witness
        self.samples_checked = samples_checked

    @property
    def passed(self) -> bool:
        return (
            self.g1_witness is None
            and self.g2_witness is None
            and self.g3_witness is None
        )

    def to_json_dict(self) -> dict:
        return {
            "passed": self.passed,
            "g1_witness": _json_safe(self.g1_witness),
            "g2_witness": _json_safe(self.g2_witness),
            "g3_witness": _json_safe(self.g3_witness),
            "samples_checked": self.samples_checked,
        }


def _check_finite(value: float, a: Any, b: Any) -> float:
    if not math.isfinite(value):
        raise ArithmeticError(f"g not finite at ({a!r}, {b!r})")
    return value


def _triples(
    samples: Sequence[Any], rel: Callable[[Any, Any], bool]
) -> Iterator[tuple[Any, Any, Any]]:
    """Triples ``(r, u, t)`` with ``(r, u)`` and ``(t, u)`` related, in
    nested index order, repeats included."""
    for r in samples:
        for u in samples:
            if rel(r, u):
                for t in samples:
                    if rel(t, u):
                        yield r, u, t


def _scan(
    g: Callable[[Any, Any], float],
    pairs: Sequence[tuple[Any, Any]],
    triples: Iterable[tuple[Any, Any, Any]],
    tol: float,
) -> tuple[Optional[tuple], Optional[tuple], Optional[tuple]]:
    """First g1, g2 and g3 witness on the given patterns, None where none.

    Vanishing (g1) is tested on the pairs of distinct points, absolute
    symmetry (g2) on every pair, the triangle property (g3) on every triple.
    Every g value read is checked for finiteness, so a non-finite value
    raises instead of failing each comparison silently, and so does a
    non-finite or negative ``tol`` (:class:`ValueError`).
    """
    # every comparison with NaN is false, so a NaN tolerance would hide each
    # witness; a negative one would manufacture them
    real(tol, "tol must be finite and nonnegative", at_least=0.0)

    def mag(a: Any, b: Any) -> float:
        return abs(_check_finite(g(a, b), a, b))

    g1 = next(((r, u) for r, u in pairs if r != u and mag(r, u) <= tol), None)
    g2 = next(((r, u) for r, u in pairs if abs(mag(r, u) - mag(u, r)) > tol), None)
    g3 = next(
        (
            (r, u, t)
            for r, u, t in triples
            if mag(r, u) > mag(r, t) + mag(t, u) + tol
        ),
        None,
    )
    return g1, g2, g3


def verify_g_properties(
    g: Callable[[Any, Any], float],
    rel: Callable[[Any, Any], bool],
    samples: Sequence[Any],
    tol: float = 1e-12,
) -> PropertyReport:
    """Scan a sample set for violations of the three g-functional properties.

    Vanishing (g1) and absolute symmetry (g2) are scanned over all sample
    pairs. The triangle property (g3) is scanned over triples ``(r, u, t)``
    with ``(r, u)`` and ``(t, u)`` related when the functional declares the
    relation-restricted mode, over all triples otherwise (a plain callable
    declares no mode and is scanned globally). Scan order is the
    nested index order of ``samples``; the first violation is reported. A
    non-finite g value raises :class:`ArithmeticError`.
    """
    every = universal_view()
    restricted = getattr(g, "declared_domain_mode", "global") == "relation_restricted"
    triples = _triples(samples, rel if restricted else every)
    pairs = related_pairs(every, samples)
    return PropertyReport(*_scan(g, pairs, triples, tol), len(samples))


def relation_pattern_report(
    g: Callable[[Any, Any], float],
    rel: Callable[[Any, Any], bool],
    samples: Sequence[Any],
    tol: float = 1e-12,
) -> PropertyReport:
    """Scan only the patterns the relational fixed-point hypotheses demand.

    Vanishing and absolute symmetry are required on related sample pairs,
    the triangle property on triples ``(r, u, t)`` with both ``(r, u)`` and
    ``(t, u)`` related. A functional can fail the global scan of
    :func:`verify_g_properties` and still pass here; that gap is exactly
    what lets a degenerate functional support a fixed-point argument. A
    non-finite g value raises :class:`ArithmeticError`.
    """
    pairs = related_pairs(rel, samples)
    return PropertyReport(*_scan(g, pairs, _triples(samples, rel), tol), len(samples))


class ContractionEstimate(NamedTuple):
    """Largest observed ratio |g(S a, S b)| / |g(a, b)| and where it occurred."""

    factor: float
    worst_pair: tuple[Any, Any]

    def to_json_dict(self) -> dict:
        return {"factor": self.factor, "worst_pair": _json_safe(self.worst_pair)}


def estimate_contraction_factor(
    g: Callable[[Any, Any], float],
    smap: Callable[[Any], Any],
    rel: Callable[[Any, Any], bool],
    pairs: Sequence[tuple[Any, Any]],
) -> ContractionEstimate:
    """Supremum of the image-to-source g-ratio over sampled related pairs.

    Pairs where the source value vanishes carry no ratio information and are
    skipped. Supplying a pair outside the relation is a caller error. A
    non-finite g value raises :class:`ArithmeticError` naming the pair it
    was read at, the image pair for the numerator.
    """
    best = -math.inf
    worst_pair = None
    for a, b in pairs:
        if not rel(a, b):
            raise ValueError(f"pair ({a!r}, {b!r}) is not in the relation")
        denom = abs(_check_finite(g(a, b), a, b))
        if denom == 0.0:
            continue
        sa, sb = smap(a), smap(b)
        num = abs(_check_finite(g(sa, sb), sa, sb))
        ratio = num / denom
        if ratio > best:
            best = ratio
            worst_pair = (a, b)
    if worst_pair is None:
        raise ValueError("no informative pairs")
    return ContractionEstimate(best, worst_pair)


def related_pairs(
    rel: Callable[[Any, Any], bool], points: Sequence[Any]
) -> list[tuple[Any, Any]]:
    """Ordered related pairs of distinct probe positions, in nested index order."""
    return [
        (r, u)
        for i, r in enumerate(points)
        for j, u in enumerate(points)
        if i != j and rel(r, u)
    ]
