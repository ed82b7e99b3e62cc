"""Binary relations over finite index sets and abstract carriers.

Finite relations are explicit pair sets over ``{0, ..., n-1}`` and support
the structural queries the iteration engine and the model checker need:
symmetric closure, connectivity of a subset, closedness under a self-map,
and seed extraction. Relations over non-indexed carriers (points in the
plane, grid functions) are wrapped as :class:`RelationView` predicates
instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "FiniteRelation",
    "RelationView",
    "related",
    "universal_view",
    "symmetric_closure",
    "is_connected",
    "closed_under",
    "seed_set",
    "is_preserving_sequence",
]


@dataclass(frozen=True)
class FiniteRelation:
    """Explicit binary relation on the ground set ``{0, ..., ground_size-1}``."""

    ground_size: int
    pairs: frozenset[tuple[int, int]]
    # sorted copy, shared by every scan so violation reports are deterministic
    sorted_pairs: tuple[tuple[int, int], ...] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.ground_size < 0:
            raise ValueError("ground_size must be nonnegative")
        pairs = frozenset((int(r), int(s)) for r, s in self.pairs)
        for r, s in pairs:
            if not (0 <= r < self.ground_size and 0 <= s < self.ground_size):
                raise ValueError(f"pair {(r, s)} outside ground set")
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "sorted_pairs", tuple(sorted(pairs)))

    @classmethod
    def from_pairs(
        cls, ground_size: int, pairs: Iterable[tuple[int, int]]
    ) -> "FiniteRelation":
        return cls(ground_size, frozenset((r, s) for r, s in pairs))

    def __contains__(self, pair: tuple[int, int]) -> bool:
        return pair in self.pairs


@dataclass(frozen=True)
class RelationView:
    """Relation on an abstract carrier, given as a comparability predicate."""

    comparability_test: Callable[[Any, Any], bool]


def universal_view() -> RelationView:
    """The relation under which every ordered pair is comparable."""
    return RelationView(lambda a, b: True)


def related(rel: FiniteRelation | RelationView, a: Any, b: Any) -> bool:
    """Whether the ordered pair ``(a, b)`` belongs to the relation."""
    if isinstance(rel, FiniteRelation):
        return (a, b) in rel.pairs
    return bool(rel.comparability_test(a, b))


def symmetric_closure(rel: FiniteRelation) -> FiniteRelation:
    """Union of the relation with its inverse. No transitive closure is taken."""
    return FiniteRelation(
        rel.ground_size, rel.pairs | frozenset((s, r) for r, s in rel.pairs)
    )


def is_connected(rel: FiniteRelation, subset: Iterable[int]) -> bool:
    """Every ordered pair drawn from ``subset`` is joined by some path.

    A path has at least one edge, so diagonal pairs count: a singleton
    subset is connected only when its element lies on a cycle. Each member
    is checked by a search for the nodes reachable from it in one or more
    steps.
    """
    members = set(subset)
    if not all(0 <= a < rel.ground_size for a in members):
        raise ValueError("subset element outside ground set")
    succ: list[list[int]] = [[] for _ in range(rel.ground_size)]
    for r, s in rel.pairs:
        succ[r].append(s)
    for start in members:
        reached: set[int] = set()
        stack = list(succ[start])
        while stack:
            node = stack.pop()
            if node not in reached:
                reached.add(node)
                stack.extend(succ[node])
        if not members <= reached:
            return False
    return True


def closed_under(
    rel: FiniteRelation, image_of: Callable[[int], int]
) -> tuple[bool, Optional[tuple[int, int]]]:
    """Check that the image of every related pair is again related.

    Returns ``(True, None)`` on success, else ``(False, witness)`` where
    ``witness`` is the first related pair (in sorted order) whose image
    escapes the relation.
    """
    for r, s in rel.sorted_pairs:
        if (image_of(r), image_of(s)) not in rel.pairs:
            return False, (r, s)
    return True, None


def seed_set(rel: FiniteRelation, image_of: Callable[[int], int]) -> list[int]:
    """Ground elements u with ``(u, image_of(u))`` in the relation, ascending."""
    return [u for u in range(rel.ground_size) if (u, image_of(u)) in rel.pairs]


def is_preserving_sequence(
    rel: FiniteRelation | RelationView, seq: Sequence[Any]
) -> bool:
    """Every consecutive pair of ``seq`` is related; length-1 is vacuously true."""
    if len(seq) == 0:
        raise ValueError("empty sequence")
    return all(related(rel, a, b) for a, b in zip(seq[:-1], seq[1:]))
