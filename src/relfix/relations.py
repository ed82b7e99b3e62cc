"""Binary relations over finite index sets and abstract carriers.

A relation is any predicate ``rel(a, b) -> bool`` that says whether the
ordered pair ``(a, b)`` is related; the iteration engine and the g-scans
call it directly. Relations over non-indexed carriers (points in the
plane, grid functions) are plain functions. Finite relations are explicit
pair sets over ``{0, ..., n-1}``, callable as predicates too, and support
the structural queries the model checker needs: symmetric closure,
connectivity of a subset, closedness under a self-map, and seed
extraction.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Optional, Sequence

from ._records import FrozenRecord, integer

__all__ = [
    "FiniteRelation",
    "universal_view",
    "symmetric_closure",
    "is_connected",
    "closed_under",
    "seed_set",
    "is_preserving_sequence",
]


class FiniteRelation(FrozenRecord):
    """Explicit binary relation on the ground set ``{0, ..., ground_size-1}``.

    Calling it as ``rel(a, b)`` tests ``(a, b) in rel.pairs``, so it serves
    wherever a relation predicate is taken. ``ground_size`` and each index
    are integers, stored as ``int`` (numpy integers pass); a bool, a
    non-integral value, a negative ``ground_size`` or an index outside the
    ground set raises :class:`ValueError`. Immutable; ``==``
    and the hash read ``ground_size`` and ``pairs`` only.
    """

    _fields = ("ground_size", "pairs")
    # sorted copy, shared by every scan so violation reports are deterministic
    __slots__ = (*_fields, "sorted_pairs")

    def __init__(self, ground_size: int, pairs: frozenset[tuple[int, int]]) -> None:
        ground_size = integer(ground_size, "ground_size must be an integer, got {value!r}")
        if ground_size < 0:
            raise ValueError("ground_size must be nonnegative")
        index = "relation index must be an integer, got {value!r}"
        pairs = frozenset((integer(r, index), integer(s, index)) for r, s in pairs)
        for r, s in pairs:
            if not (0 <= r < ground_size and 0 <= s < ground_size):
                raise ValueError(f"pair {(r, s)} outside ground set")
        super().__init__(ground_size, pairs)
        object.__setattr__(self, "sorted_pairs", tuple(sorted(pairs)))

    @classmethod
    def from_pairs(
        cls, ground_size: int, pairs: Iterable[tuple[int, int]]
    ) -> "FiniteRelation":
        return cls(ground_size, frozenset((r, s) for r, s in pairs))

    def __call__(self, a: Any, b: Any) -> bool:
        return (a, b) in self.pairs


def universal_view() -> Callable[[Any, Any], bool]:
    """The relation under which every ordered pair is related."""
    return lambda a, b: True


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


def is_preserving_sequence(rel: Callable[[Any, Any], bool], seq: Sequence[Any]) -> bool:
    """Every consecutive pair of ``seq`` is related; length-1 is vacuously true."""
    if len(seq) == 0:
        raise ValueError("empty sequence")
    return all(rel(a, b) for a, b in zip(seq[:-1], seq[1:]))
