"""Binary relations over finite index sets and abstract carriers.

Finite relations are explicit pair sets over ``{0, ..., n-1}`` and support
the structural queries the iteration engine and the model checker need:
inversion, symmetric closure, shortest relational paths, connectivity of a
subset, closedness under a self-map, and seed extraction. Relations over
non-indexed carriers (points in the plane, grid functions) are wrapped as
:class:`RelationView` predicates instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "FiniteRelation",
    "RelationView",
    "Path",
    "related",
    "universal_view",
    "symmetric_closure",
    "find_path",
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


@dataclass(frozen=True)
class Path:
    """A relational path: ``len(nodes) - 1`` consecutive edges, at least one."""

    nodes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.nodes) < 2:
            raise ValueError("a path needs at least two nodes (one edge)")

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.nodes[:-1], self.nodes[1:]))


def symmetric_closure(rel: FiniteRelation) -> FiniteRelation:
    """Union of the relation with its inverse. No transitive closure is taken."""
    return FiniteRelation(
        rel.ground_size, rel.pairs | frozenset((s, r) for r, s in rel.pairs)
    )


def _successors(rel: FiniteRelation) -> list[list[int]]:
    succ: list[list[int]] = [[] for _ in range(rel.ground_size)]
    for r, s in rel.sorted_pairs:
        succ[r].append(s)
    return succ


def find_path(rel: FiniteRelation, start: int, goal: int) -> Optional[Path]:
    """Shortest path from ``start`` to ``goal`` using at least one edge.

    Breadth-first search expanding successors in ascending index order, so
    ties break toward lower indices and the result is deterministic.
    ``start == goal`` demands a genuine cycle; absence is reported as None,
    not an error.
    """
    if not (0 <= start < rel.ground_size and 0 <= goal < rel.ground_size):
        raise ValueError("endpoint outside ground set")
    succ = _successors(rel)
    parent: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in succ[start]:
        if s not in parent:
            parent[s] = start
            queue.append(s)
    if goal in parent:
        return Path((start, goal))
    while queue:
        node = queue.popleft()
        for s in succ[node]:
            if s not in parent:
                parent[s] = node
                if s == goal:
                    rev = [s]
                    cur = s
                    while True:
                        cur = parent[cur]
                        rev.append(cur)
                        if cur == start:
                            break
                    return Path(tuple(reversed(rev)))
                queue.append(s)
    return None


def is_connected(rel: FiniteRelation, subset: Iterable[int]) -> bool:
    """Every ordered pair drawn from ``subset`` is joined by some path.

    Diagonal pairs count: a singleton subset is connected only when its
    element carries a loop (a length-1 path back to itself).
    """
    members = sorted(set(subset))
    return all(
        find_path(rel, a, b) is not None for a in members for b in members
    )


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
