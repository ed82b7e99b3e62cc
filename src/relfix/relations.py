"""Binary relations over finite index sets and abstract carriers.

A relation is any predicate ``rel(a, b) -> bool`` that says whether the
ordered pair ``(a, b)`` is related; the iteration engine and the g-scans
call it directly. Relations over non-indexed carriers (points in the
plane, grid functions) are plain functions. Finite relations are explicit
pair sets over ``{0, ..., n-1}``, callable as predicates too, and support
the structural queries the model checker needs: symmetric closure,
connectivity of a subset and seed extraction. Closedness under a self-map
is decided by the model checker itself (``finite_oracle``).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Sequence

from . import _EXPORTS
from ._records import FrozenRecord, integer

__all__ = list(_EXPORTS["relations"])


class FiniteRelation(FrozenRecord):
    """Explicit binary relation on the ground set ``{0, ..., ground_size-1}``.

    Calling it as ``rel(a, b)`` tests ``(a, b) in rel.pairs``, so it serves
    wherever a relation predicate is taken. ``pairs`` is any iterable of
    index pairs. ``ground_size`` and each index are integers, stored as
    ``int`` (numpy integers pass); a bool, a non-integral value, a negative
    ``ground_size`` or an index outside the ground set raises
    :class:`ValueError`. Immutable; ``==`` and the hash read
    ``ground_size`` and ``pairs`` only.
    """

    _fields = ("ground_size", "pairs")
    # sorted copy, shared by every scan so violation reports are deterministic
    __slots__ = (*_fields, "sorted_pairs")

    def __init__(self, ground_size: int, pairs: Iterable[tuple[int, int]]) -> None:
        n = integer(ground_size, "ground_size must be an integer >= 0, got {value!r}", at_least=0)
        index = "pair {0!r} outside ground set 0..{1}, got {value!r}"
        pairs = frozenset(
            (integer(r, index, (r, s), n - 1, at_least=0, below=n),
             integer(s, index, (r, s), n - 1, at_least=0, below=n)) for r, s in pairs
        )
        super().__init__(n, pairs)
        object.__setattr__(self, "sorted_pairs", tuple(sorted(pairs)))

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
    steps. A member that is not an index of the ground set (a bool, a
    float, an integer out of range) raises :class:`ValueError`.
    """
    n, message = rel.ground_size, "subset element outside ground set 0..{0}, got {value!r}"
    members = {integer(a, message, n - 1, at_least=0, below=n) for a in subset}
    succ: list[list[int]] = [[] for _ in range(n)]
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


def seed_set(rel: FiniteRelation, image_of: Callable[[int], int]) -> list[int]:
    """Ground elements u with ``(u, image_of(u))`` in the relation, ascending.

    An image that is not an index of the ground set raises :class:`ValueError`.
    """
    n, message = rel.ground_size, "image of {0} must be an integer in 0..{1}, got {value!r}"
    return [
        u for u in range(n)
        if (u, integer(image_of(u), message, u, n - 1, at_least=0, below=n)) in rel.pairs
    ]


def is_preserving_sequence(rel: Callable[[Any, Any], bool], seq: Sequence[Any]) -> bool:
    """Every consecutive pair of ``seq`` is related; length-1 is vacuously true."""
    if len(seq) == 0:
        raise ValueError("empty sequence")
    return all(rel(a, b) for a, b in zip(seq[:-1], seq[1:]))
