"""Exhaustive model checking of the relational fixed-point claim.

Instances are tiny carriers {0, ..., n-1}, n the ground size of an explicit
relation, with an integer pair matrix standing in for the g-functional and
a self-map given as an index array. The verdicts that read no g entry take
the :class:`Pair` of relation and self-map; a wrong ``n``, a g that is not n
by n, a g entry that is not an integer or a map that is not a self-map
raises :class:`ValueError`. The checker enumerates instances
deterministically, tests every hypothesis of the fixed-point claim
mechanically, and verifies the conclusion (a fixed point exists and every
seeded orbit reaches one within n steps). Any instance
satisfying the hypotheses but violating the conclusion would be a
counterexample. Neither verdict reads g, so the sweep lists one document
per violating (relation, map) pair, in enumeration order: the pair's first
satisfying instance, with the number of its satisfying instances.

The sweep is factored. Every hypothesis reads g only through |g|, and g1-g3
read only the relation's cells: related pairs, their swaps and g[r][t] of
each constrained triple (r, u, t) with t not in {r, u}. ``_patterns``
compiles g1-g3 into checks on a magnitude vector over those cells, and
``_pair_checks`` decides a map's closedness and seed set on the relation's
bitmask (bit r*n + s). :func:`run_oracle` walks each relation's vectors once
(one stands for 2**(nonzero entries) signed assignments) for all n**n maps:
a pair that is not closed or seeded gets the relation's histogram, and a
closed, seeded pair, whose images are related cells, filters the passing
vectors by contraction. Counts are multiplied by the ways to fill the other
entries, so they are exact multiplicities of :func:`enumerate_instances`.
Only a pair that breaks the conclusion or uniqueness builds matrices: the
first matrix of each of its satisfying magnitude vectors, each re-checked
on the relation's table, and the first of them in stream order is listed.
The module uses Python integers throughout, so no count can overflow and
running the oracle loads no array library.

Completeness and continuity are automatic on a finite carrier under the
discrete reading; the success reason records that explicitly rather than
silently assuming it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple, Optional, Sequence

from . import _EXPORTS
from ._records import FrozenRecord, Record, integer
from .relations import FiniteRelation, is_connected, seed_set, symmetric_closure

__all__ = list(_EXPORTS["finite_oracle"])

# contraction is existential over this grid; the grid is part of the
# instance-space definition, not a tunable
ALPHA_GRID: tuple[Fraction, ...] = (
    Fraction(1, 4),
    Fraction(1, 2),
    Fraction(3, 4),
)

MAX_GROUND_SIZE = 4
DEFAULT_G_MAX = 3

# rejection histogram keys: the first hypothesis that fails, in the order
# hypotheses_hold tests them, then "pass"
REJECTION_KEYS: tuple[str, ...] = (
    "g1", "g2", "g3", "not_closed", "seed_empty", "contraction", "pass"
)


class Pair(FrozenRecord):
    """A relation and a self-map of its ground set, stored as a tuple of ``int``."""

    __slots__ = _fields = ("rel", "mapping")

    def __init__(self, rel: FiniteRelation, mapping: Sequence[int]) -> None:
        n, message = rel.ground_size, "map must send each of 0..{0} into the ground set, got {1!r}"
        if len(mapping) != n:
            raise ValueError(message.format(n - 1, mapping))
        images = tuple([integer(m, message, n - 1, mapping, at_least=0, below=n) for m in mapping])
        super().__init__(rel, images)

    @property
    def n(self) -> int:
        return self.rel.ground_size

    def to_json_dict(self) -> dict:
        return {"pairs": [list(p) for p in self.rel.sorted_pairs], "map": list(self.mapping)}


class FiniteInstance(Record):
    """One model-check instance; treated as immutable once enumerated."""

    __slots__ = _fields = ("g_matrix", "rel", "mapping", "alpha", "index")

    def __init__(
        self,
        n: int,
        g_matrix: tuple[tuple[int, ...], ...],
        rel: FiniteRelation,
        mapping: tuple[int, ...],
        alpha: Optional[Fraction] = None,
        index: int = -1,
    ) -> None:
        if n != rel.ground_size:
            raise ValueError(f"n = {n!r} is not the relation's ground size {rel.ground_size}")
        if type(n) is not int:  # the enumeration passes ints and skips the rule
            integer(n, "n must be an integer, got {value!r}")
        self.g_matrix = g_matrix
        self.rel = rel
        self.mapping = mapping
        self.alpha = alpha
        self.index = index

    n = Pair.n  # the relation's ground size, read as for a pair

    @property
    def pair(self) -> Pair:
        return Pair(self.rel, self.mapping)

    def to_json_dict(self) -> dict:
        doc = {"index": self.index, "n": self.n, **self.pair.to_json_dict()}
        alpha = None if self.alpha is None else str(self.alpha)
        return {**doc, "g": [list(row) for row in self.g_matrix], "alpha": alpha}

    @classmethod
    def from_json_dict(cls, doc: object) -> "FiniteInstance":
        """Inverse of :meth:`to_json_dict`, validating a parsed JSON document.

        ``n``, ``pairs``, ``map`` and ``g`` are required; ``index`` and
        ``alpha`` are optional, and other keys, such as the ``instances``
        and ``reason`` of a document the oracle lists, are ignored. Every
        entry must be an integer (bools, strings and non-integral or
        non-finite numbers are not), every index must lie in the ground
        set, and ``g`` must be n by n. ``alpha``, if not null, is a string
        naming a member of ``ALPHA_GRID`` in any spelling ``Fraction`` reads
        ("1/4", "0.25"). Anything else raises :class:`ValueError`.
        """
        if not isinstance(doc, dict):
            raise ValueError("instance JSON must be an object")
        for key in ("n", "pairs", "map", "g"):
            if key not in doc:
                raise ValueError(f"instance JSON lacks the {key!r} key")
        n = _json_int(doc["n"], "n")
        pairs = [_json_ints(p, 2, "pair") for p in _json_list(doc["pairs"], "pairs")]
        pair = Pair(FiniteRelation.from_pairs(n, pairs), _json_ints(doc["map"], n, "map"))
        rows = _json_list(doc["g"], "g")
        if len(rows) != n:
            raise ValueError(f"g must have {n} rows")
        g_matrix = tuple(tuple(_json_ints(row, n, "g row")) for row in rows)
        alpha = doc.get("alpha")
        if alpha is not None:
            if not isinstance(alpha, str):
                raise ValueError("alpha must be a fraction string such as '1/4'")
            try:
                value = Fraction(alpha)
            except (ValueError, ZeroDivisionError):
                value = None
            if value not in ALPHA_GRID:
                grid = ", ".join(map(str, ALPHA_GRID))
                raise ValueError(f"alpha must be null or one of {grid}, got {alpha!r}")
            alpha = value
        index = _json_int(doc.get("index", -1), "index")
        return cls(n, g_matrix, pair.rel, pair.mapping, alpha, index)


def _json_int(value: object, what: str) -> int:
    # JSON writers may spell an integer as 2.0
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    return integer(value, "{0} must be an integer, got {value!r}", what)


def _json_list(value: object, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"{what} must be a JSON list, got {value!r}")
    return value


def _json_ints(value: object, length: int, what: str) -> list[int]:
    """A JSON list of exactly ``length`` integers."""
    items = _json_list(value, what)
    if len(items) != length:
        raise ValueError(f"{what} must list {length} integers, got {len(items)}")
    return [_json_int(v, f"{what} entry") for v in items]


def _check_slice(n: int, g_max: int, rel_count_cap: Optional[int]) -> "SweepSpec":
    """The slice as a :class:`SweepSpec` of Python integers, or ValueError; a
    number out of range gets the range's message, even ``n=True`` or 1.5."""
    try:
        if n < 2:
            raise ValueError("ground size must be at least 2")
        if n > MAX_GROUND_SIZE:
            raise ValueError("instance space too large")
        if g_max < 0:
            raise ValueError("g_max must be nonnegative")
        # a cap below 1 would sweep no relation at all and pass vacuously
        if rel_count_cap is not None and rel_count_cap < 1:
            raise ValueError("rel_count_cap must be at least 1")
    except TypeError:  # a value that does not compare with an int: no integer
        pass
    n = integer(n, "ground size must be an integer, got {value!r}")
    g_max = integer(g_max, "g_max must be an integer, got {value!r}")
    if rel_count_cap is not None:
        rel_count_cap = integer(rel_count_cap, "rel_count_cap must be an integer, got {value!r}")
    return SweepSpec(n, g_max, rel_count_cap)


def _relations(n: int, rel_count_cap: Optional[int]) -> Iterator[FiniteRelation]:
    """The relations of the instance stream, in stream order."""
    total_masks = 1 << (n * n)
    mask_count = total_masks if rel_count_cap is None else min(rel_count_cap, total_masks)
    for mask in range(mask_count):
        pairs = frozenset(divmod(bit, n) for bit in range(n * n) if mask >> bit & 1)
        yield FiniteRelation(n, pairs)


def enumerate_instances(
    n: int,
    g_max: int = DEFAULT_G_MAX,
    rel_count_cap: Optional[int] = None,
) -> Iterator[FiniteInstance]:
    """Deterministic instance stream for one carrier size.

    Relations are enumerated by ascending bitmask over row-major pair
    indices (pair (r, s) is bit r*n + s) and capped at the first
    ``rel_count_cap`` masks; maps and integer matrices with entries in
    [-g_max, g_max] are enumerated exhaustively in lexicographic order.
    Stream nesting is relation -> map -> matrix, and every instance carries
    its stream index.
    """
    n, g_max, rel_count_cap = _check_slice(n, g_max, rel_count_cap)
    row_choices = list(product(range(-g_max, g_max + 1), repeat=n))
    maps = list(product(range(n), repeat=n))
    index = 0
    for rel in _relations(n, rel_count_cap):
        for mapping in maps:
            for g_matrix in product(row_choices, repeat=n):
                yield FiniteInstance(n, g_matrix, rel, mapping, None, index)
                index += 1


def fixed_points(pair: Pair) -> list[int]:
    return [i for i, m in enumerate(pair.mapping) if m == i]


def _checked_g(inst: FiniteInstance) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """The instance's map and g, each entry an ``int``; a bad map, a g that is
    not n by n or a non-integer entry (NaN, inf, a bool) raises ValueError."""
    pair, g, n = inst.pair, inst.g_matrix, inst.n  # building the pair checks the map
    if len(g) != n or any(len(row) != n for row in g):
        raise ValueError(f"g must be {n} by {n}")
    entry = "g entry must be an integer, got {value!r}"
    return pair.mapping, tuple([tuple([integer(v, entry) for v in row]) for row in g])


def contraction_alpha(inst: FiniteInstance) -> Optional[Fraction]:
    """Smallest grid factor under which every related pair contracts."""
    (m, g), n = _checked_g(inst), inst.n
    mag = [abs(v) for row in g for v in row]
    return _smallest_alpha([(m[r] * n + m[s], r * n + s) for r, s in inst.rel.sorted_pairs], mag)


# reason strings indexed like REJECTION_KEYS, formatted with the witness
_REASONS: tuple[str, ...] = (
    "(g1) fails: g[{0}][{1}] = 0 on related distinct pair ({0}, {1})",
    "(g2) fails: |g[{0}][{1}]| != |g[{1}][{0}]| on related pair ({0}, {1})",
    "(g3) fails on constrained triple ({0}, {1}, {2})",
    "relation not closed under the map: image of ({0}, {1}) escapes",
    "seed set empty: no u with (u, map(u)) related",
    "contraction fails on a related pair for every alpha in {{1/4, 1/2, 3/4}}",
    "hypotheses hold at alpha = {0}; completeness and continuity are "
    "automatic on a finite carrier (discrete reading)",
)

class _Patterns(NamedTuple):
    """A relation's g-hypotheses as checks on ``mag``, with ``mag[i]`` = |g| at ``cells[i]``."""

    n: int
    mask: int  # bit r*n + s set for each related pair (r, s)
    related: tuple[int, ...]  # the related cells r*n + s, ascending
    cells: tuple[int, ...]  # related cells, swaps and triple ends, ascending
    g1: list[tuple[int, tuple]]  # mag[a] > 0, witness (r, s)
    g2: list[tuple[int, int, tuple]]  # mag[a] == mag[b], witness (r, s)
    g3: list[tuple[int, int, int, tuple]]  # mag[a] <= mag[b] + mag[c], witness (r, u, t)


def _patterns(rel: FiniteRelation) -> _Patterns:
    """Compile the relation's g-hypotheses, each list in witness order: g1
    and g2 on the sorted related pairs (g2 once per unordered pair), g3 on
    triples (r, u, t) with (r, u) and (t, u) related, by u, then r, then t,
    leaving out t in {r, u}, where the triangle cannot fail."""
    n = rel.ground_size
    pairs = rel.sorted_pairs
    in_nbrs: list[list[int]] = [[] for _ in range(n)]
    for r, s in pairs:
        in_nbrs[s].append(r)
    triples = [(r, u, t) for u, ins in enumerate(in_nbrs) for r in ins for t in ins if r != t != u]
    related = tuple(r * n + s for r, s in pairs)
    ends = [r * n + t for r, _, t in triples]
    cells = tuple(sorted({*related, *(s * n + r for r, s in pairs), *ends}))
    slot = {cell: pos for pos, cell in enumerate(cells)}
    return _Patterns(
        n, sum(1 << cell for cell in related), related, cells,
        [(slot[r * n + s], (r, s)) for r, s in pairs if r != s],
        [(slot[r * n + s], slot[s * n + r], (r, s)) for r, s in pairs if r < s or not rel(s, r)],
        [(slot[r * n + u], slot[r * n + t], slot[t * n + u], (r, u, t)) for r, u, t in triples],
    )


def _map_cells(n: int, mapping: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """The image cell m(r)*n + m(s) of each cell r*n + s, and the seed mask,
    with bit u*n + m(u) set for each u, of a self-map checked by :class:`Pair`."""
    images = tuple(mapping[r] * n + mapping[s] for r in range(n) for s in range(n))
    return images, sum(1 << (u * n + m) for u, m in enumerate(mapping))


def _pair_checks(pat: _Patterns, images: tuple[int, ...], seeds: int) -> tuple:
    """A (relation, map) pair's first failing structural hypothesis, as a
    REJECTION_KEYS index and witness (closedness, witnessed by the first
    related pair whose image escapes, then a seed), or else None and its
    contraction checks ``(a, b)`` for :func:`_contracts`, ``a`` the slot of
    the image of the related cell at slot ``b``."""
    mask, slot = pat.mask, pat.cells.index
    for cell in pat.related:
        if not mask >> images[cell] & 1:
            return (3, divmod(cell, pat.n)), []
    if not mask & seeds:
        return (4, ()), []
    return None, [(slot(images[cell]), slot(cell)) for cell in pat.related]


def _g_failure(pat: _Patterns, mag: Sequence[int]) -> tuple[int, tuple]:
    """The index in REJECTION_KEYS of the first of g1, g2, g3 that ``mag``
    fails, with its witness; ``(3, ())`` when all three hold."""
    for a, witness in pat.g1:
        if not mag[a]:
            return 0, witness
    for a, b, witness in pat.g2:
        if mag[a] != mag[b]:
            return 1, witness
    for a, b, c, witness in pat.g3:
        if mag[a] > mag[b] + mag[c]:
            return 2, witness
    return 3, ()


def _contracts(
    contraction: list[tuple[int, int]], mag: Sequence[int],
    num: int = ALPHA_GRID[-1].numerator, den: int = ALPHA_GRID[-1].denominator,
) -> bool:
    """Whether ``mag[a] <= num/den * mag[b]`` for every check ``(a, b)``.
    Contraction holds for some grid factor iff it holds for the largest,
    the default."""
    for a, b in contraction:
        if den * mag[a] > num * mag[b]:
            return False
    return True


def _smallest_alpha(checks: list[tuple[int, int]], mag: Sequence[int]) -> Optional[Fraction]:
    """The smallest grid factor that :func:`_contracts` accepts, or None."""
    return next((a for a in ALPHA_GRID if _contracts(checks, mag, *a.as_integer_ratio())), None)


def hypotheses_hold(inst: FiniteInstance) -> tuple[bool, str]:
    """Mechanically test every hypothesis on the patterns the claim uses.

    Vanishing and absolute symmetry are required on related pairs, the
    triangle property on triples (r, u, t) with (r, u) and (t, u) both
    related; then closedness of the relation under the map, a nonempty seed
    set, and contraction on related pairs for some grid factor. The reason
    names the first failing hypothesis and its first witness. A map that
    is not a self-map, a g that is not n by n or a g entry that is not an
    integer raises :class:`ValueError`.
    """
    mapping, g = _checked_g(inst)
    pat = _patterns(inst.rel)
    return _check_hypotheses(pat, _pair_checks(pat, *_map_cells(pat.n, mapping)), g)[:2]


def _check_hypotheses(
    pat: _Patterns, checks: tuple, g: Sequence[Sequence[int]]
) -> tuple[bool, str, Optional[Fraction]]:
    """:func:`hypotheses_hold` for the matrix ``g`` on the relation's table
    ``pat`` and the pair's ``_pair_checks``, also returning the smallest
    contraction factor (None unless every hypothesis holds)."""
    n = pat.n
    mag = [abs(g[cell // n][cell % n]) for cell in pat.cells]
    structural, contraction = checks
    key, witness = _g_failure(pat, mag)
    if key == 3:
        key, witness = structural or (5, ())
    alpha = _smallest_alpha(contraction, mag) if key == 5 else None
    if alpha is None:
        return False, _REASONS[key].format(*witness), None
    return True, _REASONS[6].format(alpha), alpha


def conclusion_holds(pair: Pair) -> bool:
    """A fixed point exists and every seeded orbit reaches one within n steps."""
    mapping = pair.mapping
    fixed = set(fixed_points(pair))
    if not fixed:
        return False
    # a fixed seed is still fixed after one step
    for cur in seed_set(pair.rel, mapping.__getitem__):
        for _ in range(pair.n):
            cur = mapping[cur]
            if cur in fixed:
                break
        else:
            return False
    return True


def image_symmetric_connected(pair: Pair) -> bool:
    """Whether the map image is path-connected in the symmetric closure."""
    return is_connected(symmetric_closure(pair.rel), set(pair.mapping))


class SweepSpec(NamedTuple):
    """One enumeration slice: carrier size, entry bound, relation cap."""

    n: int
    g_max: int = DEFAULT_G_MAX
    rel_count_cap: Optional[int] = None


class SweepResult(Record):
    """Tallies of one slice, starting at zero; ``run_oracle`` fills and returns them."""

    __slots__ = _fields = (
        "spec",
        "instances_checked",
        "hypotheses_satisfied",
        "counterexamples",
        "uniqueness_candidates",
        "uniqueness_violations",
        "rejections",
        "completeness_note",
    )

    def __init__(self, spec: SweepSpec) -> None:
        self.spec = spec
        self.instances_checked = self.hypotheses_satisfied = self.uniqueness_candidates = 0
        self.counterexamples: list[dict] = []
        self.uniqueness_violations: list[dict] = []
        self.rejections = dict.fromkeys(REJECTION_KEYS, 0)
        self.completeness_note = (
            "completeness and continuity treated as automatic on finite carriers (discrete reading)"
        )

    def to_json_dict(self) -> dict:
        """The spec's fields, then the tallies in field order."""
        doc = {**self.spec._asdict(), **{name: getattr(self, name) for name in self._fields[1:]}}
        return {**doc, "rejections": dict(self.rejections)}


def default_sweep(n: int) -> SweepSpec:
    """Per-size default slice: all of n=2, capped slices of n=3 and n=4.

    The n=4 slice is 2 x 4^4 x 3^16, about 2.2e10 instances. The sweep
    walks each relation's g1-g3 cells once and decides its n^n maps by
    bitmask, so these slices take milliseconds. Uncapped, in one process
    (2 vCPU, Python 3.11), n=3 takes about 0.07 s at g_max=1 and 0.4 s at
    g_max=2, where g3 fires, and n=4 at g_max=1 (7.2e14 instances) 50 s
    (a 2-vCPU Intel Xeon, Python 3.11.7).
    """
    table = {
        2: SweepSpec(2, g_max=2, rel_count_cap=None),
        3: SweepSpec(3, g_max=1, rel_count_cap=8),
        4: SweepSpec(4, g_max=1, rel_count_cap=2),
    }
    if n not in table:
        raise ValueError("ground size must be 2, 3, or 4")
    return table[n]


def _classify(pat: _Patterns, g_max: int) -> tuple[list[int], dict[tuple[int, ...], int]]:
    """Assignment counts of the relation's cells per first failing g1, g2,
    g3, then holding all three, and the magnitude vectors that hold all
    three, each with its weight. A vector in [0, g_max]**len(cells) stands
    for the 2**(nonzero cells) signed assignments that share it, its
    weight; only vectors that pass g1 are walked."""
    width = len(pat.cells)
    distinct = {a for a, _ in pat.g1}
    counts = [0] * 4
    passing: dict[tuple[int, ...], int] = {}
    # g1 fails exactly when an entry of a distinct related pair is 0: count
    # those assignments in closed form and walk only the others
    k = 2 * g_max + 1
    counts[0] = k**width - (k - 1) ** len(distinct) * k ** (width - len(distinct))
    ranges = [range(1 if pos in distinct else 0, g_max + 1) for pos in range(width)]
    for mag in product(*ranges):
        key = _g_failure(pat, mag)[0]
        weight = 1 << (width - mag.count(0))
        counts[key] += weight
        if key == 3:
            passing[mag] = weight
    return counts, passing


def _first_matrix(n: int, g_max: int, cells: Sequence[int], mag: Sequence[int]) -> tuple:
    """The offset within its pair and the entries of the first matrix in
    stream order whose magnitudes on ``cells`` are ``mag``: -|g| on those
    cells, -g_max on every other entry. A matrix's offset is its digit
    string (entry + g_max) read in base 2 g_max + 1."""
    k = 2 * g_max + 1
    entries = [-g_max] * (n * n)
    for cell, m in zip(cells, mag):
        entries[cell] = -m
    offset = 0
    for v in entries:
        offset = offset * k + v + g_max
    return offset, tuple(tuple(entries[row * n : row * n + n]) for row in range(n))


def _sweep_relation(
    res: SweepResult, rel: FiniteRelation, maps: Sequence[tuple], first_index: int
) -> None:
    """Add every instance of the pairs (``rel``, m) to a sweep's tallies.

    ``maps`` lists each map m in stream order as ``(m, *_map_cells(n, m))``;
    ``first_index`` is the stream index of the first pair's first matrix.
    """
    n, g_max = rel.ground_size, res.spec.g_max
    k = 2 * g_max + 1
    matrices = k ** (n * n)
    pat = _patterns(rel)
    counts, passing = _classify(pat, g_max)
    multiplicity = matrices // k ** len(pat.cells)
    rejections = res.rejections
    for key, count in zip(REJECTION_KEYS, counts[:3]):
        rejections[key] += count * multiplicity * len(maps)
    res.instances_checked += matrices * len(maps)
    holds = counts[3] * multiplicity
    for pair_no, (mapping, images, seeds) in enumerate(maps if holds else ()):
        checks = structural, contraction = _pair_checks(pat, images, seeds)
        if structural is not None:
            rejections[REJECTION_KEYS[structural[0]]] += holds
            continue
        satisfying = {mag: w for mag, w in passing.items() if _contracts(contraction, mag)}
        satisfied = sum(satisfying.values()) * multiplicity
        rejections["contraction"] += holds - satisfied
        rejections["pass"] += satisfied
        if not satisfied:
            continue
        res.hypotheses_satisfied += satisfied
        pair = Pair(rel, mapping)
        concludes = conclusion_holds(pair)
        candidate = image_symmetric_connected(pair)
        fixed = fixed_points(pair)
        unique = not candidate or len(fixed) == 1
        if candidate:
            res.uniqueness_candidates += satisfied
        if concludes and unique:
            continue
        # re-check each vector once, on its first matrix: its other matrices
        # differ only in signs and in entries no hypothesis reads. The
        # listed witness is the pair's first satisfying instance
        first, found = first_index + pair_no * matrices, []
        for mag in satisfying:
            offset, g = _first_matrix(n, g_max, pat.cells, mag)
            ok, reason, alpha = _check_hypotheses(pat, checks, g)
            if not ok:
                raise RuntimeError(f"instance {first + offset} misclassified: {reason}")
            found.append((offset, g, reason, alpha))
        offset, g, reason, alpha = min(found)
        inst = FiniteInstance(n, g, rel, mapping, alpha, first + offset)
        doc = {**inst.to_json_dict(), "instances": satisfied}
        if not concludes:
            res.counterexamples.append({**doc, "reason": reason})
        if not unique:
            res.uniqueness_violations.append({**doc, "fixed_points": fixed})


def run_oracle(spec: SweepSpec) -> SweepResult:
    """Run the model check over one slice.

    Counterexamples (hypotheses hold, conclusion fails) come back one per
    (relation, map) pair, sorted by enumeration index. Hypothesis-satisfying
    instances whose map image is connected in the symmetric closure are
    additionally held to a unique fixed point; violations are reported
    separately, also one per pair.

    Counts are exact multiplicities of :func:`enumerate_instances` (see the
    module docstring). Each listed document is the one that
    :meth:`FiniteInstance.to_json_dict` gives the pair's first satisfying
    instance, then ``instances``, the number of the pair's satisfying
    instances, then its reason or fixed points.
    """
    spec = _check_slice(*spec)
    res = SweepResult(spec=spec)
    n = spec.n
    maps = [(mapping, *_map_cells(n, mapping)) for mapping in product(range(n), repeat=n)]
    per_relation = len(maps) * (2 * spec.g_max + 1) ** (n * n)
    for rel_no, rel in enumerate(_relations(n, spec.rel_count_cap)):
        _sweep_relation(res, rel, maps, rel_no * per_relation)
    return res
