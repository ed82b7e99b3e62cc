"""Exhaustive model checking of the relational fixed-point claim.

Instances are tiny carriers {0, ..., n-1} with an integer pair matrix
standing in for the g-functional, an explicit relation, and a self-map given
as an index array. The checker enumerates instances deterministically,
tests every hypothesis of the fixed-point claim mechanically, and verifies
the conclusion (a fixed point exists and every seeded orbit reaches one
within n steps). Any instance satisfying the hypotheses but violating the
conclusion would be a counterexample; the sweep reports them all, sorted by
enumeration index.

The sweep is factored: closedness, the seed set, the conclusion and
uniqueness read only the (relation, map) pair, and the g-hypotheses read
only the matrix entries on related pairs, their constrained triples and
their images. One function, ``_patterns``, lists those pairs, triples and
images and decides closedness and the seed set; :func:`hypotheses_hold`
reads its table for one instance, and :func:`run_oracle` builds it once
per pair, classifies the touched entries by magnitude (every hypothesis
reads g only through |g|, so one magnitude vector stands for 2**(nonzero
entries) signed assignments), and multiplies each count by the number of
ways to fill the untouched entries. Its counts are exact multiplicities of
the instance stream of :func:`enumerate_instances`, not instances visited
one by one. The module is plain Python with Python integers throughout, so
no count can overflow and running the oracle loads no array library.

Completeness and continuity are automatic on a finite carrier under the
discrete reading; the success reason records that explicitly rather than
silently assuming it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple, Optional, Sequence

from ._records import Record
from .relations import (
    FiniteRelation,
    closed_under,
    is_connected,
    seed_set,
    symmetric_closure,
)

__all__ = [
    "ALPHA_GRID",
    "REJECTION_KEYS",
    "FiniteInstance",
    "SweepSpec",
    "SweepResult",
    "OracleReport",
    "enumerate_instances",
    "fixed_points",
    "contraction_alpha",
    "hypotheses_hold",
    "conclusion_holds",
    "image_symmetric_connected",
    "run_oracle",
    "default_sweeps",
]

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


class FiniteInstance(Record):
    """One model-check instance; treated as immutable once enumerated."""

    __slots__ = _fields = ("n", "g_matrix", "rel", "mapping", "alpha", "index")

    def __init__(
        self,
        n: int,
        g_matrix: tuple[tuple[int, ...], ...],
        rel: FiniteRelation,
        mapping: tuple[int, ...],
        alpha: Optional[Fraction] = None,
        index: int = -1,
    ) -> None:
        self.n = n
        self.g_matrix = g_matrix
        self.rel = rel
        self.mapping = mapping
        self.alpha = alpha
        self.index = index

    def to_json_dict(self) -> dict:
        return _instance_json(self, _pair_json(self.rel, self.mapping))

    @classmethod
    def from_json_dict(cls, doc: object) -> "FiniteInstance":
        """Inverse of :meth:`to_json_dict`, validating a parsed JSON document.

        ``n``, ``pairs``, ``map`` and ``g`` are required; ``index`` and
        ``alpha`` are optional. Every entry must be an integer (bools, strings
        and non-integral or non-finite numbers are not), every index must lie
        in the ground set, and ``g`` must be n by n. Anything else raises
        :class:`ValueError`.
        """
        if not isinstance(doc, dict):
            raise ValueError("instance JSON must be an object")
        for key in ("n", "pairs", "map", "g"):
            if key not in doc:
                raise ValueError(f"instance JSON lacks the {key!r} key")
        n = _json_int(doc["n"], "n")
        pairs = [_json_ints(p, 2, "pair") for p in _json_list(doc["pairs"], "pairs")]
        rel = FiniteRelation.from_pairs(n, pairs)
        mapping = tuple(_json_ints(doc["map"], n, "map"))
        if not all(0 <= i < n for i in mapping):
            raise ValueError(f"map entries must be ground indices below {n}")
        rows = _json_list(doc["g"], "g")
        if len(rows) != n:
            raise ValueError(f"g must have {n} rows")
        g_matrix = tuple(tuple(_json_ints(row, n, "g row")) for row in rows)
        alpha = doc.get("alpha")
        if alpha is not None:
            if not isinstance(alpha, str):
                raise ValueError("alpha must be a fraction string such as '1/4'")
            alpha = Fraction(alpha)
        index = _json_int(doc.get("index", -1), "index")
        return cls(n, g_matrix, rel, mapping, alpha, index)


def _json_int(value: object, what: str) -> int:
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ValueError(f"{what} must be an integer, got {value!r}")


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


def _pair_json(rel: FiniteRelation, mapping: tuple[int, ...]) -> dict:
    """The ``pairs`` and ``map`` fields of an instance's JSON: the part every
    instance of one (relation, map) pair shares, built once per pair by the
    sweep, so its listed documents share these two lists."""
    return {"pairs": [list(p) for p in rel.sorted_pairs], "map": list(mapping)}


def _instance_json(inst: FiniteInstance, pair_json: dict) -> dict:
    """:meth:`FiniteInstance.to_json_dict` given its pair's ``_pair_json``."""
    return {
        "index": inst.index,
        "n": inst.n,
        **pair_json,
        "g": [list(row) for row in inst.g_matrix],
        "alpha": None if inst.alpha is None else str(inst.alpha),
    }


def _check_slice(n: int, g_max: int, rel_count_cap: Optional[int]) -> None:
    if n < 2:
        raise ValueError("ground size must be at least 2")
    if n > MAX_GROUND_SIZE:
        raise ValueError("instance space too large")
    if g_max < 0:
        raise ValueError("g_max must be nonnegative")
    # a cap below 1 would sweep no relation at all and pass vacuously
    if rel_count_cap is not None and rel_count_cap < 1:
        raise ValueError("rel_count_cap must be at least 1")


def _relation_map_pairs(
    n: int, rel_count_cap: Optional[int]
) -> Iterator[tuple[FiniteRelation, tuple[int, ...]]]:
    """The (relation, map) part of the instance stream, in stream order."""
    total_masks = 1 << (n * n)
    mask_count = total_masks if rel_count_cap is None else min(rel_count_cap, total_masks)
    pair_of_bit = [(bit // n, bit % n) for bit in range(n * n)]
    maps = list(product(range(n), repeat=n))
    for mask in range(mask_count):
        pairs = frozenset(
            pair_of_bit[bit] for bit in range(n * n) if mask >> bit & 1
        )
        rel = FiniteRelation(n, pairs)
        for mapping in maps:
            yield rel, mapping


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
    _check_slice(n, g_max, rel_count_cap)
    entries = range(-g_max, g_max + 1)
    row_choices = list(product(entries, repeat=n))
    index = 0
    for rel, mapping in _relation_map_pairs(n, rel_count_cap):
        for g_matrix in product(row_choices, repeat=n):
            yield FiniteInstance(n, g_matrix, rel, mapping, None, index)
            index += 1


def fixed_points(inst: FiniteInstance) -> list[int]:
    return [i for i in range(inst.n) if inst.mapping[i] == i]


def contraction_alpha(inst: FiniteInstance) -> Optional[Fraction]:
    """Smallest grid factor under which every related pair contracts."""
    g = inst.g_matrix
    mapping = inst.mapping
    pairs = inst.rel.sorted_pairs
    for alpha in ALPHA_GRID:
        num, den = alpha.as_integer_ratio()
        for r, s in pairs:
            if den * abs(g[mapping[r]][mapping[s]]) > num * abs(g[r][s]):
                break
        else:
            return alpha
    return None


class _Patterns(NamedTuple):
    """What the hypotheses read of one (relation, map) pair, g aside."""

    pairs: tuple[tuple[int, int], ...]  # related pairs, sorted
    triples: list[tuple[int, int, int]]  # (r, u, t) with (r, u), (t, u) related
    images: list[tuple[int, int]]  # (m(r), m(s)) of each related pair
    structural: Optional[tuple[str, str]]  # first failing key and reason


def _patterns(rel: FiniteRelation, mapping: tuple[int, ...]) -> _Patterns:
    """The pattern table of one pair; triples are ordered by u, then r, then t.

    ``structural`` is ``("not_closed", reason)`` or ``("seed_empty",
    reason)`` for the first structural hypothesis that fails, else None.
    """
    pairs = rel.sorted_pairs
    in_nbrs: list[list[int]] = [[] for _ in range(rel.ground_size)]
    for r, s in pairs:
        in_nbrs[s].append(r)
    triples = [(r, u, t) for u, ins in enumerate(in_nbrs) for r in ins for t in ins]
    images = [(mapping[r], mapping[s]) for r, s in pairs]
    image_of = mapping.__getitem__
    closed, witness = closed_under(rel, image_of)
    if not closed:
        reason = "relation not closed under the map: image of ({}, {}) escapes"
        structural: Optional[tuple[str, str]] = ("not_closed", reason.format(*witness))
    elif not seed_set(rel, image_of):
        structural = ("seed_empty", "seed set empty: no u with (u, map(u)) related")
    else:
        structural = None
    return _Patterns(pairs, triples, images, structural)


def hypotheses_hold(inst: FiniteInstance) -> tuple[bool, str]:
    """Mechanically test every hypothesis on the patterns the claim uses.

    Vanishing and absolute symmetry are required on related pairs, the
    triangle property on triples (r, u, t) with (r, u) and (t, u) both
    related; then closedness of the relation under the map, a nonempty seed
    set, and contraction on related pairs for some grid factor. The reason
    names the first failing hypothesis and its first witness.
    """
    ok, reason, _ = _check_hypotheses(_patterns(inst.rel, inst.mapping), inst)
    return ok, reason


def _check_hypotheses(
    pat: _Patterns, inst: FiniteInstance
) -> tuple[bool, str, Optional[Fraction]]:
    """:func:`hypotheses_hold` on the pair's pattern table ``pat``, also
    returning the contraction factor (None unless every hypothesis holds)."""
    g = inst.g_matrix
    for r, s in pat.pairs:
        if r != s and g[r][s] == 0:
            return False, f"(g1) fails: g[{r}][{s}] = 0 on related distinct pair ({r}, {s})", None

    for r, s in pat.pairs:
        if abs(g[r][s]) != abs(g[s][r]):
            return False, f"(g2) fails: |g[{r}][{s}]| != |g[{s}][{r}]| on related pair ({r}, {s})", None

    for r, u, t in pat.triples:
        if abs(g[r][u]) > abs(g[r][t]) + abs(g[t][u]):
            return False, f"(g3) fails on constrained triple ({r}, {u}, {t})", None

    if pat.structural is not None:
        return False, pat.structural[1], None

    alpha = contraction_alpha(inst)
    if alpha is None:
        return False, "contraction fails on a related pair for every alpha in {1/4, 1/2, 3/4}", None

    return True, (
        f"hypotheses hold at alpha = {alpha}; completeness and continuity are "
        "automatic on a finite carrier (discrete reading)"
    ), alpha


def conclusion_holds(inst: FiniteInstance) -> bool:
    """A fixed point exists and every seeded orbit reaches one within n steps."""
    mapping = inst.mapping
    fixed = set(fixed_points(inst))
    if not fixed:
        return False
    for r0 in seed_set(inst.rel, mapping.__getitem__):
        cur = r0
        if cur in fixed:
            continue
        for _ in range(inst.n):
            cur = mapping[cur]
            if cur in fixed:
                break
        else:
            return False
    return True


def image_symmetric_connected(inst: FiniteInstance) -> bool:
    """Whether the map image is path-connected in the symmetric closure."""
    return is_connected(symmetric_closure(inst.rel), set(inst.mapping))


class SweepSpec(NamedTuple):
    """One enumeration slice: carrier size, entry bound, relation cap."""

    n: int
    g_max: int = DEFAULT_G_MAX
    rel_count_cap: Optional[int] = None


_COMPLETENESS_NOTE = (
    "completeness and continuity treated as automatic on finite carriers "
    "(discrete reading)"
)


class SweepResult(Record):
    """Tallies of one slice; ``run_oracle`` fills them pair by pair."""

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

    def __init__(
        self,
        spec: SweepSpec,
        instances_checked: int = 0,
        hypotheses_satisfied: int = 0,
        counterexamples: Optional[list[dict]] = None,
        uniqueness_candidates: int = 0,
        uniqueness_violations: Optional[list[dict]] = None,
        rejections: Optional[dict[str, int]] = None,
        completeness_note: str = _COMPLETENESS_NOTE,
    ) -> None:
        self.spec = spec
        self.instances_checked = instances_checked
        self.hypotheses_satisfied = hypotheses_satisfied
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.uniqueness_candidates = uniqueness_candidates
        self.uniqueness_violations = (
            [] if uniqueness_violations is None else uniqueness_violations
        )
        self.rejections = (
            dict.fromkeys(REJECTION_KEYS, 0) if rejections is None else rejections
        )
        self.completeness_note = completeness_note

    def to_json_dict(self) -> dict:
        return {
            "n": self.spec.n,
            "g_max": self.spec.g_max,
            "rel_count_cap": self.spec.rel_count_cap,
            "instances_checked": self.instances_checked,
            "hypotheses_satisfied": self.hypotheses_satisfied,
            "counterexamples": self.counterexamples,
            "uniqueness_candidates": self.uniqueness_candidates,
            "uniqueness_violations": self.uniqueness_violations,
            "rejections": dict(self.rejections),
            "completeness_note": self.completeness_note,
        }


class OracleReport(Record):
    __slots__ = _fields = ("sweeps",)

    def __init__(self, sweeps: list[SweepResult]) -> None:
        self.sweeps = sweeps

    @property
    def total_checked(self) -> int:
        return sum(s.instances_checked for s in self.sweeps)

    @property
    def counterexamples(self) -> list[dict]:
        out: list[dict] = []
        for s in self.sweeps:
            out.extend(s.counterexamples)
        return out

    @property
    def uniqueness_violations(self) -> list[dict]:
        out: list[dict] = []
        for s in self.sweeps:
            out.extend(s.uniqueness_violations)
        return out

    def to_json_dict(self) -> dict:
        return {
            "total_checked": self.total_checked,
            "counterexample_count": len(self.counterexamples),
            "uniqueness_violation_count": len(self.uniqueness_violations),
            "sweeps": [s.to_json_dict() for s in self.sweeps],
        }


def default_sweeps(n: int) -> list[SweepSpec]:
    """Per-size default slices: all of n=2, capped slices of n=3 and n=4.

    The n=4 slice is 2 x 4^4 x 3^16, about 2.2e10 instances; the factored
    sweep decides its 512 (relation, map) pairs in well under a second.
    """
    table = {
        2: SweepSpec(2, g_max=2, rel_count_cap=None),
        3: SweepSpec(3, g_max=1, rel_count_cap=8),
        4: SweepSpec(4, g_max=1, rel_count_cap=2),
    }
    if n not in table:
        raise ValueError("ground size must be 2, 3, or 4")
    return [table[n]]


def _classify_pair(
    pat: _Patterns, n: int, g_max: int
) -> tuple[list[int], list[int], set[tuple[int, ...]]]:
    """First failing hypothesis for every assignment of the touched entries.

    The touched cells (row-major ids, ascending) are the entries the pattern
    table ``pat`` names: ``g[r][s]`` and ``g[s][r]`` on related pairs,
    ``g[r][t]`` of each constrained triple (r, u, t), and ``g[m(r)][m(s)]``;
    no hypothesis reads another entry. Every hypothesis reads an entry only
    through its magnitude (g1's ``g == 0`` is ``|g| == 0``), so each vector
    of magnitudes in [0, g_max] stands for the 2**(nonzero cells) signed
    assignments that share it, and only vectors that pass g1 are walked.
    Returns the cells, the per-key assignment counts in
    :data:`REJECTION_KEYS` order and the magnitude vectors that pass every
    hypothesis.
    """
    structural = None if pat.structural is None else REJECTION_KEYS.index(pat.structural[0])
    fwd = [r * n + s for r, s in pat.pairs]
    bwd = [s * n + r for r, s in pat.pairs]
    img = [a * n + b for a, b in pat.images]
    rt = [r * n + t for r, _, t in pat.triples]
    cells = sorted({*fwd, *bwd, *rt, *img})  # g[r][u] and g[t][u] are related pairs
    slot = {cell: pos for pos, cell in enumerate(cells)}
    distinct = {slot[cell] for cell, (r, s) in zip(fwd, pat.pairs) if r != s}
    swaps = sorted({(slot[min(a, b)], slot[max(a, b)]) for a, b in zip(fwd, bwd) if a != b})
    # the triangle cannot fail when t is r or u
    triangles = [
        (slot[r * n + u], slot[r * n + t], slot[t * n + u])
        for r, u, t in pat.triples
        if t != r and t != u
    ]
    shrinks = [(slot[a], slot[b]) for a, b in zip(img, fwd)]
    # contraction holds for some grid factor iff for the largest
    num, den = ALPHA_GRID[-1].as_integer_ratio()

    counts = [0] * len(REJECTION_KEYS)  # indexed like REJECTION_KEYS
    passing: set[tuple[int, ...]] = set()
    # g1 fails exactly when an entry of a distinct related pair is 0: count
    # those assignments in closed form and walk only the others
    k, free = 2 * g_max + 1, len(cells) - len(distinct)
    counts[0] = k ** len(cells) - (k - 1) ** len(distinct) * k**free
    ranges = [range(1 if pos in distinct else 0, g_max + 1) for pos in range(len(cells))]
    for mag in product(*ranges):
        if any(mag[a] != mag[b] for a, b in swaps):
            key = 1
        elif any(mag[a] > mag[b] + mag[c] for a, b, c in triangles):
            key = 2
        elif structural is not None:
            key = structural
        elif any(den * mag[a] > num * mag[b] for a, b in shrinks):
            key = 5
        else:
            key = 6
            passing.add(mag)
        counts[key] += 1 << (len(cells) - mag.count(0))
    return cells, counts, passing


def _materialise(
    rel: FiniteRelation,
    mapping: tuple[int, ...],
    g_max: int,
    cells: list[int],
    passing: set[tuple[int, ...]],
    first_index: int,
) -> Iterator[FiniteInstance]:
    """Every instance of one pair whose touched magnitudes are in ``passing``.

    The matrices are built entry by entry in row-major order, each entry
    taking its values in ascending order, so they come out in stream order;
    a touched entry keeps only the values whose magnitudes still start some
    passing vector, so the work grows with the instances yielded. A
    matrix's offset within its pair is its digit string (entry + g_max)
    read in base 2 g_max + 1; ``first_index`` is the stream index of offset 0.
    """
    n = rel.ground_size
    k = 2 * g_max + 1
    values = range(-g_max, g_max + 1)
    touched = set(cells)
    prefixes = {mag[:end] for mag in passing for end in range(len(cells) + 1)}
    # (entries so far, their touched magnitudes, offset so far)
    partial: list[tuple[tuple[int, ...], tuple[int, ...], int]] = [((), (), 0)]
    for cell in range(n * n):
        if cell in touched:
            partial = [
                (entries + (v,), mags + (abs(v),), offset * k + v + g_max)
                for entries, mags, offset in partial
                for v in values
                if mags + (abs(v),) in prefixes
            ]
        else:
            partial = [
                (entries + (v,), mags, offset * k + v + g_max)
                for entries, mags, offset in partial
                for v in values
            ]
    for entries, _, offset in partial:
        g_matrix = tuple(entries[row * n : row * n + n] for row in range(n))
        yield FiniteInstance(n, g_matrix, rel, mapping, None, first_index + offset)


def _sweep_pair(
    res: SweepResult,
    rel: FiniteRelation,
    mapping: tuple[int, ...],
    first_index: int,
) -> None:
    """Add every instance of one (relation, map) pair to a sweep's tallies.

    ``first_index`` is the stream index of the pair's first matrix.
    """
    n, g_max = rel.ground_size, res.spec.g_max
    matrices = (2 * g_max + 1) ** (n * n)
    # the structural verdicts read no g entry
    probe = FiniteInstance(n, (), rel, mapping)
    concludes = conclusion_holds(probe)
    candidate = image_symmetric_connected(probe)
    fixed = fixed_points(probe)
    unique = not candidate or len(fixed) == 1
    pat = _patterns(rel, mapping)
    cells, counts, passing = _classify_pair(pat, n, g_max)
    multiplicity = matrices // (2 * g_max + 1) ** len(cells)
    for key, count in zip(REJECTION_KEYS, counts):
        res.rejections[key] += count * multiplicity
    satisfied = counts[-1] * multiplicity
    res.instances_checked += matrices
    res.hypotheses_satisfied += satisfied
    if candidate:
        res.uniqueness_candidates += satisfied
    if satisfied == 0 or (concludes and unique):
        return
    pair_json = _pair_json(rel, mapping)
    for inst in _materialise(rel, mapping, g_max, cells, passing, first_index):
        # re-check each listed instance on the pair's one table
        ok, reason, inst.alpha = _check_hypotheses(pat, inst)
        if not ok:
            raise RuntimeError(f"instance {inst.index} misclassified: {reason}")
        doc = _instance_json(inst, pair_json)
        if not concludes:
            res.counterexamples.append({**doc, "reason": reason})
        if not unique:
            res.uniqueness_violations.append({**doc, "fixed_points": fixed})


def run_oracle(sweeps: Sequence[SweepSpec]) -> OracleReport:
    """Run the model check over every requested slice.

    Counterexamples (hypotheses hold, conclusion fails) come back sorted by
    enumeration index within each sweep. Hypothesis-satisfying instances
    whose map image is connected in the symmetric closure are additionally
    held to a unique fixed point; violations are reported separately.

    Each (relation, map) pair of the stream is decided once: its structural
    verdicts directly, its g-hypotheses over all assignments of the entries
    they read (see :func:`_classify_pair`). Counts are exact multiplicities
    of :func:`enumerate_instances`. Only a pair that breaks the conclusion
    or uniqueness has its satisfying instances built one by one, so the
    reports list them exactly as a one-by-one sweep would.
    """
    results: list[SweepResult] = []
    for spec in sweeps:
        res = SweepResult(spec=spec)
        _check_slice(spec.n, spec.g_max, spec.rel_count_cap)
        matrices = (2 * spec.g_max + 1) ** (spec.n * spec.n)
        pairs = _relation_map_pairs(spec.n, spec.rel_count_cap)
        for pair_no, (rel, mapping) in enumerate(pairs):
            _sweep_pair(res, rel, mapping, pair_no * matrices)
        results.append(res)
    return OracleReport(results)
