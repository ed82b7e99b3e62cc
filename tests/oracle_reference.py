"""Test-only reference for the finite oracle: the one-by-one sweep.

``sweep_instances`` walks the instance stream and decides every instance
with ``reference_hypotheses``, ``conclusion_holds`` and the uniqueness
check, the brute-force definition the factored ``run_oracle`` must
reproduce exactly. It lists a violating pair once, as its first violating
instance's document plus ``instances``, the number of the pair's
instances it decided to violate. The references tally into a plain report
dict laid out as ``SweepResult.to_json_dict`` (``empty_report``), and they
count ``instances_checked`` and ``hypotheses_satisfied`` themselves, one
instance or one pair at a time, rather than reading them off the
rejection histogram as ``SweepResult`` does; so comparing reports checks
those two properties against an independent count.

``reference_hypotheses`` is the hypothesis check written as plain
integer loops over one instance, independent of the oracle's pattern
table, and ``reference_alpha`` is the contraction factor walked on the g
matrix once per grid factor, independent of the oracle's ``_contracts``.
The other verdict functions are looked up on the module at call time, so
a test that monkeypatches them changes both this reference and
``run_oracle``.

``per_pair_sweep`` is the factored sweep as it was before it shared one
g1-g3 walk across a relation's maps: ``pair_table`` compiles each
(relation, map) pair's six hypotheses into checks on the magnitudes of the
pair's touched entries (images included), ``classify_magnitudes`` walks
every magnitude vector of the pair, and ``sweep_pair`` tallies the pair and
lists a violating pair's first satisfying instance, found entry by entry
by ``first_instance``, with the pair's count. Its closedness and seed
verdicts come from ``closedness_witness`` below and ``relations.seed_set``,
not the oracle's bitmasks.

``classify_pair`` and ``materialise`` are the numpy classifier and
materialiser the oracle used before it classified by magnitude: every
signed assignment of the touched entries is a base-(2 g_max + 1) code, and
the materialiser scans every matrix offset of a pair. The classifier
derives its pairs, triples, images and structural verdict from the
(relation, map) pair itself, and touches every entry of every triple, the
diagonal g[r][r] of t == r included, so it reads nothing of the oracle's
pattern table.
"""

from itertools import product
from typing import Iterator, NamedTuple, Optional, Sequence

import numpy as np

from relfix import finite_oracle
from relfix.finite_oracle import (
    ALPHA_GRID,
    REJECTION_KEYS,
    FiniteInstance,
    Pair,
    SweepSpec,
    enumerate_instances,
)
from relfix.relations import FiniteRelation, seed_set

# assignments of the touched matrix entries classified per numpy pass
CHUNK = 1 << 16

REASON_PREFIXES = (
    ("(g1)", "g1"),
    ("(g2)", "g2"),
    ("(g3)", "g3"),
    ("relation not closed", "not_closed"),
    ("seed set empty", "seed_empty"),
    ("contraction fails", "contraction"),
    ("hypotheses hold", "pass"),
)


def rejection_key(reason):
    """Histogram key of a ``hypotheses_hold`` reason string."""
    for prefix, key in REASON_PREFIXES:
        if reason.startswith(prefix):
            return key
    raise ValueError(f"unclassified reason {reason!r}")


def reference_alpha(inst):
    """Smallest grid factor under which every related pair contracts."""
    g, mapping = inst.g_matrix, inst.mapping
    for alpha in ALPHA_GRID:
        num, den = alpha.as_integer_ratio()
        for r, s in inst.rel.sorted_pairs:
            if den * abs(g[mapping[r]][mapping[s]]) > num * abs(g[r][s]):
                break
        else:
            return alpha
    return None


def reference_hypotheses(inst):
    """``hypotheses_hold`` with its own loops: same verdict, same reason."""
    n, g, m = inst.n, inst.g_matrix, inst.mapping
    pairs, related = inst.rel.sorted_pairs, inst.rel.pairs

    for r, s in pairs:
        if r != s and g[r][s] == 0:
            return False, f"(g1) fails: g[{r}][{s}] = 0 on related distinct pair ({r}, {s})"

    for r, s in pairs:
        if abs(g[r][s]) != abs(g[s][r]):
            return False, f"(g2) fails: |g[{r}][{s}]| != |g[{s}][{r}]| on related pair ({r}, {s})"

    in_nbrs = [[] for _ in range(n)]
    for r, s in pairs:
        in_nbrs[s].append(r)
    for u in range(n):
        ins = in_nbrs[u]
        for r in ins:
            gru = abs(g[r][u])
            for t in ins:
                if gru > abs(g[r][t]) + abs(g[t][u]):
                    return False, f"(g3) fails on constrained triple ({r}, {u}, {t})"

    for r, s in pairs:
        if (m[r], m[s]) not in related:
            return False, f"relation not closed under the map: image of ({r}, {s}) escapes"

    if not any((u, m[u]) in related for u in range(n)):
        return False, "seed set empty: no u with (u, map(u)) related"

    alpha = reference_alpha(inst)
    if alpha is None:
        return False, "contraction fails on a related pair for every alpha in {1/4, 1/2, 3/4}"

    return True, (
        f"hypotheses hold at alpha = {alpha}; completeness and continuity are "
        "automatic on a finite carrier (discrete reading)"
    )


def list_grouped(listed, doc, key, value):
    """Count the instance ``doc`` under its pair's document in ``listed``.

    Instances come in stream order, so a pair's instances are consecutive:
    the first one opens the pair's document, the others add to its count.
    """
    last = listed[-1] if listed else None
    if last is not None and (last["pairs"], last["map"]) == (doc["pairs"], doc["map"]):
        last["instances"] += 1
    else:
        listed.append({**doc, "instances": 1, key: value})


def empty_report(spec: SweepSpec) -> dict:
    """A zero report for ``spec``, keyed and ordered as ``SweepResult.to_json_dict``."""
    return {
        **spec._asdict(),
        "instances_checked": 0,
        "hypotheses_satisfied": 0,
        "counterexamples": [],
        "uniqueness_candidates": 0,
        "uniqueness_violations": [],
        "rejections": dict.fromkeys(REJECTION_KEYS, 0),
        "completeness_note": (
            "completeness and continuity treated as automatic on finite carriers (discrete reading)"
        ),
    }


def sweep_instances(report, instances):
    """Decide each instance one by one and add it to ``report``."""
    for inst in instances:
        report["instances_checked"] += 1
        ok, reason = reference_hypotheses(inst)
        report["rejections"][rejection_key(reason)] += 1
        if not ok:
            continue
        report["hypotheses_satisfied"] += 1
        inst = inst._replace(alpha=reference_alpha(inst))
        pair = inst.pair
        if not finite_oracle.conclusion_holds(pair):
            list_grouped(report["counterexamples"], inst.to_json_dict(), "reason", reason)
        if finite_oracle.image_symmetric_connected(pair):
            report["uniqueness_candidates"] += 1
            fixed = finite_oracle.fixed_points(pair)
            if len(fixed) != 1:
                violations = report["uniqueness_violations"]
                list_grouped(violations, inst.to_json_dict(), "fixed_points", fixed)
    return report


def reference_sweep(spec: SweepSpec) -> dict:
    """The whole slice's report, one instance at a time."""
    instances = enumerate_instances(spec.n, spec.g_max, spec.rel_count_cap)
    return sweep_instances(empty_report(spec), instances)


class PairPatterns(NamedTuple):
    """A pair's hypotheses as checks on ``mag``, with ``mag[i]`` = |g| at ``cells[i]``."""

    cells: tuple  # the touched cells, ascending
    g1: list  # mag[a] > 0, witness (r, s)
    g2: list  # mag[a] == mag[b], witness (r, s)
    g3: list  # mag[a] <= mag[b] + mag[c], witness (r, u, t)
    structural: Optional[tuple]  # first failing key index and witness
    contraction: list  # den * mag[a] <= num * mag[b]


def closedness_witness(rel: FiniteRelation, image_of) -> Optional[tuple[int, int]]:
    """The first related pair, in sorted order, whose image escapes the
    relation; None when the relation is closed under ``image_of``."""
    for r, s in rel.sorted_pairs:
        if (image_of(r), image_of(s)) not in rel.pairs:
            return r, s
    return None


def pair_table(rel: FiniteRelation, mapping: tuple[int, ...]) -> PairPatterns:
    """Compile one (relation, map) pair's hypotheses, each list in witness order."""
    n = rel.ground_size
    pairs = rel.sorted_pairs
    in_nbrs = [[] for _ in range(n)]
    for r, s in pairs:
        in_nbrs[s].append(r)
    triples = [(r, u, t) for u, ins in enumerate(in_nbrs) for r in ins for t in ins if r != t != u]
    images = [(mapping[r], mapping[s]) for r, s in pairs]
    touched = sorted(
        {*pairs, *((s, r) for r, s in pairs), *((r, t) for r, _, t in triples), *images}
    )
    slot = {cell: pos for pos, cell in enumerate(touched)}
    image_of = mapping.__getitem__
    witness = closedness_witness(rel, image_of)
    if witness is not None:
        structural = (3, witness)
    elif not seed_set(rel, image_of):
        structural = (4, ())
    else:
        structural = None
    return PairPatterns(
        tuple(r * n + s for r, s in touched),
        [(slot[r, s], (r, s)) for r, s in pairs if r != s],
        [(slot[r, s], slot[s, r], (r, s)) for r, s in pairs if r < s or not rel(s, r)],
        [(slot[r, u], slot[r, t], slot[t, u], (r, u, t)) for r, u, t in triples],
        structural,
        [(slot[image], slot[pair]) for image, pair in zip(images, pairs)],
    )


def first_failure(pat: PairPatterns, mag: Sequence[int]) -> tuple[int, tuple]:
    """The index in REJECTION_KEYS of the first hypothesis ``mag`` fails,
    with its witness; ``(6, ())`` when every hypothesis holds."""
    num, den = ALPHA_GRID[-1].as_integer_ratio()
    for a, witness in pat.g1:
        if not mag[a]:
            return 0, witness
    for a, b, witness in pat.g2:
        if mag[a] != mag[b]:
            return 1, witness
    for a, b, c, witness in pat.g3:
        if mag[a] > mag[b] + mag[c]:
            return 2, witness
    if pat.structural is not None:
        return pat.structural
    for a, b in pat.contraction:
        if den * mag[a] > num * mag[b]:
            return 5, ()
    return 6, ()


def classify_magnitudes(pat: PairPatterns, g_max: int):
    """Per-key assignment counts over the pair's touched cells, and the
    magnitude vectors that pass every hypothesis."""
    width = len(pat.cells)
    distinct = {a for a, _ in pat.g1}
    counts = [0] * len(REJECTION_KEYS)
    passing = set()
    k = 2 * g_max + 1
    counts[0] = k**width - (k - 1) ** len(distinct) * k ** (width - len(distinct))
    ranges = [range(1 if pos in distinct else 0, g_max + 1) for pos in range(width)]
    for mag in product(*ranges):
        key = first_failure(pat, mag)[0]
        if key == 6:
            passing.add(mag)
        counts[key] += 1 << (width - mag.count(0))
    return counts, passing


def sweep_pair(report: dict, rel: FiniteRelation, mapping: tuple[int, ...], first_index: int):
    """Add every instance of one (relation, map) pair to a report's tallies."""
    n, g_max = rel.ground_size, report["g_max"]
    matrices = (2 * g_max + 1) ** (n * n)
    pair = Pair(rel, mapping)
    concludes = finite_oracle.conclusion_holds(pair)
    candidate = finite_oracle.image_symmetric_connected(pair)
    fixed = finite_oracle.fixed_points(pair)
    unique = not candidate or len(fixed) == 1
    pat = pair_table(rel, mapping)
    counts, passing = classify_magnitudes(pat, g_max)
    multiplicity = matrices // (2 * g_max + 1) ** len(pat.cells)
    for key, count in zip(REJECTION_KEYS, counts):
        report["rejections"][key] += count * multiplicity
    satisfied = counts[-1] * multiplicity
    report["instances_checked"] += matrices
    report["hypotheses_satisfied"] += satisfied
    if candidate:
        report["uniqueness_candidates"] += satisfied
    if satisfied == 0 or (concludes and unique):
        return
    g = first_instance(n, g_max, pat.cells, passing)
    entries = [v for row in g for v in row]
    places = reversed(range(n * n))
    index = first_index + sum((v + g_max) * (2 * g_max + 1) ** p for p, v in zip(places, entries))
    key, witness = first_failure(pat, [abs(g[cell // n][cell % n]) for cell in pat.cells])
    if key != 6:
        reason = finite_oracle._REASONS[key].format(*witness)
        raise RuntimeError(f"instance {index} misclassified: {reason}")
    inst = FiniteInstance(pair, g, None, index)
    inst = inst._replace(alpha=reference_alpha(inst))
    doc = {**inst.to_json_dict(), "instances": satisfied}
    reason = finite_oracle._REASONS[key].format(inst.alpha)
    if not concludes:
        report["counterexamples"].append({**doc, "reason": reason})
    if not unique:
        report["uniqueness_violations"].append({**doc, "fixed_points": fixed})


def first_instance(n: int, g_max: int, cells: Sequence[int], passing) -> tuple:
    """The pair's first matrix in stream order whose magnitudes on ``cells``
    are one of ``passing``, chosen entry by entry in row-major order: each
    entry takes the smallest value that a vector still in play allows, and
    the vectors that disallow it drop out."""
    left = set(passing)
    entries = []
    for cell in range(n * n):
        if cell in cells:
            pos = cells.index(cell)
            value = min(-mag[pos] for mag in left)
            left = {mag for mag in left if -mag[pos] == value}
        else:
            value = -g_max
        entries.append(value)
    return tuple(tuple(entries[row * n : row * n + n]) for row in range(n))


def per_pair_sweep(spec: SweepSpec) -> dict:
    """The whole slice's report, one (relation, map) pair at a time."""
    n = spec.n
    report = empty_report(spec)
    matrices = (2 * spec.g_max + 1) ** (n * n)
    maps = list(product(range(n), repeat=n))
    masks = 1 << (n * n) if spec.rel_count_cap is None else min(spec.rel_count_cap, 1 << (n * n))
    for mask in range(masks):
        rel = FiniteRelation(n, frozenset(divmod(b, n) for b in range(n * n) if mask >> b & 1))
        for map_no, mapping in enumerate(maps):
            sweep_pair(report, rel, mapping, (mask * len(maps) + map_no) * matrices)
    return report


def place_values(width: int, base: int) -> np.ndarray:
    """``base**(width-1), ..., base, 1``; raises OverflowError past int64."""
    return np.array([base**p for p in range(width - 1, -1, -1)], dtype=np.int64)


def digits(codes: np.ndarray, width: int, base: int) -> np.ndarray:
    """Base-``base`` digits of each code, most significant first: (width, len)."""
    return codes // place_values(width, base)[:, None] % base


def pair_patterns(rel: FiniteRelation, mapping: tuple[int, ...]):
    """Related pairs, every triple (r, u, t) with (r, u) and (t, u) related,
    and the images of the related pairs, derived here from the pair."""
    pairs = rel.sorted_pairs
    n = rel.ground_size
    triples = [(r, u, t) for u, r, t in product(range(n), repeat=3) if rel(r, u) and rel(t, u)]
    images = [(mapping[r], mapping[s]) for r, s in pairs]
    return pairs, triples, images


def touched_cells(rel: FiniteRelation, mapping: tuple[int, ...]) -> list[int]:
    """Row-major ids of every entry the hypotheses may read, ascending:
    related pairs, their swaps, g[r][t] of every triple, the images."""
    n = rel.ground_size
    pairs, triples, images = pair_patterns(rel, mapping)
    ends = [(r, t) for r, _, t in triples]
    return sorted({r * n + s for r, s in [*pairs, *images, *ends]} | {s * n + r for r, s in pairs})


def classify_pair(
    rel: FiniteRelation, mapping: tuple[int, ...], g_max: int
) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Cells, per-key counts and passing codes over every signed assignment."""
    k = 2 * g_max + 1
    n = rel.ground_size
    pairs, triples, images = pair_patterns(rel, mapping)
    if not all(rel(a, b) for a, b in images):
        structural = "not_closed"
    elif not any(rel(u, mapping[u]) for u in range(n)):
        structural = "seed_empty"
    else:
        structural = None
    fwd = [r * n + s for r, s in pairs]
    bwd = [s * n + r for r, s in pairs]
    img = [a * n + b for a, b in images]
    ru = [r * n + u for r, u, _ in triples]
    rt = [r * n + t for r, _, t in triples]
    tu = [t * n + u for _, u, t in triples]
    cells = touched_cells(rel, mapping)
    slot = {cell: pos for pos, cell in enumerate(cells)}

    def at(ids: Sequence[int]) -> np.ndarray:
        return np.array([slot[cell] for cell in ids], dtype=np.intp)

    distinct = at([cell for cell, (r, s) in zip(fwd, pairs) if r != s])
    fwd, bwd, img, ru, rt, tu = map(at, (fwd, bwd, img, ru, rt, tu))
    num, den = ALPHA_GRID[-1].as_integer_ratio()

    counts = np.zeros(len(REJECTION_KEYS), dtype=np.int64)
    passing = [np.zeros(0, dtype=np.int64)]
    total = k ** len(cells)
    for lo in range(0, total, CHUNK):
        codes = np.arange(lo, min(lo + CHUNK, total), dtype=np.int64)
        g = digits(codes, len(cells), k) - g_max
        mag = np.abs(g)
        fails = np.stack(
            [
                (g[distinct] == 0).any(axis=0),
                (mag[fwd] != mag[bwd]).any(axis=0),
                (mag[ru] > mag[rt] + mag[tu]).any(axis=0),
                np.full(len(codes), structural == "not_closed"),
                np.full(len(codes), structural == "seed_empty"),
                (den * mag[img] > num * mag[fwd]).any(axis=0),
                np.ones(len(codes), dtype=bool),
            ]
        )
        first = fails.argmax(axis=0)
        counts += np.bincount(first, minlength=len(REJECTION_KEYS))
        passing.append(codes[first == len(REJECTION_KEYS) - 1])
    return cells, counts, np.concatenate(passing)


def materialise(
    rel: FiniteRelation,
    mapping: tuple[int, ...],
    g_max: int,
    cells: list[int],
    codes: np.ndarray,
    first_index: int,
) -> Iterator[FiniteInstance]:
    """Every instance of one pair whose touched entries take one of ``codes``."""
    n, pair = rel.ground_size, Pair(rel, mapping)
    k = 2 * g_max + 1
    code_weights = place_values(len(cells), k)
    total = k ** (n * n)
    for lo in range(0, total, CHUNK):
        offsets = np.arange(lo, min(lo + CHUNK, total), dtype=np.int64)
        entries = digits(offsets, n * n, k)
        hit = np.isin(code_weights @ entries[cells], codes)
        matrices = (entries[:, hit] - g_max).T.reshape(-1, n, n)
        for offset, g in zip(offsets[hit].tolist(), matrices.tolist()):
            g_matrix = tuple(tuple(row) for row in g)
            yield FiniteInstance(pair, g_matrix, None, first_index + offset)
