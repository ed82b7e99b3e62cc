import functools
import itertools
import json
import math
import random
from fractions import Fraction
from itertools import product

import pytest

import oracle_reference
from oracle_reference import (
    closedness_witness,
    per_pair_sweep,
    reference_hypotheses,
    reference_sweep,
    sweep_instances,
    sweep_pair,
)
from relfix import finite_oracle
from relfix.finite_oracle import (
    ALPHA_GRID,
    REJECTION_KEYS,
    FiniteInstance,
    Pair,
    SweepResult,
    SweepSpec,
    conclusion_holds,
    contraction_alpha,
    default_sweep,
    enumerate_instances,
    fixed_points,
    hypotheses_hold,
    image_symmetric_connected,
    run_oracle,
)
from relfix.gspace import relation_pattern_report
from relfix.relations import FiniteRelation, seed_set


def mk(n, pairs, mapping, g):
    return FiniteInstance(
        n=n,
        g_matrix=tuple(tuple(row) for row in g),
        rel=FiniteRelation.from_pairs(n, pairs),
        mapping=tuple(mapping),
    )


class TestEnumeration:
    def test_count_formula(self):
        # masks * maps * matrices = 2^(n^2) * n^n * (2 g_max + 1)^(n^2)
        count = sum(1 for _ in enumerate_instances(2, g_max=1))
        assert count == 16 * 4 * 81 == 5184

    def test_relation_cap_scales_linearly(self):
        count = sum(1 for _ in enumerate_instances(2, g_max=1, rel_count_cap=3))
        assert count == 3 * 4 * 81 == 972

    def test_indices_are_the_stream_positions(self):
        got = [i.index for i in itertools.islice(enumerate_instances(2, 1), 50)]
        assert got == list(range(50))

    def test_deterministic(self):
        a = [i.to_json_dict() for i in itertools.islice(enumerate_instances(2, 1), 200)]
        b = [i.to_json_dict() for i in itertools.islice(enumerate_instances(2, 1), 200)]
        assert a == b

    def test_first_instance(self):
        first = next(enumerate_instances(2, 1))
        assert first.to_json_dict() == {
            "index": 0,
            "n": 2,
            "pairs": [],
            "map": [0, 0],
            "g": [[-1, -1], [-1, -1]],
            "alpha": None,
        }

    @pytest.mark.parametrize("n", [0, 1, 5, 9])
    def test_carrier_size_limits(self, n):
        with pytest.raises(ValueError):
            next(enumerate_instances(n))

    def test_negative_entry_bound(self):
        with pytest.raises(ValueError):
            next(enumerate_instances(2, g_max=-1))

    @pytest.mark.parametrize("cap", [0, -1])
    def test_relation_cap_below_one(self, cap):
        # such a slice holds no instance, so its sweep would pass vacuously
        with pytest.raises(ValueError, match="rel_count_cap"):
            next(enumerate_instances(2, rel_count_cap=cap))
        with pytest.raises(ValueError, match="rel_count_cap"):
            run_oracle(SweepSpec(2, 1, cap))


class TestHypothesisReasons:
    def test_vanishing_on_distinct_related_pair(self):
        inst = mk(2, [(0, 1)], (0, 1), [[0, 0], [1, 0]])
        ok, reason = hypotheses_hold(inst)
        assert not ok and "(g1)" in reason

    def test_asymmetric_magnitudes(self):
        inst = mk(2, [(0, 1)], (0, 1), [[0, 1], [2, 0]])
        ok, reason = hypotheses_hold(inst)
        assert not ok and "(g2)" in reason

    def test_triangle_on_constrained_triple(self):
        inst = mk(
            3,
            [(0, 2), (1, 2)],
            (0, 1, 2),
            [[0, 1, 3], [1, 0, 1], [3, 1, 0]],
        )
        ok, reason = hypotheses_hold(inst)
        assert not ok
        assert reason == "(g3) fails on constrained triple (0, 2, 1)"

    def test_triangle_witness_is_the_first_triple_by_middle_point(self):
        # (1, 0, 2) and (0, 1, 2) both fail; triples are ordered by u, then
        # r, then t, so the witness is the one through u = 0
        inst = mk(
            3,
            [(0, 1), (1, 0), (2, 0), (2, 1)],
            (0, 0, 0),
            [[0, 3, 1], [3, 0, 1], [1, 1, 0]],
        )
        assert hypotheses_hold(inst) == (
            False,
            "(g3) fails on constrained triple (1, 0, 2)",
        )

    def test_relation_escapes_under_the_map(self):
        inst = mk(2, [(0, 1)], (1, 0), [[0, 1], [1, 0]])
        ok, reason = hypotheses_hold(inst)
        assert not ok and "not closed" in reason

    def test_empty_seed_set(self):
        inst = mk(2, [(0, 1)], (0, 1), [[0, 1], [1, 0]])
        ok, reason = hypotheses_hold(inst)
        assert not ok and "seed set empty" in reason

    def test_identity_map_cannot_contract_a_distinct_pair(self):
        inst = mk(2, [(0, 0), (0, 1)], (0, 1), [[0, 1], [1, 0]])
        ok, reason = hypotheses_hold(inst)
        assert not ok and "contraction fails" in reason
        assert contraction_alpha(inst) is None

    def test_satisfying_instance(self):
        inst = mk(2, [(0, 0), (1, 0)], (0, 0), [[0, 1], [1, 0]])
        ok, reason = hypotheses_hold(inst)
        assert ok
        assert "alpha = 1/4" in reason
        assert "automatic on a finite carrier" in reason
        assert contraction_alpha(inst) == Fraction(1, 4)
        assert conclusion_holds(inst.pair)

    @pytest.mark.parametrize("mapping", [(0, 2), (0, -1), (0, 0, 1), (0,)], ids=str)
    def test_map_outside_the_ground_set(self, mapping):
        # the closedness test reads image cells m(r)*n + m(s), which such a
        # map would alias to other cells
        inst = mk(2, [(0, 0), (0, 1), (1, 0)], (0, 0), [[0, 1], [1, 0]])
        inst.mapping = mapping
        with pytest.raises(ValueError, match="map must send each of 0..1"):
            hypotheses_hold(inst)

    def test_contraction_grid_is_fixed(self):
        assert ALPHA_GRID == (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))

    def test_contraction_alpha_picks_the_smallest(self):
        # ratio is exactly 1/2 on the only informative pair
        inst = mk(3, [(0, 0), (1, 2)], (0, 0, 0), [[0, 1, 1], [1, 0, 2], [1, 2, 0]])
        # image of (1, 2) is (0, 0): |g| drops from 2 to 0, alpha 1/4 works
        assert contraction_alpha(inst) == Fraction(1, 4)
        shift = mk(3, [(0, 1)], (1, 2, 2), [[0, 2, 0], [0, 0, 1], [0, 0, 0]])
        # |g(map 0, map 1)| = |g[1][2]| = 1 against |g[0][1]| = 2: needs 1/2
        assert contraction_alpha(shift) == Fraction(1, 2)

    def test_contraction_alpha_equals_the_matrix_walk(self):
        # every instance of n=2 at g_max=2: 40,000
        count = 0
        for inst in enumerate_instances(2, 2):
            assert contraction_alpha(inst) == oracle_reference.reference_alpha(inst), inst
            count += 1
        assert count == 40_000


class TestConclusion:
    def test_no_fixed_point(self):
        inst = mk(2, [], (1, 0), [[0, 1], [1, 0]])
        assert not conclusion_holds(inst.pair)

    def test_seeded_orbit_stuck_in_a_cycle(self):
        inst = mk(3, [(1, 2)], (0, 2, 1), [[0] * 3] * 3)
        assert not conclusion_holds(inst.pair)

    def test_unseeded_orbits_are_ignored(self):
        inst = mk(3, [], (0, 2, 1), [[0] * 3] * 3)
        assert conclusion_holds(inst.pair)

    def test_orbit_reaches_within_n(self):
        inst = mk(3, [(2, 1)], (0, 0, 1), [[0] * 3] * 3)
        assert conclusion_holds(inst.pair)

    def test_fixed_points_listing(self):
        assert fixed_points(mk(3, [], (0, 2, 1), [[0] * 3] * 3).pair) == [0]
        assert fixed_points(mk(2, [], (1, 0), [[0] * 2] * 2).pair) == []


class TestImageConnectivity:
    def test_loop_on_a_constant_image(self):
        inst = mk(2, [(0, 0)], (0, 0), [[0] * 2] * 2)
        assert image_symmetric_connected(inst.pair)

    def test_two_point_image_joined_by_one_edge(self):
        inst = mk(2, [(0, 1)], (0, 1), [[0] * 2] * 2)
        assert image_symmetric_connected(inst.pair)

    def test_disconnected_image(self):
        inst = mk(2, [(0, 0)], (0, 1), [[0] * 2] * 2)
        assert not image_symmetric_connected(inst.pair)


class TestShapeChecks:
    """An instance's n, its g shape and its map are each checked in one place."""

    def test_n_must_be_the_relation_ground_size(self):
        # hypotheses_hold would read this instance's g on a 3-point grid
        # while the relation's cells lie on a 2-point one
        rel = FiniteRelation(2, {(0, 0), (1, 0)})
        with pytest.raises(ValueError, match="n = 3 is not the relation's ground size 2"):
            FiniteInstance(3, ((0, 1, 5), (1, 0, 5), (5, 5, 5)), rel, (0, 0))

    def test_n_and_pair_are_derived(self):
        inst = mk(3, [(0, 1)], (1, 1, 0), [[0] * 3] * 3)
        assert inst.n == inst.pair.n == 3
        assert inst.pair == Pair(inst.rel, [1, 1, 0])
        assert Pair(inst.rel, (1, 1, 0)).to_json_dict() == {"pairs": [[0, 1]], "map": [1, 1, 0]}

    @pytest.mark.parametrize(
        "g",
        [((1, 1, 1),) * 3, ((1, 1),), ((1, 1), (1,)), ((1, 1, 1), (1, 1))],
        ids=["3x3", "1x2", "ragged", "2x3"],
    )
    def test_g_must_be_n_by_n(self, g):
        inst = FiniteInstance(2, g, FiniteRelation(2, {(0, 1), (1, 0)}), (1, 0))
        with pytest.raises(ValueError, match="g must be 2 by 2"):
            hypotheses_hold(inst)

    @pytest.mark.parametrize("entry", [math.nan, math.inf, -math.inf, True, 1.0, "1"], ids=repr)
    def test_g_entries_must_be_integers(self, entry):
        # a NaN or inf entry compares false both ways, so unchecked it would
        # pass g1 and contraction vacuously; 5 in its place fails contraction
        inst = FiniteInstance(2, ((entry, 1), (1, 1)), FiniteRelation(2, {(0, 0)}), (0, 0))
        for verdict in (hypotheses_hold, contraction_alpha):
            with pytest.raises(ValueError, match="g entry must be an integer"):
                verdict(inst)
        inst.g_matrix = ((5, 1), (1, 1))
        assert contraction_alpha(inst) is None and not hypotheses_hold(inst)[0]

    @pytest.mark.parametrize(
        "n, mapping", [(2, (0, 5)), (2, (0, -1)), (2, (0, 0, 1)), (3, (0, 0))], ids=str
    )
    def test_a_pair_needs_a_self_map(self, n, mapping):
        rel = FiniteRelation(n, {(0, 0)})
        match = f"map must send each of 0..{n - 1} into the ground set"
        with pytest.raises(ValueError, match=match):
            Pair(rel, mapping)
        # the instance itself is built unchecked; its pair is not
        inst = FiniteInstance(n, ((0,) * n,) * n, rel, mapping)
        for verdict in (fixed_points, conclusion_holds, image_symmetric_connected):
            with pytest.raises(ValueError, match=match):
                verdict(inst.pair)
        with pytest.raises(ValueError, match=match):
            inst.to_json_dict()


def naive_hypotheses(inst):
    """Independent re-implementation, straight off the definitions."""
    n, g, m = inst.n, inst.g_matrix, inst.mapping
    rel = inst.rel.pairs
    if any(r != s and g[r][s] == 0 for r, s in rel):
        return False
    if any(abs(g[r][s]) != abs(g[s][r]) for r, s in rel):
        return False
    for r, u, t in product(range(n), repeat=3):
        if (r, u) in rel and (t, u) in rel:
            if abs(g[r][u]) > abs(g[r][t]) + abs(g[t][u]):
                return False
    if any((m[r], m[s]) not in rel for r, s in rel):
        return False
    if not any((u, m[u]) in rel for u in range(n)):
        return False
    return any(
        all(
            Fraction(abs(g[m[r]][m[s]])) <= a * abs(g[r][s])
            for r, s in rel
        )
        for a in ALPHA_GRID
    )


def naive_conclusion(inst):
    """Set-based restatement: some point of the length-n orbit is fixed."""
    m = inst.mapping
    fixed = {i for i in range(inst.n) if m[i] == i}
    if not fixed:
        return False
    for u in range(inst.n):
        if (u, m[u]) not in inst.rel.pairs:
            continue
        orbit = {u}
        cur = u
        for _ in range(inst.n):
            cur = m[cur]
            orbit.add(cur)
        if not orbit & fixed:
            return False
    return True


def g_verdicts(inst):
    """The g1-g3 part of the oracle verdict, and the shared gspace scan's."""
    oracle = not hypotheses_hold(inst)[1].startswith(("(g1)", "(g2)", "(g3)"))
    g = lambda r, s: float(inst.g_matrix[r][s])
    return oracle, relation_pattern_report(g, inst.rel, range(inst.n)).passed


class TestDoubleEntry:
    def test_against_an_enumeration_prefix(self):
        for inst in itertools.islice(enumerate_instances(2, 1), 3000):
            assert hypotheses_hold(inst)[0] == naive_hypotheses(inst)
            assert hypotheses_hold(inst) == reference_hypotheses(inst)
            assert conclusion_holds(inst.pair) == naive_conclusion(inst)
            oracle, scan = g_verdicts(inst)
            assert oracle == scan

    def test_against_random_size_three_instances(self):
        rng = random.Random(7)
        for _ in range(800):
            n = 3
            pairs = [
                (r, s)
                for r in range(n)
                for s in range(n)
                if rng.random() < 0.35
            ]
            mapping = tuple(rng.randrange(n) for _ in range(n))
            g = tuple(
                tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)
            )
            inst = mk(n, pairs, mapping, g)
            assert hypotheses_hold(inst)[0] == naive_hypotheses(inst)
            assert hypotheses_hold(inst) == reference_hypotheses(inst)
            assert conclusion_holds(inst.pair) == naive_conclusion(inst)
            oracle, scan = g_verdicts(inst)
            assert oracle == scan

    def test_satisfying_instances_never_refute_the_conclusion(self):
        seen = 0
        for inst in enumerate_instances(2, 1):
            if hypotheses_hold(inst)[0]:
                seen += 1
                assert conclusion_holds(inst.pair)
        assert seen == 315


class TestInstanceJson:
    def test_round_trip(self):
        inst = mk(3, [(0, 1), (2, 0)], (1, 1, 0), [[0, 1, -2], [1, 0, 3], [2, 3, 0]])
        inst.alpha, inst.index = Fraction(1, 2), 17
        doc = json.loads(json.dumps(inst.to_json_dict()))
        assert FiniteInstance.from_json_dict(doc) == inst

    def test_optional_fields_default(self):
        doc = {"n": 2, "pairs": [[1, 0]], "map": [0, 0], "g": [[0, 1], [1, 0]]}
        inst = FiniteInstance.from_json_dict(doc)
        assert (inst.alpha, inst.index) == (None, -1)
        assert inst.rel.pairs == {(1, 0)}

    @pytest.mark.parametrize("spelling", ["3/4", "0.75", "6/8", " 7.5e-1 "])
    def test_alpha_in_any_fraction_spelling(self, spelling):
        doc = {"n": 2, "pairs": [[1, 0]], "map": [0, 0], "g": [[0, 1], [1, 0]]}
        inst = FiniteInstance.from_json_dict({**doc, "alpha": spelling})
        assert inst.alpha == Fraction(3, 4)

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"n": True}, "n must be an integer"),
            ({"pairs": [[0, 1, 1]]}, "pair must list 2"),
            ({"pairs": [[0, 2]]}, "outside ground set"),
            ({"map": [0, 2]}, "map must send each of 0..1"),
            ({"map": [0]}, "map must list 2"),
            ({"g": [[0, 1]]}, "g must have 2 rows"),
            ({"g": [[0, 1], [1, "0"]]}, "g row entry must be an integer"),
            ({"g": [[0, 1], [1, math.inf]]}, "g row entry must be an integer"),
            ({"alpha": 0.5}, "alpha must be a fraction string"),
            ({"alpha": "7/3"}, r"alpha must be null or one of 1/4, 1/2, 3/4, got '7/3'"),
            ({"alpha": "-1"}, r"alpha must be null or one of 1/4, 1/2, 3/4, got '-1'"),
            ({"alpha": "1/0"}, r"alpha must be null or one of 1/4, 1/2, 3/4, got '1/0'"),
        ],
    )
    def test_rejections(self, change, message):
        doc = {"n": 2, "pairs": [[1, 0]], "map": [0, 0], "g": [[0, 1], [1, 0]]}
        with pytest.raises(ValueError, match=message):
            FiniteInstance.from_json_dict({**doc, **change})


class TestSweeps:
    def test_full_small_sweep(self):
        sweep = run_oracle(SweepSpec(2, 1, None))
        assert sweep.instances_checked == 5184
        assert sweep.hypotheses_satisfied == 315
        assert sweep.uniqueness_candidates == 252
        assert sweep.counterexamples == []
        assert sweep.uniqueness_violations == []

    def test_report_serializes(self):
        doc = run_oracle(SweepSpec(2, 1, 2)).to_json_dict()
        text = json.dumps(doc)
        again = json.loads(text)
        assert again["instances_checked"] == 648
        assert again["counterexamples"] == []
        assert again["g_max"] == 1
        assert "completeness" in again["completeness_note"]

    def test_default_sweep_table(self):
        assert default_sweep(2) == SweepSpec(2, g_max=2, rel_count_cap=None)
        assert default_sweep(3) == SweepSpec(3, g_max=1, rel_count_cap=8)
        assert default_sweep(4) == SweepSpec(4, g_max=1, rel_count_cap=2)
        with pytest.raises(ValueError):
            default_sweep(7)

    def test_satisfying_instances_carry_their_alpha(self):
        assert run_oracle(SweepSpec(2, 1, None)).hypotheses_satisfied > 0
        # alphas are recorded on the instances as they satisfy; spot-check
        # through a fresh scan
        for inst in itertools.islice(enumerate_instances(2, 1), 5184):
            if hypotheses_hold(inst)[0]:
                assert contraction_alpha(inst) in ALPHA_GRID


# the acceptance slices, plus all of n=2 with entries in [-3, 3]: on the
# others (g1) and (g2) always fire before the triangle test could, so only
# that slice has (g3) rejections
REFERENCE_SLICES = [
    SweepSpec(2, 2, None),
    SweepSpec(3, 1, 8),
    SweepSpec(3, 0, 8),
    SweepSpec(2, 3, None),
]


@functools.lru_cache(maxsize=None)
def reference_report(spec):
    """The one-by-one sweep of a slice, computed once per test session."""
    return reference_sweep(spec).to_json_dict()


def relation_of(n, mask):
    return FiniteRelation(n, frozenset((b // n, b % n) for b in range(n * n) if mask >> b & 1))


def sweep_one_pair(res, rel, mapping, first_index):
    """The factored sweep restricted to the one pair (rel, mapping)."""
    maps = [(mapping, *finite_oracle._map_cells(rel.ground_size, mapping))]
    finite_oracle._sweep_relation(res, rel, maps, first_index)


def pair_reports(n, g_max, mask, map_no):
    """One (relation, map) pair, factored and one by one; stream indices as in the sweep."""
    spec = SweepSpec(n, g_max, None)
    maps = list(product(range(n), repeat=n))
    rel, mapping = relation_of(n, mask), maps[map_no]
    matrices = product(product(range(-g_max, g_max + 1), repeat=n), repeat=n)
    first = (mask * len(maps) + map_no) * (2 * g_max + 1) ** (n * n)
    expected = sweep_instances(
        SweepResult(spec),
        (FiniteInstance(n, g, rel, mapping, None, first + k) for k, g in enumerate(matrices)),
    )
    got = SweepResult(spec)
    sweep_one_pair(got, rel, mapping, first)
    return got.to_json_dict(), expected.to_json_dict()


def structurally_sound(n, mask, mapping):
    rel = relation_of(n, mask)
    image_of = mapping.__getitem__
    return closedness_witness(rel, image_of) is None and bool(seed_set(rel, image_of))


class TestFactoredSweep:
    @pytest.mark.parametrize("spec", REFERENCE_SLICES, ids=str)
    def test_report_equals_the_one_by_one_sweep(self, spec):
        got = run_oracle(spec).to_json_dict()
        assert got == reference_report(spec)

    @pytest.mark.parametrize("spec", REFERENCE_SLICES, ids=str)
    def test_rejection_histogram_matches_the_reference(self, spec):
        sweep = run_oracle(spec)
        assert tuple(sweep.rejections) == REJECTION_KEYS
        assert sum(sweep.rejections.values()) == sweep.instances_checked
        assert sweep.rejections["pass"] == sweep.hypotheses_satisfied
        assert sweep.rejections == reference_report(spec)["rejections"]

    def test_every_hypothesis_rejects_somewhere(self):
        fired = {
            key
            for spec in REFERENCE_SLICES
            for key, count in reference_report(spec)["rejections"].items()
            if count
        }
        assert fired == set(REJECTION_KEYS)

    def test_random_uncapped_pairs_against_brute_force(self):
        rng = random.Random(20250917)
        maps = list(product(range(3), repeat=3))
        everything = [(mask, m) for mask in range(1 << 9) for m in range(len(maps))]
        sound = [(mask, m) for mask, m in everything if structurally_sound(3, mask, maps[m])]
        drawn = rng.sample(everything, 10) + rng.sample(sound, 10)
        satisfied = 0
        for mask, map_no in drawn:
            got, expected = pair_reports(3, 1, mask, map_no)
            assert got == expected, (mask, maps[map_no])
            satisfied += got["hypotheses_satisfied"]
        assert satisfied > 0

    def test_forced_violations_are_reported_like_the_reference(self, monkeypatch):
        # the claim holds on every slice, so the path that lists violating
        # instances only runs when the verdicts are made to fail
        real_conclusion = finite_oracle.conclusion_holds
        real_fixed = finite_oracle.fixed_points
        monkeypatch.setattr(
            finite_oracle,
            "conclusion_holds",
            lambda pair: real_conclusion(pair) and pair.mapping[0] != pair.mapping[-1],
        )
        monkeypatch.setattr(
            finite_oracle,
            "fixed_points",
            lambda pair: real_fixed(pair) * (2 if pair.mapping[0] == 0 else 1),
        )
        spec = SweepSpec(2, 2, None)
        got = run_oracle(spec).to_json_dict()
        expected = reference_sweep(spec).to_json_dict()
        assert got["counterexamples"] and got["uniqueness_violations"]
        assert got == expected
        # n = 3 pairs that have satisfying instances, with map[0] == map[2]
        for mask, map_no in [(1, 0), (16, 13), (273, 13)]:
            got, expected = pair_reports(3, 1, mask, map_no)
            assert got["counterexamples"], (mask, map_no)
            assert got == expected

    def test_four_point_default_slice(self):
        sweep = run_oracle(default_sweep(4))
        assert sweep.instances_checked == 2 * 4**4 * 3**16
        assert sum(sweep.rejections.values()) == sweep.instances_checked
        assert sweep.rejections["pass"] == sweep.hypotheses_satisfied > 0
        assert sweep.counterexamples == sweep.uniqueness_violations == []

    def test_slice_where_g3_fires(self):
        # the reference slices see g3 only at n=2, g_max=3; this slice shows
        # it in an n=3 sweep. The counts were frozen from `relfix oracle --n 3
        # --g-max 2 --rel-cap 64` at commit bf1fd43, whose classifier also
        # touched g[r][r] of every triple (r, u, t) with t == r
        sweep = run_oracle(SweepSpec(3, 2, 64))
        assert sweep.instances_checked == 3_375_000_000
        assert sweep.counterexamples == sweep.uniqueness_violations == []
        assert sweep.rejections == {
            "g1": 1_160_662_500,
            "g2": 1_493_964_000,
            "g3": 2_160_000,
            "not_closed": 506_421_375,
            "seed_empty": 73_110_750,
            "contraction": 121_571_600,
            "pass": 17_109_775,
        }
        assert sweep.hypotheses_satisfied == sweep.rejections["pass"]

    def test_uncapped_slice_where_g3_fires(self):
        # every n=3 relation at g_max = 2. The counts were frozen from
        # `relfix oracle --n 3 --g-max 2 --rel-cap 512` at commit a07f133,
        # whose sweep walked each (relation, map) pair's cells separately
        sweep = run_oracle(SweepSpec(3, 2, None))
        assert sweep.instances_checked == 27_000_000_000
        assert sweep.counterexamples == sweep.uniqueness_violations == []
        assert sweep.hypotheses_satisfied == sweep.rejections["pass"] == 63_092_941
        assert sweep.uniqueness_candidates == 41_552_316
        assert sweep.rejections == {
            "g1": 12_651_093_000,
            "g2": 11_172_384_000,
            "g3": 51_840_000,
            "not_closed": 2_279_871_375,
            "seed_empty": 141_456_500,
            "contraction": 640_262_184,
            "pass": 63_092_941,
        }

    def test_a_bad_slice_is_rejected(self):
        with pytest.raises(ValueError):
            run_oracle(SweepSpec(5, 1, 1))


# slices whose every (relation, map) pair the factored sweep decides
# exactly as the per-pair reference does
PER_PAIR_SLICES = [
    SweepSpec(2, 2, None),
    SweepSpec(3, 1, None),
    SweepSpec(3, 1, 8),
    SweepSpec(4, 1, 2),
]


class TestAgainstThePerPairSweep:
    """The shared per-relation walk against one walk per (relation, map) pair."""

    @pytest.mark.parametrize("spec", PER_PAIR_SLICES, ids=str)
    def test_every_pair_equals_the_per_pair_reference(self, spec):
        n, g_max = spec.n, spec.g_max
        maps = list(product(range(n), repeat=n))
        matrices = (2 * g_max + 1) ** (n * n)
        masks = 1 << (n * n) if spec.rel_count_cap is None else spec.rel_count_cap
        for mask in range(masks):
            rel = relation_of(n, mask)
            for map_no, mapping in enumerate(maps):
                first = (mask * len(maps) + map_no) * matrices
                got, expected = SweepResult(spec), SweepResult(spec)
                sweep_one_pair(got, rel, mapping, first)
                sweep_pair(expected, rel, mapping, first)
                assert got.to_json_dict() == expected.to_json_dict(), (mask, mapping)
        # the whole slice, where one walk serves all of a relation's maps
        got = run_oracle(spec).to_json_dict()
        assert got == per_pair_sweep(spec).to_json_dict()

    @pytest.mark.parametrize("spec", [SweepSpec(2, 2, None), SweepSpec(3, 1, 8)], ids=str)
    def test_forced_violations_list_the_same_documents(self, monkeypatch, spec):
        real_fixed = finite_oracle.fixed_points
        monkeypatch.setattr(finite_oracle, "conclusion_holds", lambda pair: False)
        monkeypatch.setattr(finite_oracle, "fixed_points", lambda pair: real_fixed(pair) * 2)
        got = run_oracle(spec)
        assert got.counterexamples and got.uniqueness_violations
        assert json.dumps(got.to_json_dict()) == json.dumps(per_pair_sweep(spec).to_json_dict())
        # every satisfying instance breaks the conclusion, every candidate
        # uniqueness, and each is counted under its pair's one document
        assert sum(doc["instances"] for doc in got.counterexamples) == got.hypotheses_satisfied
        assert sum(doc["instances"] for doc in got.uniqueness_violations) == (
            got.uniqueness_candidates
        )


def touched_cell_count(rel, mapping):
    """Entries the reference classifier reads: related pairs, swaps, g[r][t], images."""
    return len(oracle_reference.touched_cells(rel, mapping))


def drawn_pairs(n, g_max, seed, count=8, budget=100_000):
    """Seeded pairs whose touched entries have at most ``budget`` assignments.

    The first list draws relation masks from all of them and a map. The
    second closes a random relation plus one seed pair (u, m(u)) under a
    random map, so its pairs are closed and seeded, and every such pair can
    come up.
    """
    rng = random.Random(seed)
    maps = list(product(range(n), repeat=n))
    k = 2 * g_max + 1
    anywhere, sound = [], []
    while len(anywhere) < count or len(sound) < count:
        mapping = rng.choice(maps)
        if len(anywhere) < count:
            rel = relation_of(n, rng.randrange(1 << (n * n)))
            if k ** touched_cell_count(rel, mapping) <= budget:
                anywhere.append((rel, mapping))
            continue
        u = rng.randrange(n)
        pairs = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(3))}
        pairs.add((u, mapping[u]))
        while not {(mapping[r], mapping[s]) for r, s in pairs} <= pairs:
            pairs |= {(mapping[r], mapping[s]) for r, s in pairs}
        rel = FiniteRelation(n, frozenset(pairs))
        assert closedness_witness(rel, mapping.__getitem__) is None
        assert seed_set(rel, mapping.__getitem__)
        if k ** touched_cell_count(rel, mapping) <= budget:
            sound.append((rel, mapping))
    return anywhere, sound


def factored_pair(rel, mapping, g_max):
    """One pair through the factored sweep: the relation's cells, the
    per-key counts over whole matrices, and the magnitude vectors on those
    cells that pass every hypothesis."""
    res = SweepResult(SweepSpec(rel.ground_size, g_max, None))
    sweep_one_pair(res, rel, mapping, 0)
    pat = finite_oracle._patterns(rel)
    _, passing = finite_oracle._classify(pat, g_max)
    images, seeds = finite_oracle._map_cells(pat.n, mapping)
    structural, contraction = finite_oracle._pair_checks(pat, images, seeds)
    kept = {mag for mag in passing if finite_oracle._contracts(contraction, mag)}
    return pat.cells, list(res.rejections.values()), set() if structural else kept


def magnitudes(codes, ref_cells, cells, g_max):
    """The magnitude vector of each signed reference code, read on ``cells``."""
    k = 2 * g_max + 1
    mags = abs(oracle_reference.digits(codes, len(ref_cells), k) - g_max)
    rows = [ref_cells.index(cell) for cell in cells]
    return [tuple(column) for column in mags[rows].T.tolist()]


class TestMagnitudeClassifier:
    """The magnitude classifier against the signed numpy reference."""

    @pytest.mark.parametrize("n, g_max", [(3, 2), (3, 3), (4, 1), (4, 2)])
    def test_counts_and_passing_vectors_equal_the_reference(self, n, g_max):
        passing_total, above_one = 0, False
        k = 2 * g_max + 1
        anywhere, sound = drawn_pairs(n, g_max, seed=1000 * n + g_max)
        for rel, mapping in anywhere + sound:
            cells, whole, passing = factored_pair(rel, mapping, g_max)
            ref_cells, ref_counts, ref_codes = oracle_reference.classify_pair(rel, mapping, g_max)
            # the two cell sets may differ, so compare counts over whole matrices
            assert set(cells) <= set(ref_cells)
            ref_whole = [count * k ** (n * n - len(ref_cells)) for count in ref_counts.tolist()]
            assert whole == ref_whole, (sorted(rel.pairs), mapping)
            assert passing == set(magnitudes(ref_codes, ref_cells, cells, g_max))
            passing_total += len(passing)
            above_one |= any(max(mag, default=0) >= 2 for mag in passing)
        assert passing_total > 0
        assert above_one or g_max == 1

    def test_listed_witness_and_count_equal_the_materialised_reference(self, monkeypatch):
        # the reference scans all 5**9 matrices of a pair, so one pair
        n, g_max = 3, 2
        monkeypatch.setattr(finite_oracle, "conclusion_holds", lambda pair: False)
        _, sound = drawn_pairs(n, g_max, seed=78, count=1)
        for rel, mapping in sound:
            res = SweepResult(SweepSpec(n, g_max, None))
            sweep_one_pair(res, rel, mapping, 11)
            (listed,) = res.counterexamples
            ref_cells, _, codes = oracle_reference.classify_pair(rel, mapping, g_max)
            expected = oracle_reference.materialise(rel, mapping, g_max, ref_cells, codes, 11)
            first = next(expected)
            assert (listed["index"], listed["g"]) == (first.index, list(map(list, first.g_matrix)))
            assert listed["instances"] == 1 + sum(1 for _ in expected) > 1


def decoded_matrix(offset, n, g_max):
    """The matrix at ``offset`` within its pair: row-major base-k digits."""
    k = 2 * g_max + 1
    entries = [offset // k**p % k - g_max for p in range(n * n - 1, -1, -1)]
    return [entries[row * n : row * n + n] for row in range(n)]


@pytest.mark.parametrize("g_max, count", [(1, 2**12 * 3**3), (2, 32_768_000)])
def test_forced_violations_at_four_points(monkeypatch, g_max, count):
    # a satisfying n=4 matrix at g_max = 1 has at least two choices for
    # each off-diagonal entry, and a connected relation forces a constant
    # map, which forces only one diagonal entry to 0; so no pair has fewer
    # than 2**12 * 3**3 = 110,592 satisfying instances, the count of the
    # full relation under this map. Its one document stands for them all
    n = 4
    rel = FiniteRelation(n, frozenset(product(range(n), repeat=2)))
    mapping = (0, 0, 0, 0)
    monkeypatch.setattr(finite_oracle, "conclusion_holds", lambda pair: False)
    first = 3 * (2 * g_max + 1) ** (n * n)
    res = SweepResult(SweepSpec(n, g_max, None))
    sweep_one_pair(res, rel, mapping, first)
    if g_max == 1:
        expected = SweepResult(SweepSpec(n, g_max, None))
        sweep_pair(expected, rel, mapping, first)
        assert json.dumps(res.to_json_dict()) == json.dumps(expected.to_json_dict())

    (doc,) = res.counterexamples
    assert res.hypotheses_satisfied == doc["instances"] == count
    assert doc["g"] == decoded_matrix(doc["index"] - first, n, g_max)
    assert reference_hypotheses(FiniteInstance.from_json_dict(doc))[0]


def test_listed_instances_are_rechecked(monkeypatch):
    # a classifier that lets an all-zero magnitude vector pass (g1 fails on
    # it) must be caught when the pair's instances are listed
    n, g_max = 2, 1
    rel = FiniteRelation(n, frozenset(product(range(n), repeat=2)))
    real_classify = finite_oracle._classify

    def lenient(pat, g_max):
        counts, passing = real_classify(pat, g_max)
        return counts, {**passing, (0,) * len(pat.cells): 1}

    monkeypatch.setattr(finite_oracle, "_classify", lenient)
    monkeypatch.setattr(finite_oracle, "conclusion_holds", lambda pair: False)
    with pytest.raises(RuntimeError, match=r"misclassified: \(g1\) fails"):
        sweep_one_pair(SweepResult(SweepSpec(n, g_max, None)), rel, (0, 0), 0)


def test_listed_instances_serialise_like_to_json_dict(monkeypatch):
    # every listed document must be byte-identical to the instance's own
    # JSON plus its reason or fixed points
    n, g_max = 3, 1
    rel = FiniteRelation(n, frozenset({(0, 1), (1, 0), (2, 0), (0, 0)}))
    mapping = (0, 0, 0)
    monkeypatch.setattr(finite_oracle, "conclusion_holds", lambda pair: False)
    monkeypatch.setattr(finite_oracle, "image_symmetric_connected", lambda pair: True)
    monkeypatch.setattr(finite_oracle, "fixed_points", lambda pair: [0, 2])
    res = SweepResult(SweepSpec(n, g_max, None))
    sweep_one_pair(res, rel, mapping, 5 * 3 ** (n * n))
    assert len(res.counterexamples) == len(res.uniqueness_violations) == 1
    for listed, violation in zip(res.counterexamples, res.uniqueness_violations):
        g = tuple(tuple(row) for row in listed["g"])
        inst = FiniteInstance(n, g, rel, mapping, Fraction(listed["alpha"]), listed["index"])
        ok, reason = hypotheses_hold(inst)
        assert ok
        own = {
            "index": inst.index,
            "n": n,
            "pairs": [[0, 0], [0, 1], [1, 0], [2, 0]],
            "map": [0, 0, 0],
            "g": [list(row) for row in g],
            "alpha": str(inst.alpha),
        }
        assert json.dumps(inst.to_json_dict()) == json.dumps(own)
        own["instances"] = res.hypotheses_satisfied
        assert json.dumps(listed) == json.dumps({**own, "reason": reason})
        assert json.dumps(violation) == json.dumps({**own, "fixed_points": [0, 2]})
