import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relfix.relations import (
    FiniteRelation,
    is_connected,
    is_preserving_sequence,
    seed_set,
    symmetric_closure,
    universal_view,
)


def rel_of(n, *pairs):
    return FiniteRelation(n, pairs)


def ground_and_pairs(max_n=6):
    """A ground size n and a set of pairs over ``{0, ..., n-1}``."""
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.sets(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1)
                ),
                max_size=n * n,
            ),
        )
    )


def small_relations(max_n=6):
    return ground_and_pairs(max_n).map(lambda drawn: FiniteRelation(*drawn))


def brute_force_shortest(rel, start, goal):
    """Reference path search: enumerate all edge sequences up to length n."""
    succ = {}
    for r, s in rel.sorted_pairs:
        succ.setdefault(r, []).append(s)
    frontier = [[start]]
    for _ in range(rel.ground_size):
        nxt = []
        for seq in frontier:
            for s in succ.get(seq[-1], []):
                cand = seq + [s]
                if s == goal:
                    return cand
                nxt.append(cand)
        frontier = nxt
    return None


class TestFiniteRelation:
    def test_rejects_out_of_range_pairs(self):
        with pytest.raises(ValueError):
            rel_of(2, (0, 2))

    def test_non_integral_index_rejected(self):
        with pytest.raises(ValueError, match=r"^pair \(0\.5, 1\.9\) outside ground set 0\.\.2, got 0\.5$"):
            FiniteRelation(3, {(0.5, 1.9)})

    @pytest.mark.parametrize("pair", [(True, False), (0, True), (np.bool_(True), 0)], ids=repr)
    def test_bool_index_rejected(self, pair):
        # operator.index takes a bool, which would read True as 1
        with pytest.raises(ValueError, match=r"^pair \(.*\) outside ground set 0\.\.1, got "):
            FiniteRelation(2, {pair})

    @pytest.mark.parametrize("size", [2.5, True, "3"], ids=repr)
    def test_ground_size_must_be_an_integer(self, size):
        with pytest.raises(ValueError, match="ground_size must be an integer"):
            FiniteRelation(size, {(0, 0)})

    def test_numpy_integer_ground_size_accepted(self):
        rel = FiniteRelation(np.int64(3), {(0, 2)})
        assert rel.ground_size == 3 and type(rel.ground_size) is int
        assert seed_set(rel, lambda u: 2) == [0]

    def test_numpy_integer_indices_accepted(self):
        rel = FiniteRelation(3, {(np.int64(0), np.int32(1))})
        assert rel.pairs == {(0, 1)}
        assert rel(0, 1) is True

    def test_membership(self):
        rel = rel_of(3, (0, 1))
        assert rel(0, 1) is True
        assert rel(1, 0) is False

    @settings(max_examples=100, deadline=None)
    @given(ground_and_pairs())
    def test_call_agrees_with_the_pair_set(self, drawn):
        n, pairs = drawn
        rel = FiniteRelation(n, pairs)
        # one step past each end of the ground set as well
        for a in range(-1, n + 1):
            for b in range(-1, n + 1):
                assert rel(a, b) == ((a, b) in pairs)


class TestClosures:
    @settings(max_examples=100, deadline=None)
    @given(small_relations())
    def test_symmetric_closure_minimal(self, rel):
        sym = symmetric_closure(rel)
        assert sym.pairs == rel.pairs | {(s, r) for r, s in rel.pairs}
        # idempotent, and no transitive pairs sneak in
        assert symmetric_closure(sym) == sym

    def test_closure_adds_nothing_transitive(self):
        sym = symmetric_closure(rel_of(3, (0, 1), (1, 2)))
        assert (0, 2) not in sym.pairs


class TestConnectivity:
    def test_singleton_needs_loop(self):
        assert is_connected(rel_of(2, (0, 0)), {0})
        assert not is_connected(rel_of(2, (0, 1)), {0})
        # a longer cycle back to the element also counts
        assert is_connected(rel_of(2, (0, 1), (1, 0)), {0})

    def test_paths_may_run_outside_the_subset(self):
        cycle = rel_of(6, *[(i, (i + 1) % 6) for i in range(6)])
        assert is_connected(cycle, {0, 3})
        assert not is_connected(rel_of(3, (0, 1), (1, 2)), {0, 2})

    def test_element_outside_ground_set(self):
        with pytest.raises(ValueError, match="outside ground set"):
            is_connected(rel_of(2, (0, 1)), {0, 2})

    @settings(max_examples=150, deadline=None)
    @given(small_relations(max_n=5), st.sets(st.integers(0, 4), max_size=5))
    def test_matches_brute_force(self, rel, subset):
        subset = {a % rel.ground_size for a in subset}
        expected = all(
            brute_force_shortest(rel, a, b) is not None for a in subset for b in subset
        )
        assert is_connected(rel, subset) == expected

    def test_ordered_pairs_both_ways(self):
        one_way = rel_of(2, (0, 1), (0, 0), (1, 1))
        assert not is_connected(one_way, {0, 1})
        assert is_connected(symmetric_closure(one_way), {0, 1})


class TestSeedSet:
    @settings(max_examples=100, deadline=None)
    @given(small_relations(max_n=5), st.data())
    def test_exactly_the_seeded_elements(self, rel, data):
        n = rel.ground_size
        mapping = data.draw(
            st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
        )
        got = seed_set(rel, lambda i: mapping[i])
        assert got == [u for u in range(n) if (u, mapping[u]) in rel.pairs]
        assert got == sorted(got)

    def test_image_outside_ground_set(self):
        with pytest.raises(ValueError, match=r"^image of 0 must be an integer in 0\.\.1, got 5$"):
            seed_set(rel_of(2, (0, 0)), lambda u: 5)


class TestPreservingSequence:
    def test_single_element_vacuous(self):
        assert is_preserving_sequence(rel_of(2, (0, 1)), [1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            is_preserving_sequence(rel_of(2, (0, 1)), [])

    def test_predicate(self):
        assert is_preserving_sequence(int.__le__, [1, 2, 2, 5])
        assert not is_preserving_sequence(int.__le__, [1, 2, 0])

    def test_universal_view(self):
        assert universal_view()(object(), object())
