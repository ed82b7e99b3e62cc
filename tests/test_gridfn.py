import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import relfix.gridfn as gridfn
from relfix.gridfn import (
    GridFunction,
    grid_csv_blocks,
    grid_to_csv,
    interpolate,
    pointwise_leq,
    sup_diff,
)

finite_values = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def grid_triples(n=8):
    vec = st.lists(finite_values, min_size=n + 1, max_size=n + 1)
    return st.tuples(vec, vec, vec).map(
        lambda vs: tuple(GridFunction(n, np.array(v)) for v in vs)
    )


class TestConstruction:
    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(4, np.zeros(4))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(1, np.array([0.0, math.nan]))

    def test_zero_intervals_rejected(self):
        with pytest.raises(ValueError):
            GridFunction(0, np.array([1.0]))

    @pytest.mark.parametrize("n", [2.0, True, "2"])
    def test_non_integer_intervals_rejected(self, n):
        # value counts that would fit n + 1 if 2.0 and True were taken as numbers
        with pytest.raises(ValueError, match="n_intervals must be an integer"):
            GridFunction(n, np.zeros(3 if n == 2.0 else 2))

    @pytest.mark.parametrize("n", [2.0, True, "2", 0])
    def test_zeros_checks_the_interval_count_first(self, n):
        # numpy would take True and raise its own TypeError on 2.0 and "2"
        with pytest.raises(ValueError, match="n_intervals must be"):
            GridFunction.zeros(n)

    def test_nodes_and_step(self):
        u = GridFunction.zeros(4)
        assert u.step == 0.25
        assert list(u.nodes) == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_from_callable(self):
        u = GridFunction.from_callable(lambda t: t * t, 4)
        assert list(u.values) == [0.0, 0.0625, 0.25, 0.5625, 1.0]

    def test_equality_is_by_value(self):
        a = GridFunction.from_callable(math.sin, 8)
        b = GridFunction.from_callable(math.sin, 8)
        assert a == b
        assert a != GridFunction.zeros(8)


class TestSupDiff:
    @settings(max_examples=100, deadline=None)
    @given(grid_triples())
    def test_metric_axioms(self, triple):
        u, v, w = triple
        assert sup_diff(u, u) == 0.0
        assert sup_diff(u, v) == sup_diff(v, u)
        assert sup_diff(u, v) >= 0.0
        assert sup_diff(u, w) <= sup_diff(u, v) + sup_diff(v, w) + 1e-9

    def test_identity_of_indiscernibles(self):
        u = GridFunction.from_callable(lambda t: t, 8)
        v = GridFunction.from_callable(lambda t: t, 8)
        assert sup_diff(u, v) == 0.0
        assert u == v

    def test_known_value(self):
        u = GridFunction.from_callable(lambda t: t, 4)
        v = GridFunction.from_callable(lambda t: t * t, 4)
        # t - t^2 peaks at t = 1/2 with value 1/4, which is a grid node
        assert sup_diff(u, v) == 0.25

    def test_grid_mismatch(self):
        with pytest.raises(ValueError, match="different grids"):
            sup_diff(GridFunction.zeros(4), GridFunction.zeros(8))


class TestPointwiseOrder:
    @settings(max_examples=100, deadline=None)
    @given(grid_triples())
    def test_partial_order(self, triple):
        u, v, w = triple
        assert pointwise_leq(u, u)
        if pointwise_leq(u, v) and pointwise_leq(v, u):
            assert u == v
        if pointwise_leq(u, v) and pointwise_leq(v, w):
            assert pointwise_leq(u, w)

    def test_incomparable_pair(self):
        u = GridFunction(2, np.array([0.0, 2.0, 0.0]))
        v = GridFunction(2, np.array([1.0, 1.0, 1.0]))
        assert not pointwise_leq(u, v)
        assert not pointwise_leq(v, u)


class TestInterpolate:
    def test_between_nodes(self):
        u = GridFunction.from_callable(lambda t: t * t, 512)
        # chord error for t^2 is w (1 - w) h^2 at fractional offset w
        x = 0.3 * 512
        w = x - int(x)
        expected_err = w * (1.0 - w) / 512**2
        assert interpolate(u, 0.3) == pytest.approx(0.09, abs=1.01 * expected_err)
        assert interpolate(u, 0.3) == pytest.approx(
            0.09 + expected_err, rel=1e-9
        )

    def test_node_recovery(self):
        u = GridFunction.from_callable(lambda t: t, 8)
        for j in range(9):
            assert interpolate(u, j / 8) == pytest.approx(j / 8, abs=1e-15)

    def test_endpoints(self):
        u = GridFunction(1, np.array([3.0, 7.0]))
        assert interpolate(u, 0.0) == 3.0
        assert interpolate(u, 1.0) == 7.0
        assert interpolate(u, 0.5) == 5.0

    @pytest.mark.parametrize("t", [-0.1, 1.1])
    def test_domain(self, t):
        with pytest.raises(ValueError):
            interpolate(GridFunction.zeros(4), t)

    def test_array_of_t_matches_scalar_calls(self):
        u = GridFunction.from_callable(math.sin, 8)
        ts = np.array([0.0, 0.05, 0.125, 0.3, 0.77, 0.999, 1.0])
        got = interpolate(u, ts)
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        assert got.tolist() == [interpolate(u, float(t)) for t in ts]
        assert isinstance(interpolate(u, 0.3), float)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, math.nan])
    def test_array_domain_names_the_first_bad_t(self, bad):
        with pytest.raises(ValueError, match=f"t={bad} outside"):
            interpolate(GridFunction.zeros(4), np.array([0.5, bad, 2.0]))


def row_by_row_csv(u):
    """The CSV as one f-string per row over Python floats, joined."""
    lines = ["t,value"]
    for t, v in zip(u.nodes.tolist(), u.values.tolist()):
        lines.append(f"{t:.16e},{v:.16e}")
    return "\n".join(lines) + "\n"


def whole_csv(u):
    """The CSV as it was formatted before it was streamed: one % over the
    interleaved node and value floats of the whole grid."""
    cells = np.column_stack((u.nodes, u.values)).ravel().tolist()
    return "t,value\n" + "%.16e,%.16e\n" * (u.n_intervals + 1) % tuple(cells)


def assert_same_lines(got, want):
    """Compare two CSV texts, reporting only the first differing line: a full
    diff of thousands of lines takes pytest minutes."""
    got = got.encode().splitlines(keepends=True)
    want = want.encode().splitlines(keepends=True)
    first = next(((g, w) for g, w in zip(got, want) if g != w), None)
    assert (len(got), first) == (len(want), None)


CSV_VALUES = {
    "normal": lambda rng, size: rng.standard_normal(size),
    "subnormal": lambda rng, size: rng.standard_normal(size) * 1e-310,
    "huge": lambda rng, size: rng.choice((-1e300, 1e300), size) * rng.random(size),
    "signed-zero": lambda rng, size: rng.choice((-0.0, 0.0), size),
}


class TestCsv:
    def test_shape_and_format(self):
        u = GridFunction.from_callable(math.sin, 8)
        lines = grid_to_csv(u).splitlines()
        assert lines[0] == "t,value"
        assert len(lines) == 10
        row = re.compile(r"^-?\d\.\d{16}e[+-]\d{2,3},-?\d\.\d{16}e[+-]\d{2,3}$")
        for line in lines[1:]:
            assert row.match(line), line

    def test_deterministic(self):
        u = GridFunction.from_callable(math.cos, 32)
        assert grid_to_csv(u) == grid_to_csv(u)

    @pytest.mark.parametrize("n", (8, 100, 4096))
    def test_equals_the_numpy_scalar_formatter(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n + 1) * 10.0 ** rng.integers(-300, 300, n + 1)
        values[:4] = (0.0, -0.0, 5e-324, -1.7976931348623157e308)
        u = GridFunction(n, values)
        rows = [f"{t:.16e},{v:.16e}" for t, v in zip(u.nodes, u.values)]
        assert_same_lines(grid_to_csv(u), "\n".join(["t,value", *rows]) + "\n")

    @pytest.mark.parametrize("kind", CSV_VALUES)
    @pytest.mark.parametrize("n", (1, 2, 7, 8, 512, 4096, 65536))
    def test_equals_the_row_by_row_formatter(self, n, kind):
        rng = np.random.default_rng(n)
        u = GridFunction(n, CSV_VALUES[kind](rng, n + 1))
        assert_same_lines(grid_to_csv(u), row_by_row_csv(u))

    @pytest.mark.parametrize(
        "n", (8, 100, 4096, gridfn._CSV_BLOCK - 1, gridfn._CSV_BLOCK, gridfn._CSV_BLOCK + 1)
    )
    def test_streamed_blocks_equal_the_whole_file_formatter(self, n):
        # N = B - 1 fills one block of B nodes; N = B and B + 1 leave one
        # and two nodes to a second block
        rng = np.random.default_rng(n)
        u = GridFunction(n, rng.standard_normal(n + 1) * 10.0 ** rng.integers(-300, 300, n + 1))
        blocks = list(grid_csv_blocks(u))
        assert blocks[0] == "t,value\n"
        assert [b.count("\n") for b in blocks[1:]] == [
            min(gridfn._CSV_BLOCK, n + 1 - first) for first in range(0, n + 1, gridfn._CSV_BLOCK)
        ]
        text = "".join(blocks)
        assert text.encode() == whole_csv(u).encode() == grid_to_csv(u).encode()

    def test_small_blocks_split_the_grid_anywhere(self, monkeypatch):
        u = GridFunction(100, np.random.default_rng(1).standard_normal(101))
        want = whole_csv(u)
        for block in (1, 7, 100, 101, 102):
            monkeypatch.setattr(gridfn, "_CSV_BLOCK", block)
            blocks = list(grid_csv_blocks(u))
            assert len(blocks) == 1 + -(-101 // block)
            assert "".join(blocks) == want
