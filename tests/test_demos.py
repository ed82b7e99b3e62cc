import math

import pytest

from relfix.demos import (
    PlanePoint,
    example1_g,
    example1_map,
    example1_run,
    example2_g,
    example2_map,
    example2_noncontraction_witness,
    example2_run,
)
from relfix.picard import a_priori_bound


class TestScenario1:
    def test_second_coordinates_are_exact_powers(self):
        trace = example1_run(1.0, 30)
        assert len(trace.iterates) == 31
        for k, point in enumerate(trace.iterates):
            assert point.first == 0.0
            assert point.second == 4.0 ** (-k)

    def test_residuals_contract_by_exactly_a_quarter(self):
        trace = example1_run(1.0, 30)
        assert trace.residuals[0] == 0.75
        for prev, cur in zip(trace.residuals, trace.residuals[1:]):
            assert cur / prev == 0.25

    def test_trace_is_certified_and_preserved(self):
        trace = example1_run(1.0, 10)
        assert trace.certified
        assert trace.preserved
        assert trace.alpha_used == 0.25
        assert trace.bound_certificates[0] == 1.0

    def test_certificates_dominate_pairwise_gaps(self):
        trace = example1_run(1.0, 20)
        g = example1_g
        for m in range(trace.steps):
            cert = a_priori_bound(0.25, trace.residuals[0], m)
            for n in range(m + 1, len(trace.iterates)):
                assert abs(g(trace.iterates[m], trace.iterates[n])) <= cert

    def test_scaled_start(self):
        trace = example1_run(8.0, 10)
        for k, point in enumerate(trace.iterates):
            assert point.second == 8.0 * 4.0 ** (-k)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_start_rejected(self, bad):
        with pytest.raises(ValueError):
            example1_run(bad, 5)


class TestScenario2:
    def test_matches_scenario1_from_the_shared_start(self):
        one = example1_run(1.0, 30)
        two = example2_run(0.0, 1.0, 30)
        assert [p.second for p in one.iterates] == [
            p.second for p in two.iterates
        ]
        assert one.residuals == two.residuals

    def test_first_coordinate_orbit(self):
        trace = example2_run(2.0, 1.0, 3)
        assert [p.first for p in trace.iterates] == [2.0, 1.0, 0.25, 0.015625]

    def test_certified_and_preserved(self):
        trace = example2_run(0.0, 1.0, 10)
        assert trace.certified
        assert trace.preserved
        assert trace.alpha_used == 0.25

    @pytest.mark.parametrize("u0", [4.0, -4.0, 5.5])
    def test_basin_boundary_rejected(self, u0):
        with pytest.raises(ValueError, match="basin"):
            example2_run(u0, 1.0, 5)

    def test_just_inside_the_basin(self):
        trace = example2_run(3.9999, 1.0, 40)
        assert abs(trace.iterates[-1].first) < 1e-6

    def test_restricted_contraction_vs_global_expansion(self):
        # on related pairs the taxicab distance shrinks by 1/4; the
        # unrelated witness pair expands instead
        a = PlanePoint(3.0, 1.0)
        b = PlanePoint(3.0, 5.0)
        before = example2_g(a, b)
        after = example2_g(example2_map(a), example2_map(b))
        assert after / before == 0.25

        witness = example2_noncontraction_witness(10.0)
        assert witness.ratio == 5.25
        assert witness.ratio > 1.0


class TestNoncontractionWitness:
    @pytest.mark.parametrize("scale", [2.0, 5.0, 50.0])
    def test_ratio_formula(self, scale):
        witness = example2_noncontraction_witness(scale)
        assert witness.ratio == pytest.approx((2.0 * scale + 1.0) / 4.0)
        assert witness.ratio > 1.0
        assert witness.pair[0].first == scale

    def test_small_scale_rejected(self):
        with pytest.raises(ValueError, match="scale"):
            example2_noncontraction_witness(1.0)


class TestMapsAndFunctionals:
    def test_maps_quarter_the_second_coordinate(self):
        p = PlanePoint(3.0, 8.0)
        assert example1_map(p) == PlanePoint(3.0, 2.0)
        assert example2_map(p) == PlanePoint(2.25, 2.0)

    def test_scenario2_functional_is_taxicab(self):
        assert example2_g(PlanePoint(0.0, 0.0), PlanePoint(3.0, 4.0)) == 7.0

    def test_scenario1_functional_is_signed(self):
        assert example1_g(PlanePoint(0.0, 1.0), PlanePoint(9.0, 3.0)) == -2.0



# each run's residuals reach 0: the orbit of (0, 0) at once, y0 / 4^k by
# underflow well before step 600, 1e-299 / 4^k within a few steps
@pytest.mark.parametrize(
    "run, n",
    [
        (lambda: example1_run(y0=0.0, n=30), 30),
        (lambda: example1_run(n=600), 600),
        (lambda: example2_run(y0=1e-299, n=30), 30),
    ],
    ids=["zero-start", "long-run", "tiny-start"],
)
def test_a_run_takes_exactly_n_steps(run, n):
    assert run().steps == n
