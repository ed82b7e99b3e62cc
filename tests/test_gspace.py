import math

import numpy as np
import pytest

from relfix.demos import (
    PlanePoint,
    example1_g,
    example1_map,
    example2_g,
    example2_map,
    first_coord_relation,
)
from relfix.gspace import (
    GFunctional,
    estimate_contraction_factor,
    related_pairs,
    relation_pattern_report,
    verify_g_properties,
)
from relfix.relations import FiniteRelation, universal_view

PLANE_SAMPLES = [
    PlanePoint(1.0, 5.0),
    PlanePoint(2.0, 5.0),
    PlanePoint(1.0, 3.0),
    PlanePoint(1.0, 2.0),
]


class TestGlobalScan:
    def test_degenerate_functional_is_flagged(self):
        report = verify_g_properties(
            example1_g, first_coord_relation(), PLANE_SAMPLES
        )
        assert not report.passed
        assert report.g1_witness == (PlanePoint(1.0, 5.0), PlanePoint(2.0, 5.0))
        assert report.g2_witness is None
        assert report.samples_checked == 4

    def test_metric_functional_passes(self):
        report = verify_g_properties(example2_g, universal_view(), PLANE_SAMPLES)
        assert report.passed
        assert report.g1_witness is None

    def test_triangle_mode_switch(self):
        # asymmetric-looking table: one long edge that two short edges
        # cannot cover, but the long edge never appears in a constrained
        # triple, so only the global scan objects
        table = {
            (0, 1): 1.0,
            (1, 0): 1.0,
            (0, 2): 5.0,
            (2, 0): 5.0,
            (1, 2): 1.0,
            (2, 1): 1.0,
        }
        rel = FiniteRelation.from_pairs(3, [(0, 1)])
        samples = [0, 1, 2]

        loose = GFunctional(lambda a, b: table.get((a, b), 0.0))
        report = verify_g_properties(loose, rel, samples)
        assert report.g3_witness == (0, 2, 1)

        tight = GFunctional(
            lambda a, b: table.get((a, b), 0.0),
            declared_domain_mode="relation_restricted",
        )
        report = verify_g_properties(tight, rel, samples)
        assert report.g3_witness is None
        assert report.passed

    def test_non_finite_value_raises(self):
        bad = GFunctional(lambda a, b: math.inf)
        with pytest.raises(ArithmeticError):
            verify_g_properties(bad, universal_view(), [0, 1])

    def test_report_serializes_witnesses(self):
        report = verify_g_properties(
            example1_g, first_coord_relation(), PLANE_SAMPLES
        )
        doc = report.to_json_dict()
        assert doc["passed"] is False
        assert doc["g1_witness"] == [[1.0, 5.0], [2.0, 5.0]]


class TestPatternScan:
    def test_degenerate_functional_passes_on_patterns(self):
        # the pair that sinks the global scan is unrelated, so the
        # hypothesis-level scan never sees it
        report = relation_pattern_report(
            example1_g, first_coord_relation(), PLANE_SAMPLES
        )
        assert report.passed

    def test_related_vanishing_still_flagged(self):
        report = relation_pattern_report(
            example1_g,
            first_coord_relation(),
            [PlanePoint(1.0, 5.0), PlanePoint(1.0, 5.0 + 0.0)],
        )
        # equal points are skipped, so no witness from the diagonal
        assert report.g1_witness is None

    def test_flags_vanishing_related_pair(self):
        g = GFunctional(lambda a, b: 0.0)
        report = relation_pattern_report(g, universal_view(), [0, 1])
        assert report.g1_witness == (0, 1)


NAN = math.nan


@pytest.mark.parametrize(
    "scan, table, rel, samples",
    [
        # the diagonal is read only by the global triangle scan
        (verify_g_properties, {(0, 1): 1.0, (1, 0): 1.0}, universal_view(), [0, 1]),
        # NaN on every off-diagonal pair of the related patterns
        (relation_pattern_report, {(0, 0): 0.0, (1, 1): 0.0}, universal_view(), [0, 1]),
        # only the symmetry scan reads g(1, 0): (1, 0) is not related
        (
            relation_pattern_report,
            {(0, 0): 0.0, (0, 1): 1.0},
            FiniteRelation.from_pairs(2, [(0, 1)]),
            [0, 1],
        ),
    ],
    ids=["diagonal", "off-diagonal", "g2-only"],
)
def test_nan_where_a_scan_reads_raises(scan, table, rel, samples):
    g = GFunctional(lambda a, b: table.get((a, b), NAN))
    with pytest.raises(ArithmeticError, match="not finite"):
        scan(g, rel, samples)


class TestContractionEstimate:
    def test_quartering_map_measures_exactly_a_quarter(self):
        pairs = [
            (PlanePoint(0.0, 1.0), PlanePoint(0.0, 3.0)),
            (PlanePoint(2.0, -1.0), PlanePoint(2.0, 7.0)),
            (PlanePoint(0.0, 1e6), PlanePoint(0.0, 3e6)),
        ]
        est = estimate_contraction_factor(
            example1_g, example1_map, first_coord_relation(), pairs
        )
        assert est.factor == 0.25

    def test_zero_source_pairs_are_skipped(self):
        pairs = [
            (PlanePoint(0.0, 2.0), PlanePoint(0.0, 2.0)),
            (PlanePoint(0.0, 1.0), PlanePoint(0.0, 3.0)),
        ]
        est = estimate_contraction_factor(
            example1_g, example1_map, first_coord_relation(), pairs
        )
        assert est.factor == 0.25
        assert est.worst_pair == (PlanePoint(0.0, 1.0), PlanePoint(0.0, 3.0))

    def test_all_zero_sources_raise(self):
        pairs = [(PlanePoint(0.0, 2.0), PlanePoint(0.0, 2.0))]
        with pytest.raises(ValueError, match="no informative pairs"):
            estimate_contraction_factor(
                example1_g, example1_map, first_coord_relation(), pairs
            )

    def test_unrelated_pair_is_a_caller_error(self):
        pairs = [(PlanePoint(0.0, 1.0), PlanePoint(1.0, 3.0))]
        with pytest.raises(ValueError, match="not in the relation"):
            estimate_contraction_factor(
                example1_g, example1_map, first_coord_relation(), pairs
            )

    def test_expansion_shows_up_off_the_relation(self):
        pairs = [(PlanePoint(10.0, 0.0), PlanePoint(11.0, 0.0))]
        est = estimate_contraction_factor(
            example2_g, example2_map, universal_view(), pairs
        )
        assert est.factor == 5.25

    def test_non_finite_image_value_names_the_image_pair(self):
        g = GFunctional(lambda a, b: math.inf if (a, b) == (10, 20) else 1.0)
        with pytest.raises(ArithmeticError, match=r"g not finite at \(10, 20\)"):
            estimate_contraction_factor(g, lambda x: 10 * x, universal_view(), [(1, 2)])


class TestTolerance:
    # NaN fails every comparison, so it would erase scenario 1's g1 witness;
    # a negative tolerance would make g2 fail on every pair
    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_bad_tolerance_is_rejected(self, tol):
        rel = first_coord_relation()
        for scan in (verify_g_properties, relation_pattern_report):
            with pytest.raises(ValueError, match="tol"):
                scan(example1_g, rel, PLANE_SAMPLES, tol=tol)

    def test_zero_tolerance_is_legal(self):
        report = verify_g_properties(
            example1_g, first_coord_relation(), PLANE_SAMPLES, tol=0.0
        )
        assert report.g1_witness == (PlanePoint(1.0, 5.0), PlanePoint(2.0, 5.0))


class TestRelatedPairs:
    def test_orders_and_filters(self):
        pts = [PlanePoint(0.0, 1.0), PlanePoint(0.0, 2.0), PlanePoint(1.0, 1.0)]
        pairs = related_pairs(first_coord_relation(), pts)
        assert pairs == [(pts[0], pts[1]), (pts[1], pts[0])]


LESS = [(0, 1), (0, 2), (1, 2)]


def squared_gap(a, b):
    return float((a - b) ** 2)


SQUARED_GAP = GFunctional(squared_gap, "relation_restricted")


@pytest.mark.parametrize(
    "rel, g",
    [
        (FiniteRelation.from_pairs(3, LESS), SQUARED_GAP),
        (lambda a, b: a < b, SQUARED_GAP),
        (np.less, SQUARED_GAP),
        (FiniteRelation.from_pairs(3, LESS), squared_gap),
    ],
    ids=["finite-relation", "lambda", "numpy-ufunc", "plain-function-g"],
)
def test_any_relation_predicate_drives_the_scans(rel, g):
    # the squared gap breaks the triangle on (0, 2) through 1, a triple
    # every scan reaches; the map is a bound method
    samples = [0, 1, 2]
    assert related_pairs(rel, samples) == LESS
    assert verify_g_properties(g, rel, samples).g3_witness == (0, 2, 1)
    assert relation_pattern_report(g, rel, samples).g3_witness == (0, 2, 1)
    est = estimate_contraction_factor(g, (0, 0, 1).__getitem__, rel, LESS)
    assert est == (1.0, (1, 2))


def test_a_plain_callable_is_scanned_as_global():
    # no pair is related, so only the global scan reaches a triple
    never = lambda a, b: False
    plain = verify_g_properties(squared_gap, never, [0, 1, 2])
    assert plain == verify_g_properties(GFunctional(squared_gap), never, [0, 1, 2])
    assert plain.g3_witness == (0, 2, 1)
    assert verify_g_properties(SQUARED_GAP, never, [0, 1, 2]).g3_witness is None


class TestConstruction:
    def test_calling_evaluates(self):
        assert SQUARED_GAP(1, 4) == SQUARED_GAP.evaluate(1, 4) == 9.0

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            GFunctional(lambda a, b: 0.0, declared_domain_mode="sometimes")
