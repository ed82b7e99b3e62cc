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
    PropertyReport,
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
        report = verify_g_properties(example1_g, PLANE_SAMPLES)
        assert not report.passed
        assert report.g1_witness == (PlanePoint(1.0, 5.0), PlanePoint(2.0, 5.0))
        assert report.g2_witness is None
        assert report.samples_checked == 4

    def test_metric_functional_passes(self):
        report = verify_g_properties(example2_g, PLANE_SAMPLES)
        assert report.passed
        assert report.g1_witness is None

    def test_global_triangle_objects_where_the_patterns_do_not(self):
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
        g = lambda a, b: table.get((a, b), 0.0)
        samples = [0, 1, 2]

        report = verify_g_properties(g, samples)
        assert report.g3_witness == (0, 2, 1)

        report = relation_pattern_report(g, FiniteRelation(3, [(0, 1)]), samples)
        assert report.g3_witness is None
        assert report.passed

    def test_non_finite_value_raises(self):
        with pytest.raises(ArithmeticError):
            verify_g_properties(lambda a, b: math.inf, [0, 1])

    def test_report_serializes_witnesses(self):
        report = verify_g_properties(example1_g, PLANE_SAMPLES)
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
        report = relation_pattern_report(lambda a, b: 0.0, universal_view(), [0, 1])
        assert report.g1_witness == (0, 1)


NAN = math.nan


@pytest.mark.parametrize(
    "scan, table, rel, samples",
    [
        # the diagonal is read only by the global triangle scan
        (
            lambda g, _, samples: verify_g_properties(g, samples),
            {(0, 1): 1.0, (1, 0): 1.0},
            None,
            [0, 1],
        ),
        # NaN on every off-diagonal pair of the related patterns
        (relation_pattern_report, {(0, 0): 0.0, (1, 1): 0.0}, universal_view(), [0, 1]),
        # only the symmetry scan reads g(1, 0): (1, 0) is not related
        (
            relation_pattern_report,
            {(0, 0): 0.0, (0, 1): 1.0},
            FiniteRelation(2, [(0, 1)]),
            [0, 1],
        ),
    ],
    ids=["diagonal", "off-diagonal", "g2-only"],
)
def test_nan_where_a_scan_reads_raises(scan, table, rel, samples):
    g = lambda a, b: table.get((a, b), NAN)
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
        g = lambda a, b: math.inf if (a, b) == (10, 20) else 1.0
        with pytest.raises(ArithmeticError, match=r"g not finite at \(10, 20\)"):
            estimate_contraction_factor(g, lambda x: 10 * x, universal_view(), [(1, 2)])


class TestTolerance:
    # NaN fails every comparison, so it would erase scenario 1's g1 witness;
    # a negative tolerance would make g2 fail on every pair
    @pytest.mark.parametrize("tol", [math.nan, -1.0, math.inf])
    def test_bad_tolerance_is_rejected(self, tol):
        with pytest.raises(ValueError, match="tol"):
            verify_g_properties(example1_g, PLANE_SAMPLES, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            relation_pattern_report(example1_g, first_coord_relation(), PLANE_SAMPLES, tol=tol)

    def test_zero_tolerance_is_legal(self):
        report = verify_g_properties(example1_g, PLANE_SAMPLES, tol=0.0)
        assert report.g1_witness == (PlanePoint(1.0, 5.0), PlanePoint(2.0, 5.0))


class TestRelatedPairs:
    def test_orders_and_filters(self):
        pts = [PlanePoint(0.0, 1.0), PlanePoint(0.0, 2.0), PlanePoint(1.0, 1.0)]
        pairs = related_pairs(first_coord_relation(), pts)
        assert pairs == [(pts[0], pts[1]), (pts[1], pts[0])]


LESS = [(0, 1), (0, 2), (1, 2)]


def squared_gap(a, b):
    return float((a - b) ** 2)


@pytest.mark.parametrize(
    "rel",
    [FiniteRelation(3, LESS), lambda a, b: a < b, np.less],
    ids=["finite-relation", "lambda", "numpy-ufunc"],
)
def test_any_relation_predicate_drives_the_scans(rel):
    # the squared gap breaks the triangle on (0, 2) through 1, a triple
    # every scan reaches; the map is a bound method
    samples = [0, 1, 2]
    assert related_pairs(rel, samples) == LESS
    assert verify_g_properties(squared_gap, samples).g3_witness == (0, 2, 1)
    assert relation_pattern_report(squared_gap, rel, samples).g3_witness == (0, 2, 1)
    est = estimate_contraction_factor(squared_gap, (0, 0, 1).__getitem__, rel, LESS)
    assert est == (1.0, (1, 2))


def test_a_plain_callable_is_scanned_as_global():
    # no pair is related, so only the global scan reaches a triple
    never = lambda a, b: False
    plain = verify_g_properties(squared_gap, [0, 1, 2])
    assert plain.g3_witness == (0, 2, 1)
    assert plain == relation_pattern_report(squared_gap, universal_view(), [0, 1, 2])
    assert relation_pattern_report(squared_gap, never, [0, 1, 2]).g3_witness is None


def brute_force_scan(g, samples, tol=1e-12):
    """The global g1-g3 scan written out over every pair and triple."""
    m = lambda a, b: abs(g(a, b))
    g1 = g2 = g3 = None
    for a in samples:
        for b in samples:
            if g1 is None and a != b and m(a, b) <= tol:
                g1 = (a, b)
            if g2 is None and abs(m(a, b) - m(b, a)) > tol:
                g2 = (a, b)
            for t in samples:
                if g3 is None and m(a, b) > m(a, t) + m(t, b) + tol:
                    g3 = (a, b, t)
    return PropertyReport(g1, g2, g3, len(samples))


ASYMMETRIC = {(0, 1): 1.0, (1, 0): 2.0}
LONG_EDGE = {(0, 1): 1.0, (1, 0): 1.0, (0, 2): 5.0, (2, 0): 5.0, (1, 2): 1.0, (2, 1): 1.0}


@pytest.mark.parametrize(
    "g, samples",
    [
        (example1_g, PLANE_SAMPLES),
        (example2_g, PLANE_SAMPLES),
        (squared_gap, [0, 1, 2]),
        (lambda a, b: ASYMMETRIC.get((a, b), 0.0), [0, 1]),
        (lambda a, b: LONG_EDGE.get((a, b), 0.0), [0, 1, 2]),
        (lambda a, b: float(a - b), [3, 0, 2, 1]),
    ],
    ids=["scenario-1", "scenario-2", "squared-gap", "asymmetric", "long-edge", "signed-gap"],
)
def test_global_scan_matches_a_brute_force_scan(g, samples):
    # the same first witness of each property, in the same scan order
    assert verify_g_properties(g, samples) == brute_force_scan(g, samples)
