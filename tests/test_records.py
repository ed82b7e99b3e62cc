"""Record semantics of every public record type.

Each record keeps its constructor signature and defaults, compares field
by field, and stays immutable where it is documented as frozen (assignment
raises ``AttributeError``) or mutable where it is filled in place.
"""

from fractions import Fraction

import numpy as np
import pytest

from relfix.finite_oracle import FiniteInstance, OracleReport, SweepResult, SweepSpec
from relfix.fractional import FdeProblem, LipschitzReport, QuadratureWeights, demo_rhs
from relfix.gridfn import GridFunction
from relfix.gspace import ContractionEstimate, GFunctional, PropertyReport, SelfMap
from relfix.picard import IterationTrace, StoppingPolicy
from relfix.relations import FiniteRelation, RelationView


def g0(a, b):
    return 0.0


def ident(x):
    return x


REL = FiniteRelation(2, frozenset({(0, 1)}))
SPEC = SweepSpec(2, 2, None)

# (class, positional arguments, their field names, frozen)
RECORDS = [
    (FiniteRelation, (2, frozenset({(0, 1)})), ("ground_size", "pairs"), True),
    (RelationView, (ident,), ("comparability_test",), True),
    (GFunctional, (g0, "relation_restricted"), ("evaluate", "declared_domain_mode"), True),
    (SelfMap, (ident,), ("apply",), True),
    (
        PropertyReport,
        ((0, 1), None, None, 3),
        ("g1_witness", "g2_witness", "g3_witness", "samples_checked"),
        False,
    ),
    (ContractionEstimate, (0.25, (0, 1)), ("factor", "worst_pair"), True),
    (StoppingPolicy, (1e-6, 10), ("residual_tol", "max_iterations"), True),
    (
        IterationTrace,
        ([0, 0], [0.0], None, True, True, True, [1.0]),
        (
            "iterates",
            "residuals",
            "alpha_used",
            "preserved",
            "converged",
            "certified",
            "bound_certificates",
        ),
        False,
    ),
    (
        FdeProblem,
        (demo_rhs, 1.5, 16, StoppingPolicy(), 0.25, "alpha_plus_one"),
        ("rhs", "zeta", "n_intervals", "policy", "lipschitz_alpha", "gamma_variant"),
        True,
    ),
    (
        LipschitzReport,
        (1.0, 0.5, 0.5, True, (0.0, 0.0, 1.0)),
        ("bound", "worst_ratio", "margin", "passed", "worst_at"),
        True,
    ),
    (
        FiniteInstance,
        (2, ((0, 1), (1, 0)), REL, (0, 0), Fraction(1, 4), 7),
        ("n", "g_matrix", "rel", "mapping", "alpha", "index"),
        False,
    ),
    (SweepSpec, (3, 1, 8), ("n", "g_max", "rel_count_cap"), True),
    (
        SweepResult,
        (SPEC, 5, 1, [{"index": 0}], 1, [], {"pass": 1}, "note"),
        (
            "spec",
            "instances_checked",
            "hypotheses_satisfied",
            "counterexamples",
            "uniqueness_candidates",
            "uniqueness_violations",
            "rejections",
            "completeness_note",
        ),
        False,
    ),
    (OracleReport, ([SweepResult(SPEC)],), ("sweeps",), False),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]

# a different valid value for each field that rejects None or holds None
CHANGED = {
    (PropertyReport, "g2_witness"): (1, 0),
    (PropertyReport, "g3_witness"): (0, 1, 0),
    (IterationTrace, "alpha_used"): 0.5,
    (SweepResult, "counterexamples"): [],
    (SweepResult, "uniqueness_violations"): [{"index": 1}],
    (SweepResult, "rejections"): {},
    (FiniteRelation, "ground_size"): 3,
    (FiniteRelation, "pairs"): frozenset(),
    (GFunctional, "evaluate"): ident,
    (GFunctional, "declared_domain_mode"): "global",
    (StoppingPolicy, "residual_tol"): 1e-3,
    (StoppingPolicy, "max_iterations"): 11,
    (FdeProblem, "zeta"): 0.75,
    (FdeProblem, "n_intervals"): 32,
    (FdeProblem, "lipschitz_alpha"): 0.5,
    (FdeProblem, "gamma_variant"): "zeta_plus_one",
}


@pytest.mark.parametrize("cls, args, fields, frozen", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, fields, frozen):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_position == by_keyword
    for name, value in zip(fields, args):
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, args, fields, frozen", RECORDS, ids=IDS)
def test_equality_is_field_wise(cls, args, fields, frozen):
    assert cls(*args) == cls(*args)
    assert not cls(*args) != cls(*args)
    # a different value in any one field breaks equality
    for pos, name in enumerate(fields):
        other = list(args)
        other[pos] = CHANGED.get((cls, name), None)
        assert cls(*args) != cls(*other), name


@pytest.mark.parametrize("cls, args, fields, frozen", RECORDS, ids=IDS)
def test_assignment_raises_exactly_on_frozen_records(cls, args, fields, frozen):
    record = cls(*args)
    if frozen:
        with pytest.raises(AttributeError):
            setattr(record, fields[0], args[0])
        assert hash(record) == hash(cls(*args))
    else:
        setattr(record, fields[-1], None)
        assert getattr(record, fields[-1]) is None
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: StoppingPolicy(), {"residual_tol": 1e-12, "max_iterations": 1000}),
        (lambda: GFunctional(g0), {"declared_domain_mode": "global"}),
        (
            lambda: IterationTrace([0], [], None, True, False, True),
            {"bound_certificates": None},
        ),
        (
            lambda: FdeProblem(demo_rhs),
            {
                "zeta": 0.9,
                "n_intervals": 512,
                "policy": StoppingPolicy(),
                "lipschitz_alpha": 0.5,
                "gamma_variant": "zeta_plus_one",
            },
        ),
        (lambda: FiniteInstance(2, (), REL, (0, 0)), {"alpha": None, "index": -1}),
        (lambda: SweepSpec(2), {"g_max": 3, "rel_count_cap": None}),
        (
            lambda: SweepResult(SPEC),
            {
                "instances_checked": 0,
                "hypotheses_satisfied": 0,
                "counterexamples": [],
                "uniqueness_candidates": 0,
                "uniqueness_violations": [],
                "rejections": {
                    "g1": 0, "g2": 0, "g3": 0, "not_closed": 0,
                    "seed_empty": 0, "contraction": 0, "pass": 0,
                },
                "completeness_note": (
                    "completeness and continuity treated as automatic on "
                    "finite carriers (discrete reading)"
                ),
            },
        ),
    ],
    ids=[
        "StoppingPolicy",
        "GFunctional",
        "IterationTrace",
        "FdeProblem",
        "FiniteInstance",
        "SweepSpec",
        "SweepResult",
    ],
)
def test_defaults(make, expected):
    record = make()
    for name, value in expected.items():
        assert getattr(record, name) == value, name


def test_sweep_results_do_not_share_their_lists():
    a, b = SweepResult(SPEC), SweepResult(SPEC)
    a.counterexamples.append({})
    a.uniqueness_violations.append({})
    a.rejections["pass"] += 1
    assert b.counterexamples == [] and b.uniqueness_violations == []
    assert b.rejections["pass"] == 0


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: GFunctional(g0, "sometimes"), "declared_domain_mode must be one of"),
        (lambda: StoppingPolicy(residual_tol=0.0), "residual_tol must be positive"),
        (lambda: StoppingPolicy(max_iterations=0), "max_iterations must be a positive"),
        (lambda: FiniteRelation(-1, frozenset()), "ground_size must be nonnegative"),
        (lambda: FiniteRelation(2, frozenset({(0, 2)})), r"pair \(0, 2\) outside"),
        (lambda: FdeProblem(demo_rhs, zeta=0.0), "zeta must be positive"),
        (lambda: FdeProblem(demo_rhs, n_intervals=4), "n_intervals must be >= 8"),
        (lambda: FdeProblem(demo_rhs, n_intervals=16.0), "n_intervals must be an integer"),
        (lambda: FdeProblem(demo_rhs, lipschitz_alpha=1.0), "lipschitz_alpha must lie"),
        (lambda: FdeProblem(demo_rhs, gamma_variant="beta"), "gamma_variant must be one"),
        (lambda: GridFunction(2, [0.0, 1.0]), "need 3 node values"),
        (lambda: GridFunction(2, [0.0, np.nan, 1.0]), "node values must be finite"),
    ],
)
def test_validation_errors(make, message):
    with pytest.raises(ValueError, match=message):
        make()


class TestFiniteRelation:
    def test_pairs_are_normalised_and_sorted(self):
        rel = FiniteRelation(3, [(np.int64(2), 0), (0, 1)])
        assert rel.pairs == frozenset({(0, 1), (2, 0)})
        assert rel.sorted_pairs == ((0, 1), (2, 0))
        assert all(type(r) is int for pair in rel.pairs for r in pair)

    def test_equality_and_hash_ignore_sorted_pairs(self):
        a = FiniteRelation(3, frozenset({(0, 1), (2, 0)}))
        b = FiniteRelation.from_pairs(3, [(2, 0), (0, 1)])
        object.__setattr__(b, "sorted_pairs", ())
        assert a == b and hash(a) == hash(b)
        assert {a: 1}[b] == 1
        assert "sorted_pairs" not in repr(a)
        assert a != FiniteRelation(4, a.pairs)

    def test_sorted_pairs_is_frozen_too(self):
        with pytest.raises(AttributeError):
            REL.sorted_pairs = ()


class TestArrayRecords:
    def test_grid_functions_compare_by_values_and_are_unhashable(self):
        u = GridFunction(2, [0.0, 1.0, 2.0])
        assert u == GridFunction(n_intervals=2, values=np.array([0.0, 1.0, 2.0]))
        assert u != GridFunction(2, [0.0, 1.0, 3.0])
        with pytest.raises(TypeError):
            hash(u)

    def test_quadrature_weights_are_frozen_and_keep_their_arrays_in_vars(self):
        arrays = {"start": np.ones(2), "band": np.ones(2), "band_spectrum": np.ones(3)}
        w = QuadratureWeights(zeta=0.5, n_intervals=2, **arrays)
        assert vars(w).keys() == {"zeta", "n_intervals", *arrays}
        assert w.step == 0.5
        with pytest.raises(AttributeError):
            w.zeta = 1.0

    def test_problem_caches_do_not_enter_equality(self):
        a, b = FdeProblem(demo_rhs, n_intervals=16), FdeProblem(demo_rhs, n_intervals=16)
        a.weights, a.nodes
        assert a == b and hash(a) == hash(b)
        assert "weights" not in repr(a)
