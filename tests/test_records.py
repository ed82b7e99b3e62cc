"""Record semantics of every public record type.

Each record keeps its constructor signature and defaults, compares field
by field, and is immutable: assignment raises ``AttributeError``. No
record is filled in place, so the one record base is ``FrozenRecord``.
"""

import re
from fractions import Fraction
from types import MappingProxyType

import numpy as np
import pytest

from relfix import _records
from relfix._records import FrozenRecord
from relfix.finite_oracle import (
    REJECTION_KEYS,
    FiniteInstance,
    Pair,
    SweepResult,
    SweepSpec,
    run_oracle,
)
from relfix.fractional import (
    FdeProblem,
    LipschitzReport,
    QuadratureWeights,
    _build_weights,
    demo_rhs,
)
from relfix.gridfn import GridFunction
from relfix.gspace import ContractionEstimate, PropertyReport
from relfix.picard import IterationTrace, StoppingPolicy
from relfix.relations import FiniteRelation

REL = FiniteRelation(2, frozenset({(0, 1)}))
SPEC = SweepSpec(2, 2, None)
REJECTIONS = MappingProxyType(dict.fromkeys(REJECTION_KEYS, 1))

# (class, positional arguments, their field names, hashable)
RECORDS = [
    (FiniteRelation, (2, frozenset({(0, 1)})), ("ground_size", "pairs"), True),
    (
        PropertyReport,
        ((0, 1), None, None, 3),
        ("g1_witness", "g2_witness", "g3_witness", "samples_checked"),
        True,
    ),
    (ContractionEstimate, (0.25, (0, 1)), ("factor", "worst_pair"), True),
    (StoppingPolicy, (1e-6, 10), ("residual_tol", "max_iterations"), True),
    (
        IterationTrace,
        ((0, 0), (0.0,), None, True, True, True),
        ("iterates", "residuals", "alpha_used", "preserved", "converged", "certified"),
        True,
    ),
    (
        FdeProblem,
        (demo_rhs, 1.5, 16, StoppingPolicy(), 0.25, "alpha_plus_one"),
        ("rhs", "zeta", "n_intervals", "policy", "lipschitz_alpha", "gamma_variant"),
        True,
    ),
    (
        LipschitzReport,
        (1.0, 0.5, (0.0, 0.0, 1.0)),
        ("bound", "worst_ratio", "worst_at"),
        True,
    ),
    (Pair, (REL, (0, 0)), ("rel", "mapping"), True),
    (
        FiniteInstance,
        (Pair(REL, (0, 0)), ((0, 1), (1, 0)), Fraction(1, 4), 7),
        ("pair", "g_matrix", "alpha", "index"),
        True,
    ),
    (SweepSpec, (3, 1, 8), ("n", "g_max", "rel_count_cap"), True),
    (
        SweepResult,
        (SPEC, REJECTIONS, 2, ({"index": 0},), ()),
        ("spec", "rejections", "uniqueness_candidates", "counterexamples", "uniqueness_violations"),
        False,
    ),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]

# a different valid value for each field that rejects None or holds None
CHANGED = {
    (PropertyReport, "g2_witness"): (1, 0),
    (PropertyReport, "g3_witness"): (0, 1, 0),
    (IterationTrace, "alpha_used"): 0.5,
    (FiniteRelation, "ground_size"): 3,
    (FiniteRelation, "pairs"): frozenset(),
    (StoppingPolicy, "residual_tol"): 1e-3,
    (StoppingPolicy, "max_iterations"): 11,
    (FdeProblem, "zeta"): 0.75,
    (FdeProblem, "n_intervals"): 32,
    (FdeProblem, "lipschitz_alpha"): 0.5,
    (FdeProblem, "gamma_variant"): "zeta_plus_one",
    (Pair, "rel"): FiniteRelation(2, frozenset()),
    (Pair, "mapping"): (1, 1),
    (FiniteInstance, "pair"): Pair(REL, (1, 1)),
}


@pytest.mark.parametrize("cls, args, fields, hashable", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(cls, args, fields, hashable):
    by_position = cls(*args)
    by_keyword = cls(**dict(zip(fields, args)))
    assert by_position == by_keyword
    for name, value in zip(fields, args):
        assert getattr(by_keyword, name) == value


@pytest.mark.parametrize("cls, args, fields, hashable", RECORDS, ids=IDS)
def test_equality_is_field_wise(cls, args, fields, hashable):
    assert cls(*args) == cls(*args)
    assert not cls(*args) != cls(*args)
    # a different value in any one field breaks equality
    for pos, name in enumerate(fields):
        other = list(args)
        other[pos] = CHANGED.get((cls, name), None)
        assert cls(*args) != cls(*other), name


@pytest.mark.parametrize("cls, args, fields, hashable", RECORDS, ids=IDS)
def test_assignment_raises_on_every_record(cls, args, fields, hashable):
    record = cls(*args)
    for name, value in zip(fields, args):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
    if hashable:
        assert hash(record) == hash(cls(*args))
    else:
        # a result holding a mapping compares by value but has no hash
        with pytest.raises(TypeError):
            hash(record)


@pytest.mark.parametrize(
    "make, expected",
    [
        (lambda: StoppingPolicy(), {"residual_tol": 1e-12, "max_iterations": 1000}),
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
        (lambda: FiniteInstance(Pair(REL, (0, 0)), ()), {"alpha": None, "index": -1}),
        (lambda: SweepSpec(2), {"g_max": 3, "rel_count_cap": None}),
        (
            lambda: SweepResult(SPEC),
            {
                "rejections": dict.fromkeys(REJECTION_KEYS, 0),
                "uniqueness_candidates": 0,
                "counterexamples": (),
                "uniqueness_violations": (),
                "instances_checked": 0,
                "hypotheses_satisfied": 0,
            },
        ),
        (
            # the empty relation on 2 points, g = 0: each of the 4 maps has
            # an empty seed set
            lambda: run_oracle(SweepSpec(2, 0, 1)),
            {
                "instances_checked": 4,
                "hypotheses_satisfied": 0,
                "counterexamples": (),
                "uniqueness_candidates": 0,
                "uniqueness_violations": (),
                "rejections": {
                    "g1": 0, "g2": 0, "g3": 0, "not_closed": 0,
                    "seed_empty": 4, "contraction": 0, "pass": 0,
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
        "IterationTrace",
        "FdeProblem",
        "FiniteInstance",
        "SweepSpec",
        "SweepResult-zero",
        "SweepResult",
    ],
)
def test_defaults(make, expected):
    record = make()
    for name, value in expected.items():
        assert getattr(record, name) == value, name


NAMED_TUPLES = [(cls, args) for cls, args, *_ in RECORDS if issubclass(cls, tuple)]


@pytest.mark.parametrize(
    "cls, args", NAMED_TUPLES, ids=[cls.__name__ for cls, _ in NAMED_TUPLES]
)
def test_plain_results_are_named_tuples(cls, args):
    # they unpack, and equal a plain tuple of the same values
    record = cls(*args)
    assert tuple(record) == args and record == args


def test_records_module_has_no_mutable_record():
    assert not hasattr(_records, "Record")
    assert FrozenRecord.__bases__ == (object,)


def test_an_instance_with_another_alpha_is_a_replaced_copy():
    inst = FiniteInstance(Pair(REL, (0, 0)), ((0, 1), (1, 0)), None, 7)
    with pytest.raises(AttributeError):
        inst.alpha = Fraction(1, 2)
    half = inst._replace(alpha=Fraction(1, 2))
    built = FiniteInstance(inst.pair, inst.g_matrix, Fraction(1, 2), 7)
    assert half == built and hash(half) == hash(built)
    assert inst.alpha is None


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: StoppingPolicy(residual_tol=-1.0), "residual_tol must be finite and nonnegative"),
        (lambda: StoppingPolicy(max_iterations=0), "max_iterations must be a positive"),
        (lambda: FiniteRelation(-1, frozenset()), "ground_size must be an integer >= 0, got -1"),
        (lambda: FiniteRelation(2, frozenset({(0, 2)})), r"pair \(0, 2\) outside"),
        (lambda: FdeProblem(demo_rhs, zeta=0.0), "zeta must be positive"),
        (lambda: FdeProblem(demo_rhs, n_intervals=4), "n_intervals must be an integer >= 8, got 4"),
        (lambda: FdeProblem(demo_rhs, n_intervals=16.0), "n_intervals must be an integer"),
        (lambda: FdeProblem(demo_rhs, lipschitz_alpha=1.0), "lipschitz_alpha must lie"),
        (lambda: FdeProblem(demo_rhs, gamma_variant="beta"), "gamma_variant must be one"),
        (lambda: GridFunction(2, [0.0, 1.0]), "need 3 node values"),
        (lambda: GridFunction(2, [0.0, np.nan, 1.0]), "node values must be finite"),
        (lambda: Pair(REL, (0,)), r"map must send each of 0\.\.1 into the ground set, got \(0,\)"),
        (lambda: Pair(REL, (0, 2)), r"map must send each of 0\.\.1 into the ground set, got \(0, 2\)"),
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
        b = FiniteRelation(3, [(2, 0), (0, 1)])
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

    def test_grid_functions_hold_read_only_copies(self):
        mine = np.array([0.0, 1.0, 2.0])
        u = GridFunction(2, mine)
        with pytest.raises(AttributeError):
            u.values = np.zeros(3)
        with pytest.raises(AttributeError):
            u.n_intervals = 3
        with pytest.raises(ValueError, match="read-only"):
            u.values[0] = 5.0
        # the caller's array stays writable, and writing to it, even a NaN
        # after the finiteness check, leaves the function as it was built
        mine[0] = 5.0
        mine[1] = np.nan
        assert np.array_equal(u.values, [0.0, 1.0, 2.0]) and not u.values.flags.writeable
        assert not np.shares_memory(u.values, mine)
        assert not GridFunction(2, [0, 1, 2]).values.flags.writeable

    def test_quadrature_weights_are_frozen_and_keep_their_arrays_in_vars(self):
        arrays = {"start": np.ones(2), "band": np.ones(2), "band_spectrum": np.ones(3)}
        w = QuadratureWeights(zeta=0.5, n_intervals=2, **arrays)
        assert vars(w).keys() == {"zeta", "n_intervals", *arrays}
        assert w.step == 0.5
        with pytest.raises(AttributeError):
            w.zeta = 1.0

    def test_quadrature_weights_compare_arrays_by_value_and_have_no_hash(self):
        # field-wise == on the arrays raised numpy's "truth value of an
        # array ... is ambiguous" for two distinct tables, and hash raised
        # "unhashable type: 'numpy.ndarray'"
        a, b = _build_weights(0.9, 8), _build_weights(0.9, 8)
        assert a is not b
        assert a == b and not a != b
        for name, value in vars(a).items():
            if isinstance(value, np.ndarray):
                changed = value.copy()
                changed[-1] *= 2.0
            else:
                changed = value + 1
            other = QuadratureWeights(**{**vars(a), name: changed})
            assert a != other and not a == other, name
        assert a != GridFunction(2, [0.0, 1.0, 2.0]) and a != None  # noqa: E711
        with pytest.raises(TypeError, match="^unhashable type: 'QuadratureWeights'$"):
            hash(a)

    @pytest.mark.parametrize(
        "args, named",
        [
            ((0.5, 2), {}),
            ((), {"zeta": 0.5, "n_intervals": 2}),
            ((0.5, 2, None, None), {"spectrum": None}),
            ((0.5, 2, None, None), {"zeta": 0.5}),
        ],
        ids=["positional-count", "keyword-count", "unknown-keyword", "duplicated-field"],
    )
    def test_record_constructor_takes_each_field_once(self, args, named):
        message = f"QuadratureWeights takes each of its fields {QuadratureWeights._fields} once"
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
            QuadratureWeights(*args, **named)

    def test_problem_caches_do_not_enter_equality(self):
        a, b = FdeProblem(demo_rhs, n_intervals=16), FdeProblem(demo_rhs, n_intervals=16)
        a.weights, a.nodes
        assert a == b and hash(a) == hash(b)
        assert "weights" not in repr(a)
