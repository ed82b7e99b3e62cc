"""One rule for every numeric parameter, checked site by site.

Each site passes an integer parameter through ``_records.integer`` or a
real one through ``_records.real``. A bool, a string, None, a non-finite
number, or a fractional number where an integer is needed raises
``ValueError`` with the site's own message, never ``TypeError``. A numpy
number gives the same result as the Python number, and a numpy integer is
stored as ``int``.

An array parameter (grid values, sample points, rhs results) follows
the same rule through ``gridfn._real_array``: numpy must read it, and
each element of a list or tuple, with an integer or float dtype.

Row ids ending in ``-new`` fail without the rule: a bad value was accepted
(a bool read as 0 or 1, an unchecked float) or raised ``TypeError`` from
deep inside, or a numpy integer was refused or stored as a numpy scalar.
"""

import math
import re
import warnings

import numpy as np
import pytest

from relfix._records import integer, real
from relfix.demos import example1_run, example2_noncontraction_witness, example2_run
from relfix.finite_oracle import (
    FiniteInstance,
    Pair,
    SweepSpec,
    default_sweep,
    enumerate_instances,
    hypotheses_hold,
    run_oracle,
)
from relfix.fractional import (
    FdeProblem, apply_T, demo_problem, demo_rhs, gamma, lipschitz_check, quadrature_weights,
)
from relfix.gridfn import GridFunction, interpolate
from relfix.gspace import relation_pattern_report, verify_g_properties
from relfix.picard import StoppingPolicy, a_priori_bound, iterate
from relfix.relations import FiniteRelation, is_connected, seed_set, universal_view

REL = FiniteRelation(2, {(0, 0), (1, 0)})
DOC = {"n": 2, "pairs": [[0, 0], [1, 0]], "map": [0, 0], "g": [[0, 1], [1, 0]]}
POLICY = StoppingPolicy(residual_tol=1e-6, max_iterations=50)


def dist(a, b):
    return abs(a - b)


def report(spec):
    return run_oracle(spec).to_json_dict()


def weights(zeta, n):
    w = quadrature_weights(zeta, n)
    return w.zeta, w.n_intervals, w.start.tolist(), w.band.tolist()


INT, REAL = "integer", "real"
BAD = {
    INT: [True, "1", None, math.nan, math.inf, 1.5],
    REAL: [True, "1", None, math.nan, math.inf, -math.inf],
}

# (site, kind, a valid Python value, the call, the site's message, in
# which {value!r} stands for the value given, the labels of the rows that
# fail without the rule: bad values it newly refuses, and "numpy" where a
# numpy number newly gives the Python result)
ALL_INT = ("True", "'1'", "None", "nan", "inf", "1.5", "numpy")
SITES = [
    ("FiniteRelation-ground_size", INT, 2, lambda v: FiniteRelation(v, {(0, 1)}),
     "ground_size must be an integer >= 0, got {value!r}", ()),
    ("FiniteRelation-index", INT, 1, lambda v: FiniteRelation(2, {(v, 0)}),
     "pair ({value!r}, 0) outside ground set 0..1, got {value!r}", ()),
    ("hypotheses_hold-g", INT, 1,
     lambda v: hypotheses_hold(FiniteInstance(Pair(REL, (0, 0)), ((0, v), (1, 0)))),
     "g entry must be an integer, got ", ()),
    ("from_json_dict-index", INT, 7,
     lambda v: FiniteInstance.from_json_dict({**DOC, "index": v}),
     "index must be an integer, got ", ("numpy",)),
    ("Pair-map", INT, 1, lambda v: Pair(REL, (v, 0)),
     "map must send each of 0..1 into the ground set, got ",
     ("True", "'1'", "None", "1.5", "numpy")),
    ("SweepSpec-n", INT, 2, lambda v: report(SweepSpec(v, 1)),
     "ground size must be an integer in 2..4, got {value!r}", ("'1'", "None", "nan", "numpy")),
    ("SweepSpec-g_max", INT, 1, lambda v: report(SweepSpec(2, v)),
     "g_max must be an integer >= 0, got {value!r}", ALL_INT),
    ("SweepSpec-rel_count_cap", INT, 3, lambda v: report(SweepSpec(2, 1, v)),
     "rel_count_cap must be None or an integer >= 1, got {value!r}", ALL_INT),
    ("enumerate_instances-g_max", INT, 1, lambda v: next(enumerate_instances(2, v, 1)),
     "g_max must be an integer >= 0, got {value!r}", ALL_INT[:-1]),
    ("is_connected-subset", INT, 1, lambda v: is_connected(REL, [v]),
     "subset element outside ground set 0..1, got ", ALL_INT[:-1]),
    ("seed_set-image", INT, 0, lambda v: seed_set(REL, lambda u: v),
     "image of 0 must be an integer in 0..1, got ", ALL_INT[:-1]),
    ("GridFunction-n_intervals", INT, 2, lambda v: GridFunction(v, np.zeros(3)),
     "n_intervals must be an integer >= 1, got {value!r}", ("numpy",)),
    ("GridFunction.zeros", INT, 4, GridFunction.zeros,
     "n_intervals must be an integer >= 1, got {value!r}", ("numpy",)),
    ("GridFunction.from_callable", INT, 4, lambda v: GridFunction.from_callable(math.sin, v),
     "n_intervals must be an integer >= 1, got {value!r}", ("'1'", "None", "nan", "inf", "numpy")),
    ("quadrature_weights-n_intervals", INT, 8, lambda v: weights(0.9, v),
     "n_intervals must be an integer >= 1, got {value!r}", ("numpy",)),
    ("FdeProblem-n_intervals", INT, 8, lambda v: FdeProblem(demo_rhs, n_intervals=v),
     "n_intervals must be an integer >= 8, got {value!r}", ("numpy",)),
    ("StoppingPolicy-max_iterations", INT, 5, lambda v: StoppingPolicy(max_iterations=v),
     "max_iterations must be a positive integer, got {value!r}", ("numpy",)),
    ("a_priori_bound-m", INT, 2, lambda v: a_priori_bound(0.5, 1.0, v),
     "m must be a nonnegative integer, got {value!r}", ("numpy",)),
    ("StoppingPolicy-residual_tol", REAL, 1e-6, lambda v: StoppingPolicy(residual_tol=v),
     "residual_tol must be finite and nonnegative, got {value!r}", ()),
    ("iterate-alpha", REAL, 0.5,
     lambda v: iterate(lambda x: x / 2.0, dist, universal_view(), 1.0, POLICY, alpha=v),
     "alpha must lie in (0, 1), got {value!r}", ("'1'",)),
    ("a_priori_bound-alpha", REAL, 0.5, lambda v: a_priori_bound(v, 1.0, 2),
     "alpha must lie in (0, 1), got {value!r}", ("'1'", "None")),
    ("a_priori_bound-g01", REAL, 1.0, lambda v: a_priori_bound(0.5, v, 2),
     "g01 is an absolute residual, must be finite and >= 0, got {value!r}",
     ("True", "'1'", "None")),
    ("gamma", REAL, 2.5, gamma, "gamma argument must be a finite real > 0, got {value!r}",
     ("True", "'1'", "None")),
    ("quadrature_weights-zeta", REAL, 0.9, lambda v: weights(v, 8),
     "zeta must be positive and finite, got {value!r}", ("True", "'1'", "None")),
    ("FdeProblem-zeta", REAL, 0.9, lambda v: FdeProblem(demo_rhs, zeta=v),
     "zeta must be positive and finite, got {value!r}", ("True", "'1'", "None")),
    ("FdeProblem-lipschitz_alpha", REAL, 0.5,
     lambda v: FdeProblem(demo_rhs, lipschitz_alpha=v),
     "lipschitz_alpha must lie in (0, 1), got {value!r}", ("'1'", "None")),
    ("verify_g_properties-tol", REAL, 1e-12,
     lambda v: verify_g_properties(dist, [0.0, 1.0, 3.0], tol=v).to_json_dict(),
     "tol must be finite and nonnegative, got {value!r}", ("True", "'1'", "None")),
    ("relation_pattern_report-tol", REAL, 1e-12,
     lambda v: relation_pattern_report(dist, universal_view(), [0.0, 1.0], tol=v).to_json_dict(),
     "tol must be finite and nonnegative, got {value!r}", ("True", "'1'", "None")),
    ("example1_run-y0", REAL, 1.0, lambda v: example1_run(y0=v, n=3),
     "plane point coordinates must be finite, got {value!r}", ("True", "'1'", "None")),
    ("example2_run-u0", REAL, 1.0, lambda v: example2_run(u0=v, n=3),
     "first coordinate must satisfy |u0| < 4 (basin of u^2/4), got {value!r}",
     ("True", "'1'", "None")),
    ("example2_noncontraction_witness-scale", REAL, 10.0, example2_noncontraction_witness,
     "need scale >= 2 for an expanding pair, got {value!r}", ("'1'", "None", "nan", "inf")),
]


# None is a valid value here: no relation cap, no contraction certificate
NONE_ALLOWED = {"SweepSpec-rel_count_cap", "iterate-alpha"}

BAD_ROWS = [
    pytest.param(
        call, value, message.format(value=value),
        id=f"{site}-{value!r}" + ("-new" if repr(value) in new else ""),
    )
    for site, kind, _, call, message, new in SITES
    for value in BAD[kind]
    if not (value is None and site in NONE_ALLOWED)
]


@pytest.mark.parametrize("call, value, message", BAD_ROWS)
def test_malformed_value_raises_the_sites_value_error(call, value, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call(value)


NUMPY_ROWS = [
    pytest.param(call, kind, valid, id=site + ("-new" if "numpy" in new else ""))
    for site, kind, valid, call, _, new in SITES
]


@pytest.mark.parametrize("call, kind, valid", NUMPY_ROWS)
def test_numpy_number_gives_the_python_result(call, kind, valid):
    expected = call(valid)
    got = call(np.int64(valid) if kind == INT else np.float64(valid))
    assert got == expected
    if kind == INT:
        # a numpy integer is stored as int, so even the reprs agree
        assert repr(got) == repr(expected)


# a non-integer and an integer out of range get the parameter's one message
@pytest.mark.parametrize(
    "spec, message",
    [
        (SweepSpec(1.5, 1), "ground size must be an integer in 2..4, got 1.5"),
        (SweepSpec(5, 1), "ground size must be an integer in 2..4, got 5"),
        (SweepSpec(2, 0.5), "g_max must be an integer >= 0, got 0.5"),
        (SweepSpec(2, -1), "g_max must be an integer >= 0, got -1"),
        (SweepSpec(2, 1, 2.5), "rel_count_cap must be None or an integer >= 1, got 2.5"),
        (SweepSpec(2, 1, 0), "rel_count_cap must be None or an integer >= 1, got 0"),
    ],
    ids=["n-1.5", "n-5", "g_max-0.5", "g_max--1", "rel_count_cap-2.5", "rel_count_cap-0"],
)
def test_slice_parameter_has_one_message(spec, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        report(spec)


@pytest.mark.parametrize("n", [2.0, np.float64(3.0)], ids=["2.0-new", "float64-new"])
def test_default_sweep_refuses_a_float_ground_size(n):
    message = f"ground size must be an integer in 2..4, got {n!r}"
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        default_sweep(n)
    assert default_sweep(np.int64(3)) == default_sweep(3)


def test_instance_ground_size_may_be_a_numpy_integer():
    rel = FiniteRelation(np.int64(2), REL.pairs)
    assert type(rel.ground_size) is int and rel == REL
    g = ((0, 1), (1, 0))
    inst = FiniteInstance(Pair(rel, (0, 0)), g)
    assert hypotheses_hold(inst) == hypotheses_hold(FiniteInstance(Pair(REL, (0, 0)), g))


@pytest.mark.parametrize("rule", [integer, real])
def test_numpy_bools_are_refused(rule):
    with pytest.raises(ValueError, match="^refused$"):
        rule(np.bool_(True), "refused")


def test_rules_keep_or_convert_the_value():
    assert type(integer(np.int64(3), "")) is int
    assert type(real(np.float64(0.5), "")) is np.float64
    assert integer(5, "", at_least=5, below=6) == 5
    with pytest.raises(ValueError, match="^7 is not below 6$"):
        integer(7, "{value!r} is not below {0}", 6, below=6)
    assert real(0.0, "", at_least=0.0) == 0.0
    with pytest.raises(ValueError, match="^not above$"):
        real(0.0, "not above", above=0.0)


# the array half of the rule: (site, the call on one element value, the
# site's message, the labels of the rows that fail without the rule)
ARRAY_BAD = [True, "0.5", None, 1 + 0j, np.datetime64("2020-01-01")]
LABELS = ["True", "'0.5'", "None", "complex", "datetime"]
LINE = GridFunction(1, [0.0, 2.0])
PROBE = demo_problem(8)
PAIRS = [(GridFunction.zeros(8), GridFunction(8, np.ones(9)))]


def rhs_step(value):
    return apply_T(GridFunction.zeros(8), FdeProblem(lambda t, u: value, n_intervals=8))


ARRAY_SITES = [
    ("GridFunction-values", lambda v: GridFunction(1, [v, v]),
     "node values must be real numbers, got dtype ", LABELS),
    ("GridFunction.from_callable", lambda v: GridFunction.from_callable(lambda t: v, 2),
     "node values must be real numbers, got dtype ", LABELS),
    ("interpolate-t", lambda v: interpolate(LINE, v), "t must be real, got dtype ", LABELS),
    ("lipschitz_check-t_samples", lambda v: lipschitz_check(PROBE, [v, v], PAIRS),
     "t_samples must be real, got dtype ", LABELS),
    ("rhs-values", rhs_step, "rhs(t, u) must return real values, got dtype ", ()),
]

ARRAY_ROWS = [
    pytest.param(call, value, message, id=f"{site}-{label}" + ("-new" if label in new else ""))
    for site, call, message, new in ARRAY_SITES
    for value, label in zip(ARRAY_BAD, LABELS)
]


@pytest.mark.parametrize("call, value, message", ARRAY_ROWS)
def test_array_of_non_reals_raises_the_sites_value_error(call, value, message):
    with pytest.raises(ValueError, match="^" + re.escape(message)):
        call(value)


# a list or tuple that mixes a bool with reals, which numpy reads as floats:
# (site, the call on such a sequence, the site's message)
MIXED_SITES = [
    ("GridFunction-values", lambda seq: GridFunction(1, seq),
     "node values must be real numbers, got dtype "),
    ("GridFunction.from_callable", lambda seq: GridFunction.from_callable(
        lambda t: seq[int(t)], 1), "node values must be real numbers, got dtype "),
    ("interpolate-t", lambda seq: interpolate(LINE, seq), "t must be real, got dtype "),
    ("lipschitz_check-t_samples", lambda seq: lipschitz_check(PROBE, seq, PAIRS),
     "t_samples must be real, got dtype "),
]
MIXED = {
    "list-True": [True, 0.5],
    "tuple-numpy-True": (0.5, np.True_),
    "nested-False": [[0.5], [False]],
}


@pytest.mark.parametrize("seq", list(MIXED.values()), ids=[f"{k}-new" for k in MIXED])
@pytest.mark.parametrize(
    "call, message", [site[1:] for site in MIXED_SITES], ids=[site[0] for site in MIXED_SITES]
)
def test_sequence_mixing_a_bool_with_reals_raises(call, message, seq):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "bool$"):
        call(seq)


@pytest.mark.parametrize(
    "call", [site[1] for site in MIXED_SITES], ids=[site[0] for site in MIXED_SITES]
)
def test_sequence_of_mixed_real_types_passes(call):
    mixed = [np.float64(0.25), 1]
    assert np.all(call(mixed) == call([0.25, 1.0]))
    assert np.all(call(tuple(mixed)) == call(np.array([0.25, 1.0])))


@pytest.mark.parametrize(
    "call", [call for _, call, *_ in ARRAY_SITES], ids=[site for site, *_ in ARRAY_SITES]
)
def test_array_of_numpy_numbers_gives_the_python_result(call):
    for numpy_type in (np.int64, np.uint8, np.float32, np.float64):
        assert call(numpy_type(1)) == call(1), numpy_type
    assert call(np.float64(0.5)) == call(0.5)


def test_from_callable_with_no_intervals_warns_nothing():
    # the count is checked before the nodes are divided by it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="^n_intervals must be an integer >= 1, got 0$"):
            GridFunction.from_callable(math.sin, 0)
