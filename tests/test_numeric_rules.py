"""One rule for every numeric parameter, checked site by site.

Each site passes an integer parameter through ``_records.integer`` or a
real one through ``_records.real``. A bool, a string, None, a non-finite
number, or a fractional number where an integer is needed raises
``ValueError`` with the site's own message, never ``TypeError``. A numpy
number gives the same result as the Python number, and a numpy integer is
stored as ``int``.

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
    enumerate_instances,
    hypotheses_hold,
    run_oracle,
)
from relfix.fractional import FdeProblem, demo_rhs, gamma, quadrature_weights
from relfix.gridfn import GridFunction
from relfix.gspace import relation_pattern_report, verify_g_properties
from relfix.picard import StoppingPolicy, a_priori_bound, iterate
from relfix.relations import FiniteRelation, universal_view

REL = FiniteRelation(2, {(0, 0), (1, 0)})
DOC = {"n": 2, "pairs": [[0, 0], [1, 0]], "map": [0, 0], "g": [[0, 1], [1, 0]]}
POLICY = StoppingPolicy(residual_tol=1e-6, max_iterations=50)


def dist(a, b):
    return abs(a - b)


def report(spec):
    return run_oracle([spec]).to_json_dict()


def weights(zeta, n):
    w = quadrature_weights(zeta, n)
    return w.zeta, w.n_intervals, w.start.tolist(), w.band.tolist()


INT, REAL = "integer", "real"
BAD = {
    INT: [True, "1", None, math.nan, math.inf, 1.5],
    REAL: [True, "1", None, math.nan, math.inf, -math.inf],
}

# (site, kind, a valid Python value, the call, the site's message, the
# labels of the rows that fail without the rule: bad values it newly
# refuses, and "numpy" where a numpy number newly gives the Python result)
ALL_INT = ("True", "'1'", "None", "nan", "inf", "1.5", "numpy")
SITES = [
    ("FiniteRelation-ground_size", INT, 2, lambda v: FiniteRelation(v, {(0, 1)}),
     "ground_size must be an integer, got ", ()),
    ("FiniteRelation-index", INT, 1, lambda v: FiniteRelation(2, {(v, 0)}),
     "relation index must be an integer, got ", ()),
    ("hypotheses_hold-g", INT, 1,
     lambda v: hypotheses_hold(FiniteInstance(2, ((0, v), (1, 0)), REL, (0, 0))),
     "g entry must be an integer, got ", ()),
    ("from_json_dict-index", INT, 7,
     lambda v: FiniteInstance.from_json_dict({**DOC, "index": v}),
     "index must be an integer, got ", ("numpy",)),
    ("Pair-map", INT, 1, lambda v: Pair(REL, (v, 0)),
     "map must send each of 0..1 into the ground set, got ",
     ("True", "'1'", "None", "1.5", "numpy")),
    ("SweepSpec-n", INT, 2, lambda v: report(SweepSpec(v, 1)),
     "ground size must be an integer, got ", ("'1'", "None", "nan", "numpy")),
    ("SweepSpec-g_max", INT, 1, lambda v: report(SweepSpec(2, v)),
     "g_max must be an integer, got ", ALL_INT),
    ("SweepSpec-rel_count_cap", INT, 3, lambda v: report(SweepSpec(2, 1, v)),
     "rel_count_cap must be an integer, got ", ALL_INT),
    ("enumerate_instances-g_max", INT, 1, lambda v: next(enumerate_instances(2, v, 1)),
     "g_max must be an integer, got ", ALL_INT[:-1]),
    ("GridFunction-n_intervals", INT, 2, lambda v: GridFunction(v, np.zeros(3)),
     "n_intervals must be an integer, got ", ("numpy",)),
    ("GridFunction.zeros", INT, 4, GridFunction.zeros,
     "n_intervals must be an integer, got ", ("numpy",)),
    ("GridFunction.from_callable", INT, 4, lambda v: GridFunction.from_callable(math.sin, v),
     "n_intervals must be an integer, got ", ("'1'", "None", "nan", "inf", "numpy")),
    ("quadrature_weights-n_intervals", INT, 8, lambda v: weights(0.9, v),
     "n_intervals must be an integer, got ", ("numpy",)),
    ("FdeProblem-n_intervals", INT, 8, lambda v: FdeProblem(demo_rhs, n_intervals=v),
     "n_intervals must be an integer, got ", ("numpy",)),
    ("StoppingPolicy-max_iterations", INT, 5, lambda v: StoppingPolicy(max_iterations=v),
     "max_iterations must be a positive integer", ("numpy",)),
    ("a_priori_bound-m", INT, 2, lambda v: a_priori_bound(0.5, 1.0, v),
     "m must be a nonnegative integer", ("numpy",)),
    ("StoppingPolicy-residual_tol", REAL, 1e-6, lambda v: StoppingPolicy(residual_tol=v),
     "residual_tol must be positive and finite", ()),
    ("iterate-alpha", REAL, 0.5,
     lambda v: iterate(lambda x: x / 2.0, dist, universal_view(), 1.0, POLICY, alpha=v),
     "alpha must lie in (0, 1)", ("'1'",)),
    ("a_priori_bound-alpha", REAL, 0.5, lambda v: a_priori_bound(v, 1.0, 2),
     "alpha must lie in (0, 1)", ("'1'", "None")),
    ("a_priori_bound-g01", REAL, 1.0, lambda v: a_priori_bound(0.5, v, 2),
     "g01 is an absolute residual, must be finite and >= 0", ("True", "'1'", "None")),
    ("gamma", REAL, 2.5, gamma, "gamma argument must be finite", ("True", "'1'", "None")),
    ("quadrature_weights-zeta", REAL, 0.9, lambda v: weights(v, 8),
     "zeta must be positive and finite", ("True", "'1'", "None")),
    ("FdeProblem-zeta", REAL, 0.9, lambda v: FdeProblem(demo_rhs, zeta=v),
     "zeta must be positive and finite", ("True", "'1'", "None")),
    ("FdeProblem-lipschitz_alpha", REAL, 0.5,
     lambda v: FdeProblem(demo_rhs, lipschitz_alpha=v),
     "lipschitz_alpha must lie in (0, 1)", ("'1'", "None")),
    ("verify_g_properties-tol", REAL, 1e-12,
     lambda v: verify_g_properties(dist, universal_view(), [0.0, 1.0, 3.0], tol=v).to_json_dict(),
     "tol must be finite and nonnegative", ("True", "'1'", "None")),
    ("relation_pattern_report-tol", REAL, 1e-12,
     lambda v: relation_pattern_report(dist, universal_view(), [0.0, 1.0], tol=v).to_json_dict(),
     "tol must be finite and nonnegative", ("True", "'1'", "None")),
    ("example1_run-y0", REAL, 1.0, lambda v: example1_run(y0=v, n=3),
     "plane point coordinates must be finite", ("True", "'1'", "None")),
    ("example2_run-u0", REAL, 1.0, lambda v: example2_run(u0=v, n=3),
     "first coordinate must satisfy |u0| < 4", ("True", "'1'", "None")),
    ("example2_noncontraction_witness-scale", REAL, 10.0, example2_noncontraction_witness,
     "need scale >= 2 for an expanding pair", ("'1'", "None", "nan", "inf")),
]


# None is a valid value here: no relation cap, no contraction certificate
NONE_ALLOWED = {"SweepSpec-rel_count_cap", "iterate-alpha"}

# a slice's ranges are checked before the rule, so a number out of range
# keeps the range's message
RANGE_MESSAGES = {
    ("SweepSpec-n", "True"): "ground size must be at least 2",
    ("SweepSpec-n", "1.5"): "ground size must be at least 2",
    ("SweepSpec-n", "inf"): "instance space too large",
}

BAD_ROWS = [
    pytest.param(
        call, value, RANGE_MESSAGES.get((site, repr(value)), message),
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


@pytest.mark.parametrize(
    "spec, message",
    [
        (SweepSpec(False, 1), "ground size must be at least 2"),
        (SweepSpec(4.5, 1), "instance space too large"),
        (SweepSpec(2, -0.5), "g_max must be nonnegative"),
        (SweepSpec(2, 1, False), "rel_count_cap must be at least 1"),
        (SweepSpec(2, 1, 0.5), "rel_count_cap must be at least 1"),
        (SweepSpec(2.5, -1), "g_max must be nonnegative"),
    ],
)
def test_slice_out_of_range_keeps_the_ranges_message(spec, message):
    with pytest.raises(ValueError, match="^" + re.escape(message) + "$"):
        report(spec)


# these fail without the rule: True and 2.0 equal the ground size
@pytest.mark.parametrize(
    "n, rel", [(True, FiniteRelation(1, {(0, 0)})), (2.0, REL)], ids=["True-new", "2.0-new"]
)
def test_finite_instance_n_must_be_an_integer(n, rel):
    g = tuple((0,) * rel.ground_size for _ in range(rel.ground_size))
    with pytest.raises(ValueError, match="^n must be an integer, got "):
        FiniteInstance(n, g, rel, (0,) * rel.ground_size)


def test_finite_instance_n_may_be_a_numpy_integer():
    inst = FiniteInstance(np.int64(2), ((0, 1), (1, 0)), REL, (0, 0))
    assert hypotheses_hold(inst) == hypotheses_hold(FiniteInstance(2, ((0, 1), (1, 0)), REL, (0, 0)))


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


def test_from_callable_with_no_intervals_warns_nothing():
    # the count is checked before the nodes are divided by it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="n_intervals must be >= 1"):
            GridFunction.from_callable(math.sin, 0)
