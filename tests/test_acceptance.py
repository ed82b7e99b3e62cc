"""End-to-end acceptance gate.

Seven binding checks, one per test, each printing a single PASS/FAIL line.
Run them with output visible:

    pytest tests/test_acceptance.py -v -s

Every tolerance here is contractual; loosening one is a behavior change,
not a test fix.
"""

import math
import time
from contextlib import contextmanager

import numpy as np

from relfix.demos import (
    PlanePoint,
    example1_g,
    example1_map,
    example1_run,
    example2_g,
    example2_map,
    example2_noncontraction_witness,
    example2_run,
    first_coord_relation,
)
from relfix.finite_oracle import SweepSpec, run_oracle
from relfix.fractional import (
    demo_problem,
    frac_integral,
    lipschitz_bound,
    lipschitz_check,
    solve_fde,
)
from relfix.gridfn import GridFunction, sup_diff
from relfix.gspace import (
    estimate_contraction_factor,
    related_pairs,
    verify_g_properties,
)
from relfix.picard import a_priori_bound

from reference_values import POWER_RULE_COEFF, SQRT_PI_OVER_16


@contextmanager
def criterion(name):
    try:
        yield
    except BaseException:
        print(f"FAIL  {name}")
        raise
    print(f"PASS  {name}")


def test_plane_traces_reproduce_the_exact_geometric_decay():
    with criterion("plane traces: y_n = 4^-n, ratio 0.25, curves coincide"):
        start = time.perf_counter()
        one = example1_run(1.0, 30)
        two = example2_run(0.0, 1.0, 30)

        for trace in (one, two):
            for k, point in enumerate(trace.iterates):
                assert point.second == 4.0 ** (-k)

        for trace in (one, two):
            for k in range(25):
                ratio = trace.residuals[k + 1] / trace.residuals[k]
                assert abs(ratio - 0.25) <= 1e-14 * 0.25

        gap = max(
            abs(p.second - q.second)
            for p, q in zip(one.iterates, two.iterates)
        )
        assert gap <= 1e-15
        assert time.perf_counter() - start < 1.0


def test_fractional_solver_residuals_decay_geometrically():
    with criterion("fractional solver: monotone decay, ratio <= 0.25, "
                   "< 1e-12 within 20 iterations"):
        start = time.perf_counter()
        trace, _solution = solve_fde(demo_problem(512))

        assert trace.converged
        assert trace.steps <= 20
        assert trace.residuals[-1] < 1e-12
        for prev, cur in zip(trace.residuals, trace.residuals[1:]):
            assert cur < prev
        for k in range(1, trace.steps - 1):
            assert trace.residuals[k + 1] <= 0.25 * trace.residuals[k]
        assert time.perf_counter() - start < 5.0


def test_power_rule_accuracy_and_convergence_order():
    with criterion("power rule: normalized sup error <= 1e-4 at N=1024, "
                   "order >= 1.8, linear cases exact"):
        for zeta in (0.5, 0.9, 1.5):
            for p in (0, 1, 2, 3):
                coeff = float(POWER_RULE_COEFF[(p, str(zeta))])
                errs = {}
                for n in (512, 1024):
                    u = GridFunction.from_callable(lambda t: t**p, n)
                    got = frac_integral(u, zeta)
                    exact = coeff * got.nodes ** (p + zeta)
                    errs[n] = float(
                        np.max(np.abs(got.values - exact))
                        / np.max(np.abs(exact))
                    )
                limit = 1e-12 if p <= 1 else 1e-4
                assert errs[1024] <= limit, (p, zeta, errs[1024])
                if p >= 2:
                    order = math.log2(errs[512] / errs[1024])
                    assert order >= 1.8, (p, zeta, order)


def test_exhaustive_model_check_finds_no_counterexample():
    with criterion("model check: >= 1e6 instances, zero counterexamples, "
                   "zero uniqueness violations"):
        start = time.perf_counter()
        sweeps = [
            run_oracle(SweepSpec(2, g_max=2, rel_count_cap=None)),
            run_oracle(SweepSpec(3, g_max=1, rel_count_cap=8)),
        ]
        assert sweeps[0].instances_checked == 40_000
        assert sweeps[1].instances_checked >= 1_000_000
        assert [doc for s in sweeps for doc in s.counterexamples] == []
        assert [doc for s in sweeps for doc in s.uniqueness_violations] == []
        assert sweeps[0].hypotheses_satisfied > 0
        assert sweeps[1].hypotheses_satisfied > 0
        assert time.perf_counter() - start < 60.0


def test_hypothesis_verifiers_separate_the_two_scenarios():
    with criterion("verifiers: degenerate functional flagged, metric passes, "
                   "factor 0.25 restricted, expansion unrestricted"):
        samples = [
            PlanePoint(0.0, 1.0),
            PlanePoint(0.0, 3.0),
            PlanePoint(1.0, 5.0),
            PlanePoint(2.0, 5.0),
            PlanePoint(1.0, 2.0),
        ]
        rel = first_coord_relation()

        flagged = verify_g_properties(example1_g, samples)
        assert flagged.g1_witness is not None
        clean = verify_g_properties(example2_g, samples)
        assert clean.passed

        pairs = related_pairs(rel, samples)
        for g, smap in ((example1_g, example1_map), (example2_g, example2_map)):
            est = estimate_contraction_factor(g, smap, rel, pairs)
            assert abs(est.factor - 0.25) <= 1e-12

        witness = example2_noncontraction_witness(10.0)
        assert witness.ratio > 1.0


def test_lipschitz_condition_passes_under_both_gamma_variants():
    with criterion("Lipschitz check: alpha = 1/2 passes both variants, "
                   "bound sqrt(pi)/16 to 1e-10"):
        probe_pairs = [
            (GridFunction.zeros(64), GridFunction(64, np.ones(65)))
        ]
        t_samples = [k / 8 for k in range(9)]
        for variant in ("alpha_plus_one", "zeta_plus_one"):
            prob = demo_problem(64, gamma_variant=variant)
            report = lipschitz_check(prob, t_samples, probe_pairs)
            assert report.passed, variant

        bound = lipschitz_bound(demo_problem(64, gamma_variant="alpha_plus_one"))
        expected = float(SQRT_PI_OVER_16)
        assert abs(bound - expected) <= 1e-10 * expected


def test_a_priori_certificates_dominate_all_measured_gaps():
    with criterion("certificates: alpha^m/(1-alpha) bound dominates every "
                   "gap m < n <= 50"):
        slack = 1.0 + 1e-9

        trace = example1_run(1.0, 50)
        assert trace.alpha_used == 0.25
        g = example1_g
        for m in range(trace.steps):
            bound = a_priori_bound(0.25, trace.residuals[0], m)
            assert trace.bound_certificates[m] == bound
            for n in range(m + 1, len(trace.iterates)):
                gap = abs(g(trace.iterates[m], trace.iterates[n]))
                assert gap <= bound * slack, (m, n)

        solver_trace, _ = solve_fde(demo_problem(128))
        assert solver_trace.alpha_used == 0.5
        for m in range(solver_trace.steps):
            bound = a_priori_bound(0.5, solver_trace.residuals[0], m)
            for n in range(m + 1, len(solver_trace.iterates)):
                gap = sup_diff(
                    solver_trace.iterates[m], solver_trace.iterates[n]
                )
                assert gap <= bound * slack, (m, n)
