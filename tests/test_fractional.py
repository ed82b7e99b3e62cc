import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relfix.fractional as fractional
from relfix.fractional import (
    GAMMA_VARIANTS,
    _apply_weights,
    _probe_rows,
    _stacked_check,
    ConvergenceFailure,
    FdeProblem,
    apply_T,
    boundary_residuals,
    demo_problem,
    demo_rhs,
    frac_integral,
    gamma,
    lipschitz_bound,
    lipschitz_check,
    quadrature_weights,
    solve_fde,
)
from relfix.gridfn import GridFunction, pointwise_leq, sup_diff
from relfix.picard import StoppingPolicy

from fractional_reference import (
    concat_apply_T,
    concat_apply_weights,
    default_probe_pairs,
    dense_apply,
    dense_weights,
    interpolating_lipschitz_check,
    per_node_apply_T,
    reference_solve_fde,
    scalar_lipschitz_check,
    table_from_band,
)
from reference_values import (
    DOUBLE_TERM_CONSTANT_SIN,
    FRAC_INT_SIN_09,
    GAMMA_TABLE,
    OPERATOR_AT_ZERO_DEMO,
    POWER_RULE_COEFF,
    SQRT_PI_OVER_16,
)

ZETAS = (0.5, 0.9, 1.5)
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def demo_solutions():
    """Converged demo solutions on three nested grids, solved once."""
    out = {}
    for n in (128, 256, 512):
        trace, solution = solve_fde(demo_problem(n))
        out[n] = (trace, solution)
    return out


class TestGamma:
    @pytest.mark.parametrize("x_str,expected_str", sorted(GAMMA_TABLE.items()))
    def test_against_frozen_table(self, x_str, expected_str):
        x = float(x_str)
        expected = float(expected_str)
        assert gamma(x) == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("k", range(1, 24))
    def test_exact_at_integers(self, k):
        assert gamma(float(k)) == math.factorial(k - 1)

    def test_half_integer(self):
        assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)

    @pytest.mark.parametrize("x", [0.07, 0.3, 1.3, 4.6, 11.2, 18.9])
    def test_functional_equation(self, x):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.nan, math.inf])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            gamma(x)


class TestQuadratureWeights:
    @pytest.mark.parametrize("zeta", ZETAS)
    def test_row_zero_is_zero(self, zeta):
        # target node 0 has no weights: the fields hold rows 1..N only, and
        # the apply leaves node 0 at exactly zero whatever the input
        w = quadrature_weights(zeta, 64)
        assert w.start.shape == w.band.shape == (64,)
        values = np.random.default_rng(0).standard_normal(65)
        assert _apply_weights(w, values)[0] == 0.0

    @pytest.mark.parametrize("zeta", ZETAS)
    def test_rows_reproduce_constants(self, zeta):
        w = quadrature_weights(zeta, 64)
        nodes = np.arange(65) / 64
        exact = nodes**zeta / gamma(zeta + 1.0)
        sums = w.start + np.cumsum(w.band)
        rel = np.abs(sums - exact[1:]) / exact[1:]
        assert np.max(rel) <= 1e-12

    @pytest.mark.parametrize("zeta", ZETAS)
    def test_nonnegative(self, zeta):
        w = quadrature_weights(zeta, 64)
        assert np.all(w.start >= 0.0)
        assert np.all(w.band >= 0.0)

    @pytest.mark.parametrize("zeta", (0.5, 0.9, 1.5, 2.0))
    @pytest.mark.parametrize("n", (8, 64, 513))
    def test_rebuilt_table_equals_the_dense_reference(self, n, zeta):
        w = quadrature_weights(zeta, n)
        assert np.array_equal(table_from_band(w.start, w.band), dense_weights(zeta, n))

    @pytest.mark.parametrize("zeta", (0.5, 0.9, 1.5, 2.0))
    @pytest.mark.parametrize("n", (64, 512, 4096))
    def test_apply_matches_the_dense_reference(self, n, zeta):
        values = np.random.default_rng(n).standard_normal(n + 1)
        ref = dense_apply(dense_weights(zeta, n), values)
        got = frac_integral(GridFunction(n, values), zeta).values
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_output_does_not_depend_on_blas_threads(self):
        code = (
            "import sys, numpy as np; from relfix.fractional import frac_integral; "
            "from relfix.gridfn import GridFunction; n = 12000; "
            "v = np.random.default_rng(7).standard_normal(n + 1); "
            "sys.stdout.write(frac_integral(GridFunction(n, v), 0.9).values.tobytes().hex())"
        )
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-c", code],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert proc.returncode == 0, proc.stderr
            outputs.append(proc.stdout)
        assert len(outputs[0]) == 2 * 8 * 12001
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("zeta,n", [(0.0, 8), (-0.5, 8), (0.9, 0)])
    def test_parameter_domains(self, zeta, n):
        with pytest.raises(ValueError):
            quadrature_weights(zeta, n)


class TestPowerRule:
    @pytest.mark.parametrize("zeta", ZETAS)
    @pytest.mark.parametrize("p", [0, 1])
    def test_piecewise_linear_inputs_are_exact(self, p, zeta):
        u = GridFunction.from_callable(lambda t: t**p, 256)
        got = frac_integral(u, zeta)
        coeff = float(POWER_RULE_COEFF[(p, str(zeta))])
        exact = coeff * got.nodes ** (p + zeta)
        err = np.max(np.abs(got.values - exact)) / np.max(np.abs(exact))
        assert err <= 1e-12

    @pytest.mark.parametrize("zeta", ZETAS)
    @pytest.mark.parametrize("p", [2, 3])
    def test_curved_inputs_normalized_error(self, p, zeta):
        u = GridFunction.from_callable(lambda t: t**p, 256)
        got = frac_integral(u, zeta)
        coeff = float(POWER_RULE_COEFF[(p, str(zeta))])
        exact = coeff * got.nodes ** (p + zeta)
        err = np.max(np.abs(got.values - exact)) / np.max(np.abs(exact))
        assert err <= 1e-4

    @pytest.mark.parametrize("zeta", ZETAS)
    @pytest.mark.parametrize("p", [2, 3])
    def test_second_order_convergence(self, p, zeta):
        errs = {}
        for n in (128, 256):
            u = GridFunction.from_callable(lambda t: t**p, n)
            got = frac_integral(u, zeta)
            coeff = float(POWER_RULE_COEFF[(p, str(zeta))])
            exact = coeff * got.nodes ** (p + zeta)
            errs[n] = np.max(np.abs(got.values - exact)) / np.max(np.abs(exact))
        order = math.log2(errs[128] / errs[256])
        assert order >= 1.8

    def test_linearity(self):
        u = GridFunction.from_callable(math.sin, 128)
        v = GridFunction.from_callable(lambda t: t * t, 128)
        combo = GridFunction(128, 2.0 * u.values - 3.0 * v.values)
        left = frac_integral(combo, 0.9).values
        right = 2.0 * frac_integral(u, 0.9).values - 3.0 * frac_integral(v, 0.9).values
        assert np.max(np.abs(left - right)) <= 1e-12

    def test_monotone(self):
        lo = GridFunction.from_callable(lambda t: t - 1.0, 64)
        hi = GridFunction.from_callable(lambda t: t * t, 64)
        assert pointwise_leq(lo, hi)
        assert pointwise_leq(frac_integral(lo, 0.9), frac_integral(hi, 0.9))


class TestOracleValues:
    def test_integral_of_sine(self):
        u = GridFunction.from_callable(math.sin, 512)
        got = frac_integral(u, 0.9)
        for k, expected_str in FRAC_INT_SIN_09.items():
            assert got.values[64 * k] == pytest.approx(
                float(expected_str), abs=1e-6
            )

    def test_operator_on_zero(self):
        prob = demo_problem(512)
        image = apply_T(GridFunction.zeros(512), prob)
        for k, expected_str in OPERATOR_AT_ZERO_DEMO.items():
            assert image.values[64 * k] == pytest.approx(
                float(expected_str), abs=1e-6
            )

    def test_linear_correction_constant(self):
        # the t = 0 and t = 1 table rows differ by exactly the sine integral
        # plus twice the averaged constant
        expected = float(OPERATOR_AT_ZERO_DEMO[8])
        parts = float(FRAC_INT_SIN_09[8]) + 2.0 * float(DOUBLE_TERM_CONSTANT_SIN)
        assert expected == pytest.approx(parts, rel=2e-15)


class TestLipschitz:
    def test_demo_passes_integral_order_variant(self):
        prob = demo_problem(64)
        report = lipschitz_check(
            prob,
            [0.0, 0.25, 0.5, 0.75, 1.0],
            [(GridFunction.zeros(64), GridFunction(64, np.ones(65)))],
        )
        assert report.passed
        assert report.worst_ratio == pytest.approx(1.0 / 16.0, rel=1e-12)
        assert report.margin > 0.0
        assert report.bound == pytest.approx(
            0.5 * gamma(1.9) / 4.0, rel=1e-12
        )

    def test_demo_passes_contraction_order_variant(self):
        prob = demo_problem(64, gamma_variant="alpha_plus_one")
        assert lipschitz_bound(prob) == pytest.approx(
            float(SQRT_PI_OVER_16), rel=1e-10
        )
        report = lipschitz_check(
            prob,
            [0.5],
            [(GridFunction.zeros(64), GridFunction(64, np.ones(65)))],
        )
        assert report.passed

    def test_steep_rhs_fails(self):
        prob = FdeProblem(rhs=lambda t, u: u, n_intervals=64)
        report = lipschitz_check(
            prob,
            [0.0, 0.5, 1.0],
            [(GridFunction.zeros(64), GridFunction(64, np.ones(65)))],
        )
        assert not report.passed
        assert report.worst_ratio == pytest.approx(1.0)
        assert report.margin < 0.0
        assert report.worst_at is not None

    def test_non_finite_rhs_raises_naming_t(self):
        def rhs(t, u):
            return np.where(t > 0.5, np.nan, demo_rhs(t, u))

        prob = FdeProblem(rhs=rhs, n_intervals=16)
        nodes = [k / 16 for k in range(17)]
        pair = (GridFunction.zeros(16), GridFunction(16, np.ones(17)))
        with pytest.raises(ArithmeticError, match="t = 0.5625"):
            lipschitz_check(prob, nodes, [pair])

    @pytest.mark.parametrize("position", (0, 1))
    def test_unordered_pair_rejected(self, position):
        prob = demo_problem(64)
        ordered = (GridFunction.zeros(64), GridFunction(64, np.ones(65)))
        pairs = [ordered, ordered]
        pairs[position] = ordered[::-1]
        with pytest.raises(ValueError, match="ordered"):
            lipschitz_check(prob, [0.5], pairs)

    def test_uninformative_samples_degenerate_to_full_margin(self):
        prob = demo_problem(64)
        z = GridFunction.zeros(64)
        report = lipschitz_check(prob, [0.0, 0.5, 1.0], [(z, z)])
        assert report.worst_at is None
        assert report.worst_ratio == 0.0
        assert report.margin == report.bound
        assert not report.passed

    def test_no_samples_does_not_pass(self):
        prob = demo_problem(64)
        pair = (GridFunction.zeros(64), GridFunction(64, np.ones(65)))
        report = lipschitz_check(prob, [], [pair])
        assert (report.passed, report.worst_at) == (False, None)
        assert report.worst_ratio == 0.0
        assert report.margin == report.bound

    def test_no_pairs_does_not_pass(self):
        prob = demo_problem(64)
        report = lipschitz_check(prob, [0.0, 0.5, 1.0], [])
        assert (report.passed, report.worst_at) == (False, None)
        assert report.worst_ratio == 0.0
        assert report.margin == report.bound

    def test_sample_outside_the_interval_rejected(self):
        pair = (GridFunction.zeros(64), GridFunction(64, np.ones(65)))
        with pytest.raises(ValueError, match=r"t=1\.5 outside"):
            lipschitz_check(demo_problem(64), [0.5, 1.5, -1.0], [pair])


class TestOperator:
    def test_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="grid"):
            apply_T(GridFunction.zeros(32), demo_problem(64))

    def test_divergent_rhs_reports_node(self):
        prob = FdeProblem(
            rhs=lambda t, u: np.where(t > 0.5, np.inf, 0.0), n_intervals=8
        )
        with pytest.raises(ArithmeticError, match="node 5"):
            apply_T(GridFunction.zeros(8), prob)

    def test_rhs_of_the_wrong_shape_names_the_contract(self):
        prob = FdeProblem(rhs=lambda t, u: u[:-1], n_intervals=8)
        message = r"rhs\(t, u\) must return an array that broadcasts to the node shape \(9,\)"
        with pytest.raises(ValueError, match=message):
            solve_fde(prob)
        with pytest.raises(ValueError, match=message):
            apply_T(GridFunction.zeros(8), prob)

    @pytest.mark.parametrize(
        "rhs, dtype",
        [
            (lambda t, u: u / 16 + np.sin(t) + 1j * t, "complex128"),
            (lambda t, u: None, "object"),
            (lambda t, u: np.full(t.shape, None), "object"),
            (lambda t, u: {"t": t}, "object"),
            (lambda t, u: t > 0.5, "bool"),
            (lambda t, u: np.datetime64("2020-01-01"), "datetime64[D]"),
        ],
        ids=["complex", "none", "object-array", "dict", "bool-array", "datetime64"],
    )
    def test_complex_rhs_is_rejected_by_the_solver(self, rhs, dtype):
        message = re.escape(f"must return real values, got dtype {dtype}")
        with pytest.raises(ValueError, match=message):
            solve_fde(FdeProblem(rhs=rhs, n_intervals=16))

    def test_complex_rhs_is_rejected_by_the_lipschitz_check(self):
        prob = FdeProblem(rhs=lambda t, u: u / 16 + np.sin(t) + 1j * t, n_intervals=16)
        pair = (GridFunction.zeros(16), GridFunction(16, np.ones(17)))
        with pytest.raises(ValueError, match="must return real values, got dtype complex128"):
            lipschitz_check(prob, [0.25, 0.5], [pair])

    def test_scalar_rhs_broadcasts(self):
        scalar = FdeProblem(rhs=lambda t, u: 0.25, n_intervals=8)
        array = FdeProblem(rhs=lambda t, u: np.full_like(t, 0.25), n_intervals=8)
        u = GridFunction(8, np.linspace(0.0, 1.0, 9))
        assert apply_T(u, scalar) == apply_T(u, array)
        assert solve_fde(scalar)[1] == solve_fde(array)[1]

    def test_starts_at_zero(self):
        image = apply_T(GridFunction.zeros(64), demo_problem(64))
        assert image.values[0] == 0.0

    def test_monotone_in_the_argument(self):
        prob = demo_problem(64)
        lo = GridFunction.zeros(64)
        hi = GridFunction(64, np.ones(65))
        assert pointwise_leq(apply_T(lo, prob), apply_T(hi, prob))

    def test_sampled_contraction(self):
        prob = demo_problem(64)
        pairs = [
            (GridFunction.zeros(64), GridFunction(64, np.ones(65))),
            (
                GridFunction.from_callable(lambda t: t, 64),
                GridFunction.from_callable(lambda t: t + 0.5, 64),
            ),
        ]
        for u, v in pairs:
            num = sup_diff(apply_T(u, prob), apply_T(v, prob))
            assert num <= 0.25 * sup_diff(u, v)


class TestSolver:
    def test_demo_run(self, demo_solutions):
        trace, solution = demo_solutions[512]
        assert trace.converged
        assert trace.certified
        assert trace.preserved
        assert trace.alpha_used == 0.5
        assert trace.residuals[-1] < 1e-12
        ratios = [b / a for a, b in zip(trace.residuals, trace.residuals[1:])]
        assert max(ratios) <= 0.25

    def test_solution_is_fixed(self, demo_solutions):
        _, solution = demo_solutions[512]
        prob = demo_problem(512)
        assert sup_diff(apply_T(solution, prob), solution) <= 1e-12

    def test_orbit_is_monotone(self, demo_solutions):
        trace, _ = demo_solutions[256]
        for u, v in zip(trace.iterates, trace.iterates[1:]):
            assert pointwise_leq(u, v)

    def test_budget_exhaustion_raises_with_trace(self):
        prob = demo_problem(
            64, policy=StoppingPolicy(residual_tol=1e-30, max_iterations=2)
        )
        with pytest.raises(ConvergenceFailure) as exc_info:
            solve_fde(prob)
        assert exc_info.value.trace.steps == 2

    def test_failed_lipschitz_warns_and_drops_certificates(self):
        prob = FdeProblem(rhs=lambda t, u: u, n_intervals=64)
        with pytest.warns(UserWarning, match="Lipschitz"):
            trace, _ = solve_fde(prob)
        assert trace.alpha_used is None
        assert trace.bound_certificates is None

    def test_self_convergence_under_grid_refinement(self, demo_solutions):
        fine = demo_solutions[512][1].values
        e128 = max(
            abs(demo_solutions[128][1].values[k] - fine[4 * k]) for k in range(129)
        )
        e256 = max(
            abs(demo_solutions[256][1].values[k] - fine[2 * k]) for k in range(257)
        )
        assert e128 / e256 >= 2.5


class TestDerivedContraction:
    """The certified factor bounds the discrete operator itself.

    Linearised in h, T is M = W + 2 t tau^T W, with W the quadrature table
    and tau the trapezoid row. The demo rhs has Lipschitz constant 1/16 in
    u, so (1/16) ||M||_inf bounds every step ratio; it must not exceed the
    contraction parameter the trace certifies with.
    """

    @pytest.mark.parametrize("zeta", (0.5, 0.9, 2.0))
    @pytest.mark.parametrize("n", (64, 512))
    def test_operator_norm_bounds_the_step_ratios(self, n, zeta):
        w = dense_weights(zeta, n)
        nodes = np.arange(n + 1) / n
        tau = np.full(n + 1, 1.0 / n)
        tau[[0, -1]] = 0.5 / n
        m = w + 2.0 * np.outer(nodes, tau @ w)
        bound = np.max(np.abs(m).sum(axis=1)) / 16.0
        trace, _ = solve_fde(demo_problem(n, zeta))
        assert bound <= trace.alpha_used == 0.5
        res = trace.residuals
        ratios = [b / a for a, b in zip(res, res[1:]) if b > 1e-10]
        assert ratios and max(ratios) <= bound


class TestWholeArrayEvaluation:
    """The rhs and the probe run on node arrays, equal to per-node loops."""

    @pytest.mark.parametrize("zeta", (0.5, 0.9, 2.0))
    @pytest.mark.parametrize("n", (8, 64, 512, 4096))
    def test_apply_T_equals_the_per_node_loop(self, n, zeta):
        prob = demo_problem(n, zeta)
        u = GridFunction(n, np.random.default_rng(n).standard_normal(n + 1))
        assert np.array_equal(apply_T(u, prob).values, per_node_apply_T(u, prob).values)

    @staticmethod
    def _probes(n):
        rng = np.random.default_rng(n)
        base = rng.standard_normal(n + 1)
        bump = np.abs(rng.standard_normal(n + 1))
        bump[::3] = 0.0  # gaps of zero between nodes 3k
        pairs = [
            (GridFunction(n, base), GridFunction(n, base + bump)),
            (GridFunction.zeros(n), GridFunction(n, np.ones(n + 1))),
            (GridFunction(n, base), GridFunction(n, base)),
        ]
        ts = sorted(set(rng.uniform(0.0, 1.0, 40).tolist() + [k / n for k in range(n + 1)]))
        return ts, pairs

    @pytest.mark.parametrize("variant", GAMMA_VARIANTS)
    @pytest.mark.parametrize(
        "rhs",
        [demo_rhs, lambda t, u: u, lambda t, u: np.cos(3.0 * t) * u * u],
        ids=["demo", "steep", "curved"],
    )
    @pytest.mark.parametrize("n", (8, 64, 512))
    def test_lipschitz_report_equals_the_scalar_loop(self, n, rhs, variant):
        prob = FdeProblem(rhs=rhs, n_intervals=n, gamma_variant=variant)
        ts, pairs = self._probes(n)
        got = lipschitz_check(prob, np.array(ts), pairs)
        assert got == scalar_lipschitz_check(prob, ts, pairs)
        assert got.worst_at is not None

    def test_default_probe_equals_the_scalar_loop(self):
        for variant in GAMMA_VARIANTS:
            prob = demo_problem(512, 1.5, gamma_variant=variant)
            nodes = np.arange(513) / 512
            pairs = default_probe_pairs(512)
            got = lipschitz_check(prob, nodes, pairs)
            assert got == scalar_lipschitz_check(prob, nodes.tolist(), pairs)
            assert got == _stacked_check(prob, nodes, *_probe_rows(nodes))
            assert got.passed

    def test_tied_ratios_keep_the_first_maximum(self):
        # rhs = 2u gives the ratio 2.0 exactly at every informative sample of
        # every pair, so worst_at is the first informative sample of pair 1
        prob = FdeProblem(rhs=lambda t, u: 2.0 * u, n_intervals=16)
        ident = GridFunction.from_callable(lambda t: t, 16)
        pairs = [
            (GridFunction.zeros(16), ident),
            (GridFunction.zeros(16), GridFunction(16, np.ones(17))),
        ]
        ts = [0.0, 0.25, 0.5, 1.0]
        got = lipschitz_check(prob, ts, pairs)
        assert got == scalar_lipschitz_check(prob, ts, pairs)
        assert got.worst_ratio == 2.0
        assert got.worst_at == (0.25, 0.0, 0.25)

    def test_solve_calls_the_rhs_on_arrays_a_few_times(self):
        calls = []

        def rhs(t, u):
            calls.append((type(t), type(u)))
            return demo_rhs(t, u)

        prob = FdeProblem(rhs=rhs, n_intervals=256)
        trace, _ = solve_fde(prob)
        # one call per Picard step, one per side of the stacked probe
        assert len(calls) == trace.steps + 2
        assert set(calls) == {(np.ndarray, np.ndarray)}

    def test_weights_are_built_once_per_problem(self, monkeypatch):
        built = []
        real = fractional.quadrature_weights

        def counting(zeta, n):
            built.append((zeta, n))
            return real(zeta, n)

        monkeypatch.setattr(fractional, "quadrature_weights", counting)
        prob = demo_problem(64)
        trace, _ = solve_fde(prob)
        assert trace.steps > 1
        assert built == [(0.9, 64)]
        assert prob.weights is prob.weights

    def test_large_grid_converges_in_ten_steps(self):
        trace, solution = solve_fde(demo_problem(65536, 0.9))
        assert trace.converged
        assert trace.steps == 10
        assert solution.n_intervals == 65536


SWEEP_ZETAS = tuple(0.5 + k / 16 for k in range(25))


class TestLeanSolverEqualsTheReference:
    """The stacked probe and the preallocated step reproduce the old path."""

    @staticmethod
    def _assert_same_run(prob, exact_probe=True):
        report, ref = reference_solve_fde(prob)
        trace, solution = solve_fde(prob)
        assert np.array_equal(solution.values, ref.iterates[-1].values)
        assert len(trace.iterates) == len(ref.iterates)
        for got, want in zip(trace.iterates, ref.iterates):
            assert np.array_equal(got.values, want.values)
        assert trace.residuals == ref.residuals
        assert trace.bound_certificates == ref.bound_certificates
        assert (trace.alpha_used, trace.preserved, trace.certified, trace.converged) == (
            ref.alpha_used, ref.preserved, ref.certified, ref.converged
        )
        nodes = prob.nodes
        got = _stacked_check(prob, nodes, *_probe_rows(nodes))
        if exact_probe:
            assert got == report
        assert got.passed == report.passed

    @pytest.mark.parametrize("variant", GAMMA_VARIANTS)
    @pytest.mark.parametrize("zeta", SWEEP_ZETAS)
    def test_sweep_grid(self, zeta, variant):
        self._assert_same_run(demo_problem(512, zeta, gamma_variant=variant))

    @pytest.mark.parametrize("zeta", (0.5, 0.9, 2.0))
    @pytest.mark.parametrize("n", (8, 4096))
    def test_other_grids(self, n, zeta):
        for variant in GAMMA_VARIANTS:
            self._assert_same_run(demo_problem(n, zeta, gamma_variant=variant))

    @pytest.mark.parametrize("zeta", (0.5, 0.9, 2.0))
    def test_grid_where_interpolation_at_a_node_rounds(self, zeta):
        # (j / 100) * 100 != j for some j, so the old probe's interpolated
        # node values can differ from the node values in the last bit
        nodes = np.arange(101) / 100
        assert not np.array_equal(nodes * 100, np.arange(101))
        for variant in GAMMA_VARIANTS:
            self._assert_same_run(demo_problem(100, zeta, gamma_variant=variant), False)

    def test_failed_probe_drops_certificates_on_both_paths(self):
        prob = FdeProblem(rhs=lambda t, u: u, n_intervals=64)
        with pytest.warns(UserWarning, match="Lipschitz"):
            self._assert_same_run(prob)

    @pytest.mark.parametrize("n", (8, 100, 512))
    def test_step_and_weight_apply(self, n):
        u = GridFunction(n, np.random.default_rng(n).standard_normal(n + 1))
        for zeta in (0.5, 0.9, 2.0):
            prob = demo_problem(n, zeta)
            assert np.array_equal(apply_T(u, prob).values, concat_apply_T(u, prob).values)
            w = prob.weights
            assert np.array_equal(_apply_weights(w, u.values), concat_apply_weights(w, u.values))

    @pytest.mark.parametrize(
        "rhs",
        [demo_rhs, lambda t, u: u, lambda t, u: np.cos(3.0 * t) * u * u],
        ids=["demo", "steep", "curved"],
    )
    @pytest.mark.parametrize("n", (8, 100, 512))
    def test_arbitrary_samples(self, n, rhs):
        prob = FdeProblem(rhs=rhs, n_intervals=n)
        ts, pairs = TestWholeArrayEvaluation._probes(n)
        got = lipschitz_check(prob, ts, pairs)
        assert got == interpolating_lipschitz_check(prob, ts, pairs)

    def test_problem_nodes_are_built_once_and_read_only(self):
        prob = demo_problem(64)
        assert prob.nodes is prob.nodes
        assert np.array_equal(prob.nodes, GridFunction.zeros(64).nodes)
        with pytest.raises(ValueError, match="read-only"):
            prob.nodes[1] = 0.5


class TestBoundary:
    def test_left_value_is_exactly_zero(self, demo_solutions):
        _, solution = demo_solutions[512]
        first, _ = boundary_residuals(solution)
        assert first == 0.0

    def test_integral_condition_shrinks_with_the_grid(self, demo_solutions):
        _, r2_coarse = boundary_residuals(demo_solutions[256][1])
        _, r2_fine = boundary_residuals(demo_solutions[512][1])
        assert 1.5 <= r2_coarse / r2_fine <= 2.5

    def test_tiny_grid_is_rejected(self):
        with pytest.raises(ValueError, match="at least 3 nodes"):
            boundary_residuals(GridFunction(1, np.zeros(2)))
        assert boundary_residuals(GridFunction(2, np.zeros(3))) == (0.0, 0.0)


class TestProblemConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"zeta": 0.0},
            {"zeta": -1.0},
            {"n_intervals": 4},
            {"lipschitz_alpha": 0.0},
            {"lipschitz_alpha": 1.0},
            {"gamma_variant": "other"},
        ],
    )
    def test_validation(self, kwargs):
        base = dict(rhs=demo_rhs)
        base.update(kwargs)
        with pytest.raises(ValueError):
            FdeProblem(**base)

    @pytest.mark.parametrize("zeta", [math.nan, math.inf, -math.inf])
    def test_non_finite_zeta(self, zeta):
        with pytest.raises(ValueError, match="zeta must be positive and finite"):
            FdeProblem(rhs=demo_rhs, zeta=zeta)
        with pytest.raises(ValueError, match="zeta must be positive and finite"):
            quadrature_weights(zeta, 8)

    @pytest.mark.parametrize("n", [8.5, 16.0, True, "16", None])
    def test_non_integer_intervals(self, n):
        with pytest.raises(ValueError, match="n_intervals must be an integer"):
            FdeProblem(rhs=demo_rhs, n_intervals=n)
        with pytest.raises(ValueError, match="n_intervals must be an integer"):
            quadrature_weights(0.9, n)

    def test_regime_note(self):
        assert "demonstration" in demo_problem(64).regime_note
        assert "well-posedness" in FdeProblem(rhs=demo_rhs, zeta=1.5).regime_note

    def test_variants_catalogued(self):
        assert GAMMA_VARIANTS == ("alpha_plus_one", "zeta_plus_one")

    def test_demo_rhs_value(self):
        assert demo_rhs(0.3, 16.0) == 1.0 + math.sin(0.3)
