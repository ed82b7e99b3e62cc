import gc
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import relfix.fractional as fractional
from relfix.fractional import (
    GAMMA_VARIANTS,
    _apply_weights,
    _node_probe,
    _stacked_check,
    ConvergenceFailure,
    FdeProblem,
    LipschitzReport,
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
from relfix.picard import StoppingPolicy, iterate

import fractional_reference
from fractional_reference import (
    NODE_PROBE_PAIRS,
    concat_apply_weights,
    dense_apply,
    dense_weights,
    interpolated,
    per_node_apply_T,
    reference_solve_fde,
    scalar_lipschitz_check,
    table_from_band,
    whole_array_weights,
)
from picard_reference import assert_window_of, posthoc_iterate
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


def assert_invalid_fft_warnings(caught):
    """An infinite rhs value warns in the forward real FFT and nowhere else:
    the step names it before the spectrum product."""
    messages = {str(w.message) for w in caught}
    assert all(m.startswith("invalid value encountered in rfft") for m in messages), messages
    assert messages


def largest_normal_scale_zeta(n):
    """The largest zeta whose weight scale (1/N)^zeta / Gamma(zeta) is a
    normal float, by bisection over the floats of (1, 171)."""
    def normal(zeta):
        return (1.0 / n) ** zeta / gamma(zeta) >= sys.float_info.min

    lo, hi = 1.0, 171.0
    assert normal(lo) and not normal(hi)
    while np.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if normal(mid) else (lo, mid)
    return lo


def assert_reproduces_the_constant(w):
    """The last row of a table sums to 1 / Gamma(zeta + 1), the order-zeta
    integral of 1 at t = 1."""
    total = w.start[-1] + math.fsum(w.band)
    assert total == pytest.approx(1.0 / math.gamma(w.zeta + 1.0), rel=1e-13, abs=0.0), w.zeta


def full_orbit(prob, alpha):
    """``solve_fde``'s Picard run, every iterate of its orbit kept."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return posthoc_iterate(
            lambda fn: apply_T(fn, prob),
            sup_diff,
            pointwise_leq,
            GridFunction.zeros(prob.n_intervals),
            prob.policy,
            alpha=alpha,
        )


def rows_check(prob, t, lower, upper):
    """The probe on stacked rows, as :func:`lipschitz_check` walks them."""
    return _stacked_check(prob, t, len(lower), lambda p, a, b: (lower[p, a:b], upper[p, a:b]))


def assert_same_orbit(got, want):
    """Two orbits of grid functions, bit for bit."""
    assert len(got) == len(want)
    for u, v in zip(got, want):
        assert u.values.tobytes() == v.values.tobytes()


@pytest.fixture(scope="module")
def demo_solutions():
    """Converged demo solutions on three nested grids, solved once."""
    out = {}
    for n in (128, 256, 512):
        trace, solution = solve_fde(demo_problem(n))
        out[n] = (trace, solution)
    return out


class TestGamma:
    @pytest.mark.parametrize("zeta", [200, 200.0], ids=["int", "float"])
    def test_overflow_names_the_argument_as_a_float(self, zeta):
        with pytest.raises(ValueError, match=r"^Gamma\(200\.0\) is too large for a float$"):
            gamma(zeta)
        with pytest.raises(ValueError, match=r"^Gamma\(200\.0\) is too large for a float$"):
            FdeProblem(demo_rhs, zeta=zeta)

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

    # m^zeta overflows above zeta = 709.78 / ln N - 1: each pair straddles it
    @pytest.mark.parametrize(
        "n, largest, refused", [(64, 169.6, 169.7), (512, 112.7, 112.8), (4096, 84.3, 84.4)]
    )
    def test_overflowing_weights_are_one_value_error(self, n, largest, refused):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = quadrature_weights(largest, n)
            assert all(np.isfinite(x).all() for x in (w.start, w.band, w.band_spectrum))
            # the last row reproduces the constant 1 / Gamma(zeta + 1) (8.0e-128,
            # 1.9e-184 and 1.1e-306 here), whose scale h^zeta / Gamma(zeta)
            # underflows: as one factor it made every weight 0.0
            assert_reproduces_the_constant(w)
            message = f"^quadrature weights for zeta={refused} on {n} intervals overflow a float$"
            with pytest.raises(ValueError, match=message):
                quadrature_weights(refused, n)
            with pytest.raises(ValueError, match=message):
                whole_array_weights(refused, n)

    def test_every_zeta_up_to_the_overflow_keeps_its_weights(self):
        # at N = 4096 the scale is subnormal from zeta = 64 and 0 from 65
        for zeta in range(60, 85):
            assert_reproduces_the_constant(quadrature_weights(float(zeta), 4096))

    @pytest.mark.parametrize("n", (8, 9, 511, 512, 4096, 65537))
    def test_the_build_equals_the_whole_array_reference(self, n):
        for zeta in (1e-5, 0.5, 0.9, 1.0, 1.5, 2.0, 30, largest_normal_scale_zeta(n)):
            got, want = fractional._build_weights(zeta, n), whole_array_weights(zeta, n)
            assert (got.zeta, got.n_intervals) == (want.zeta, want.n_intervals)
            for name in ("start", "band", "band_spectrum"):
                assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (zeta, name)


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

    def test_margin_and_verdict_are_read_off_the_measurement(self):
        assert LipschitzReport._fields == ("bound", "worst_ratio", "worst_at")
        fits = LipschitzReport(1.0, 0.25, (0.5, 0.0, 1.0))
        assert (fits.margin, fits.passed) == (0.75, True)
        over = fits._replace(worst_ratio=1.5)
        assert (over.margin, over.passed) == (-0.5, False)
        # nothing sampled: the full margin, and no pass
        empty = LipschitzReport(1.0, 0.0, None)
        assert (empty.margin, empty.passed) == (1.0, False)

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
        # the infinite rhs values reach the forward FFT before the step
        # diagnoses them, so numpy warns on this failure path
        prob = FdeProblem(
            rhs=lambda t, u: np.where(t > 0.5, np.inf, 0.0), n_intervals=8
        )
        with pytest.warns(RuntimeWarning) as caught:
            with pytest.raises(ArithmeticError, match="^rhs diverged at node 5$"):
                apply_T(GridFunction.zeros(8), prob)
        assert_invalid_fft_warnings(caught)

    def test_solve_and_probe_raise_no_numpy_warning(self):
        # under -W error each call ends in its own ArithmeticError, not in
        # numpy's RuntimeWarning
        def infinite(t, u):
            return np.where(t > 0.5, np.inf, 0.0)

        calls = []

        def finite_then_infinite(t, u):
            calls.append(t.shape)  # the probe's two calls pass, the first step does not
            return demo_rhs(t, u) if len(calls) <= 2 else infinite(t, u)

        pair = (GridFunction.zeros(8), GridFunction(8, np.ones(9)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ArithmeticError, match="^rhs difference not finite at t = 0.625$"):
                solve_fde(FdeProblem(infinite, n_intervals=8))
            with pytest.raises(ArithmeticError, match="^rhs difference not finite at t = 0.75$"):
                lipschitz_check(FdeProblem(infinite, n_intervals=8), [0.25, 0.75], [pair])
            with pytest.raises(ArithmeticError, match="^rhs diverged at node 5$"):
                solve_fde(FdeProblem(finite_then_infinite, n_intervals=8))
        assert calls == [(27,), (27,), (9,)]

    def test_overflowing_integral_reports_node(self):
        # a finite rhs whose integral overflows: the FFT sums make node 0 of
        # the integral 0 and every later node non-finite, so the error names
        # node 1, read before the correction 2 t C (which would make node 0
        # NaN too). numpy's overflow warnings stay on this failure path
        prob = FdeProblem(lambda t, u: np.full_like(t, 1.7e308), zeta=0.5, n_intervals=64)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ArithmeticError, match="^computed value overflows a float at node 1$"):
                apply_T(GridFunction.zeros(64), prob)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ArithmeticError, match="overflows a float at node"):
                frac_integral(GridFunction(64, np.full(65, 1.7e308)), 0.5)

    def test_rhs_of_the_wrong_shape_names_the_contract(self):
        def refused(given, got):
            return re.escape(
                "rhs(t, u) must return an array that broadcasts to the shape of t and u, "
                f"{given}, got shape {got}"
            ) + "$"

        prob = FdeProblem(rhs=lambda t, u: u[:-1], n_intervals=8)
        # the probe's one run holds the 3 pairs' 9 samples
        with pytest.raises(ValueError, match=refused((27,), (26,))):
            solve_fde(prob)
        with pytest.raises(ValueError, match=refused((9,), (8,))):
            apply_T(GridFunction.zeros(8), prob)
        # an rhs that returns a node-length array is refused at every grid
        for n, given in ((512, (1539,)), (65536, (65536,))):
            with pytest.raises(ValueError, match=refused(given, (n + 1,))):
                solve_fde(FdeProblem(lambda t, u: np.ones(n + 1), 0.9, n))

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

    def test_the_normal_step_scans_no_node(self, monkeypatch):
        scans = []
        real = fractional._require_finite
        monkeypatch.setattr(fractional, "_require_finite", lambda *args: scans.append(args) or real(*args))
        trace, _ = solve_fde(demo_problem(512, 1.5))
        assert trace.steps > 1 and scans == []


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
        full = full_orbit(demo_problem(256), trace.alpha_used)
        for u, v in zip(full.iterates, full.iterates[1:]):
            assert pointwise_leq(u, v)
        assert trace.preserved is full.preserved is True

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

    def test_a_solution_cannot_be_written_into(self):
        # a writable solution let sol.values[:] = 0 leave a trace that
        # still read certified=True with fixed point u(1) = 0.0
        trace, sol = solve_fde(demo_problem(64))
        u1 = sol.values[-1]
        for values in (sol.values, *(u.values for u in trace.iterates)):
            with pytest.raises(ValueError, match="read-only"):
                values[:] = 0.0
        assert trace.certified and trace.fixed_point.values[-1] == u1 > 0.9

    def test_a_problem_weights_cannot_be_written_into(self):
        # writable weights let band_spectrum[:] = 0 make the next solve of
        # the frozen problem return u(1) = 0.0, converged and certified
        prob = demo_problem(64)
        _, before = solve_fde(prob)
        w = prob.weights
        for values in (w.start, w.band, w.band_spectrum):
            with pytest.raises(ValueError, match="read-only"):
                values[:] = 0.0
        _, after = solve_fde(prob)
        assert np.array_equal(after.values, before.values) and after.values[-1] > 0.9

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
    """The rhs runs on whole arrays: once per step and twice per probe run."""

    def test_solve_calls_the_rhs_on_arrays_a_few_times(self):
        calls = []

        def rhs(t, u):
            calls.append((type(t), type(u)))
            return demo_rhs(t, u)

        prob = FdeProblem(rhs=rhs, n_intervals=256)
        trace, _ = solve_fde(prob)
        # one call per Picard step, one per side of the probe's one run
        assert len(calls) == trace.steps + 2
        assert set(calls) == {(np.ndarray, np.ndarray)}

    @pytest.mark.parametrize(
        "n, probe",
        # the three pairs' 3 (N + 1) samples are one stream walked in 1-D
        # runs of 65,536, two sides each: one run at N = 512, three at
        # N = 65535, and three plus one of 3 samples at N = 65536
        [
            (512, [(1539,)] * 2),
            (65535, [(65536,)] * 6),
            (65536, [(65536,)] * 6 + [(3,)] * 2),
        ],
        ids=["one-run", "one-run-per-pair", "runs-across-pairs"],
    )
    def test_probe_calls_the_rhs_twice_per_block(self, n, probe):
        shapes = []

        def rhs(t, u):
            assert u.shape == t.shape
            shapes.append(t.shape)
            return demo_rhs(t, u)

        trace, _ = solve_fde(FdeProblem(rhs=rhs, n_intervals=n))
        assert shapes == probe + [(n + 1,)] * trace.steps

    def test_the_rhs_cannot_write_to_its_arguments(self):
        # zeroing u in place would make the probe divide by zero and the
        # Picard loop run its whole budget; a read-only u refuses the write
        def rhs(t, u):
            out = u / 16.0 + np.sin(t)
            u *= 0.0
            return out

        prob = FdeProblem(rhs, zeta=0.9, n_intervals=64)
        with pytest.raises(ValueError, match="read-only"):
            solve_fde(prob)
        ones = GridFunction(64, np.ones(65))
        for call in (
            lambda: apply_T(ones, prob),
            lambda: lipschitz_check(prob, [0.5], [(GridFunction.zeros(64), ones)]),
        ):
            with pytest.raises(ValueError, match="read-only"):
                call()
        assert np.array_equal(ones.values, np.ones(65))

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

    def test_problem_builds_its_operator_at_construction(self):
        prob = FdeProblem(demo_rhs, n_intervals=64)
        # no solve has run: both were built with the problem
        assert (prob.weights.zeta, prob.weights.n_intervals) == (0.9, 64)
        assert np.array_equal(prob.weights.band, quadrature_weights(0.9, 64).band)
        assert not prob.nodes.flags.writeable
        with pytest.raises(ValueError, match=r"Gamma\(200\.0\) is too large"):
            FdeProblem(demo_rhs, zeta=200.0)

    def test_large_grid_converges_in_ten_steps(self):
        trace, solution = solve_fde(demo_problem(65536, 0.9))
        assert trace.converged
        assert trace.steps == 10
        assert solution.n_intervals == 65536


class TestSharedWeights:
    """Live problems with one (type(zeta), zeta, N) share one read-only table."""

    def test_live_problems_with_one_key_share_one_table(self):
        a = demo_problem(64, 1.375)
        b = demo_problem(64, 1.375, gamma_variant="alpha_plus_one")
        assert a.weights is b.weights is quadrature_weights(1.375, 64)

    def test_a_solve_on_a_shared_table_equals_one_on_a_fresh_table(self):
        first = demo_problem(96, 1.4375)
        shared = demo_problem(96, 1.4375, gamma_variant="alpha_plus_one")
        assert shared.weights is first.weights
        trace_shared, on_shared = solve_fde(shared)
        table = weakref.ref(shared.weights)
        del first, shared
        gc.collect()
        assert table() is None
        fresh = demo_problem(96, 1.4375, gamma_variant="alpha_plus_one")
        trace_fresh, on_fresh = solve_fde(fresh)
        assert np.array_equal(on_fresh.values, on_shared.values)
        assert trace_fresh.residuals == trace_shared.residuals

    def test_another_key_gets_its_own_table(self):
        base = FdeProblem(demo_rhs, zeta=1.0, n_intervals=64)
        others = (
            FdeProblem(demo_rhs, zeta=1.5, n_intervals=64),
            FdeProblem(demo_rhs, zeta=1.0, n_intervals=128),
            FdeProblem(demo_rhs, zeta=1, n_intervals=64),
        )
        for other in others:
            assert other.weights is not base.weights
        assert type(others[2].weights.zeta) is int and type(base.weights.zeta) is float

    def test_a_table_is_freed_with_its_last_holder(self):
        prob = FdeProblem(demo_rhs, zeta=1.5625, n_intervals=80)
        table = weakref.ref(prob.weights)
        del prob
        gc.collect()
        assert table() is None

    @pytest.mark.parametrize(
        "zeta", [[0.5], "0.5", math.nan, True, 200.0], ids=["list", "str", "nan", "bool", "200"]
    )
    def test_a_bad_zeta_is_refused_before_the_lookup(self, zeta):
        # a list is unhashable: the lookup must never see it
        for build in (lambda: FdeProblem(demo_rhs, zeta=zeta), lambda: quadrature_weights(zeta, 8)):
            with pytest.raises(ValueError, match=re.escape(repr(zeta))):
                build()


SWEEP_ZETAS = tuple(0.5 + k / 16 for k in range(25))
RHS_CASES = {
    "demo": demo_rhs,
    "steep": lambda t, u: u,
    "curved": lambda t, u: np.cos(3.0 * t) * u * u,
    "tied": lambda t, u: 2.0 * u,
    # every ratio is 0: the first informative sample is still the worst
    "flat": lambda t, u: np.sin(t),
}


def row_pairs(t, lower, upper):
    """Row p of ``lower`` and ``upper`` as two functions of the samples ``t``."""
    at = {float(s): k for k, s in enumerate(t)}
    return [((lambda s, r=lo: r[at[s]]), (lambda s, r=up: r[at[s]])) for lo, up in zip(lower, upper)]


class TestSolverEqualsTheReference:
    """``solve_fde``, its step and its probe reproduce ``fractional_reference``
    bit for bit: every iterate, residual, certificate and flag of a solve, the
    probe's report and each error's text, whatever the probe's run size."""

    @staticmethod
    def _assert_same_run(prob):
        # the reference keeps the whole orbit; solve_fde keeps a window of
        # the same run, which a full-orbit run of its map gives whole
        report, ref = reference_solve_fde(prob)
        trace, solution = solve_fde(prob)
        full = full_orbit(prob, trace.alpha_used)
        assert_same_orbit(full.iterates, ref.iterates)
        assert_window_of(trace, full)
        assert solution.values.tobytes() == ref.iterates[-1].values.tobytes()
        assert trace.residuals == ref.residuals
        assert trace.bound_certificates == ref.bound_certificates
        assert (trace.alpha_used, trace.preserved, trace.certified, trace.converged) == (
            ref.alpha_used, ref.preserved, ref.certified, ref.converged
        )
        got = _node_probe(prob)
        assert got == report
        assert (got.margin, got.passed) == (report.margin, report.passed)

    @pytest.mark.parametrize("variant", GAMMA_VARIANTS)
    @pytest.mark.parametrize("zeta", SWEEP_ZETAS)
    def test_sweep_grid(self, zeta, variant):
        self._assert_same_run(demo_problem(512, zeta, gamma_variant=variant))

    @pytest.mark.parametrize("zeta", (0.5, 0.9, 2.0))
    @pytest.mark.parametrize("n", (8, 64, 100, 512, 4096))
    def test_other_grids(self, n, zeta):
        # at N = 100, (j / 100) * 100 != j for some j: the probes read closed forms
        for variant in GAMMA_VARIANTS:
            self._assert_same_run(demo_problem(n, zeta, gamma_variant=variant))

    def test_failed_probe_drops_certificates_on_both_paths(self):
        prob = FdeProblem(rhs=lambda t, u: u, n_intervals=64)
        with pytest.warns(UserWarning, match="Lipschitz"):
            self._assert_same_run(prob)

    @pytest.mark.parametrize("zeta", (0.5, 0.9, 2.0))
    def test_many_probe_blocks(self, monkeypatch, zeta):
        # 3 x 65 nodes in runs of 5 (39 runs, none across pairs) and of 7
        # (28 runs, two of them across pairs)
        for block in (5, 7):
            monkeypatch.setattr(fractional, "_PROBE_BLOCK", block)
            for variant in GAMMA_VARIANTS:
                self._assert_same_run(demo_problem(64, zeta, gamma_variant=variant))
            with pytest.warns(UserWarning, match="Lipschitz"):
                self._assert_same_run(FdeProblem(rhs=lambda t, u: u, n_intervals=64))

    @pytest.mark.parametrize("zeta", (0.5, 0.9, 2.0))
    @pytest.mark.parametrize("n", (8, 64, 100, 512, 4096))
    def test_step_and_weight_apply(self, n, zeta):
        prob = demo_problem(n, zeta)
        u = GridFunction(n, np.random.default_rng(n).standard_normal(n + 1))
        assert np.array_equal(apply_T(u, prob).values, per_node_apply_T(u, prob).values)
        w = prob.weights
        assert np.array_equal(_apply_weights(w, u.values), concat_apply_weights(w, u.values))

    @pytest.mark.parametrize(
        "rhs, outcome",
        [
            (lambda t, u: np.where(t > 0.5, np.nan, np.sin(t)), "rhs diverged at node 33"),
            (lambda t, u: np.where(t > 0.5, np.inf, np.sin(t)), "rhs diverged at node 33"),
            (lambda t, u: np.where(t > 0.5, -np.inf, np.sin(t)), "rhs diverged at node 33"),
            (lambda t, u: np.where(t < 0.5, -np.inf, np.inf), "rhs diverged at node 0"),
            (lambda t, u: np.where(t == 0.0, np.inf, np.sin(t)), "rhs diverged at node 0"),
            (lambda t, u: np.where(t == 0.0, np.nan, np.sin(t)), "rhs diverged at node 0"),
            (lambda t, u: np.where(t == 1.0, np.nan, np.sin(t)), "rhs diverged at node 64"),
            # node 1, the integral's first non-finite node, read before 2 t C
            (lambda t, u: np.full_like(t, 1.7e308), "computed value overflows a float at node 1"),
            (lambda t, u: np.full_like(t, 1e300), None),
            (lambda t, u: np.where(t == 1.0, 1.7e308, 0.0), None),
        ],
        ids=[
            "nan", "inf", "minus-inf", "both-infinities", "inf-at-node-0", "nan-at-node-0",
            "nan-at-node-N", "overflowing-integral", "huge-finite", "one-huge-node",
        ],
    )
    def test_steps_off_the_fast_path(self, rhs, outcome):
        u, prob = GridFunction.zeros(64), FdeProblem(rhs, zeta=0.5, n_intervals=64)
        outcomes = []
        for step in (apply_T, per_node_apply_T):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                try:
                    values = step(u, prob).values
                    assert np.isfinite(values).all()
                    outcomes.append(values.tobytes())
                except ArithmeticError as error:
                    outcomes.append(str(error))
        assert outcomes[0] == outcomes[1]
        assert outcome is None or outcomes[0] == outcome

    def test_a_correction_that_overflows_a_finite_integral_is_named(self, monkeypatch):
        # no rhs makes the FFT return this integral without overflowing
        # itself, so it stands in for one: finite nodes, C = 1.06e307 and
        # 1.7e308 + 2 C overflowing at node 8 only
        integral = np.zeros(9)
        integral[8] = 1.7e308
        for module, name in ((fractional, "_apply_weights"), (fractional_reference, "concat_apply_weights")):
            monkeypatch.setattr(module, name, lambda w, values: integral.copy())
        u, prob = GridFunction.zeros(8), FdeProblem(demo_rhs, zeta=0.5, n_intervals=8)
        for step in (per_node_apply_T, apply_T):
            with pytest.warns(RuntimeWarning, match="^overflow encountered in add$"):
                with pytest.raises(ArithmeticError, match="^computed value overflows a float at node 8$"):
                    step(u, prob)

    def test_a_huge_finite_step_takes_the_slow_path_to_the_reference_values(self):
        u, prob = GridFunction.zeros(64), FdeProblem(lambda t, u: np.full_like(t, 1e300), zeta=0.5, n_intervals=64)
        assert not abs(fractional._trapezoid(_apply_weights(prob.weights, np.full(65, 1e300)), 1 / 64)) < 2.0**969
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(apply_T(u, prob).values, per_node_apply_T(u, prob).values)

    @pytest.mark.parametrize("block", (5, 7, 65536))
    @pytest.mark.parametrize("n", (8, 64, 100, 512))
    def test_node_probe(self, monkeypatch, n, block):
        # runs of 5 and 7 start and end inside pairs and span them
        monkeypatch.setattr(fractional, "_PROBE_BLOCK", block)
        nodes = np.arange(n + 1) / n
        for prob in (FdeProblem(f, zeta, n) for f in RHS_CASES.values() for zeta in (0.5, 2.0)):
            assert _node_probe(prob) == scalar_lipschitz_check(prob, nodes, NODE_PROBE_PAIRS)

    @pytest.mark.parametrize("variant", GAMMA_VARIANTS)
    @pytest.mark.parametrize("zeta", SWEEP_ZETAS)
    def test_default_probe_equals_the_scalar_loop(self, zeta, variant):
        # at N = 512 interpolation at a node returns the node value
        nodes = np.arange(513) / 512
        lower, upper = (np.zeros(513), np.zeros(513), 0.5 * nodes), (np.ones(513), nodes, 0.5 * nodes + 0.25)
        pairs = [(GridFunction(512, lo), GridFunction(512, up)) for lo, up in zip(lower, upper)]
        prob = demo_problem(512, zeta, gamma_variant=variant)
        got = lipschitz_check(prob, nodes, pairs)
        assert got == _node_probe(prob) == scalar_lipschitz_check(prob, nodes, NODE_PROBE_PAIRS)
        assert got.passed

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
        return np.array(ts), pairs

    @pytest.mark.parametrize("variant", GAMMA_VARIANTS)
    @pytest.mark.parametrize("rhs", RHS_CASES.values(), ids=RHS_CASES.keys())
    @pytest.mark.parametrize("n", (8, 64, 100, 512))
    def test_arbitrary_samples(self, monkeypatch, n, rhs, variant):
        prob = FdeProblem(rhs=rhs, n_intervals=n, gamma_variant=variant)
        ts, pairs = self._probes(n)
        want = scalar_lipschitz_check(prob, ts, [interpolated(u, v) for u, v in pairs])
        assert want.worst_at is not None
        # one run of every pair, then runs of 5 and 7 that straddle pairs
        for block in (fractional._PROBE_BLOCK, 5, 7):
            monkeypatch.setattr(fractional, "_PROBE_BLOCK", block)
            assert lipschitz_check(prob, ts, pairs) == want

    def test_tied_ratios_keep_the_first_maximum(self):
        # rhs = 2u gives the ratio 2.0 exactly at every informative sample of
        # every pair, so worst_at is the first informative sample of pair 1
        prob = FdeProblem(rhs=lambda t, u: 2.0 * u, n_intervals=16)
        zero, one = GridFunction.zeros(16), GridFunction(16, np.ones(17))
        pairs = [(zero, GridFunction.from_callable(lambda t: t, 16)), (zero, one)]
        ts = [0.0, 0.25, 0.5, 1.0]
        got = lipschitz_check(prob, ts, pairs)
        assert got == scalar_lipschitz_check(prob, ts, [interpolated(u, v) for u, v in pairs])
        assert got.worst_ratio == 2.0
        assert got.worst_at == (0.25, 0.0, 0.25)

    @staticmethod
    def _marked_rows():
        """Two pairs on 65 nodes and the nodes 2, 12 and 20 that the rhs
        singles out: row 0 is uninformative at 2 and 20, row 1 at 12. The
        marked informative samples are (1, 2), (0, 12) and (1, 20); the
        first in pair-then-sample order is (0, 12), though (1, 2) comes
        first column by column."""
        nodes = np.arange(65) / 64
        upper = np.ones((2, 65))
        upper[0, [2, 20]] = upper[1, 12] = 0.0
        return nodes, np.zeros((2, 65)), upper, nodes[[2, 12, 20]]

    def test_a_tie_in_an_earlier_row_of_a_later_block_wins(self, monkeypatch):
        nodes, lower, upper, marked = self._marked_rows()
        prob = FdeProblem(rhs=lambda t, u: np.where(np.isin(t, marked), 3.0, 1.0) * u, n_intervals=64)
        want = scalar_lipschitz_check(prob, nodes, row_pairs(nodes, lower, upper))
        assert want.worst_at == (float(nodes[12]), 0.0, 1.0)
        for block in (5, 7):
            monkeypatch.setattr(fractional, "_PROBE_BLOCK", block)
            assert rows_check(prob, nodes, lower, upper) == want

    def test_a_non_finite_difference_in_an_earlier_row_of_a_later_block_is_named(self, monkeypatch):
        nodes, lower, upper, marked = self._marked_rows()
        prob = FdeProblem(rhs=lambda t, u: np.where(np.isin(t, marked), np.nan, u), n_intervals=64)
        message = f"^rhs difference not finite at t = {float(nodes[12])!r}$"
        with pytest.raises(ArithmeticError, match=message):
            scalar_lipschitz_check(prob, nodes, row_pairs(nodes, lower, upper))
        for block in (5, 7):
            monkeypatch.setattr(fractional, "_PROBE_BLOCK", block)
            with pytest.raises(ArithmeticError, match=message):
                rows_check(prob, nodes, lower, upper)

    def test_a_run_across_two_pairs_reads_each_pair_at_its_own_t(self, monkeypatch):
        # two pairs on 65 nodes in runs of 7: samples 63..69 of the stream
        # are nodes 63 and 64 of pair 0 and nodes 0..4 of pair 1, and pair 0
        # is uninformative at node 0. Tripling the rhs at nodes 0 and 64 ties
        # (0, 64) and (1, 0) in that run, and (0, 64), at t = 1.0, comes
        # first; a NaN at node 0 alone is informative only at (1, 0), so the
        # run must read pair 1's samples at pair 1's own t to meet it
        monkeypatch.setattr(fractional, "_PROBE_BLOCK", 7)
        nodes = np.arange(65) / 64
        lower, upper = np.zeros((2, 65)), np.ones((2, 65))
        upper[0, 0] = 0.0
        marked = nodes[[0, 64]]
        tied = FdeProblem(lambda t, u: np.where(np.isin(t, marked), 3.0, 1.0) * u, n_intervals=64)
        want = scalar_lipschitz_check(tied, nodes, row_pairs(nodes, lower, upper))
        assert want.worst_at == (1.0, 0.0, 1.0)
        assert rows_check(tied, nodes, lower, upper) == want
        nan = FdeProblem(lambda t, u: np.where(t == 0.0, np.nan, u), n_intervals=64)
        message = r"^rhs difference not finite at t = 0\.0$"
        with pytest.raises(ArithmeticError, match=message):
            scalar_lipschitz_check(nan, nodes, row_pairs(nodes, lower, upper))
        with pytest.raises(ArithmeticError, match=message):
            rows_check(nan, nodes, lower, upper)


class TestBoundedMemory:
    """A solve holds the weights, the nodes, three iterates and one step's
    or one probe run's work arrays, whatever its step count; the weights'
    build holds the table and one node array more."""

    def test_a_build_holds_the_table_and_one_node_array(self):
        n = 2**16
        np.fft.rfft(np.ones(8))  # numpy imports np.fft on first use: not the build's memory
        tracemalloc.start()
        try:
            w = fractional._build_weights(0.9, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The moments use four n-float arrays, reused in turn; two of them
        # become the column and the band, and the spectrum (N + 1 complex) is
        # built once the other two are freed: 4 node arrays at either peak,
        # and the finiteness mask. Whole-array expressions peaked at 11.1.
        table = w.start.nbytes + w.band.nbytes + w.band_spectrum.nbytes
        assert peak <= table + 8 * (n + 1)

    @staticmethod
    def _solve_peaks(prob, monkeypatch):
        """The solve's trace, failed or not, and the bytes tracemalloc sees
        at the peak of its probe and at the peak of its steps, beyond the
        problem's weights and nodes."""
        probe = []

        def steps_alone(*args, **kwargs):
            probe.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            return iterate(*args, **kwargs)

        monkeypatch.setattr(fractional, "iterate", steps_alone)
        tracemalloc.start()
        try:
            try:
                trace = solve_fde(prob)[0]
            except ConvergenceFailure as failure:
                trace = failure.trace
            steps = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return trace, probe[0], steps

    def test_a_solve_holds_three_iterates_and_one_phase_of_work(self, monkeypatch):
        n = 2**16
        node = 8 * (n + 1)
        run = 8 * min(fractional._PROBE_BLOCK, 3 * (n + 1))
        # The probe ends before the first step. A probe run holds its t,
        # lower, upper, the two rhs results and the ratios, the gap and two
        # boolean masks: under 8 run arrays.
        probe_budget = 8 * run
        # A step holds the window's three iterates: the two it keeps into
        # the step and the one it builds. Its work is the rhs values, freed
        # after the forward transform, the spectrum (N + 1 complex),
        # multiplied in place, and the 2N-float convolution: the spectrum
        # and the convolution, 4 node arrays, at its peak, before the
        # iterate it builds is allocated. The step that held the rhs values
        # through both transforms and built the spectrum product out of
        # place peaked at 5. Every iterate the trace kept beyond these
        # would add a node array per step.
        step_budget = 2 * node + 4 * node + node // 8
        base, base_probe, base_steps = self._solve_peaks(demo_problem(n), monkeypatch)
        # residual_tol 0 stops no run: twice the steps, to the budget's end
        policy = StoppingPolicy(residual_tol=0.0, max_iterations=2 * base.steps)
        doubled, doubled_probe, doubled_steps = self._solve_peaks(
            demo_problem(n, policy=policy), monkeypatch
        )
        assert (base.steps, doubled.steps) == (10, 20)
        assert len(base.iterates) == len(doubled.iterates) == 3
        assert max(base_probe, doubled_probe) <= probe_budget
        assert max(base_steps, doubled_steps) <= step_budget
        assert doubled_steps <= base_steps + 16 * 1024

    @staticmethod
    def _probe_peak(n):
        """Bytes tracemalloc sees at the peak of the solver's probe, beyond
        the problem's nodes and weights, which are built with it."""
        prob = demo_problem(n)
        tracemalloc.start()
        try:
            report = _node_probe(prob)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        return peak

    def test_probe_memory_does_not_grow_with_the_grid(self):
        # the peak is a few arrays of one run, the run's own t, lower and
        # upper values included (3.6 MB here at every size); Python's own
        # small objects move it by a few hundred bytes. Rows of every pair
        # at every node, built before the walk, added 6 (N + 1) floats; a
        # 2-D block of all three pairs made it 6.7 MB at N = 65535 beyond
        # those, and masked copies of the whole stack 25.6 MB and 102 MB
        one_run_per_pair = self._probe_peak(65535)
        small, large = self._probe_peak(2**17), self._probe_peak(2**19)
        assert large <= small + 16 * 1024
        assert max(one_run_per_pair, small) < 8 * (8 * fractional._PROBE_BLOCK)


class TestWindowedSolve:
    """solve_fde keeps (r_0, r_(m-1), r_m) of the orbit: the window of the
    run that keeps every iterate and is audited after it ended."""

    @pytest.mark.parametrize("variant", GAMMA_VARIANTS)
    @pytest.mark.parametrize("zeta", (0.5, 0.9, 2.0))
    @pytest.mark.parametrize("n", (64, 512))
    def test_window_equals_the_full_orbit(self, n, zeta, variant):
        prob = demo_problem(n, zeta, gamma_variant=variant)
        trace, solution = solve_fde(prob)
        full = full_orbit(prob, trace.alpha_used)
        assert_window_of(trace, full)
        # at N = 512 and zeta = 2.0 the orbit is not monotone, and preserved
        # is False in all three runs
        assert solution is trace.iterates[-1] and trace.converged

    def test_a_failed_probe_and_a_failed_run_keep_the_window(self):
        prob = FdeProblem(lambda t, u: u, n_intervals=64)
        with pytest.warns(UserWarning, match="Lipschitz"):
            trace, _ = solve_fde(prob)
        assert trace.alpha_used is None
        assert_window_of(trace, full_orbit(prob, None))
        prob = demo_problem(64, policy=StoppingPolicy(residual_tol=0.0, max_iterations=1))
        with pytest.raises(ConvergenceFailure) as caught:
            solve_fde(prob)
        one = caught.value.trace
        assert one.steps == 1 and one.iterates[0] is one.iterates[1]
        assert_window_of(one, full_orbit(prob, 0.5))

    def test_the_order_is_audited_once_per_step(self, monkeypatch):
        calls = []
        monkeypatch.setattr(fractional, "pointwise_leq", lambda u, v: calls.append(1) or pointwise_leq(u, v))
        trace, _ = solve_fde(demo_problem(64))
        assert len(calls) == trace.steps


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

    def test_problem_nodes_are_built_once_and_read_only(self):
        prob = demo_problem(64)
        assert prob.nodes is prob.nodes
        assert np.array_equal(prob.nodes, GridFunction.zeros(64).nodes)
        with pytest.raises(ValueError, match="read-only"):
            prob.nodes[1] = 0.5
