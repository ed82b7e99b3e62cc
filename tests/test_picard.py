import json
import math
import re

import numpy as np
import pytest

from relfix import cli
from relfix.demos import example1_run
from relfix.finite_oracle import (
    FiniteInstance, conclusion_holds, contraction_alpha, enumerate_instances, hypotheses_hold,
)
from relfix.picard import (
    IterationTrace,
    StoppingPolicy,
    a_priori_bound,
    iterate,
    trace_to_csv,
)
from relfix.relations import FiniteRelation, seed_set, universal_view

ABS_DIFF = lambda a, b: abs(a - b)
PAIRS = {(1, 0), (0, 0)}


class TestIterate:
    def test_instant_convergence(self):
        trace = iterate(lambda x: 0.0, ABS_DIFF, universal_view(), 0.0)
        assert trace.converged
        assert trace.iterates == (0.0, 0.0)
        assert trace.residuals == (0.0,)
        assert trace.steps == 1
        assert trace.fixed_point == 0.0

    def test_geometric_run(self):
        trace = iterate(
            lambda x: x / 2.0,
            ABS_DIFF,
            universal_view(),
            1.0,
            StoppingPolicy(residual_tol=1e-6, max_iterations=100),
            alpha=0.5,
        )
        assert trace.converged
        assert trace.alpha_used == 0.5
        assert trace.residuals[0] == 0.5
        for prev, cur in zip(trace.residuals, trace.residuals[1:]):
            assert cur == prev / 2.0
        # certificates dominate the later residuals they were issued for
        for m, cert in enumerate(trace.bound_certificates):
            assert cert == a_priori_bound(0.5, trace.residuals[0], m)
            for n in range(m + 1, len(trace.iterates)):
                gap = abs(trace.iterates[m] - trace.iterates[n])
                assert gap <= cert * (1.0 + 1e-12)

    def test_no_alpha_no_certificates(self):
        trace = iterate(lambda x: 0.0, ABS_DIFF, universal_view(), 1.0)
        assert trace.alpha_used is None
        assert trace.bound_certificates is None

    def test_budget_exhaustion_is_not_convergence(self):
        trace = iterate(
            lambda x: x / 2.0,
            ABS_DIFF,
            universal_view(),
            1.0,
            StoppingPolicy(residual_tol=1e-30, max_iterations=5),
        )
        assert not trace.converged
        assert trace.steps == 5

    @pytest.mark.parametrize("never", [False, np.False_], ids=["bool", "numpy-bool"])
    def test_uncertified_start_still_runs(self, never):
        trace = iterate(lambda x: 0.0, ABS_DIFF, lambda a, b: never, 1.0)
        assert trace.converged
        assert trace.certified is False
        assert trace.preserved is False

    @pytest.mark.parametrize(
        "smap, rel, g",
        [
            (lambda i: 0, FiniteRelation(2, PAIRS), ABS_DIFF),
            ((0, 0).__getitem__, lambda a, b: (a, b) in PAIRS, ABS_DIFF),
            ((0, 0).__getitem__, lambda a, b: np.bool_((a, b) in PAIRS), ABS_DIFF),
            (lambda i: 0, FiniteRelation(2, PAIRS), lambda a, b: abs(a - b)),
        ],
        ids=["finite-relation", "bound-method-map", "numpy-bool", "plain-function-g"],
    )
    def test_audits_on_any_relation_predicate(self, smap, rel, g):
        trace = iterate(smap, g, rel, 1)
        assert trace.iterates == (1, 0, 0)
        assert trace.certified is True
        assert trace.preserved is True

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5, float("nan")])
    def test_bad_alpha_is_rejected_before_the_first_step(self, alpha):
        applied = []
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            iterate(
                lambda x: applied.append(x) or x / 2.0,
                ABS_DIFF,
                universal_view(),
                1.0,
                alpha=alpha,
            )
        assert applied == []

    def test_overflow_aborts_with_step_index(self):
        with pytest.raises(ArithmeticError, match="diverged at step 1"):
            iterate(lambda x: x * 1e200, ABS_DIFF, universal_view(), 1.0)


class TestTraceRecord:
    def test_a_trace_cannot_be_edited_after_its_run(self):
        trace = example1_run(n=3)
        with pytest.raises(AttributeError):
            trace.residuals.append(9.0)
        with pytest.raises(AttributeError):
            trace.iterates.append(trace.fixed_point)
        assert trace.steps == len(trace.bound_certificates) == 3

    def test_certificates_are_read_off_the_first_residual(self):
        trace = example1_run(n=4)
        assert trace.bound_certificates == tuple(
            a_priori_bound(0.25, trace.residuals[0], m) for m in range(4)
        )
        assert trace._replace(alpha_used=None).bound_certificates is None
        # a replaced run re-derives its certificates
        edited = trace._replace(residuals=(2.0, 0.5))
        assert edited.bound_certificates == tuple(a_priori_bound(0.25, 2.0, m) for m in (0, 1))

    def test_certificates_are_not_a_field(self):
        trace = example1_run(n=2)
        assert IterationTrace._fields == (
            "iterates", "residuals", "alpha_used", "preserved", "converged", "certified"
        )
        with pytest.raises(TypeError):
            IterationTrace(*trace, trace.bound_certificates)
        with pytest.raises(ValueError):
            trace._replace(bound_certificates=(1.0, 1.0))


class TestAPrioriBound:
    def test_value(self):
        assert a_priori_bound(0.5, 1.0, 3) == 0.25
        assert a_priori_bound(0.25, 0.75, 0) == 1.0

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 1.5, -0.5])
    def test_alpha_domain(self, alpha):
        with pytest.raises(ValueError):
            a_priori_bound(alpha, 1.0, 0)

    def test_negative_residual_rejected(self):
        with pytest.raises(ValueError):
            a_priori_bound(0.5, -1.0, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            a_priori_bound(0.5, 1.0, -1)

    @pytest.mark.parametrize("g01", [math.nan, math.inf])
    def test_non_finite_residual_rejected(self, g01):
        with pytest.raises(ValueError, match="finite"):
            a_priori_bound(0.5, g01, 2)

    @pytest.mark.parametrize("m", [1.5, 2.0, True, "2"])
    def test_non_integer_index_rejected(self, m):
        with pytest.raises(ValueError, match="integer"):
            a_priori_bound(0.5, 1.0, m)


class TestTraceCsv:
    def test_format(self):
        trace = iterate(
            lambda x: x / 2.0,
            ABS_DIFF,
            universal_view(),
            1.0,
            StoppingPolicy(residual_tol=1e-3, max_iterations=50),
        )
        text = trace_to_csv(trace)
        lines = text.splitlines()
        assert lines[0] == "iteration,residual"
        assert len(lines) == trace.steps + 1
        row = re.compile(r"^\d+,\d\.\d{16}e[+-]\d{2,3}$")
        for line in lines[1:]:
            assert row.match(line), line
        assert text.endswith("\n")


class TestStoppingPolicy:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"residual_tol": -1e-300},
            {"residual_tol": -1.0},
            {"residual_tol": float("inf")},
            {"max_iterations": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            StoppingPolicy(**kwargs)

    @pytest.mark.parametrize("tol", [True, False, "1e-3", None, math.nan, math.inf])
    def test_tolerance_must_be_a_nonnegative_finite_real(self, tol):
        with pytest.raises(ValueError, match="residual_tol must be finite and nonnegative"):
            StoppingPolicy(residual_tol=tol)

    def test_zero_tolerance_runs_the_whole_budget(self):
        # the orbit sits at its fixed point from step 1 on: residual 0 is
        # not below a zero tolerance
        policy = StoppingPolicy(residual_tol=0.0, max_iterations=5)
        trace = iterate(lambda x: 0.0, ABS_DIFF, universal_view(), 1.0, policy)
        assert trace.residuals == (1.0, 0.0, 0.0, 0.0, 0.0)
        assert not trace.converged

    @pytest.mark.parametrize("steps", [2.5, 3.0, True, False, "10", None])
    def test_step_budget_must_be_an_int(self, steps):
        with pytest.raises(ValueError, match="max_iterations must be a positive integer"):
            StoppingPolicy(max_iterations=steps)


# a finite g-space that satisfies every hypothesis at alpha = 1/2, where the
# certificate bounds the residual tail but not the gap |g(r0, r2)|: no
# hypothesis reads g[0][2], as (0, 2) is related to nothing along the orbit
CERTIFICATE_GAP = {
    "n": 3,
    "pairs": [[0, 1], [1, 2], [2, 2]],
    "map": [1, 2, 2],
    "g": [[0, 2, 5], [2, 0, 1], [5, 1, 0]],
}


def instance_run(inst, r0, alpha):
    g = lambda i, j: float(inst.g_matrix[i][j])
    return g, iterate(inst.mapping.__getitem__, g, inst.rel, r0, alpha=alpha)


class TestWhatACertificateBounds:
    def test_the_gap_needs_the_triangle_inequality(self):
        inst = FiniteInstance.from_json_dict(CERTIFICATE_GAP)
        ok, reason = hypotheses_hold(inst)
        assert ok and "alpha = 1/2" in reason
        assert conclusion_holds(inst.pair)
        g, trace = instance_run(inst, 0, 0.5)
        assert trace.certified and trace.preserved and trace.converged
        assert trace.iterates == (0, 1, 2, 2) and trace.residuals == (2.0, 1.0, 0.0)
        assert trace.bound_certificates[0] == 4.0
        assert sum(trace.residuals) == 3.0 <= trace.bound_certificates[0]
        assert abs(g(trace.iterates[0], trace.iterates[2])) == 5.0 > trace.bound_certificates[0]

    def test_the_cli_accepts_the_instance(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(CERTIFICATE_GAP))
        assert cli.run(["verify", "--instance", str(path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hypotheses_hold"] and doc["conclusion_holds"]
        assert "alpha = 1/2" in doc["reason"]
        assert cli.run(["iterate", "--instance", str(path), "--r0", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["certified"] and doc["converged"] and doc["steps"] == 3

    def test_the_tail_is_bounded_on_every_satisfying_two_point_instance(self):
        # every satisfying instance of SweepSpec(2, 2, None), run from each seed
        instances = runs = 0
        for inst in enumerate_instances(2, 2):
            if not hypotheses_hold(inst)[0]:
                continue
            instances += 1
            alpha = float(contraction_alpha(inst))
            for r0 in seed_set(inst.rel, inst.mapping.__getitem__):
                trace = instance_run(inst, r0, alpha)[1]
                assert trace.certified and trace.converged
                for m, bound in enumerate(trace.bound_certificates):
                    assert sum(trace.residuals[m:]) <= bound, (inst, r0, m)
                runs += 1
        assert (instances, runs) == (1255, 1600)
