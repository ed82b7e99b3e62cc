"""Self-test of the benchmark harness.

    python3 -m pytest perfbench/tests -q

Reduced-size runs of every workload must complete cleanly, every gate must
fail when its expected value is perturbed, and every per-layer metric must
appear in the traced output.
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def reduced_run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.1", "--trace", str(trace), "--reduced"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.fixture(scope="module")
def refs() -> run.References:
    return run.load_references()


def test_benchmark_json_matches_the_harness():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in run.PER_LAYER
    ]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_run_completes(workload):
    result = reduced_run(workload, 0)
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(name for name, _ in run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    result = reduced_run(workload, 1)
    assert result["correct"] is True and result["failed"] == 0
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert sorted(metrics) == sorted(name for name, _, _ in run.PER_LAYER)
    assert metrics["import.s"] > 0
    if workload == "oracle-acceptance":
        # oracle --n 2 (40,000 instances) plus the 216-instance g_max=0 slice
        calls = metrics["finite_oracle.hypotheses_hold.calls"]
        assert calls == metrics["finite_oracle.enumerate_instances.items"] == 40216
        assert sum(metrics[f"finite_oracle.rejections.{r}"] for r in run.REJECTIONS) == calls
        assert metrics["finite_oracle.rejections.pass"] == 1255 + 9
        assert metrics["fractional.rhs.calls"] == 0
    if workload in ("fde-large", "fde-sweep"):
        assert metrics["fractional.rhs.calls"] > 0
        assert metrics["fractional.kernel.flops_computed"] > 0
        assert metrics["finite_oracle.hypotheses_hold.calls"] == 0
    if workload == "cli-short":
        assert metrics["gspace.verify_g_properties.s"] > 0
        assert metrics["svgplot.render_residual_plot.s"] > 0


def oracle_output(counts: dict, violations: int = 0) -> str:
    return json.dumps(
        {"counterexample_count": violations, "uniqueness_violation_count": 0, "sweeps": [dict(counts)]}
    )


def test_oracle_gate_fires_on_each_perturbed_count(refs):
    expected = refs.oracle["oracle --n 3"]
    assert run.check_oracle(0, oracle_output(expected), expected) is None
    for key in expected:
        perturbed = dict(expected, **{key: expected[key] + 1})
        assert key in run.check_oracle(0, oracle_output(expected), perturbed)
    assert run.check_oracle(3, oracle_output(expected), expected) is not None
    assert run.check_oracle(0, oracle_output(expected, violations=1), expected) is not None
    assert run.check_oracle(0, "not json", expected) is not None


def test_fde_gate_fires_on_each_perturbed_value(refs):
    ref = refs.fde[run.fde_key(0.9, run.LARGE_GRID, "zeta_plus_one")]
    values = list(ref.values)
    assert run.check_fde(True, ref.iterations, values, ref) is None
    assert run.check_fde(True, ref.iterations + 1, values, ref) is not None
    assert run.check_fde(False, ref.iterations, values, ref) is not None
    assert run.check_fde(True, ref.iterations, values[:-1], ref) is not None
    nudged = values.copy()
    nudged[len(values) // 2] += 2 * run.FDE_TOLERANCE
    assert "sup-norm" in run.check_fde(True, ref.iterations, nudged, ref)
    nudged[len(values) // 2] = float("nan")
    assert run.check_fde(True, ref.iterations, nudged, ref) is not None


def test_fde_command_gate_reads_the_solution_file(refs, tmp_path):
    ref = refs.fde[run.fde_key(2.0, run.SWEEP_GRID, "zeta_plus_one")]
    csv = tmp_path / "solution.csv"
    csv.write_text("t,value\n" + "".join(f"{j},{v:.16e}\n" for j, v in enumerate(ref.values)))
    stdout = json.dumps({"converged": True, "iterations": ref.iterations})
    assert run.check_fde_command(0, stdout, csv, ref) is None
    assert run.check_fde_command(1, stdout, csv, ref) is not None
    shifted = run.FdeReference(ref.iterations, tuple(v + 1e-9 for v in ref.values))
    assert run.check_fde_command(0, stdout, csv, shifted) is not None
    assert run.check_fde_command(0, stdout, tmp_path / "missing.csv", ref) is not None


def test_cli_gate_fires_on_perturbed_output(refs, tmp_path):
    expected = refs.cli["fixed"]["verify --example 2"]
    stdout = json.dumps(expected["stdout"])
    assert run.check_cli(expected["exit"], stdout, expected) is None
    assert run.check_cli(expected["exit"] + 1, stdout, expected) is not None
    perturbed = json.loads(stdout)
    perturbed["seed_ok"] = not perturbed["seed_ok"]
    assert run.check_cli(expected["exit"], stdout, dict(expected, stdout=perturbed)) is not None
    svg = tmp_path / "plot.svg"
    assert run.check_cli(expected["exit"], stdout, expected, svg) == "no SVG written"
    svg.write_text("<svg>")
    assert run.check_cli(expected["exit"], stdout, expected, svg) is not None


def test_perturbed_reference_fails_a_whole_run(monkeypatch, tmp_path):
    ref_dir = tmp_path / "reference"
    shutil.copytree(run.REFERENCE_DIR, ref_dir)
    oracle = json.loads((ref_dir / "oracle.json").read_text())
    oracle["oracle --n 2"]["instances_checked"] += 1
    (ref_dir / "oracle.json").write_text(json.dumps(oracle))
    monkeypatch.setattr(run, "REFERENCE_DIR", ref_dir)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        result = run.measure("oracle-acceptance", 1, 0.1, False, True)
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert len(result.failures) == 1
    assert "instances_checked = 40000, expected 40001" in result.failures[0]


def test_seed_changes_only_the_seeded_workloads(refs, tmp_path):
    for workload in run.WORKLOADS:
        first = run.make_inputs(workload, 1, False, refs, tmp_path)
        first_text = [op.argv for op in first.ops], first.sweep_refs
        again = run.make_inputs(workload, 1, False, refs, tmp_path)
        assert ([op.argv for op in again.ops], again.sweep_refs) == first_text
        other = run.make_inputs(workload, 2, False, refs, tmp_path)
        changed = ([op.argv for op in other.ops], other.sweep_refs) != first_text
        assert changed == (workload in run.SEEDED_WORKLOADS)


def test_missing_source_tree_exits_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-short", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
