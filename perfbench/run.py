#!/usr/bin/env python3
"""relfix benchmark: the oracle, the fractional solver and the CLI, end to end.

Run from the root of a checkout (stdlib only; the program runs from src/):

    python3 perfbench/run.py --workload fde-large --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24

Every operation runs in a fresh interpreter, one child at a time, so that no
two children compete for the cores. ``--trace 0`` times whole passes of the
workload and prints the end-to-end metrics. ``--trace 1`` alternates untraced
and traced passes and prints the per-layer metrics of the traced passes plus
the tracing overhead. ``--workload all`` does both for every workload. Every
output is checked against values frozen from the program by ``freeze.py``;
an operation that raises, exits with an unexpected code or fails its check
counts as failed. The last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import time
import zlib
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
REFERENCE_DIR = BENCH_DIR / "reference"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
CHILD = BENCH_DIR / "child.py"

WORKLOADS = ("oracle-acceptance", "fde-large", "fde-sweep", "cli-short")
SEEDED_WORKLOADS = ("fde-sweep", "cli-short")

SETUP_REPEATS = 9
RUN_LIMIT_S = 170.0  # every child is killed before a run passes this
FDE_TOLERANCE = 1e-10

# (command, whether it is an op_s sample); the two sweeps differ 100x in
# cost, so only the acceptance slice is timed as an operation
ORACLE_COMMANDS = (("oracle --n 2", False), ("oracle --n 3", True))
ORACLE_COMMANDS_REDUCED = (("oracle --n 2", False), ("oracle --n 3 --g-max 0", True))

LARGE_GRID = 4096
LARGE_ZETAS = (0.5, 0.9, 2.0)
SWEEP_GRID = 512
SWEEP_ZETAS = tuple(0.5 + k / 16 for k in range(25))  # [0.5, 2.0], exact in binary
SWEEP_DRAWS = 16
VARIANTS = ("alpha_plus_one", "zeta_plus_one")

CLI_FIXED = ("verify --example 1", "verify --example 2", "example --which 1", "example --which 2")
POINT_FIRST = tuple(k / 2 for k in range(-5, 6))  # |a| < 3
POINT_SECOND = tuple(k / 2 for k in range(1, 7))
CLI_POINTS = 2
CLI_INSTANCES_PER_SIZE = 2

END_TO_END = (
    ("wall_s", "s"),
    ("op_s.p50", "s"),
    ("op_s.p90", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

_SPAN_STATS = (
    ("finite_oracle.enumerate_instances", ("s",)),
    ("finite_oracle.hypotheses_hold", ("calls", "s", "self_s")),
    ("finite_oracle.contraction_alpha", ("calls", "s", "self_s")),
    ("finite_oracle.conclusion_holds", ("calls", "s", "self_s")),
    ("finite_oracle.image_symmetric_connected", ("calls", "s", "self_s")),
    ("relations.is_connected", ("calls", "s", "self_s")),
    ("fractional.quadrature_weights", ("calls", "s")),
    ("fractional.apply_T", ("calls", "s", "self_s")),
    ("fractional.rhs", ("calls", "s")),
    ("fractional.lipschitz_check", ("s", "self_s")),
    ("gridfn.interpolate", ("calls", "s")),
    ("picard.iterate", ("calls", "s", "self_s")),
    ("gridfn.sup_diff", ("calls", "s")),
    ("gridfn.pointwise_leq", ("calls", "s")),
    ("relations.is_preserving_sequence", ("calls", "s")),
    ("gspace.verify_g_properties", ("s",)),
    ("gspace.relation_pattern_report", ("s",)),
    ("gspace.estimate_contraction_factor", ("s",)),
    ("svgplot.render_residual_plot", ("s",)),
    ("fractional.solve_fde", ("calls", "s")),
    ("cli.run", ("calls", "s", "self_s")),
)
REJECTIONS = ("g1", "g2", "g3", "not_closed", "seed_empty", "contraction", "pass")
_COUNTERS = (
    ("finite_oracle.enumerate_instances.items", "count", "lower"),
    *((f"finite_oracle.rejections.{r}", "count", "higher" if r == "pass" else "lower") for r in REJECTIONS),
    ("fractional.quadrature_weights.hits", "count", "higher"),
    ("fractional.quadrature_weights.misses", "count", "lower"),
    ("fractional.weights.bytes_computed", "bytes", "lower"),
    ("fractional.kernel.flops_computed", "flop", "lower"),
    ("picard.iterate.steps", "count", "lower"),
)
PER_LAYER = (
    *(
        (f"{name}.{stat}", "count" if stat == "calls" else "s", "lower")
        for name, stats in _SPAN_STATS
        for stat in stats
    ),
    *_COUNTERS,
    ("finite_oracle.hypotheses_hold.pass_ratio", "ratio", "higher"),
    ("finite_oracle.structural_reuse_ratio", "ratio", "lower"),
    ("import.s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
)


# -- frozen references ------------------------------------------------------


class FdeReference(NamedTuple):
    iterations: int
    values: tuple[float, ...]


@dataclass
class References:
    oracle: dict  # command -> frozen sweep counts
    cli: dict  # {"fixed", "points", "instances"} -> frozen exit code and JSON
    fde: dict  # fde_key(...) -> FdeReference


def fde_key(zeta: float, grid: int, variant: str) -> str:
    return f"{zeta!r}/{grid}/{variant}"


def point_key(a: float, b: float) -> str:
    return f"{a!r},{b!r}"


def load_references(directory: Path = REFERENCE_DIR) -> References:
    index = json.loads((directory / "fde.json").read_text())
    blob = zlib.decompress((directory / "fde.bin").read_bytes())
    fde = {
        key: FdeReference(
            e["iterations"], struct.unpack_from(f"<{e['count']}d", blob, 8 * e["offset"])
        )
        for key, e in index.items()
    }
    return References(
        oracle=json.loads((directory / "oracle.json").read_text()),
        cli=json.loads((directory / "cli.json").read_text()),
        fde=fde,
    )


# -- correctness gates: each returns None or a failure message --------------


def check_oracle(code: int, stdout: str, expected: dict) -> Optional[str]:
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        doc = json.loads(stdout)
        (sweep,) = doc["sweeps"]
        violations = (doc["counterexample_count"], doc["uniqueness_violation_count"])
    except (ValueError, KeyError, TypeError):
        return "output is not an oracle report with one sweep"
    if violations != (0, 0):
        return f"counterexamples/uniqueness violations {violations}, expected (0, 0)"
    for key, want in expected.items():
        if sweep.get(key) != want:
            return f"{key} = {sweep.get(key)}, expected {want}"
    return None


def check_fde(converged: object, iterations: object, values, ref: FdeReference) -> Optional[str]:
    if converged is not True:
        return "solver did not converge"
    if iterations != ref.iterations:
        return f"{iterations} iterations, expected {ref.iterations}"
    if len(values) != len(ref.values):
        return f"{len(values)} node values, expected {len(ref.values)}"
    for j, (a, b) in enumerate(zip(values, ref.values)):
        if not abs(a - b) <= FDE_TOLERANCE:  # also catches NaN
            return f"node {j} is {abs(a - b):.3e} from the reference, over the sup-norm tolerance"
    return None


def check_fde_command(code: int, stdout: str, csv: Path, ref: FdeReference) -> Optional[str]:
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        doc = json.loads(stdout)
        lines = csv.read_text().splitlines()[1:]
        values = [float(line.split(",")[1]) for line in lines]
        return check_fde(doc["converged"], doc["iterations"], values, ref)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable solver output: {exc!r}"


def check_cli(code: int, stdout: str, expected: dict, svg: Optional[Path] = None) -> Optional[str]:
    if code != expected["exit"]:
        return f"exit code {code}, expected {expected['exit']}"
    try:
        doc = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if doc != expected["stdout"]:
        return "JSON output differs from the frozen output"
    if svg is not None:
        try:
            text = svg.read_text()
        except OSError:
            return "no SVG written"
        if not (text.startswith("<svg") and text.rstrip().endswith("</svg>")):
            return "SVG file is not a complete document"
    return None


# -- seeded inputs and operations -------------------------------------------


@dataclass
class Op:
    argv: list[str]
    check: Callable[[int, str], Optional[str]]
    timed: bool = True  # an op_s sample


@dataclass
class Inputs:
    ops: list[Op] = field(default_factory=list)  # CLI workloads
    sweep_file: Optional[Path] = None  # fde-sweep
    sweep_refs: list[FdeReference] = field(default_factory=list)


def make_inputs(workload: str, seed: int, reduced: bool, refs: References, work: Path) -> Inputs:
    """Build the operations of one run; only SEEDED_WORKLOADS read the seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "oracle-acceptance":
        commands = ORACLE_COMMANDS_REDUCED if reduced else ORACLE_COMMANDS
        return Inputs(
            ops=[
                Op(cmd.split(), partial(check_oracle, expected=refs.oracle[cmd]), timed)
                for cmd, timed in commands
            ]
        )
    if workload == "fde-large":
        grid = SWEEP_GRID if reduced else LARGE_GRID
        ops = []
        for zeta in LARGE_ZETAS:
            csv = work / f"solution-{zeta!r}.csv"
            argv = ["solve-fde", "--grid", str(grid), "--zeta", repr(zeta), "--out", str(csv), "--force"]
            ref = refs.fde[fde_key(zeta, grid, "zeta_plus_one")]
            ops.append(Op(argv, partial(check_fde_command, csv=csv, ref=ref)))
        return Inputs(ops=ops)
    if workload == "fde-sweep":
        zetas = rng.sample(SWEEP_ZETAS, 2 if reduced else SWEEP_DRAWS)
        solves = [(zeta, variant) for zeta in zetas for variant in VARIANTS]
        path = work / "sweep.json"
        path.write_text(json.dumps({"grid": SWEEP_GRID, "solves": solves}))
        return Inputs(
            sweep_file=path,
            sweep_refs=[refs.fde[fde_key(z, SWEEP_GRID, v)] for z, v in solves],
        )
    if workload == "cli-short":
        return Inputs(ops=_cli_ops(rng, reduced, refs, work))
    raise ValueError(f"unknown workload {workload!r}")


def _cli_ops(rng: random.Random, reduced: bool, refs: References, work: Path) -> list[Op]:
    ops = []
    for cmd in CLI_FIXED[::2] if reduced else CLI_FIXED:
        argv, svg = cmd.split(), None
        if argv[0] == "example":
            svg = work / f"example-{argv[-1]}.svg"
            argv += ["--svg", str(svg), "--force"]
        ops.append(Op(argv, partial(check_cli, expected=refs.cli["fixed"][cmd], svg=svg)))
    points = [(a, b) for a in POINT_FIRST for b in POINT_SECOND]
    for a, b in rng.sample(points, 1 if reduced else CLI_POINTS):
        key = point_key(a, b)
        argv = ["iterate", "--example", "2", f"--r0-point={key}"]
        ops.append(Op(argv, partial(check_cli, expected=refs.cli["points"][key])))
    pool = refs.cli["instances"]
    for n in (3,) if reduced else (3, 4):
        indices = [i for i, entry in enumerate(pool) if entry["doc"]["n"] == n]
        for idx in rng.sample(indices, 1 if reduced else CLI_INSTANCES_PER_SIZE):
            entry = pool[idx]
            path = work / f"instance-{idx}.json"
            path.write_text(json.dumps(entry["doc"]))
            r0 = rng.randrange(n)
            ops.append(Op(["verify", "--instance", str(path)], partial(check_cli, expected=entry["verify"])))
            ops.append(
                Op(
                    ["iterate", "--instance", str(path), "--r0", str(r0)],
                    partial(check_cli, expected=entry["iterate"][r0]),
                )
            )
    return ops


# -- children and passes ----------------------------------------------------


class _Deadline(Exception):
    pass


def _on_alarm(signum, frame):
    raise _Deadline()


@dataclass
class Child:
    code: int
    wall: float
    rss_mb: float
    stdout: str


@dataclass
class Pass:
    wall: float = 0.0  # sum of the children's wall times
    rss_mb: float = 0.0
    op_seconds: list[float] = field(default_factory=list)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    traces: list[dict] = field(default_factory=list)  # traced children's documents

    def add_child(self, child: Child) -> None:
        self.wall += child.wall
        self.rss_mb = max(self.rss_mb, child.rss_mb)


class Harness:
    """Runs children one at a time inside ``work`` and before ``deadline``."""

    def __init__(self, work: Path, limit_s: float = RUN_LIMIT_S) -> None:
        self.work = work
        self.deadline = time.monotonic() + limit_s
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))

    def run_child(self, argv: list[str]) -> Child:
        """One interpreter; wall time from spawn to reap, peak RSS from wait4."""
        remaining = int(self.deadline - time.monotonic())
        if remaining < 1:
            return Child(-1, 0.0, 0.0, "")
        out_path = self.work / "child.stdout"
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], stdout=out, cwd=ROOT, env=self.env)
            signal.alarm(remaining)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Deadline:
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted or terminated: leave no child behind
                proc.kill()
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.alarm(0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, out_path.read_text())

    def cli_pass(self, ops: list[Op], traced: bool) -> Pass:
        res = Pass()
        out = self.work / "trace.json"
        for op in ops:
            if traced:
                out.unlink(missing_ok=True)
                child = self.run_child([str(CHILD), "--trace", str(out), "cli", *op.argv])
                code, stdout = child.code, child.stdout
                if child.code == 0:
                    doc = json.loads(out.read_text())
                    code, stdout = doc["exit"], doc["stdout"]
                    res.traces.append(doc)
            else:
                child = self.run_child(["-m", "relfix.cli", *op.argv])
                code, stdout = child.code, child.stdout
            res.add_child(child)
            res.attempted += 1
            if op.timed:
                res.op_seconds.append(child.wall)
            failure = op.check(code, stdout)
            if failure:
                res.failures.append(f"{' '.join(op.argv)}: {failure}")
        return res

    def sweep_pass(self, inputs: Inputs, traced: bool) -> Pass:
        res = Pass()
        out = self.work / "sweep-out.json"
        out.unlink(missing_ok=True)
        flag = ["--trace"] if traced else []
        child = self.run_child([str(CHILD), *flag, str(out), "sweep", str(inputs.sweep_file)])
        res.add_child(child)
        res.attempted = len(inputs.sweep_refs)
        if child.code != 0:
            res.failures.append(f"sweep child exit code {child.code}")
            return res
        doc = json.loads(out.read_text())
        if traced:
            res.traces.append(doc)
        for rec, ref in zip(doc["solves"], inputs.sweep_refs):
            label = f"solve zeta={rec['zeta']!r} {rec['variant']}"
            if "error" in rec:
                res.failures.append(f"{label}: {rec['error']}")
                continue
            res.op_seconds.append(rec["seconds"])
            values = struct.unpack(f"<{len(rec['values']) // 16}d", bytes.fromhex(rec["values"]))
            failure = check_fde(rec["converged"], rec["iterations"], values, ref)
            if failure:
                res.failures.append(f"{label}: {failure}")
        if len(doc["solves"]) != res.attempted:
            res.failures.append(f"{len(doc['solves'])} solves reported, {res.attempted} sent")
        return res

    def run_pass(self, inputs: Inputs, traced: bool) -> Pass:
        if inputs.sweep_file is not None:
            return self.sweep_pass(inputs, traced)
        return self.cli_pass(inputs.ops, traced)

    def setup(self, workload: str, seed: int, reduced: bool, refs: References) -> tuple[Inputs, float]:
        """Fresh interpreter to ``import relfix`` done, plus input generation.

        perf_counter is the system-wide monotonic clock on Linux, so the
        child's reading at import done is comparable with the spawn time.
        """
        start = time.perf_counter()
        child = self.run_child(["-c", "import relfix, time; print(repr(time.perf_counter()))"])
        if child.code != 0:
            raise SystemExit(f"perfbench: importing relfix from {SRC} failed")
        import_s = float(child.stdout) - start
        start = time.perf_counter()
        inputs = make_inputs(workload, seed, reduced, refs, self.work)
        return inputs, import_s + time.perf_counter() - start


# -- statistics and metrics -------------------------------------------------


def quantile(samples: list[float], q: float) -> float:
    """Linear-interpolation quantile (statistics' "inclusive" method)."""
    xs = sorted(samples)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def describe(samples: list[float]) -> str:
    """Median plus the highest percentile with at least ten samples beyond it."""
    n = len(samples)
    text = f"median {statistics.median(samples):.6g}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        if n * (100.0 - p) / 100.0 >= 10:
            text += f", p{p:g} {quantile(samples, p / 100):.6g}"
            break
    else:
        text += ", no percentile has 10 samples beyond it"
    return f"{text}, n={n}"


def layer_metrics(traces: list[dict]) -> dict[str, float]:
    spans: dict[str, Counter] = {}
    counters: Counter = Counter()
    import_s = 0.0
    for doc in traces:
        import_s += doc["import_s"]
        for name, rec in doc["trace"]["spans"].items():
            spans.setdefault(name, Counter()).update(rec)
        counters.update(doc["trace"]["counters"])
    metrics: dict[str, float] = {}
    for name, stats in _SPAN_STATS:
        for stat in stats:
            metrics[f"{name}.{stat}"] = spans.get(name, Counter())[stat]
    for name, _unit, _better in _COUNTERS:
        metrics[name] = counters[name]
    hyp_calls = metrics["finite_oracle.hypotheses_hold.calls"]
    rejected = {r: counters[f"finite_oracle.rejections.{r}"] for r in REJECTIONS}
    metrics["finite_oracle.hypotheses_hold.pass_ratio"] = rejected["pass"] / hyp_calls if hyp_calls else 0.0
    # structural verdicts read only (relation, map): the closedness test runs
    # for every instance past g1-g3, the seed test for every one also closed
    closed_tests = hyp_calls - rejected["g1"] - rejected["g2"] - rejected["g3"]
    structural = (
        closed_tests
        + (closed_tests - rejected["not_closed"])
        + metrics["finite_oracle.conclusion_holds.calls"]
        + metrics["finite_oracle.image_symmetric_connected.calls"]
    )
    pairs = counters["finite_oracle.structural_pairs"]
    metrics["finite_oracle.structural_reuse_ratio"] = structural / pairs if pairs else 0.0
    metrics["import.s"] = import_s
    return metrics


def machine_record(numpy_version: str, workload: str, reduced: bool) -> dict:
    grids = {"fde-large": SWEEP_GRID if reduced else LARGE_GRID, "fde-sweep": SWEEP_GRID}
    grid = grids.get(workload)
    commit = None
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "relfix").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "last_level_cache": last_level_cache(),
        "weight_matrix_bytes_computed": None if grid is None else 8 * (grid + 1) ** 2,
        "weight_matrix_grid": grid,
    }


def last_level_cache() -> Optional[dict]:
    best = None
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2, "G": 1024**3}.get(size[-1:], 1)
        size_bytes = int(size.rstrip("KMG")) * scale
        if best is None or level > best["level"]:
            best = {"level": level, "bytes": size_bytes}
    return best


# -- runs -------------------------------------------------------------------


@dataclass
class Result:
    metrics: dict[str, tuple[float, str]]
    attempted: int
    failures: list[str]
    lines: list[str]


def measure(workload: str, seed: int, seconds: float, trace: bool, reduced: bool) -> Result:
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir(parents=True)
    harness = Harness(WORK)
    refs = load_references(REFERENCE_DIR)
    # untimed warm-up: writes the bytecode caches and reports the numpy version
    warm = harness.run_child(["-c", "import relfix, numpy; print(numpy.__version__)"])
    if warm.code != 0:
        raise SystemExit(f"perfbench: importing relfix from {SRC} failed")
    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        inputs, setup_s = harness.setup(workload, seed, reduced, refs)
        setups.append(setup_s)

    untraced: list[Pass] = []
    traced: list[Pass] = []
    started = time.perf_counter()
    while not untraced or time.perf_counter() - started < seconds:
        untraced.append(harness.run_pass(inputs, traced=False))
        if trace:
            traced.append(harness.run_pass(inputs, traced=True))

    passes = untraced + traced
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    walls = [p.wall for p in untraced]
    header = (
        f"workload {workload}  seed {seed}  trace {int(trace)}  "
        f"{'seed-dependent' if workload in SEEDED_WORKLOADS else 'seed-independent'} inputs  "
        f"passes {len(untraced)}  attempted {attempted}  failed {len(failures)}  "
        f"error_rate {len(failures) / attempted:.6g}"
    )
    lines = [header]
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        per_pass = [layer_metrics(p.traces) for p in traced]
        units = {name: unit for name, unit, _ in PER_LAYER}
        for name in per_pass[0]:
            metrics[name] = (statistics.median(m[name] for m in per_pass), units[name])
        traced_wall = statistics.median(p.wall for p in traced)
        untraced_wall = statistics.median(walls)
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
        metrics["trace.overhead_ratio"] = ((traced_wall - untraced_wall) / untraced_wall, "ratio")
        lines.append(
            f"  tracing: traced pass {traced_wall:.6g} s vs untraced {untraced_wall:.6g} s "
            f"(median of {len(traced)} each); per-layer values are medians over traced passes"
        )
        for name, (value, unit) in metrics.items():
            shown = value if isinstance(value, int) else f"{value:.6g}"
            lines.append(f"  {name:<48} {shown:<14} {unit}")
        (WORK / f"trace-{workload}.json").write_text(
            json.dumps([doc["trace"]["tree"] for p in traced for doc in p.traces])
        )
    else:
        ops = [s for p in untraced for s in p.op_seconds]
        samples = {
            "wall_s": walls,
            "op_s.p50": ops,
            "op_s.p90": ops,
            "peak_rss_mb": [p.rss_mb for p in untraced],
            "setup_s": setups,
        }
        values = {
            "wall_s": statistics.median(walls),
            "op_s.p50": statistics.median(ops),
            "op_s.p90": quantile(ops, 0.9),
            "peak_rss_mb": max(samples["peak_rss_mb"]),
            "setup_s": statistics.median(setups),
        }
        for name, unit in END_TO_END:
            metrics[name] = (values[name], unit)
            lines.append(f"  {name:<12} {values[name]:<12.6g} {unit:<3} {describe(samples[name])}")
    lines.append("  machine " + json.dumps(machine_record(warm.stdout.strip(), workload, reduced)))
    lines.extend(f"  FAILED {f}" for f in failures[:20])
    return Result(metrics, attempted, failures, lines)


def result_line(results: dict[str, Result]) -> str:
    single = len(results) == 1
    metrics = {
        (name if single else f"{workload}.{name}"): {"value": value, "unit": unit}
        for workload, res in results.items()
        for name, (value, unit) in res.metrics.items()
    }
    attempted = sum(r.attempted for r in results.values())
    failed = sum(len(r.failures) for r in results.values())
    return json.dumps(
        {"correct": failed == 0 and attempted > 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--reduced", action="store_true", help="small inputs, for the harness self-test"
    )
    args = parser.parse_args(argv)
    if not (SRC / "relfix" / "__init__.py").is_file():
        print(f"perfbench: no relfix source tree at {SRC / 'relfix'}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results: dict[str, Result] = {}
    if args.workload == "all":
        for workload in WORKLOADS:
            for trace in (False, True):
                res = measure(workload, args.seed, args.seconds, trace, args.reduced)
                print("\n".join(res.lines), flush=True)
                results[f"{workload}.trace{int(trace)}"] = res
    else:
        res = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.reduced)
        print("\n".join(res.lines))
        results[args.workload] = res
    print(result_line(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
