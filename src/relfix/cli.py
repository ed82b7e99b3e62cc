"""Command-line front end.

Subcommands: verify (hypothesis checks), iterate (Picard on a finite
instance or a plane scenario), solve-fde (fractional boundary-value
solver), oracle (finite model check), example (plane scenario figure
data). Exit codes: 0 success, 1 bad input (a malformed flag included) or
a failed allocation, 2 hypothesis-check failure or no subcommand given, 3
oracle found a counterexample or a uniqueness violation.

Output files are never overwritten without --force, and never partly
written: before any work, ``run`` refuses an existing output, one file
named by two flags, a directory, or a path whose directory is missing; it
renders every file before writing the first. Only an OS error met while
writing, such as a full disk, leaves the files written before it.

Each subcommand imports only the engine it runs, when it runs, so only
solve-fde loads numpy. The engine functions the handlers call through this
module (``_ENGINE_NAMES``) stay attributes of it: each resolves on first
access (PEP 562), and the handlers read it here on every call, so a
rebinding, such as a test's monkeypatch or the traced pass, takes effect.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NoReturn, Optional, Sequence

if TYPE_CHECKING:
    from .demos import PlanePoint
    from .finite_oracle import FiniteInstance

from . import _MODULE_OF

# the engine functions the handlers call as attributes of this module, each with
# its module from the package's table; svgplot's is the one the package lacks
_ENGINE_NAMES = {
    name: _MODULE_OF.get(name, "svgplot")
    for name in (
        "hypotheses_hold",
        "conclusion_holds",
        "run_oracle",
        "verify_g_properties",
        "relation_pattern_report",
        "estimate_contraction_factor",
        "iterate",
        "render_residual_plot",
    )
}


def __getattr__(name: str) -> Any:
    module = _ENGINE_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    # bind the engine's own function, as an import at start-up would have: a
    # wrapper put on the engine module since (it carries __wrapped__, as
    # functools.wraps sets) intercepts the engine's own calls, not the CLI's
    while hasattr(value, "__wrapped__"):
        value = value.__wrapped__
    globals()[name] = value
    return value


# this module; its attribute reads fall back to __getattr__
_cli = sys.modules[__name__]

EXIT_OK = 0
EXIT_HYPOTHESIS_FAILURE = 2
EXIT_COUNTEREXAMPLE = 3


# a handler's exit code, JSON document and the render of each output file by
# path; a flag left out gives the path None, which is not written
_Outcome = tuple[int, Any, dict[Optional[str], Callable[[], str]]]


def _vet_outputs(args: argparse.Namespace) -> None:
    """Refuse, before any work, an output that could not be written whole."""
    paths = [vars(args).get(flag) for flag in ("out", "residuals_out", "svg")]
    if "" in paths:
        raise ValueError("an output path is empty")
    paths = [path for path in paths if path is not None]
    if len({os.path.realpath(path) for path in paths}) < len(paths):
        raise ValueError(f"one file is named by two output flags: {', '.join(paths)}")
    for path in paths:
        if not args.force and os.path.exists(path):
            raise FileExistsError(f"{path} exists; pass --force to overwrite")
        if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
            raise ValueError(f"{path} is a directory, or its directory does not exist")


def _dumps(doc: Any) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _write(doc: Any, files: dict[Optional[str], Callable[[], str]]) -> None:
    """Render every file before writing the first, then print the document."""
    texts = {path: render() for path, render in files.items() if path is not None}
    for path, text in texts.items():
        Path(path).write_text(text)
    sys.stdout.write(_dumps(doc))


def _load_instance(path: str) -> FiniteInstance:
    from .finite_oracle import FiniteInstance

    try:
        return FiniteInstance.from_json_dict(json.loads(Path(path).read_text()))
    except RecursionError:  # json's answer to deep nesting: bad input, not a fault
        raise ValueError(f"{path}: JSON nested too deeply") from None
    except ValueError as exc:  # each refusal names the file once
        raise ValueError(f"{path}: {exc}") from None


def _scenario(which: int) -> tuple[Callable[..., float], Callable[[PlanePoint], PlanePoint]]:
    from . import demos

    if which == 1:
        return demos.example1_g, demos.example1_map
    return demos.example2_g, demos.example2_map


def _cmd_verify(args: argparse.Namespace) -> _Outcome:
    if args.instance is not None:
        inst = _load_instance(args.instance)
        ok, reason = _cli.hypotheses_hold(inst)
        doc = {
            "hypotheses_hold": ok,
            "reason": reason,
            "conclusion_holds": _cli.conclusion_holds(inst.pair) if ok else None,
        }
    else:
        from . import demos
        from .gspace import related_pairs

        which = args.example
        rel = demos.first_coord_relation()
        g, smap = _scenario(which)
        # deterministic probe set: a few columns of the plane, mixed heights;
        # includes the degenerate pair (1,5)/(2,5)
        samples = [
            demos.PlanePoint(float(a), float(v))
            for a in (0.0, 1.0, 2.0)
            for v in (0.0, 0.25, 1.0, 5.0)
        ]
        report = _cli.verify_g_properties(g, samples, tol=args.tol)
        pattern = _cli.relation_pattern_report(g, rel, samples, tol=args.tol)
        pairs = related_pairs(rel, samples)
        contraction = _cli.estimate_contraction_factor(g, smap, rel, pairs)
        seed_point = demos.PlanePoint(0.0, 1.0)
        seed_ok = rel(seed_point, smap(seed_point))
        ok = pattern.passed and contraction.factor < 1.0 and seed_ok
        doc = {
            "scenario": which,
            "g_properties": report.to_json_dict(),
            "relation_patterns": pattern.to_json_dict(),
            "contraction_on_relation": contraction.to_json_dict(),
            "seed_ok": seed_ok,
            "hypotheses_pass": ok,
        }
        if which == 2:
            witness = demos.example2_noncontraction_witness(10.0)
            doc["unrestricted_expansion"] = {
                "pair": [list(witness.pair[0]), list(witness.pair[1])],
                "ratio": witness.ratio,
            }
    code = EXIT_OK if ok else EXIT_HYPOTHESIS_FAILURE
    return code, doc, {args.out: lambda: _dumps(doc)}


def _cmd_iterate(args: argparse.Namespace) -> _Outcome:
    from ._records import integer
    from .picard import StoppingPolicy, trace_to_csv

    policy = StoppingPolicy(residual_tol=args.tol, max_iterations=args.max_iter)
    if args.instance is not None:
        inst = _load_instance(args.instance)
        if not inst.n:
            raise ValueError(f"{args.instance}: the instance's ground set is empty: no --r0 exists")
        message = "--r0 must be a ground index in 0..{0}, got {value!r}"
        r0 = integer(args.r0, message, inst.n - 1, at_least=0, below=inst.n)
        g = lambda i, j: float(inst.g_matrix[i][j])
        trace = _cli.iterate(inst.mapping.__getitem__, g, inst.rel, r0, policy)
    else:
        from . import demos

        start = [float(v) for v in args.r0_point.split(",")]
        if len(start) != 2:
            raise ValueError("--r0-point needs two comma-separated coordinates")
        point = demos.validate_point(start)
        g, smap = _scenario(args.example)
        rel = demos.first_coord_relation()
        trace = _cli.iterate(smap, g, rel, point, policy)
    summary = {
        "steps": trace.steps,
        "converged": trace.converged,
        "certified": trace.certified,
        "preserved": trace.preserved,
        "final_residual": trace.residuals[-1],
    }
    return EXIT_OK, summary, {
        args.out: lambda: trace_to_csv(trace),
        args.svg: lambda: _cli.render_residual_plot(trace.residuals, "picard residuals"),
    }


def _cmd_solve_fde(args: argparse.Namespace) -> _Outcome:
    from . import fractional
    from .gridfn import grid_to_csv
    from .picard import StoppingPolicy, trace_to_csv

    policy = StoppingPolicy(residual_tol=args.tol, max_iterations=args.max_iter)
    variant = "alpha_plus_one" if args.gamma_variant == "alpha" else "zeta_plus_one"
    prob = fractional.demo_problem(
        n_intervals=args.grid, zeta=args.zeta, policy=policy, gamma_variant=variant
    )
    try:
        trace, solution = fractional.solve_fde(prob)
    except fractional.ConvergenceFailure as exc:
        # a RuntimeError, which run() leaves alone; the budget is bad input
        raise ArithmeticError(str(exc)) from exc
    r1, r2 = fractional.boundary_residuals(solution)
    summary = {
        "zeta": prob.zeta,
        "grid": prob.n_intervals,
        "gamma_variant": prob.gamma_variant,
        "regime": prob.regime_note,
        "iterations": trace.steps,
        "converged": trace.converged,
        "final_residual": trace.residuals[-1],
        "boundary_residuals": [r1, r2],
    }
    return EXIT_OK, summary, {
        args.out: lambda: grid_to_csv(solution),
        args.residuals_out: lambda: trace_to_csv(trace),
        args.svg: lambda: _cli.render_residual_plot(trace.residuals, "solver residuals (sup norm)"),
    }


def _cmd_oracle(args: argparse.Namespace) -> _Outcome:
    from .finite_oracle import default_sweep

    spec = default_sweep(args.n)
    if args.g_max is not None:
        spec = spec._replace(g_max=args.g_max)
    if args.rel_cap is not None:
        spec = spec._replace(rel_count_cap=args.rel_cap)
    sweep = _cli.run_oracle(spec)
    doc = {
        "total_checked": sweep.instances_checked,
        # each listed document stands for its pair's satisfying instances
        "counterexample_count": sum(doc["instances"] for doc in sweep.counterexamples),
        "uniqueness_violation_count": sum(doc["instances"] for doc in sweep.uniqueness_violations),
        "sweeps": [sweep.to_json_dict()],
    }
    found = sweep.counterexamples or sweep.uniqueness_violations
    code = EXIT_COUNTEREXAMPLE if found else EXIT_OK
    return code, doc, {args.out: lambda: _dumps(doc)}


def _cmd_example(args: argparse.Namespace) -> _Outcome:
    from . import demos
    from .picard import trace_to_csv

    title = f"scenario {args.which} residuals"
    if args.which == 1:
        trace = demos.example1_run(y0=args.y0, n=args.n)
    else:
        trace = demos.example2_run(u0=args.u0, y0=args.y0, n=args.n)
    summary = {
        "which": args.which,
        "steps": trace.steps,
        "final_point": list(trace.fixed_point),
        "final_residual": trace.residuals[-1],
        "certified": trace.certified,
        "preserved": trace.preserved,
    }
    return EXIT_OK, summary, {
        args.out: lambda: trace_to_csv(trace),
        args.svg: lambda: _cli.render_residual_plot(trace.residuals, title),
    }


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a rejected command line instead of exiting 2."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(f"{self.prog}: {message}")

    def convert_arg_line_to_args(self, arg_line: str) -> list[str]:
        # argparse would pass a blank line on as an empty argument and
        # "--n 2" as one unknown argument, naming neither the line nor the fix
        if not arg_line.strip() or arg_line.startswith("-") and " " in arg_line.split("=")[0]:
            self.error(f"argument file line {arg_line!r}: write one argument per line, "
                       "a flag with its value as --flag=value")
        return [arg_line]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relfix",
        description="relation-constrained fixed-point iteration toolkit",
        epilog="relfix @FILE reads arguments from FILE, one per line.",
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="subcommand")

    p_verify = sub.add_parser("verify", help="run hypothesis checks")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", type=int, choices=(1, 2))
    group.add_argument("--instance", help="finite instance JSON (n, pairs, map, g)")
    p_verify.add_argument("--tol", type=float, default=1e-12)
    p_verify.add_argument("--out", help="write the JSON report here")

    p_iter = sub.add_parser("iterate", help="run a Picard orbit")
    group = p_iter.add_mutually_exclusive_group(required=True)
    group.add_argument("--instance", help="finite instance JSON (n, pairs, map, g)")
    group.add_argument("--example", type=int, choices=(1, 2))
    p_iter.add_argument("--r0", type=int, default=0, help="start index (finite instance)")
    p_iter.add_argument(
        "--r0-point", default="0,1", help="start point 'a,b' (plane scenarios)"
    )
    p_iter.add_argument("--tol", type=float, default=1e-12)
    p_iter.add_argument("--max-iter", type=int, default=1000)
    p_iter.add_argument("--out", help="residual CSV path")
    p_iter.add_argument("--svg", help="residual plot path")

    p_fde = sub.add_parser("solve-fde", help="solve the fractional boundary problem")
    p_fde.add_argument("--zeta", type=float, default=0.9)
    p_fde.add_argument("--grid", type=int, default=512)
    p_fde.add_argument("--tol", type=float, default=1e-12)
    p_fde.add_argument("--max-iter", type=int, default=1000)
    p_fde.add_argument("--gamma-variant", choices=("alpha", "zeta"), default="zeta")
    p_fde.add_argument("--out", help="solution CSV path")
    p_fde.add_argument("--residuals-out", help="residual CSV path")
    p_fde.add_argument("--svg", help="residual plot path")

    p_oracle = sub.add_parser("oracle", help="finite model check")
    p_oracle.add_argument(
        "--n",
        type=int,
        choices=(2, 3, 4),
        required=True,
        help="carrier size; the n=4 default slice is about 2.2e10 instances, "
        "counted per (relation, map) pair in well under a second",
    )
    p_oracle.add_argument("--g-max", type=int, default=None)
    p_oracle.add_argument("--rel-cap", type=int, default=None)
    p_oracle.add_argument("--out", help="JSON report path")

    p_ex = sub.add_parser("example", help="plane scenario figure data")
    p_ex.add_argument("--which", type=int, choices=(1, 2), required=True)
    p_ex.add_argument("--n", type=int, default=30, help="number of steps")
    p_ex.add_argument("--y0", type=float, default=1.0)
    p_ex.add_argument("--u0", type=float, default=0.0)
    p_ex.add_argument("--out", help="residual CSV path")
    p_ex.add_argument("--svg", help="residual plot path")

    for p in sub.choices.values():
        p.add_argument("--force", action="store_true")
    return parser


_HANDLERS = {
    "verify": _cmd_verify,
    "iterate": _cmd_iterate,
    "solve-fde": _cmd_solve_fde,
    "oracle": _cmd_oracle,
    "example": _cmd_example,
}


def run(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return 2
        _vet_outputs(args)
        code, doc, files = _HANDLERS[args.subcommand](args)
        _write(doc, files)
        return code
    except (ValueError, ArithmeticError, OSError, MemoryError, RecursionError) as exc:
        # a MemoryError may carry no message; its name is then the message
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
