"""Command-line front end.

Subcommands: verify (hypothesis checks), iterate (Picard on a finite
instance or a plane scenario), solve-fde (fractional boundary-value
solver), oracle (finite model check), example (plane scenario figure
data). Exit codes: 0 success, 1 bad input (a malformed flag included), 2
hypothesis-check failure, 3 oracle found a counterexample. Output files are
never silently overwritten; pass --force.

Each subcommand imports only the engine it runs, when it runs (the README
lists which), so only solve-fde loads numpy. The engine functions the
handlers call through this module (``_ENGINE_NAMES``) stay attributes of
it: each resolves on first access (PEP 562), and the handlers read it here
on every call, so a rebinding, such as a test's monkeypatch or the traced
benchmark pass, takes effect.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, NoReturn, Optional, Sequence

if TYPE_CHECKING:
    from .demos import PlanePoint
    from .finite_oracle import FiniteInstance
    from .gspace import GFunctional
    from .picard import IterationTrace

# the engine functions the handlers call as attributes of this module, each
# with the module that defines it
_ENGINE_NAMES = {
    "hypotheses_hold": "finite_oracle",
    "conclusion_holds": "finite_oracle",
    "run_oracle": "finite_oracle",
    "verify_g_properties": "gspace",
    "relation_pattern_report": "gspace",
    "estimate_contraction_factor": "gspace",
    "iterate": "picard",
    "render_residual_plot": "svgplot",
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


def _write_text(path: str, text: str, force: bool) -> None:
    p = Path(path)
    if p.exists() and not force:
        raise FileExistsError(f"{path} exists; pass --force to overwrite")
    p.write_text(text)


def _load_instance(path: str) -> FiniteInstance:
    from .finite_oracle import FiniteInstance

    return FiniteInstance.from_json_dict(json.loads(Path(path).read_text()))


def _scenario(which: int) -> tuple[GFunctional, Callable[[PlanePoint], PlanePoint]]:
    from . import demos

    if which == 1:
        return demos.example1_g, demos.example1_map
    return demos.example2_g, demos.example2_map


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.instance is not None:
        inst = _load_instance(args.instance)
        ok, reason = _cli.hypotheses_hold(inst)
        doc = {
            "hypotheses_hold": ok,
            "reason": reason,
            "conclusion_holds": _cli.conclusion_holds(inst.pair) if ok else None,
        }
        out = json.dumps(doc, indent=2) + "\n"
        if args.out:
            _write_text(args.out, out, args.force)
        sys.stdout.write(out)
        return EXIT_OK if ok else EXIT_HYPOTHESIS_FAILURE

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
    report = _cli.verify_g_properties(g, rel, samples, tol=args.tol)
    pattern = _cli.relation_pattern_report(g, rel, samples, tol=args.tol)
    pairs = related_pairs(rel, samples)
    contraction = _cli.estimate_contraction_factor(g, smap, rel, pairs)
    seed_point = demos.PlanePoint(0.0, 1.0)
    seed_ok = rel(seed_point, smap(seed_point))
    hypotheses_pass = pattern.passed and contraction.factor < 1.0 and seed_ok
    doc = {
        "scenario": which,
        "g_properties": report.to_json_dict(),
        "relation_patterns": pattern.to_json_dict(),
        "contraction_on_relation": contraction.to_json_dict(),
        "seed_ok": seed_ok,
        "hypotheses_pass": hypotheses_pass,
    }
    if which == 2:
        witness = demos.example2_noncontraction_witness(10.0)
        doc["unrestricted_expansion"] = {
            "pair": [list(witness.pair[0]), list(witness.pair[1])],
            "ratio": witness.ratio,
        }
    out = json.dumps(doc, indent=2) + "\n"
    if args.out:
        _write_text(args.out, out, args.force)
    sys.stdout.write(out)
    return EXIT_OK if hypotheses_pass else EXIT_HYPOTHESIS_FAILURE


def _emit_trace(trace: IterationTrace, args: argparse.Namespace, title: str) -> None:
    from .picard import trace_to_csv

    if args.out:
        _write_text(args.out, trace_to_csv(trace), args.force)
    if args.svg:
        plot = _cli.render_residual_plot(trace.residuals, title)
        _write_text(args.svg, plot, args.force)


def _cmd_iterate(args: argparse.Namespace) -> int:
    from .picard import StoppingPolicy

    policy = StoppingPolicy(residual_tol=args.tol, max_iterations=args.max_iter)
    if args.instance is not None:
        inst = _load_instance(args.instance)
        if not 0 <= args.r0 < inst.n:
            raise ValueError(f"--r0 must be a ground index below {inst.n}")
        g = lambda i, j: float(inst.g_matrix[i][j])
        trace = _cli.iterate(inst.mapping.__getitem__, g, inst.rel, args.r0, policy)
    else:
        from . import demos

        start = [float(v) for v in args.r0_point.split(",")]
        if len(start) != 2:
            raise ValueError("--r0-point needs two comma-separated coordinates")
        point = demos.validate_point(start)
        g, smap = _scenario(args.example)
        rel = demos.first_coord_relation()
        trace = _cli.iterate(smap, g, rel, point, policy)
    _emit_trace(trace, args, "picard residuals")
    summary = {
        "steps": trace.steps,
        "converged": trace.converged,
        "certified": trace.certified,
        "preserved": trace.preserved,
        "final_residual": trace.residuals[-1],
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def _cmd_solve_fde(args: argparse.Namespace) -> int:
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
    if args.out:
        _write_text(args.out, grid_to_csv(solution), args.force)
    if args.residuals_out:
        _write_text(args.residuals_out, trace_to_csv(trace), args.force)
    if args.svg:
        _write_text(
            args.svg,
            _cli.render_residual_plot(trace.residuals, "solver residuals (sup norm)"),
            args.force,
        )
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
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    from .finite_oracle import default_sweeps

    spec = default_sweeps(args.n)[0]
    if args.g_max is not None:
        spec = spec._replace(g_max=args.g_max)
    if args.rel_cap is not None:
        spec = spec._replace(rel_count_cap=args.rel_cap)
    report = _cli.run_oracle([spec])
    out = json.dumps(report.to_json_dict(), indent=2) + "\n"
    if args.out:
        _write_text(args.out, out, args.force)
    sys.stdout.write(out)
    if report.counterexamples or report.uniqueness_violations:
        return EXIT_COUNTEREXAMPLE
    return EXIT_OK


def _cmd_example(args: argparse.Namespace) -> int:
    from . import demos

    if args.which == 1:
        trace = demos.example1_run(y0=args.y0, n=args.n)
        title = "scenario 1 residuals"
    else:
        trace = demos.example2_run(u0=args.u0, y0=args.y0, n=args.n)
        title = "scenario 2 residuals"
    _emit_trace(trace, args, title)
    summary = {
        "which": args.which,
        "steps": trace.steps,
        "final_point": list(trace.fixed_point),
        "final_residual": trace.residuals[-1],
        "certified": trace.certified,
        "preserved": trace.preserved,
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Raises ValueError on a rejected command line instead of exiting 2."""

    def error(self, message: str) -> NoReturn:
        raise ValueError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="relfix",
        description="relation-constrained fixed-point iteration toolkit",
    )
    parser.add_argument(
        "--config",
        help="JSON file holding {'subcommand': ..., <flag values>}; mirrors the flags",
    )
    sub = parser.add_subparsers(dest="subcommand")

    p_verify = sub.add_parser("verify", help="run hypothesis checks")
    group = p_verify.add_mutually_exclusive_group(required=True)
    group.add_argument("--example", type=int, choices=(1, 2))
    group.add_argument("--instance", help="finite instance JSON (n, pairs, map, g)")
    p_verify.add_argument("--tol", type=float, default=1e-12)
    p_verify.add_argument("--out", help="write the JSON report here")
    p_verify.add_argument("--force", action="store_true")

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
    p_iter.add_argument("--force", action="store_true")

    p_fde = sub.add_parser("solve-fde", help="solve the fractional boundary problem")
    p_fde.add_argument("--zeta", type=float, default=0.9)
    p_fde.add_argument("--grid", type=int, default=512)
    p_fde.add_argument("--tol", type=float, default=1e-12)
    p_fde.add_argument("--max-iter", type=int, default=1000)
    p_fde.add_argument("--gamma-variant", choices=("alpha", "zeta"), default="zeta")
    p_fde.add_argument("--out", help="solution CSV path")
    p_fde.add_argument("--residuals-out", help="residual CSV path")
    p_fde.add_argument("--svg", help="residual plot path")
    p_fde.add_argument("--force", action="store_true")

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
    p_oracle.add_argument("--force", action="store_true")

    p_ex = sub.add_parser("example", help="plane scenario figure data")
    p_ex.add_argument("--which", type=int, choices=(1, 2), required=True)
    p_ex.add_argument("--n", type=int, default=30, help="number of steps")
    p_ex.add_argument("--y0", type=float, default=1.0)
    p_ex.add_argument("--u0", type=float, default=0.0)
    p_ex.add_argument("--out", help="residual CSV path")
    p_ex.add_argument("--svg", help="residual plot path")
    p_ex.add_argument("--force", action="store_true")

    return parser


# the flags that take no value; a config gives them, and only them, as true
# or false
_SWITCHES = ("--force",)


def _argv_from_config(path: str) -> list[str]:
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError("config must be a JSON object")
    if "subcommand" not in doc:
        raise ValueError("config must name a 'subcommand'")
    argv = [str(doc["subcommand"])]
    for key, value in doc.items():
        if key == "subcommand":
            continue
        flag = "--" + key.replace("_", "-")
        if value is None:
            raise ValueError(f"config value for {key!r} is null; leave the key out")
        switch = flag in _SWITCHES
        if switch != isinstance(value, bool):
            kind = "true or false" if switch else "a value, not true or false"
            raise ValueError(f"config value for {key!r} must be {kind}, got {value!r}")
        if not switch:
            argv.extend([flag, str(value)])
        elif value:
            argv.append(flag)
    return argv


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
        if args.config is not None:
            if args.subcommand is not None:
                raise ValueError("give either --config or a subcommand, not both")
            args = parser.parse_args(_argv_from_config(args.config))
        if args.subcommand is None:
            parser.print_usage(sys.stderr)
            return 2
        return _HANDLERS[args.subcommand](args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
