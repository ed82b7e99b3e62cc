"""Child driver: one fresh interpreter per benchmark operation or pass.

    child.py OUT sweep INPUTS          fde-sweep library pass, untraced
    child.py --trace OUT sweep INPUTS  the same pass with timing wrappers
    child.py --trace OUT cli ARGV...   one relfix CLI command with wrappers

Untraced CLI commands do not come here; the harness runs them as
``python -m relfix.cli``. Results go to OUT as JSON, so standard output
stays the program's own.
"""

from __future__ import annotations

import time

_START = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from relfix import cli, fractional  # noqa: E402

IMPORT_S = time.perf_counter() - _START


def sweep(inputs: dict, call) -> list[dict]:
    """Solve every (zeta, variant) of the inputs; each solve is one operation."""
    records = []
    for zeta, variant in inputs["solves"]:
        start = time.perf_counter()
        try:
            prob = fractional.demo_problem(inputs["grid"], zeta, gamma_variant=variant)
            trace, solution = call("fractional.solve_fde", fractional.solve_fde, prob)
        except Exception as exc:  # reported as a failed operation by the harness
            records.append({"zeta": zeta, "variant": variant, "error": repr(exc)})
            continue
        seconds = time.perf_counter() - start
        records.append(
            {
                "zeta": zeta,
                "variant": variant,
                "seconds": seconds,
                "iterations": trace.steps,
                "converged": trace.converged,
                "values": solution.values.astype("<f8").tobytes().hex(),
            }
        )
    return records


def main(argv: list[str]) -> None:
    traced = argv[0] == "--trace"
    if traced:
        argv = argv[1:]
    out, mode, rest = Path(argv[0]), argv[1], argv[2:]
    doc: dict = {"import_s": IMPORT_S}
    tracer = None
    if traced:
        from tracer import Tracer, install

        tracer = Tracer()
        weights = install(tracer)
        call = tracer.span
    else:
        def call(_name, fn, *args):
            return fn(*args)

    if mode == "sweep":
        doc["solves"] = sweep(json.loads(Path(rest[0]).read_text()), call)
    elif mode == "cli":
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            try:
                doc["exit"] = call("cli.run", cli.run, rest)
            except SystemExit as exc:  # argparse rejects the command line
                doc["exit"] = exc.code
        doc["stdout"] = buf.getvalue()
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    if tracer is not None:
        doc["trace"] = tracer.summary(weights)
    out.write_text(json.dumps(doc))


if __name__ == "__main__":
    main(sys.argv[1:])
