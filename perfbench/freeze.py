#!/usr/bin/env python3
"""Freeze the reference outputs the benchmark gates compare against.

    PYTHONPATH=src python3 perfbench/freeze.py

Writes perfbench/reference/{oracle.json,cli.json,fde.json,fde.bin} from the
program in src/. The committed files were frozen from the commit that
introduced the benchmark; re-freezing from a later commit would let a changed
result pass its gate, so do it only when a result is meant to change.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import struct
import zlib

from relfix import cli, fractional
from relfix.finite_oracle import FiniteInstance, hypotheses_hold
from relfix.relations import FiniteRelation

import run

# the issue's acceptance table; the freeze refuses to write anything else
ACCEPTANCE_COUNTS = {
    "oracle --n 2": {"instances_checked": 40000, "hypotheses_satisfied": 1255, "uniqueness_candidates": 980},
    "oracle --n 3": {"instances_checked": 4251528, "hypotheses_satisfied": 77841, "uniqueness_candidates": 19521},
}
POOL_PER_SIZE = 8  # hypothesis-passing instances per size; as many random ones


def run_cli(argv: list[str]) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return {"exit": code, "stdout": json.loads(buf.getvalue())}


def freeze_oracle() -> dict:
    out = {}
    for cmd, _timed in run.ORACLE_COMMANDS + run.ORACLE_COMMANDS_REDUCED:
        (sweep,) = run_cli(cmd.split())["stdout"]["sweeps"]
        out[cmd] = {k: sweep[k] for k in ("instances_checked", "hypotheses_satisfied", "uniqueness_candidates")}
        if cmd in ACCEPTANCE_COUNTS and out[cmd] != ACCEPTANCE_COUNTS[cmd]:
            raise SystemExit(f"{cmd}: {out[cmd]} differs from the acceptance table")
    return out


def instance_pool(rng: random.Random) -> list[dict]:
    pool = []
    for n in (3, 4):
        passing, other = [], []
        while len(passing) < POOL_PER_SIZE or len(other) < POOL_PER_SIZE:
            pairs = [(r, s) for r in range(n) for s in range(n) if rng.random() < 0.5]
            mapping = tuple(rng.randrange(n) for _ in range(n))
            g = tuple(tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n))
            inst = FiniteInstance(n, g, FiniteRelation.from_pairs(n, pairs), mapping)
            bucket = passing if hypotheses_hold(inst)[0] else other
            if len(bucket) < POOL_PER_SIZE:
                doc = {"n": n, "pairs": [list(p) for p in sorted(pairs)], "map": list(mapping), "g": [list(r) for r in g]}
                bucket.append(doc)
        pool.extend(passing + other)
    return pool


def freeze_cli(work) -> dict:
    fixed = {}
    for cmd in run.CLI_FIXED:
        argv = cmd.split()
        if argv[0] == "example":
            argv += ["--svg", str(work / "example.svg"), "--force"]
        fixed[cmd] = run_cli(argv)
    points = {}
    for a in run.POINT_FIRST:
        for b in run.POINT_SECOND:
            key = run.point_key(a, b)
            points[key] = run_cli(["iterate", "--example", "2", f"--r0-point={key}"])
    instances = []
    for doc in instance_pool(random.Random("perfbench instance pool")):
        path = work / "instance.json"
        path.write_text(json.dumps(doc))
        instances.append(
            {
                "doc": doc,
                "verify": run_cli(["verify", "--instance", str(path)]),
                "iterate": [
                    run_cli(["iterate", "--instance", str(path), "--r0", str(r0)])
                    for r0 in range(doc["n"])
                ],
            }
        )
    return {"fixed": fixed, "points": points, "instances": instances}


def freeze_fde() -> tuple[dict, bytes]:
    keys = [(z, run.SWEEP_GRID, v) for z in run.SWEEP_ZETAS for v in run.VARIANTS]
    keys += [(z, g, "zeta_plus_one") for z in run.LARGE_ZETAS for g in (run.SWEEP_GRID, run.LARGE_GRID)]
    index, chunks, offset = {}, [], 0
    for zeta, grid, variant in keys:
        key = run.fde_key(zeta, grid, variant)
        if key in index:
            continue
        trace, solution = fractional.solve_fde(
            fractional.demo_problem(grid, zeta, gamma_variant=variant)
        )
        values = solution.values.tolist()
        index[key] = {"iterations": trace.steps, "offset": offset, "count": len(values)}
        chunks.append(struct.pack(f"<{len(values)}d", *values))
        offset += len(values)
    return index, zlib.compress(b"".join(chunks), 9)


def main() -> None:
    work = run.WORK / "freeze"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = run.REFERENCE_DIR
    out.mkdir(exist_ok=True)
    index, blob = freeze_fde()
    (out / "fde.json").write_text(json.dumps(index, indent=1, sort_keys=True) + "\n")
    (out / "fde.bin").write_bytes(blob)
    (out / "cli.json").write_text(json.dumps(freeze_cli(work), sort_keys=True) + "\n")
    (out / "oracle.json").write_text(json.dumps(freeze_oracle(), indent=1, sort_keys=True) + "\n")
    shutil.rmtree(work)


if __name__ == "__main__":
    main()
