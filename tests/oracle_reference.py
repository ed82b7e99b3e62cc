"""Test-only reference for the finite oracle: the one-by-one sweep.

``sweep_instances`` walks the instance stream and decides every instance
with ``hypotheses_hold``, ``conclusion_holds`` and the uniqueness check, the
brute-force definition the factored ``run_oracle`` must reproduce exactly.
The verdict functions are looked up on the module at call time, so a test
that monkeypatches them changes both this reference and ``run_oracle``.
"""

from relfix import finite_oracle
from relfix.finite_oracle import SweepResult, SweepSpec, enumerate_instances

REASON_PREFIXES = (
    ("(g1)", "g1"),
    ("(g2)", "g2"),
    ("(g3)", "g3"),
    ("relation not closed", "not_closed"),
    ("seed set empty", "seed_empty"),
    ("contraction fails", "contraction"),
    ("hypotheses hold", "pass"),
)


def rejection_key(reason):
    """Histogram key of a ``hypotheses_hold`` reason string."""
    for prefix, key in REASON_PREFIXES:
        if reason.startswith(prefix):
            return key
    raise ValueError(f"unclassified reason {reason!r}")


def sweep_instances(res, instances):
    """Decide each instance one by one and add it to ``res``."""
    for inst in instances:
        res.instances_checked += 1
        ok, reason = finite_oracle.hypotheses_hold(inst)
        res.rejections[rejection_key(reason)] += 1
        if not ok:
            continue
        res.hypotheses_satisfied += 1
        inst.alpha = finite_oracle.contraction_alpha(inst)
        if not finite_oracle.conclusion_holds(inst):
            doc = inst.to_json_dict()
            doc["reason"] = reason
            res.counterexamples.append(doc)
        if finite_oracle.image_symmetric_connected(inst):
            res.uniqueness_candidates += 1
            if len(finite_oracle.fixed_points(inst)) != 1:
                doc = inst.to_json_dict()
                doc["fixed_points"] = finite_oracle.fixed_points(inst)
                res.uniqueness_violations.append(doc)
    return res


def reference_sweep(spec: SweepSpec) -> SweepResult:
    """The whole slice, one instance at a time."""
    instances = enumerate_instances(spec.n, spec.g_max, spec.rel_count_cap)
    return sweep_instances(SweepResult(spec=spec), instances)


def report_without_timing(res: SweepResult) -> dict:
    doc = res.to_json_dict()
    del doc["elapsed_seconds"]
    return doc
