"""Test-only reference for the finite oracle: the one-by-one sweep.

``sweep_instances`` walks the instance stream and decides every instance
with ``reference_hypotheses``, ``conclusion_holds`` and the uniqueness
check, the brute-force definition the factored ``run_oracle`` must
reproduce exactly. ``reference_hypotheses`` is the hypothesis check written
as plain integer loops over one instance, independent of the oracle's
pattern table. The other verdict functions are looked up on the module at
call time, so a test that monkeypatches them changes both this reference
and ``run_oracle``.
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


def reference_hypotheses(inst):
    """``hypotheses_hold`` with its own loops: same verdict, same reason."""
    n, g, m = inst.n, inst.g_matrix, inst.mapping
    pairs, related = inst.rel.sorted_pairs, inst.rel.pairs

    for r, s in pairs:
        if r != s and g[r][s] == 0:
            return False, f"(g1) fails: g[{r}][{s}] = 0 on related distinct pair ({r}, {s})"

    for r, s in pairs:
        if abs(g[r][s]) != abs(g[s][r]):
            return False, f"(g2) fails: |g[{r}][{s}]| != |g[{s}][{r}]| on related pair ({r}, {s})"

    in_nbrs = [[] for _ in range(n)]
    for r, s in pairs:
        in_nbrs[s].append(r)
    for u in range(n):
        ins = in_nbrs[u]
        for r in ins:
            gru = abs(g[r][u])
            for t in ins:
                if gru > abs(g[r][t]) + abs(g[t][u]):
                    return False, f"(g3) fails on constrained triple ({r}, {u}, {t})"

    for r, s in pairs:
        if (m[r], m[s]) not in related:
            return False, f"relation not closed under the map: image of ({r}, {s}) escapes"

    if not any((u, m[u]) in related for u in range(n)):
        return False, "seed set empty: no u with (u, map(u)) related"

    alpha = finite_oracle.contraction_alpha(inst)
    if alpha is None:
        return False, "contraction fails on a related pair for every alpha in {1/4, 1/2, 3/4}"

    return True, (
        f"hypotheses hold at alpha = {alpha}; completeness and continuity are "
        "automatic on a finite carrier (discrete reading)"
    )


def sweep_instances(res, instances):
    """Decide each instance one by one and add it to ``res``."""
    for inst in instances:
        res.instances_checked += 1
        ok, reason = reference_hypotheses(inst)
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
