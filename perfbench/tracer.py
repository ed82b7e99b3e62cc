"""In-process span recorder for the traced benchmark pass.

Timing wrappers are installed by rebinding the module attributes that relfix
looks up at call time, so the program itself is unchanged. Every wrapped call
is a span with a parent (the innermost enclosing wrapped call). A per-call
record list would need about a gigabyte for the 8.5 million spans of the n=3
oracle sweep, so spans are folded as they close: per call path (the tuple of
span names from the root) the tracer keeps calls, total time and self time,
where self time is the span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Any, Callable, Optional

# first failing hypothesis, keyed by the prefix of the reason string that
# finite_oracle.hypotheses_hold returns
REJECTION_PREFIXES = (
    ("(g1)", "g1"),
    ("(g2)", "g2"),
    ("(g3)", "g3"),
    ("relation not closed", "not_closed"),
    ("seed set empty", "seed_empty"),
    ("contraction fails", "contraction"),
    ("hypotheses hold", "pass"),
)


class Tracer:
    """Span stack plus folded per-path statistics and named counters."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.stack: list[list[Any]] = []  # frames: [path, child_seconds]
        self.paths: dict[tuple[str, ...], list[float]] = {}  # [calls, s, self_s]
        self.counters: Counter[str] = Counter()
        self.reasons: Counter[str] = Counter()
        self.structural_keys: set[tuple[Any, Any]] = set()
        self.weight_tables: dict[int, Any] = {}

    def _close(self, path: tuple[str, ...], frame: list[Any], elapsed: float) -> None:
        if self.stack:
            self.stack[-1][1] += elapsed
        rec = self.paths.get(path)
        if rec is None:
            rec = self.paths[path] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        on_result: Optional[Callable[[tuple, Any], None]] = None,
    ) -> Callable[..., Any]:
        stack, clock, close = self.stack, self.clock, self._close

        def traced(*args: Any, **kwargs: Any) -> Any:
            path = stack[-1][0] + (name,) if stack else (name,)
            frame = [path, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                close(path, frame, elapsed)
            if on_result is not None:
                on_result(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Each ``next()`` on the returned iterator is one span of ``name``."""
        stack, clock, close, counters = self.stack, self.clock, self._close, self.counters
        items_key = name + ".items"

        def traced(*args: Any, **kwargs: Any) -> Any:
            inner = fn(*args, **kwargs)
            while True:
                path = stack[-1][0] + (name,) if stack else (name,)
                frame = [path, 0.0]
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    close(path, frame, clock() - start)
                    return
                close(path, frame, clock() - start)
                counters[items_key] += 1
                yield item

        traced.__wrapped__ = fn
        return traced

    def span(self, name: str, fn: Callable[..., Any], *args: Any) -> Any:
        """Call ``fn(*args)`` as one span (used for the entry points)."""
        return self.wrap(name, fn)(*args)

    # -- hooks that turn call results into counts -------------------------

    def on_hypotheses(self, args: tuple, result: Any) -> None:
        inst = args[0]
        self.reasons[result[1]] += 1
        self.structural_keys.add((inst.rel.pairs, inst.mapping))

    def on_weights(self, args: tuple, result: Any) -> None:
        # keep the table alive so its id stays unique for this process
        self.weight_tables.setdefault(id(result), result)

    def on_apply(self, args: tuple, result: Any) -> None:
        nodes = args[0].n_intervals + 1
        self.counters["fractional.kernel.flops_computed"] += 2 * nodes * nodes

    def on_iterate(self, args: tuple, result: Any) -> None:
        self.counters["picard.iterate.steps"] += result.steps

    # -- summary -----------------------------------------------------------

    def summary(self, weights_fn: Any = None) -> dict:
        """Per-name totals, counters and the folded call-path tree."""
        spans: dict[str, list[float]] = {}
        for path, (calls, total, own) in self.paths.items():
            rec = spans.setdefault(path[-1], [0, 0.0, 0.0])
            rec[0] += calls
            rec[1] += total
            rec[2] += own
        counters = Counter(self.counters)
        for reason, count in self.reasons.items():
            counters["finite_oracle.rejections." + classify_reason(reason)] += count
        counters["finite_oracle.structural_pairs"] += len(self.structural_keys)
        counters["fractional.weights.bytes_computed"] += sum(
            array_bytes(t) for t in self.weight_tables.values()
        )
        info = getattr(weights_fn, "cache_info", None)
        if info is not None:
            hits, misses = info().hits, info().misses
        else:
            misses = len(self.weight_tables)
            hits = spans.get("fractional.quadrature_weights", [0])[0] - misses
        counters["fractional.quadrature_weights.hits"] += hits
        counters["fractional.quadrature_weights.misses"] += misses
        return {
            "spans": {k: {"calls": v[0], "s": v[1], "self_s": v[2]} for k, v in spans.items()},
            "counters": dict(counters),
            "tree": [
                {"path": list(p), "calls": v[0], "s": v[1], "self_s": v[2]}
                for p, v in sorted(self.paths.items())
            ],
        }


def classify_reason(reason: str) -> str:
    for prefix, label in REJECTION_PREFIXES:
        if reason.startswith(prefix):
            return label
    return "other"


def array_bytes(obj: Any) -> int:
    """Bytes of the arrays an object holds (``nbytes`` of each field)."""
    fields = vars(obj).values() if hasattr(obj, "__dict__") else ()
    return sum(getattr(v, "nbytes", 0) for v in fields)


def install(tracer: Tracer) -> Callable[..., Any]:
    """Rebind relfix's call-time lookups to timing wrappers.

    Returns the unwrapped ``quadrature_weights``, whose cache the summary reads.
    """
    from relfix import cli, demos, finite_oracle, fractional, picard

    plan = [
        (finite_oracle, "hypotheses_hold", "finite_oracle.hypotheses_hold", tracer.on_hypotheses),
        (cli, "hypotheses_hold", "finite_oracle.hypotheses_hold", tracer.on_hypotheses),
        (finite_oracle, "contraction_alpha", "finite_oracle.contraction_alpha", None),
        (finite_oracle, "conclusion_holds", "finite_oracle.conclusion_holds", None),
        (cli, "conclusion_holds", "finite_oracle.conclusion_holds", None),
        (finite_oracle, "image_symmetric_connected", "finite_oracle.image_symmetric_connected", None),
        (finite_oracle, "is_connected", "relations.is_connected", None),
        (fractional, "quadrature_weights", "fractional.quadrature_weights", tracer.on_weights),
        (fractional, "apply_T", "fractional.apply_T", tracer.on_apply),
        (fractional, "demo_rhs", "fractional.rhs", None),
        (fractional, "lipschitz_check", "fractional.lipschitz_check", None),
        (fractional, "interpolate", "gridfn.interpolate", None),
        (fractional, "sup_diff", "gridfn.sup_diff", None),
        (fractional, "pointwise_leq", "gridfn.pointwise_leq", None),
        (fractional, "iterate", "picard.iterate", tracer.on_iterate),
        (cli, "iterate", "picard.iterate", tracer.on_iterate),
        (demos, "iterate", "picard.iterate", tracer.on_iterate),
        (picard, "is_preserving_sequence", "relations.is_preserving_sequence", None),
        (cli, "verify_g_properties", "gspace.verify_g_properties", None),
        (cli, "relation_pattern_report", "gspace.relation_pattern_report", None),
        (cli, "estimate_contraction_factor", "gspace.estimate_contraction_factor", None),
        (demos, "estimate_contraction_factor", "gspace.estimate_contraction_factor", None),
        (cli, "render_residual_plot", "svgplot.render_residual_plot", None),
    ]
    weights = fractional.quadrature_weights
    for module, attr, name, hook in plan:
        setattr(module, attr, tracer.wrap(name, getattr(module, attr), hook))
    finite_oracle.enumerate_instances = tracer.wrap_generator(
        "finite_oracle.enumerate_instances", finite_oracle.enumerate_instances
    )
    return weights
