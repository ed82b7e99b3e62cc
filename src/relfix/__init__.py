"""relfix: relation-constrained fixed-point iteration toolkit.

Mechanical hypothesis checks for contraction arguments that only hold on a
binary relation, Picard iteration with certified geometric error bounds, an
exhaustive finite model checker for the underlying fixed-point claim, and a
fractional-order boundary-value solver built on the same engine.

Exports resolve on first access (PEP 562): ``relfix.solve_fde`` imports
``relfix.fractional`` then, not ``import relfix``. Only the grid and
solver modules load numpy, so the pure-Python checks and the oracle run
without it.
"""

import importlib

__version__ = "0.1.0"

# the public names of each engine module, declared here and nowhere else:
# each engine sets ``__all__ = list(_EXPORTS[<module>])``, and this table lets
# ``import relfix`` resolve a name without importing any engine
_EXPORTS: dict[str, tuple[str, ...]] = {
    "relations": (
        "FiniteRelation",
        "universal_view",
        "symmetric_closure",
        "is_connected",
        "seed_set",
        "is_preserving_sequence",
    ),
    "gspace": (
        "PropertyReport",
        "ContractionEstimate",
        "verify_g_properties",
        "relation_pattern_report",
        "estimate_contraction_factor",
        "related_pairs",
    ),
    "picard": (
        "StoppingPolicy",
        "IterationTrace",
        "iterate",
        "a_priori_bound",
        "trace_to_csv",
    ),
    "gridfn": (
        "GridFunction",
        "sup_diff",
        "pointwise_leq",
        "interpolate",
        "grid_to_csv",
    ),
    "fractional": (
        "gamma",
        "QuadratureWeights",
        "quadrature_weights",
        "frac_integral",
        "FdeProblem",
        "LipschitzReport",
        "ConvergenceFailure",
        "apply_T",
        "lipschitz_check",
        "lipschitz_bound",
        "solve_fde",
        "boundary_residuals",
        "demo_rhs",
        "demo_problem",
    ),
    "finite_oracle": (
        "ALPHA_GRID",
        "REJECTION_KEYS",
        "Pair",
        "FiniteInstance",
        "SweepSpec",
        "SweepResult",
        "enumerate_instances",
        "fixed_points",
        "contraction_alpha",
        "hypotheses_hold",
        "conclusion_holds",
        "image_symmetric_connected",
        "run_oracle",
        "default_sweep",
    ),
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name: str):
    # only a name listed above may import a module; anything else (such as
    # the submodule probe of ``from . import demos``) fails without imports
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
