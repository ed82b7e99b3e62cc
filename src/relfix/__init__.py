"""relfix: relation-constrained fixed-point iteration toolkit.

Mechanical hypothesis checks for contraction arguments that only hold on a
binary relation, Picard iteration with certified geometric error bounds, an
exhaustive finite model checker for the underlying fixed-point claim, and a
fractional-order boundary-value solver built on the same engine.
"""

from . import finite_oracle, fractional, gridfn, gspace, picard, relations
from .relations import *  # noqa: F401,F403
from .gspace import *  # noqa: F401,F403
from .picard import *  # noqa: F401,F403
from .gridfn import *  # noqa: F401,F403
from .fractional import *  # noqa: F401,F403
from .finite_oracle import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (relations, gspace, picard, gridfn, fractional, finite_oracle)
    for name in module.__all__
]
